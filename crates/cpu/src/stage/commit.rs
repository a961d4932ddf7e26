//! Commit: in-order retirement from the commit head, CPI-stack slot
//! accounting, and p-thread retirement.

use crate::ctx::{MAIN_CTX, PTHREAD_CTX};
use crate::pipeline::{EState, Pipeline};
use crate::spear::SpearFrontEnd;
use crate::stats::StallCause;

/// Retire up to `commit_width` main-context instructions, charge every
/// unused commit slot to exactly one stall cause, then free completed
/// p-thread entries (their "retire" consumes no commit bandwidth: they
/// write no architectural state).
pub fn run(pipe: &mut Pipeline, fe: &mut SpearFrontEnd) {
    let width = pipe.cfg.commit_width;
    let mut budget = width;
    let mut halted_now = false;
    while budget > 0 {
        let Some(&id) = pipe.main_ctx().order.front() else {
            break;
        };
        if pipe.ruu.get(id).expect("order holds live entries").state != EState::Done {
            break;
        }
        let e = pipe.ruu.remove(id).expect("front entry exists");
        pipe.ctxs[MAIN_CTX.0].order.pop_front();
        debug_assert_eq!(e.seq, id.seq);
        debug_assert!(!e.wrong_path, "wrong-path entry reached commit");
        if let Some((r, v)) = e.dst_val {
            pipe.commit_regs.write_u64(r, v);
        }
        pipe.stats.committed += 1;
        pipe.last_commit_cycle = pipe.cycle;
        if e.inst.op.is_load() {
            pipe.stats.committed_loads += 1;
        }
        if e.inst.op.is_store() {
            pipe.stats.committed_stores += 1;
        }
        if e.inst.op.is_ctrl() {
            pipe.stats.committed_branches += 1;
        }
        budget -= 1;
        pipe.retire(&e, false);
        if e.is_halt {
            pipe.halted = true;
            halted_now = true;
            break;
        }
    }
    // CPI-stack slot accounting: every cycle has `width` commit
    // slots; the unused ones are charged to exactly one cause, so
    // `useful_slots + lost == cycles * width` holds strictly.
    let used = (width - budget) as u64;
    pipe.stats.cycle_account.useful_slots += used;
    let lost = budget as u64;
    if lost > 0 {
        let cause = if halted_now {
            // The program is over; the rest of the final cycle's
            // slots have nothing left to commit.
            StallCause::FrontendOther
        } else {
            classify_commit_stall(pipe)
        };
        pipe.stats.cycle_account.charge(cause, lost);
    }
    if halted_now {
        return;
    }
    // P-thread retirement.
    while let Some(&id) = pipe.ctxs[PTHREAD_CTX.0].order.front() {
        if pipe.ruu.get(id).expect("order holds live entries").state != EState::Done {
            break;
        }
        let e = pipe.ruu.remove(id).expect("front entry exists");
        pipe.ctxs[PTHREAD_CTX.0].order.pop_front();
        pipe.retire(&e, false);
        fe.on_ctx_retired(pipe, &e);
    }
}

/// Attribute this cycle's lost commit slots to one cause, judged from
/// the commit head (or the front-end state when the window is empty).
/// The head is never `Waiting`: its producers are older, hence
/// already completed.
fn classify_commit_stall(pipe: &Pipeline) -> StallCause {
    if let Some(&head) = pipe.main_ctx().order.front() {
        let e = pipe.ruu.get(head).expect("order holds live entries");
        if pipe.recovery.pending.is_some_and(|r| r.branch_seq == head) {
            // Commit is blocked on the unresolved mispredicted
            // branch itself.
            return StallCause::BranchRecovery;
        }
        match e.state {
            EState::Executing => {
                if e.mem_missed {
                    StallCause::DloadMiss
                } else {
                    StallCause::FuBusy
                }
            }
            EState::Ready => {
                // Dispatched after the most recent issue phase: the
                // head never had an issue opportunity — pipeline
                // refill, not contention.
                if e.dispatch_cycle + 1 >= pipe.cycle {
                    StallCause::FrontendOther
                } else if e.inst.op.is_mem() {
                    if pipe.issue_latch.spec_issued_mem {
                        StallCause::PthreadContention
                    } else {
                        StallCause::MemPortContention
                    }
                } else if pipe.issue_latch.spec_issued_any {
                    StallCause::PthreadContention
                } else {
                    StallCause::FuBusy
                }
            }
            // Waiting/Done heads are unreachable here (producers are
            // older; Done would have committed) — keep the stack
            // total correct regardless.
            EState::Waiting | EState::Done => StallCause::FrontendOther,
        }
    } else if pipe.post_flush_refill {
        StallCause::IfqEmptyAfterFlush
    } else if pipe.cycle <= pipe.fetch.ready_at {
        StallCause::IcacheStall
    } else {
        StallCause::FrontendOther
    }
}

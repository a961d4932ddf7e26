//! Issue: ready-entry selection and functional-unit / cache access.

use crate::ctx::PTHREAD_CTX;
use crate::pipeline::{EState, Pipeline};
use crate::ruu::SeqId;
use crate::stage::IssueLatch;
use spear_isa::{FuClass, Opcode};
use spear_mem::AccessKind;

/// Select ready entries for execution, up to `issue_width` per cycle.
///
/// Scheduling priority (§3.3, "the instructions from the p-thread are
/// selected for execution first") applies to the p-thread's *memory
/// operations* — the prefetches that are the point of pre-execution —
/// capped at its share of the issue width. Its compute operations fill
/// whatever functional-unit slots the main context leaves idle, so a
/// compute-heavy slice cannot starve the main thread on a scarce unit
/// (see DESIGN.md). Both contexts are scanned in sequence order.
pub fn run(pipe: &mut Pipeline) {
    pipe.issue_latch = IssueLatch::default();
    let mut budget = pipe.cfg.issue_width;
    let pth_cap = pipe
        .cfg
        .spear
        .and_then(|sp| sp.pthread_issue_cap)
        .unwrap_or(usize::MAX)
        .min(budget);
    let full_priority = pipe.cfg.spear.is_some_and(|sp| sp.full_priority);
    let mut spec_used = 0;
    let spec: Vec<SeqId> = pipe.ctxs[PTHREAD_CTX.0].ready.iter().copied().collect();
    for &seq in &spec {
        if spec_used >= pth_cap {
            break;
        }
        let is_mem = pipe
            .ruu
            .get(seq)
            .expect("ready entry exists")
            .inst
            .op
            .is_mem();
        if !full_priority && !is_mem {
            continue;
        }
        if try_issue(pipe, seq) {
            spec_used += 1;
            budget -= 1;
            pipe.issue_latch.spec_issued_any = true;
            if is_mem {
                pipe.issue_latch.spec_issued_mem = true;
            }
        }
    }
    let main: Vec<SeqId> = pipe.main_ctx().ready.iter().copied().collect();
    for seq in main {
        if budget == 0 {
            break;
        }
        if try_issue(pipe, seq) {
            budget -= 1;
        }
    }
    for &seq in &spec {
        if budget == 0 || spec_used >= pth_cap {
            break;
        }
        if pipe
            .ruu
            .get(seq)
            .is_none_or(|e| e.inst.op.is_mem() || e.state != EState::Ready)
        {
            continue;
        }
        if try_issue(pipe, seq) {
            spec_used += 1;
            budget -= 1;
            pipe.issue_latch.spec_issued_any = true;
        }
    }
}

/// Try to issue one ready entry: acquire its functional unit and, for
/// memory ops, access the data-cache hierarchy. Returns false if the
/// unit is busy (the entry stays ready).
fn try_issue(pipe: &mut Pipeline, seq: SeqId) -> bool {
    let now = pipe.cycle;
    let e = pipe.ruu.get(seq).expect("ready entry exists");
    let ctx = e.ctx;
    let class = e.inst.op.fu_class();
    let is_sqrt = e.inst.op == Opcode::Fsqrt;
    let is_mem = e.inst.op.is_mem();
    let (eff_addr, pc, wrong_path, is_store) =
        (e.eff_addr, e.pc, e.wrong_path, e.inst.op.is_store());
    let dload_owner = e.dload_owner;

    // Latency: memory ops ask the hierarchy; the rest use class
    // latencies. Wrong-path memory ops are charged an L1 hit and do
    // not disturb the caches.
    let occupy: u64;
    let latency: u64;
    if is_mem {
        occupy = 1;
        latency = if wrong_path {
            pipe.hier.latency.l1_hit as u64
        } else if let Some(eff) = eff_addr {
            let kind = if is_store {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // The cache access happens at issue; peek the FU first so
            // a rejected issue does not touch the cache.
            if !pipe.pool_mut(ctx).acquire(class, now, 1) {
                return false;
            }
            let is_spec = !ctx.is_main();
            if is_spec {
                pipe.hier.set_prefetch_owner(dload_owner);
            }
            let l1_hit = pipe.hier.latency.l1_hit;
            let acc = pipe.hier.access_data(eff, kind, pc, is_spec, now);
            let e = pipe.ruu.get_mut(seq).expect("entry exists");
            e.state = EState::Executing;
            e.complete_at = now + acc.latency as u64;
            e.issue_cycle = now;
            pipe.exec_done
                .push(std::cmp::Reverse((now + acc.latency as u64, seq)));
            // Anything slower than an L1 hit (true miss or a delayed
            // hit merging into an in-flight fill) counts as an
            // outstanding-miss cause for the CPI stack.
            e.mem_missed = acc.latency > l1_hit;
            pipe.ctxs[ctx.0].ready.remove(&seq);
            return true;
        } else {
            // A memory op with no resolved address (never on the true
            // path): treat as an L1 hit.
            pipe.hier.latency.l1_hit as u64
        };
    } else {
        latency = pipe.cfg.lat.for_class(class, is_sqrt) as u64;
        occupy = match class {
            FuClass::IntDiv | FuClass::FpDiv => latency,
            _ => 1,
        };
    }

    if !pipe.pool_mut(ctx).acquire(class, now, occupy) {
        return false;
    }
    let e = pipe.ruu.get_mut(seq).expect("entry exists");
    e.state = EState::Executing;
    e.complete_at = now + latency.max(1);
    e.issue_cycle = now;
    pipe.exec_done
        .push(std::cmp::Reverse((now + latency.max(1), seq)));
    pipe.ctxs[ctx.0].ready.remove(&seq);
    true
}

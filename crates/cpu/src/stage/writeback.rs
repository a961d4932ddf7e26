//! Writeback: completion, dependent wakeup, and branch-misprediction
//! recovery.

use crate::ctx::MAIN_CTX;
use crate::frontend::FrontEndExt;
use crate::pipeline::{EState, Pipeline};
use crate::probe::Event;
use crate::ruu::SeqId;

/// Complete executing entries whose latency has elapsed, wake their
/// consumers (in sequence order, for determinism), release completed
/// stores from the disambiguation queues, and fire the pending branch
/// recovery once its branch has resolved.
///
/// Completion is event-driven: issue schedules every executing entry on
/// the pipeline's `exec_done` calendar, so this stage pops the due
/// entries instead of scanning the whole RUU each cycle. Squashed
/// entries leave stale calendar ids; the slab's generation check (and
/// the state check, for a recycled live slot) drops them at pop time.
pub fn run(pipe: &mut Pipeline, fe: &mut dyn FrontEndExt) {
    let now = pipe.cycle;
    let mut completed: Vec<SeqId> = Vec::new();
    while let Some(&std::cmp::Reverse((t, id))) = pipe.exec_done.peek() {
        if t > now {
            break;
        }
        pipe.exec_done.pop();
        if let Some(e) = pipe.ruu.get_mut(id) {
            if e.state == EState::Executing {
                debug_assert!(e.complete_at <= now, "calendar time matches the entry");
                e.state = EState::Done;
                completed.push(id);
            }
        }
    }
    completed.sort_unstable();
    for id in completed {
        let consumers = pipe.ruu.take_consumers(id);
        for &c in &consumers {
            if let Some(ce) = pipe.ruu.get_mut(c) {
                ce.pending = ce.pending.saturating_sub(1);
                if ce.pending == 0 && ce.state == EState::Waiting {
                    ce.state = EState::Ready;
                    let ctx = ce.ctx;
                    pipe.ctxs[ctx.0].ready.insert(c);
                }
            }
        }
        pipe.ruu.put_consumers(id, consumers);
        // Completed stores no longer gate younger loads.
        for ctx in pipe.ctxs.iter_mut() {
            ctx.stores.retain(|&(s, _, _)| s != id);
        }
    }
    // Fire the (single) pending recovery if its branch has resolved.
    if let Some(rec) = pipe.recovery.pending {
        if pipe
            .ruu
            .get(rec.branch_seq)
            .is_some_and(|e| e.state == EState::Done)
        {
            recover(pipe, fe, rec.branch_seq, rec.target);
        }
    }
}

/// Squash main-context entries younger than the mispredicted branch,
/// flush the front end, and restart fetch at the true target.
/// Speculative contexts are independent hardware contexts: their
/// in-flight instructions only prefetch, so front-end recovery does not
/// touch them (the front-end extension decides what happens to an
/// active episode via its `on_flush` hook).
pub fn recover(pipe: &mut Pipeline, fe: &mut dyn FrontEndExt, branch_seq: SeqId, target: u32) {
    pipe.stats.recoveries += 1;
    let squash: Vec<SeqId> = pipe
        .ruu
        .iter()
        .filter(|(s, e)| *s > branch_seq && e.ctx == MAIN_CTX)
        .map(|(s, _)| s)
        .collect();
    for &s in &squash {
        if let Some(e) = pipe.ruu.remove(s) {
            pipe.retire(&e, true);
        }
    }
    pipe.stats.squashed += squash.len() as u64;
    let main = &mut pipe.ctxs[MAIN_CTX.0];
    // The squash set is exactly the main-context entries younger than
    // the branch, so the dispatch-order and bookkeeping queues keep the
    // `<= branch` prefix.
    main.order.retain(|s| *s <= branch_seq);
    main.ready.retain(|s| *s <= branch_seq);
    main.stores.retain(|&(s, _, _)| s <= branch_seq);
    for r in main.rename.iter_mut() {
        if r.is_some_and(|s| s > branch_seq) {
            *r = None;
        }
    }
    // Flush the front end and restart at the true target.
    pipe.ifq.flush();
    pipe.fetch.pc = target;
    pipe.fetch.ready_at = pipe.cycle + 1;
    pipe.fetch.halted = false;
    pipe.fetch.last_block = None;
    pipe.predictor.recover();
    pipe.wrongpath = false;
    pipe.recovery.pending = None;
    pipe.post_flush_refill = true;
    fe.on_flush(pipe);
    pipe.emit(|cycle| Event::Flush {
        cycle,
        redirect_pc: target,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::ctx::{CtxId, PTHREAD_CTX};
    use crate::frontend::BaselineFrontEnd;
    use crate::pipeline::RuuEntry;
    use spear_isa::reg::{R0, R1};
    use spear_isa::{DataImage, Inst, Opcode, Program};

    fn test_program() -> Program {
        Program {
            insts: vec![Inst::new(Opcode::Addi, R1, R0, R0, 1), Inst::halt()],
            data: DataImage::zeroed(64),
            ..Program::default()
        }
    }

    fn push_entry(pipe: &mut Pipeline, seq: u64, ctx: CtxId, state: EState) -> SeqId {
        let id = pipe.ruu.insert(RuuEntry {
            seq,
            ctx,
            pc: 0,
            inst: Inst::new(Opcode::Addi, R1, R0, R0, 1),
            state,
            pending: 0,
            complete_at: 0,
            eff_addr: None,
            wrong_path: false,
            is_halt: false,
            is_trigger_dload: false,
            dst_val: None,
            dispatch_cycle: 0,
            mem_missed: false,
            dload_owner: None,
            fetch_cycle: 0,
            issue_cycle: 0,
            episode: 0,
        });
        pipe.ctxs[ctx.0].order.push_back(id);
        if state == EState::Ready {
            pipe.ctxs[ctx.0].ready.insert(id);
        }
        id
    }

    fn seqs(order: &std::collections::VecDeque<SeqId>) -> Vec<u64> {
        order.iter().map(|s| s.seq).collect()
    }

    #[test]
    fn recover_squashes_only_younger_main_context_entries() {
        let program = test_program();
        let mut pipe = Pipeline::new(&program, CoreConfig::spear(128));
        let mut fe = BaselineFrontEnd;
        // Main context: an older entry (seq 1 = the branch), a younger
        // one (seq 4). Speculative context: younger entries (seq 3, 5)
        // that must survive the flush.
        let branch = push_entry(&mut pipe, 1, MAIN_CTX, EState::Done);
        let younger = push_entry(&mut pipe, 4, MAIN_CTX, EState::Ready);
        let spec3 = push_entry(&mut pipe, 3, PTHREAD_CTX, EState::Ready);
        let spec5 = push_entry(&mut pipe, 5, PTHREAD_CTX, EState::Waiting);
        pipe.ctxs[MAIN_CTX.0].rename[R1.index()] = Some(younger);
        pipe.ctxs[MAIN_CTX.0].stores.push((younger, 0x10, 8));
        pipe.ctxs[PTHREAD_CTX.0].stores.push((spec5, 0x20, 8));

        recover(&mut pipe, &mut fe, branch, 7);

        assert_eq!(pipe.stats.squashed, 1, "exactly the younger main entry");
        assert!(pipe.ruu.contains(branch), "the branch itself survives");
        assert!(!pipe.ruu.contains(younger), "younger main entry squashed");
        assert!(pipe.ruu.contains(spec3), "p-thread entries survive");
        assert!(pipe.ruu.contains(spec5), "p-thread entries survive");
        assert_eq!(seqs(&pipe.ctxs[MAIN_CTX.0].order), [1]);
        assert_eq!(seqs(&pipe.ctxs[PTHREAD_CTX.0].order), [3, 5]);
        assert!(pipe.ctxs[MAIN_CTX.0].ready.is_empty());
        assert!(pipe.ctxs[PTHREAD_CTX.0].ready.contains(&spec3));
        assert!(
            pipe.ctxs[MAIN_CTX.0].stores.is_empty(),
            "younger main store released"
        );
        assert_eq!(pipe.ctxs[PTHREAD_CTX.0].stores, [(spec5, 0x20, 8)]);
        assert_eq!(
            pipe.ctxs[MAIN_CTX.0].rename[R1.index()],
            None,
            "rename mappings younger than the branch are cleared"
        );
        assert_eq!(pipe.fetch.pc, 7, "fetch restarts at the true target");
        assert!(pipe.ifq.is_empty(), "the IFQ is flushed");
        assert!(pipe.post_flush_refill);
        assert_eq!(pipe.recovery.pending, None);
    }
}

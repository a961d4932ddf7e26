//! Decode/rename/dispatch for the main context.

use crate::core::SimError;
use crate::ctx::MAIN_CTX;
use crate::pipeline::{EState, Pipeline, RuuEntry};
use crate::ruu::SeqId;
use crate::spear::SpearFrontEnd;
use crate::stage::{DecodePort, Recovery};

/// Dispatch from the IFQ head into the main-context RUU, with whatever
/// decode bandwidth the SPEAR front end's extraction step left
/// (§3.2: extraction shares the decode bandwidth).
pub fn run(pipe: &mut Pipeline, fe: &mut SpearFrontEnd, port: DecodePort) -> Result<(), SimError> {
    let mut budget = pipe.cfg.decode_width.saturating_sub(port.pe_used);
    while budget > 0 {
        if pipe.main_ctx().order.len() >= pipe.cfg.ruu_size {
            // Auxiliary counter (not part of the slot-cause sum): the
            // window blocked dispatch while work was waiting.
            if !pipe.ifq.is_empty() {
                pipe.stats.cycle_account.ruu_full_cycles += 1;
            }
            break;
        }
        let Some(front) = pipe.ifq.front() else { break };
        let front_seq = front.seq;
        let front_marked = front.marked;
        let e = pipe.ifq.pop_front().expect("front exists");
        budget -= 1;
        fe.on_main_decode(pipe, front_seq, front_marked);
        dispatch_main(pipe, e)?;
    }
    Ok(())
}

/// Rename, functionally execute (true path only — execute-at-dispatch
/// oracle timing), and insert one instruction into the main-context RUU.
fn dispatch_main(pipe: &mut Pipeline, fetched: crate::ifq::IfqEntry) -> Result<(), SimError> {
    pipe.post_flush_refill = false;
    let seq = pipe.alloc_seq();
    let wrong_path = pipe.wrongpath || pipe.halt_dispatched;
    let mut eff_addr = None;
    let mut is_halt = false;
    let mut dst_val = None;
    let mut mispredict_target = None;

    if !wrong_path {
        // The committed-path oracle: semantics under `ProgramSource`,
        // recorded records under `TraceSource` (see `crate::source`).
        let outcome = pipe.source.step_main(
            &fetched.inst,
            fetched.pc,
            &mut pipe.ctxs[MAIN_CTX.0].regs,
            &mut pipe.mem,
        )?;
        eff_addr = outcome.eff_addr;
        if pipe.source.tracks_registers() {
            if let Some(d) = fetched.inst.dst() {
                dst_val = Some((d, pipe.ctxs[MAIN_CTX.0].regs.read_u64(d)));
            }
        }
        if fetched.inst.op.is_ctrl() {
            pipe.predictor.update(
                fetched.pc,
                &fetched.inst,
                outcome.taken.unwrap_or(true),
                outcome.next_pc,
                Some(fetched.pred),
            );
            if fetched.pred.next_pc != outcome.next_pc {
                pipe.wrongpath = true;
                mispredict_target = Some(outcome.next_pc);
            }
        }
        if outcome.halted {
            is_halt = true;
            pipe.halt_dispatched = true;
        }
    }

    let mut deps: Vec<SeqId> = Vec::new();
    for src in fetched.inst.live_srcs() {
        if let Some(p) = pipe.ctxs[MAIN_CTX.0].rename[src.index()] {
            if pipe.ruu.get(p).is_some_and(|pe| pe.state != EState::Done) {
                deps.push(p);
            }
        }
    }
    if fetched.inst.op.is_load() && !wrong_path {
        if let Some(addr) = eff_addr {
            let w = fetched.inst.op.mem_width() as u64;
            for &(sid, saddr, swidth) in &pipe.ctxs[MAIN_CTX.0].stores {
                if addr < saddr + swidth as u64 && saddr < addr + w {
                    deps.push(sid);
                }
            }
        }
    }
    deps.sort_unstable();
    deps.dedup();
    let pending = deps.len() as u32;
    let state = if pending == 0 {
        EState::Ready
    } else {
        EState::Waiting
    };
    let id = pipe.ruu.insert(RuuEntry {
        seq,
        ctx: MAIN_CTX,
        pc: fetched.pc,
        inst: fetched.inst,
        state,
        pending,
        complete_at: 0,
        eff_addr,
        wrong_path,
        is_halt,
        is_trigger_dload: false,
        dst_val,
        dispatch_cycle: pipe.cycle,
        mem_missed: false,
        dload_owner: None,
        fetch_cycle: fetched.fetch_cycle,
        issue_cycle: 0,
        episode: 0,
    });
    if let Some(t) = mispredict_target {
        pipe.recovery.pending = Some(Recovery {
            branch_seq: id,
            target: t,
        });
    }
    if let Some(d) = fetched.inst.dst() {
        pipe.ctxs[MAIN_CTX.0].rename[d.index()] = Some(id);
    }
    if fetched.inst.op.is_store() && !wrong_path {
        if let Some(addr) = eff_addr {
            pipe.ctxs[MAIN_CTX.0]
                .stores
                .push((id, addr, fetched.inst.op.mem_width()));
        }
    }
    for &d in &deps {
        pipe.ruu.add_consumer(d, id);
    }
    if state == EState::Ready {
        pipe.ctxs[MAIN_CTX.0].ready.insert(id);
    }
    pipe.ctxs[MAIN_CTX.0].order.push_back(id);
    Ok(())
}

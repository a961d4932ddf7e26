//! Fetch: I-cache access, branch prediction, pre-decode, IFQ fill.

use crate::ifq::IfqEntry;
use crate::pipeline::Pipeline;
use crate::spear::SpearFrontEnd;
use spear_isa::{Opcode, Program};

/// Fetch up to `fetch_width` instructions into the IFQ, tagging each
/// with the SPEAR front end's pre-decode bits (p-thread indicator,
/// d-load detection — §3.1) and giving the front end its trigger
/// opportunity on every fetched d-load.
pub fn run(pipe: &mut Pipeline, fe: &mut SpearFrontEnd) {
    if pipe.fetch.halted || pipe.cycle < pipe.fetch.ready_at {
        return;
    }
    let block_bytes = pipe.hier.l1i.geometry().block_bytes as u64;
    for _ in 0..pipe.cfg.fetch_width {
        if pipe.ifq.is_full() {
            break;
        }
        let pc = pipe.fetch.pc;
        let Some(inst) = pipe.source.fetch_inst(pc) else {
            // Runaway (wrong-path) PC: nothing to fetch until redirect.
            break;
        };
        // Instruction cache: charged once per block transition.
        let addr = Program::inst_addr(pc);
        let block = addr / block_bytes;
        if pipe.fetch.last_block != Some(block) {
            let acc = pipe.hier.access_inst(addr);
            pipe.fetch.last_block = Some(block);
            if acc.latency > pipe.hier.latency.l1_hit {
                // Miss: stall fetch; the line is filled, so the retry
                // hits.
                pipe.fetch.ready_at = pipe.cycle + acc.latency as u64;
                break;
            }
        }
        let pred = pipe.predictor.predict(pc, &inst);
        let seq = pipe.alloc_seq();
        pipe.stats.fetched += 1;
        let pd = fe.pre_decode(pc);
        pipe.ifq.push(IfqEntry {
            seq,
            pc,
            inst,
            pred,
            marked: pd.marked,
            is_dload: pd.dload,
            fetch_cycle: pipe.cycle,
        });
        if pd.dload {
            fe.on_dload_fetched(pipe, seq, pc);
        }
        if inst.op == Opcode::Halt {
            pipe.fetch.halted = true;
            break;
        }
        pipe.fetch.pc = pred.next_pc;
        // A predicted-taken transfer ends the fetch cycle.
        if pred.next_pc != pc + 1 {
            break;
        }
    }
}

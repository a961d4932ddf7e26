//! A per-cycle view of the SPEAR front end in action: steps the simulator
//! cycle by cycle over a small gather kernel and renders the IFQ depth,
//! both RUU occupancies, the trigger state machine, and the committed
//! instruction count — watch an episode trigger, drain, copy live-ins,
//! extract, and retire.
//!
//! Run with: `cargo run --release --example pipeline_view [cycles]`

use spear_cpu::{Core, CoreConfig};
use spear_isa::asm::Asm;
use spear_isa::reg::*;
use spear_repro::compiler::{CompilerConfig, SpearCompiler};

fn gather() -> spear_isa::Program {
    let mut a = Asm::new();
    let idx: Vec<u64> = (0..4000u64).map(|i| (i * 7919) % 4096).collect();
    let ib = a.alloc_u64("idx", &idx);
    let xb = a.reserve("x", 4096 * 4096);
    a.li(R1, ib as i64);
    a.li(R2, xb as i64);
    a.li(R3, 4000);
    a.label("loop");
    a.ld(R5, R1, 0);
    a.slli(R6, R5, 12);
    a.add(R6, R2, R6);
    a.ld(R7, R6, 0); // the d-load
    a.add(R4, R4, R7);
    a.addi(R1, R1, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "loop");
    a.halt();
    a.finish().unwrap()
}

fn main() {
    let cycles: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let program = gather();
    let (binary, _) = SpearCompiler::new(CompilerConfig::default())
        .compile(&program)
        .expect("compile");
    let mut core = Core::new(&binary, CoreConfig::spear(128));
    core.probe_mut().enable_ring(64);

    println!(
        "{:>7} {:>5} {:>5} {:>5} {:>12} {:>10}  (bar = IFQ occupancy)",
        "cycle", "IFQ", "RUU", "pRUU", "mode", "committed"
    );
    let mut last_mode = String::new();
    for _ in 0..cycles {
        if core.halted() {
            break;
        }
        core.step_cycle().expect("step");
        let mode = core.mode_name();
        // Print on mode changes and every 16 cycles.
        if mode != last_mode || core.cycle().is_multiple_of(16) {
            let bar = "#".repeat(core.ifq_len() / 4);
            println!(
                "{:>7} {:>5} {:>5} {:>5} {:>12} {:>10}  {}",
                core.cycle(),
                core.ifq_len(),
                core.ruu_len(),
                core.pthread_ruu_len(),
                mode,
                core.stats().committed,
                bar
            );
            last_mode = mode;
        }
    }
    println!("\nepisode event trace:");
    if let Some(ring) = core.probe().and_then(|p| p.ring.as_ref()) {
        for e in ring.events() {
            println!("  {e}");
        }
    }
}

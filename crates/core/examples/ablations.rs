//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! The paper fixes several knobs "empirically": the trigger-occupancy
//! fraction (half the IFQ), the PE bandwidth (half the issue width), the
//! prefetch-range d-cycle criterion (120), and leaves the slice length
//! uncapped. This harness sweeps each, plus the two episode-lifecycle
//! extensions this reproduction adds (off by default), and the cache
//! replacement policy.
//!
//! A representative four-benchmark subset keeps the sweep fast: mcf (the
//! big winner), matrix (the long-IFQ winner), fft (the big-slice loser),
//! and nbh (a computed-address gather).
//!
//! Run with `cargo run --release -p spear --example ablations`.

use spear::runner::{compile_workload, compile_workload_with, run_custom, run_one};
use spear::Machine;
use spear_compiler::CompilerConfig;
use spear_mem::ReplPolicy;
use spear_workloads::{by_name, Workload};

const SUBSET: [&str; 4] = ["mcf", "matrix", "fft", "nbh"];

fn subset() -> Vec<Workload> {
    SUBSET
        .iter()
        .map(|n| by_name(n).expect("workload"))
        .collect()
}

fn header(title: &str) {
    println!("\n---- {title} ----");
}

fn speedup_row(label: &str, values: &[(String, f64)]) {
    print!("  {label:<28}");
    for (name, v) in values {
        print!(" {name}={v:+6.1}%");
    }
    println!();
}

fn main() {
    let ws = subset();
    // Baselines and default tables, once.
    let tables: Vec<_> = ws.iter().map(compile_workload).collect();
    let base_ipc: Vec<f64> = ws
        .iter()
        .zip(&tables)
        .map(|(w, (t, _))| run_one(w, t, Machine::Baseline, None).ipc())
        .collect();

    let speedups = |cfgs: &[spear_cpu::CoreConfig]| -> Vec<(String, f64)> {
        ws.iter()
            .zip(&tables)
            .zip(&base_ipc)
            .zip(cfgs)
            .map(|(((w, (t, _)), &b), cfg)| {
                let ipc = run_custom(w, t, cfg.clone(), Machine::Spear128).ipc();
                (w.name.to_string(), (ipc / b - 1.0) * 100.0)
            })
            .collect()
    };
    let uniform = |cfg: spear_cpu::CoreConfig| vec![cfg; ws.len()];

    println!("================================================================");
    println!("Ablations (SPEAR-128 speedup over baseline, percent)");
    println!("================================================================");

    header("trigger occupancy fraction (paper: 0.5)");
    for frac in [0.25, 0.5, 0.75] {
        let mut cfg = Machine::Spear128.config(None);
        cfg.spear.as_mut().unwrap().trigger_fraction = frac;
        speedup_row(&format!("fraction = {frac}"), &speedups(&uniform(cfg)));
    }

    header("PE extraction bandwidth (paper: 4 = issue/2)");
    for bw in [2usize, 4, 8] {
        let mut cfg = Machine::Spear128.config(None);
        cfg.spear.as_mut().unwrap().pe_bandwidth = bw;
        speedup_row(&format!("bandwidth = {bw}"), &speedups(&uniform(cfg)));
    }

    header("p-thread RUU size (default: 64)");
    for size in [16usize, 64, 128] {
        let mut cfg = Machine::Spear128.config(None);
        cfg.spear.as_mut().unwrap().pthread_ruu_size = size;
        speedup_row(&format!("ruu = {size}"), &speedups(&uniform(cfg)));
    }

    header("episode-lifecycle extensions (default: both off)");
    for (rearm, retarget) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut cfg = Machine::Spear128.config(None);
        let sp = cfg.spear.as_mut().unwrap();
        sp.rearm_after_flush = rearm;
        sp.retarget_missed = retarget;
        speedup_row(
            &format!("rearm={} retarget={}", rearm as u8, retarget as u8),
            &speedups(&uniform(cfg)),
        );
    }

    header("prefetch-range d-cycle criterion (paper: 120)");
    for limit in [30.0, 120.0, 480.0] {
        let mut ccfg = CompilerConfig::default();
        ccfg.slicer.dcycle_limit = limit;
        let rows: Vec<(String, f64)> = ws
            .iter()
            .zip(&base_ipc)
            .map(|(w, &b)| {
                let (t, _) = compile_workload_with(w, &ccfg);
                let ipc = run_one(w, &t, Machine::Spear128, None).ipc();
                (w.name.to_string(), (ipc / b - 1.0) * 100.0)
            })
            .collect();
        speedup_row(&format!("d-cycle limit = {limit}"), &rows);
    }

    header("slice cap (paper: uncapped)");
    for cap in [Some(8usize), Some(32), None] {
        let mut ccfg = CompilerConfig::default();
        ccfg.slicer.slice_cap = cap;
        let rows: Vec<(String, f64)> = ws
            .iter()
            .zip(&base_ipc)
            .map(|(w, &b)| {
                let (t, _) = compile_workload_with(w, &ccfg);
                let ipc = run_one(w, &t, Machine::Spear128, None).ipc();
                (w.name.to_string(), (ipc / b - 1.0) * 100.0)
            })
            .collect();
        speedup_row(&format!("cap = {cap:?}"), &rows);
    }

    header("MSHR count (default: unlimited) — baseline IPC shift");
    for mshrs in [Some(2usize), Some(8), None] {
        let rows: Vec<(String, f64)> = ws
            .iter()
            .zip(&tables)
            .zip(&base_ipc)
            .map(|((w, (t, _)), &b)| {
                let mut cfg = Machine::Baseline.config(None);
                cfg.hier.mshrs = mshrs;
                let ipc = run_custom(w, t, cfg, Machine::Baseline).ipc();
                (w.name.to_string(), (ipc / b - 1.0) * 100.0)
            })
            .collect();
        speedup_row(&format!("mshrs = {mshrs:?}"), &rows);
    }

    header("branch predictor (paper: bimodal) — baseline IPC shift");
    for kind in [
        spear_bpred::PredictorKind::Bimodal,
        spear_bpred::PredictorKind::Gshare,
    ] {
        let rows: Vec<(String, f64)> = ws
            .iter()
            .zip(&tables)
            .zip(&base_ipc)
            .map(|((w, (t, _)), &b)| {
                let mut cfg = Machine::Baseline.config(None);
                cfg.bpred.kind = kind;
                let ipc = run_custom(w, t, cfg, Machine::Baseline).ipc();
                (w.name.to_string(), (ipc / b - 1.0) * 100.0)
            })
            .collect();
        speedup_row(&format!("{kind:?}"), &rows);
    }

    header("scheduling policy (default: memory-priority) — SPEAR-128 speedup");
    for full in [false, true] {
        let mut cfg = Machine::Spear128.config(None);
        cfg.spear.as_mut().unwrap().full_priority = full;
        speedup_row(
            if full {
                "full priority (paper-literal)"
            } else {
                "memory priority (default)"
            },
            &speedups(&uniform(cfg)),
        );
    }

    header("L1/L2 replacement policy (paper: LRU) — baseline IPC shift");
    for policy in [ReplPolicy::Lru, ReplPolicy::Fifo, ReplPolicy::Random] {
        let rows: Vec<(String, f64)> = ws
            .iter()
            .zip(&tables)
            .zip(&base_ipc)
            .map(|((w, (t, _)), &b)| {
                let mut cfg = Machine::Baseline.config(None);
                cfg.hier.policy = policy;
                let ipc = run_custom(w, t, cfg, Machine::Baseline).ipc();
                (w.name.to_string(), (ipc / b - 1.0) * 100.0)
            })
            .collect();
        speedup_row(&format!("{policy:?}"), &rows);
    }
}

//! Single runs: compile a workload with the SPEAR post-compiler and
//! simulate it whole on one machine configuration. The paper's figures
//! run as campaigns (see `crate::experiments`); these runs are the
//! reference the figure equivalence test compares them against, and
//! serve the examples that vary what no campaign axis covers, such as
//! the compiler configuration.

use crate::machines::Machine;
use spear_compiler::{CompileReport, CompilerConfig, SpearCompiler};
use spear_cpu::{Core, CoreStats, RunExit};
use spear_isa::pthread::PThreadTable;
use spear_isa::SpearBinary;
use spear_mem::LatencyConfig;
use spear_workloads::Workload;

/// Hard ceilings so a misconfigured run cannot hang the harness.
const MAX_CYCLES: u64 = 200_000_000;
const MAX_INSTS: u64 = u64::MAX;

/// One (workload, machine) simulation result.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Workload abbreviation.
    pub workload: String,
    /// Machine simulated.
    pub machine: Machine,
    /// Latency configuration used (None = Table 2 default).
    pub latency: Option<LatencyConfig>,
    /// Full simulator statistics.
    pub stats: CoreStats,
}

impl RunOutcome {
    /// Main-thread IPC (the paper's metric).
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Compile a workload with the SPEAR post-compiler: profile on the
/// profiling input, return the p-thread table (to be attached to the
/// evaluation-input image) and the compile report.
pub fn compile_workload(w: &Workload) -> (PThreadTable, CompileReport) {
    compile_workload_with(w, &CompilerConfig::default())
}

/// [`compile_workload`] with explicit compiler configuration (ablations).
pub fn compile_workload_with(w: &Workload, cfg: &CompilerConfig) -> (PThreadTable, CompileReport) {
    let profile_program = w.profile_program();
    let (binary, report) = SpearCompiler::new(cfg.clone())
        .compile(&profile_program)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
    (binary.table, report)
}

/// Simulate one workload on one machine. `table` is the compiled p-thread
/// table (ignored for the baseline); `latency` optionally overrides the
/// Table 2 latencies (Figure 9).
pub fn run_one(
    w: &Workload,
    table: &PThreadTable,
    machine: Machine,
    latency: Option<LatencyConfig>,
) -> RunOutcome {
    RunOutcome {
        latency,
        ..run_custom(w, table, machine.config(latency), machine)
    }
}

/// Simulate one workload under an arbitrary configuration (ablations).
/// The p-thread table is attached only when `cfg` has a SPEAR unit. The
/// `machine` field of the outcome records the nearest standard model.
pub fn run_custom(
    w: &Workload,
    table: &PThreadTable,
    cfg: spear_cpu::CoreConfig,
    machine: Machine,
) -> RunOutcome {
    let program = w.eval_program();
    let binary = if cfg.spear.is_some() {
        SpearCompiler::attach(program, table.clone())
    } else {
        SpearBinary::plain(program)
    };
    let mut core = Core::new(&binary, cfg);
    let res = core
        .run(MAX_CYCLES, MAX_INSTS)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, machine));
    assert_eq!(
        res.exit,
        RunExit::Halted,
        "{} on {} did not halt within the cycle budget",
        w.name,
        machine
    );
    RunOutcome {
        workload: w.name.to_string(),
        machine,
        latency: None,
        stats: res.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_workloads::by_name;

    #[test]
    fn spear_machines_are_exactly_the_configs_with_a_spear_unit() {
        // `run_one` delegates to `run_custom`, which attaches the table
        // by config rather than by machine; the two must agree.
        for m in Machine::ALL {
            assert_eq!(m.is_spear(), m.config(None).spear.is_some(), "{m}");
        }
    }

    #[test]
    fn compile_and_run_field_fast() {
        // `field` is the cheapest workload; smoke-test the whole path.
        let w = by_name("field").unwrap();
        let (table, report) = compile_workload(&w);
        // Field has almost no misses — typically no p-threads at all.
        assert!(report.profiled_insts > 0);
        let base = run_one(&w, &table, Machine::Baseline, None);
        assert!(base.ipc() > 0.5, "field is cache-resident: {}", base.ipc());
        let spear = run_one(&w, &table, Machine::Spear128, None);
        let ratio = spear.ipc() / base.ipc();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "field should be roughly flat under SPEAR: {ratio:.3}"
        );
    }
}

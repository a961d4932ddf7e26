//! The architectural-equivalence oracle.
//!
//! One fuzz case is judged by running its rendered program through the
//! reference interpreter (the golden model) and through the cycle-level
//! core under a configuration matrix — baseline vs SPEAR front end, 2 vs
//! 4 hardware contexts, bimodal vs TAGE branch prediction, the three
//! Figure-6 machine models, and sampled vs
//! full simulation — and demanding byte-identical architectural results
//! everywhere: committed register file, final memory image, and retired
//! instruction count. Each cycle-level run additionally has to satisfy
//! the structural invariants (exact CPI-stack slot accounting, the
//! timely/late/useless prefetch partition, cache tag-store
//! well-formedness), and one configuration restores a mid-run
//! checkpoint into a fresh core and continues to `halt`. Finally, every generated
//! program is recorded into the `.spt` trace format and replayed
//! trace-driven on the baseline machine, which must reproduce both the
//! golden memory image and the program-driven run's exact statistics.
//!
//! Cache *inclusion* is deliberately a diagnostic, not an assertion: the
//! model is non-inclusive by construction (L2 only sees L1-miss traffic,
//! so lines hot in L1 age out of L2 without back-invalidation). The
//! oracle reports the violation count so a future inclusive-hierarchy
//! change can promote it.

use crate::gen::ProgramSpec;
use spear_campaign::{
    capture_checkpoints_at, capture_interval_checkpoints, simpoint_plan, Checkpoint, Warmer,
};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, CoreConfig, CoreStats, RunExit, TraceSource};
use spear_exec::{Interp, Memory, RegFile};
use spear_isa::{Program, SpearBinary};

/// Instruction budget for the golden interpreter (generated programs are
/// a few thousand dynamic instructions; anything near this bound is a
/// generator bug).
const GOLDEN_BUDGET: u64 = 20_000_000;
/// Cycle budget per cycle-level run.
const CYCLE_BUDGET: u64 = 50_000_000;

/// One oracle violation: which configuration diverged, what property
/// broke, and the details needed to triage it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Configuration label, e.g. `SPEAR-128/ctx2` or
    /// `SPEAR-128/ctx2/checkpoint-roundtrip`.
    pub config: String,
    /// Property class: `exit`, `committed`, `registers`, `memory`,
    /// `checksum`, `invariants`, `cache-structure`, `checkpoint`,
    /// `sampled`, `sim-error`, `compile`.
    pub kind: String,
    /// Human-readable specifics (expected vs got).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.config, self.kind, self.detail)
    }
}

/// What a passing oracle run observed (for summaries).
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Golden dynamic instruction count.
    pub golden_icount: u64,
    /// Cycle-level configurations that ran and matched.
    pub configs_checked: usize,
    /// Pre-execution episodes completed across all SPEAR runs (a health
    /// signal: the generator should keep producing programs that actually
    /// exercise the SPEAR machinery).
    pub episodes_completed: u64,
    /// Total L1-valid-but-absent-from-L2 lines observed at halt across
    /// runs (diagnostic only; the hierarchy is non-inclusive by design).
    pub inclusion_violations: u64,
}

/// The golden model's final architectural state.
struct Golden {
    icount: u64,
    regs: RegFile,
    mem: Memory,
    checksum: u64,
}

fn golden(p: &Program) -> Golden {
    let mut i = Interp::new(p);
    i.run(GOLDEN_BUDGET).expect("golden execution");
    assert!(i.halted, "generated program must halt within budget");
    Golden {
        icount: i.icount,
        regs: i.regs.clone(),
        mem: i.mem.clone(),
        checksum: i.state_checksum(),
    }
}

/// The cycle-level configuration matrix: the three Figure-6 machines,
/// each with 2 and with 4 hardware contexts, plus a TAGE-predicted
/// variant per machine. The predictor axis must be architecturally
/// invisible — a mispredicting (or better-predicting) front end changes
/// cycles, never committed state.
fn matrix() -> Vec<(String, CoreConfig)> {
    let mut out = Vec::new();
    for cfg in [
        CoreConfig::baseline(),
        CoreConfig::spear(128),
        CoreConfig::spear(256),
    ] {
        for ctxs in [2usize, 4] {
            let mut c = cfg.clone();
            c.num_contexts = ctxs;
            out.push((format!("{}/ctx{}", c.model_name(), ctxs), c));
        }
        let mut c = cfg.clone();
        c.bpred = c
            .bpred
            .with_spec("tage")
            .expect("default tage spec is valid");
        out.push((format!("{}/ctx2/tage", c.model_name()), c));
    }
    out
}

fn first_byte_diff(a: &[u8], b: &[u8]) -> String {
    if a.len() != b.len() {
        return format!("length {} vs {}", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!(
            "first diff at byte {:#x}: {:#04x} vs {:#04x}",
            i, a[i], b[i]
        ),
        None => "identical".to_string(),
    }
}

fn first_reg_diff(a: &RegFile, b: &RegFile) -> String {
    let (ab, bb) = (a.to_bits(), b.to_bits());
    match ab.iter().zip(bb.iter()).position(|(x, y)| x != y) {
        Some(i) => format!(
            "first diff at reg index {}: {:#x} vs {:#x}",
            i, ab[i], bb[i]
        ),
        None => "identical".to_string(),
    }
}

/// Check one core's final state against the golden model and its stats
/// against the structural invariants. Returns the episodes/inclusion
/// tallies for the report.
fn check_final_state(
    label: &str,
    core: &Core<'_>,
    stats: &CoreStats,
    exit: RunExit,
    g: &Golden,
    report: &mut OracleReport,
) -> Result<(), Failure> {
    let fail = |kind: &str, detail: String| Failure {
        config: label.to_string(),
        kind: kind.to_string(),
        detail,
    };
    if exit != RunExit::Halted {
        return Err(fail("exit", format!("expected Halted, got {exit:?}")));
    }
    if stats.committed != g.icount {
        return Err(fail(
            "committed",
            format!(
                "retired {} instructions, golden {}",
                stats.committed, g.icount
            ),
        ));
    }
    if core.commit_regs() != &g.regs {
        return Err(fail(
            "registers",
            first_reg_diff(core.commit_regs(), &g.regs),
        ));
    }
    if core.memory() != &g.mem {
        return Err(fail(
            "memory",
            first_byte_diff(core.memory().as_bytes(), g.mem.as_bytes()),
        ));
    }
    if core.state_checksum() != g.checksum {
        return Err(fail(
            "checksum",
            format!("{:#x} vs golden {:#x}", core.state_checksum(), g.checksum),
        ));
    }
    stats
        .check_invariants(8)
        .map_err(|e| fail("invariants", e))?;
    core.hierarchy()
        .check_structure()
        .map_err(|e| fail("cache-structure", e))?;
    report.configs_checked += 1;
    report.episodes_completed += stats.preexec_completed;
    report.inclusion_violations += core.hierarchy().inclusion_violations() as u64;
    Ok(())
}

/// Run the full oracle over one spec. `Ok` means every configuration
/// matched the golden model and satisfied every invariant.
pub fn check(spec: &ProgramSpec) -> Result<OracleReport, Failure> {
    let p = spec.render();
    let g = golden(&p);
    let mut report = OracleReport {
        golden_icount: g.icount,
        ..Default::default()
    };

    // One binary for the whole matrix: the compiled table rides along and
    // the baseline front end simply ignores it, so every configuration
    // retires the identical instruction stream. Aggressive slicer
    // thresholds give even small programs real p-threads.
    let mut ccfg = CompilerConfig::default();
    ccfg.slicer.dload_min_misses = 4;
    ccfg.slicer.dload_miss_fraction = 0.0;
    let binary: SpearBinary = match SpearCompiler::new(ccfg).compile(&p) {
        Ok((b, _)) => b,
        Err(e) => {
            return Err(Failure {
                config: "compiler".to_string(),
                kind: "compile".to_string(),
                detail: format!("{e:?}"),
            })
        }
    };

    for (label, cfg) in matrix() {
        let mut core = Core::new(&binary, cfg);
        let res = core.run(CYCLE_BUDGET, u64::MAX).map_err(|e| Failure {
            config: label.clone(),
            kind: "sim-error".to_string(),
            detail: e.to_string(),
        })?;
        check_final_state(&label, &core, &res.stats, res.exit, &g, &mut report)?;
    }

    check_checkpoint_roundtrip(&p, &binary, &g, &mut report)?;
    check_sampled_vs_full(&p, &binary, &g, &mut report)?;
    check_simpoint_vs_full(&p, &binary, &g, &mut report)?;
    check_trace_replay(&binary, &g, &mut report)?;
    Ok(report)
}

/// Record/replay oracle: every generated program is recorded into the
/// `.spt` trace format and replayed through a trace-driven baseline
/// core, which must reproduce the golden memory image and retired count
/// — and, because baseline timing never reads register *values*, the
/// exact statistics of the program-driven baseline run. Any codec bug,
/// cursor slip or wrong-path synthesis difference shows up here as a
/// stats or divergence failure.
fn check_trace_replay(
    binary: &SpearBinary,
    g: &Golden,
    report: &mut OracleReport,
) -> Result<(), Failure> {
    let label = "superscalar/trace-replay";
    let fail = |kind: &str, detail: String| Failure {
        config: label.to_string(),
        kind: kind.to_string(),
        detail,
    };
    let (bytes, rstats) =
        spear_trace::record(binary, GOLDEN_BUDGET).map_err(|e| fail("trace", e))?;
    if !rstats.halted {
        return Err(fail(
            "trace",
            "recording hit the instruction budget before halt".to_string(),
        ));
    }
    if rstats.insts != g.icount {
        return Err(fail(
            "trace",
            format!(
                "recorded {} instructions, golden {}",
                rstats.insts, g.icount
            ),
        ));
    }
    let tf = spear_trace::TraceFile::decode(&bytes).map_err(|e| fail("trace", e.to_string()))?;

    let cfg = CoreConfig::baseline();
    let mut reference = Core::new(binary, cfg.clone());
    let ref_res = reference.run(CYCLE_BUDGET, u64::MAX).map_err(|e| Failure {
        config: label.to_string(),
        kind: "sim-error".to_string(),
        detail: e.to_string(),
    })?;

    let mut core = Core::with_source(binary, cfg, Box::new(TraceSource::new(&tf)));
    let res = core.run(CYCLE_BUDGET, u64::MAX).map_err(|e| Failure {
        config: label.to_string(),
        kind: "sim-error".to_string(),
        detail: e.to_string(),
    })?;
    if res.exit != RunExit::Halted {
        return Err(fail("exit", format!("expected Halted, got {:?}", res.exit)));
    }
    if res.stats.committed != g.icount {
        return Err(fail(
            "committed",
            format!(
                "replay retired {}, golden {}",
                res.stats.committed, g.icount
            ),
        ));
    }
    // Replay applies recorded store data, so architectural memory must
    // land byte-identical to the golden model. (Register values are not
    // tracked under replay — that is the `tracks_registers` contract.)
    if core.memory() != &g.mem {
        return Err(fail(
            "memory",
            first_byte_diff(core.memory().as_bytes(), g.mem.as_bytes()),
        ));
    }
    if res.stats != ref_res.stats {
        return Err(fail(
            "trace",
            "trace-driven baseline statistics diverge from the program-driven run".to_string(),
        ));
    }
    res.stats
        .check_invariants(8)
        .map_err(|e| fail("invariants", e))?;
    report.configs_checked += 1;
    Ok(())
}

/// Mid-run checkpoint oracle, on the path campaign cells take: capture
/// at the halfway instruction with a functional pass + warmer, restore
/// into a fresh SPEAR core, continue, and require the back half to reach
/// the same final state as the golden model.
fn check_checkpoint_roundtrip(
    p: &Program,
    binary: &SpearBinary,
    g: &Golden,
    report: &mut OracleReport,
) -> Result<(), Failure> {
    let label = "SPEAR-128/ctx2/checkpoint-roundtrip";
    let fail = |kind: &str, detail: String| Failure {
        config: label.to_string(),
        kind: kind.to_string(),
        detail,
    };
    if g.icount < 4 {
        return Ok(()); // nothing mid-run to capture
    }
    let mid = g.icount / 2;
    let cfg = CoreConfig::spear(128);
    let mut interp = Interp::new(p);
    let mut warmer = Warmer::new(cfg.hier, cfg.bpred);
    while interp.icount < mid {
        let si = interp
            .step()
            .map_err(|e| fail("checkpoint", e.to_string()))?;
        warmer.observe(&si);
    }
    let cp = Checkpoint::capture("fuzz", &interp, &warmer);

    let mut core = Core::new(binary, cfg);
    cp.restore_into(&mut core)
        .map_err(|e| fail("checkpoint", e))?;
    let res = core
        .run(CYCLE_BUDGET, u64::MAX)
        .map_err(|e| fail("sim-error", e.to_string()))?;
    if res.exit != RunExit::Halted {
        return Err(fail("exit", format!("expected Halted, got {:?}", res.exit)));
    }
    if res.stats.committed != g.icount - mid {
        return Err(fail(
            "committed",
            format!(
                "restored run retired {}, expected {} ({} total - {} checkpointed)",
                res.stats.committed,
                g.icount - mid,
                g.icount,
                mid
            ),
        ));
    }
    if core.commit_regs() != &g.regs {
        return Err(fail(
            "registers",
            first_reg_diff(core.commit_regs(), &g.regs),
        ));
    }
    if core.memory() != &g.mem {
        return Err(fail(
            "memory",
            first_byte_diff(core.memory().as_bytes(), g.mem.as_bytes()),
        ));
    }
    res.stats
        .check_invariants(8)
        .map_err(|e| fail("invariants", e))?;
    report.configs_checked += 1;
    Ok(())
}

/// Sampled-vs-full oracle over the campaign machinery: simulate the
/// program as back-to-back checkpointed intervals (stride 1 — every
/// interval) and require the interval-committed counts to sum exactly to
/// the golden dynamic length, with the merged statistics still satisfying
/// the exact-slot invariant; then a stride-2 sampled pass where every
/// simulated interval must respect its own budget and invariants.
fn check_sampled_vs_full(
    p: &Program,
    binary: &SpearBinary,
    g: &Golden,
    report: &mut OracleReport,
) -> Result<(), Failure> {
    let cfg = CoreConfig::spear(128);
    let interval = (g.icount / 4).max(64);
    for stride in [1u64, 2] {
        let label = format!("SPEAR-128/ctx2/sampled-stride{stride}");
        let fail = |kind: &str, detail: String| Failure {
            config: label.clone(),
            kind: kind.to_string(),
            detail,
        };
        let set = capture_interval_checkpoints(
            p,
            "fuzz",
            cfg.hier,
            cfg.bpred,
            interval,
            stride,
            GOLDEN_BUDGET,
        )
        .map_err(|e| fail("sampled", e))?;
        if set.total_insts != g.icount {
            return Err(fail(
                "sampled",
                format!(
                    "functional pass counted {} instructions, golden {}",
                    set.total_insts, g.icount
                ),
            ));
        }
        let mut merged = CoreStats::default();
        let mut total_committed = 0u64;
        let overshoot = cfg.commit_width as u64 - 1;
        for cp in &set.checkpoints {
            let mut core = Core::new(binary, cfg.clone());
            cp.restore_into(&mut core)
                .map_err(|e| fail("checkpoint", e))?;
            // Windowed telemetry rides along on every interval: the
            // per-window partition must hold inside each interval and
            // survive the merge below (check_invariants covers both).
            core.probe_mut().enable_windows((interval / 4).max(16));
            let res = core
                .run(CYCLE_BUDGET, interval)
                .map_err(|e| fail("sim-error", e.to_string()))?;
            if res.exit == RunExit::CycleBudget {
                return Err(fail("exit", "interval hit the cycle budget".to_string()));
            }
            // An interval commits exactly its share of the instruction
            // stream: `remaining` when the program ends inside it (it
            // must halt), else the full budget — plus at most one
            // commit-cycle of overshoot (the budget is checked at cycle
            // boundaries and a cycle retires up to `commit_width`).
            let remaining = set.total_insts - cp.inst_index;
            let committed = res.stats.committed;
            let ok = if remaining <= interval {
                res.exit == RunExit::Halted && committed == remaining
            } else {
                (interval..=interval + overshoot).contains(&committed)
            };
            if !ok {
                return Err(fail(
                    "sampled",
                    format!(
                        "interval at {} retired {} (exit {:?}); budget {}, {} remaining",
                        cp.inst_index, committed, res.exit, interval, remaining
                    ),
                ));
            }
            res.stats
                .check_invariants(8)
                .map_err(|e| fail("invariants", e))?;
            let window_committed: u64 = res.stats.windows.iter().map(|w| w.committed).sum();
            if res.stats.windows.is_empty() || window_committed != committed {
                return Err(fail(
                    "windows",
                    format!(
                        "interval at {} committed {} but its {} window(s) sum to {}",
                        cp.inst_index,
                        committed,
                        res.stats.windows.len(),
                        window_committed
                    ),
                ));
            }
            total_committed += committed;
            merged.merge(&res.stats);
        }
        merged
            .check_invariants(8)
            .map_err(|e| fail("invariants", format!("merged aggregate: {e}")))?;
        // The concatenated windows of the merged aggregate still account
        // for every committed instruction exactly once.
        let merged_window_committed: u64 = merged.windows.iter().map(|w| w.committed).sum();
        if merged_window_committed != total_committed {
            return Err(fail(
                "windows",
                format!(
                    "merged windows sum to {merged_window_committed}, intervals to {total_committed}"
                ),
            ));
        }
        // Back-to-back intervals cover the whole program; overshoot can
        // only double-count, never skip.
        if stride == 1
            && !(g.icount..=g.icount + overshoot * set.checkpoints.len() as u64)
                .contains(&total_committed)
        {
            return Err(fail(
                "sampled",
                format!(
                    "back-to-back intervals retired {} total, golden {}",
                    total_committed, g.icount
                ),
            ));
        }
        report.configs_checked += 1;
    }
    Ok(())
}

/// SimPoint oracle over the whole phase-clustering pipeline: collect
/// per-interval BBVs from the golden interpreter, cluster them, turn the
/// clustering into the campaign engine's own plan ([`simpoint_plan`]),
/// capture warm checkpoints at the representative boundaries, simulate one
/// representative per phase, and blend the statistics by phase
/// population. Checks the structural contract end to end — BBVs tile the
/// dynamic stream exactly, clustering is deterministic with every
/// interval in exactly one phase and weights summing to one, each
/// representative commits its own interval's share, and the blended
/// aggregate still satisfies the exact-slot invariant with a committed
/// total within one interval per phase of the golden dynamic length
/// (the tail interval may stand for — or be represented by —
/// full-length ones).
fn check_simpoint_vs_full(
    p: &Program,
    binary: &SpearBinary,
    g: &Golden,
    report: &mut OracleReport,
) -> Result<(), Failure> {
    let label = "SPEAR-128/ctx2/simpoint";
    let fail = |kind: &str, detail: String| Failure {
        config: label.to_string(),
        kind: kind.to_string(),
        detail,
    };
    let cfg = CoreConfig::spear(128);
    let interval = (g.icount / 4).max(64);

    // Pass A: basic-block vectors must tile the golden stream exactly.
    let (bbvs, total) =
        spear_exec::collect_bbvs(p, interval, GOLDEN_BUDGET).map_err(|e| fail("simpoint", e))?;
    if total != g.icount {
        return Err(fail(
            "simpoint",
            format!("BBV pass counted {total} instructions, golden {}", g.icount),
        ));
    }
    let tiled: u64 = bbvs.iter().map(|b| b.len).sum();
    if tiled != total {
        return Err(fail(
            "simpoint",
            format!("BBV intervals sum to {tiled}, stream has {total}"),
        ));
    }

    // Clustering: deterministic, every interval in exactly one phase,
    // phase populations summing to n, weights summing to one.
    let counts: Vec<Vec<(u64, u64)>> = bbvs.iter().map(|b| b.counts.clone()).collect();
    let sp_cfg = spear_simpoint::SimpointConfig {
        k: 3,
        ..Default::default()
    };
    let clustering = spear_simpoint::cluster(&counts, &sp_cfg);
    if spear_simpoint::cluster(&counts, &sp_cfg) != clustering {
        return Err(fail("simpoint", "clustering is not deterministic".into()));
    }
    if clustering.assignments.len() != bbvs.len()
        || clustering.assignments.iter().any(|&a| a >= clustering.k)
    {
        return Err(fail(
            "simpoint",
            format!(
                "{} assignments over {} intervals, k={}",
                clustering.assignments.len(),
                bbvs.len(),
                clustering.k
            ),
        ));
    }
    let population: u64 = clustering.counts.iter().sum();
    if population != bbvs.len() as u64 {
        return Err(fail(
            "simpoint",
            format!("phase counts sum to {population}, n={}", bbvs.len()),
        ));
    }
    let weight_sum: f64 = clustering.weights.iter().sum();
    if (weight_sum - 1.0).abs() > 1e-9 {
        return Err(fail(
            "simpoint",
            format!("weights sum to {weight_sum}, not 1.0"),
        ));
    }

    // Pass B: warm checkpoints at the representative boundaries, then
    // one weighted cycle-level run per phase.
    let plan = simpoint_plan(&bbvs, &clustering);
    let boundaries: Vec<u64> = plan.iter().map(|(iv, _)| iv.start_inst).collect();
    let set = capture_checkpoints_at(p, "fuzz", cfg.hier, cfg.bpred, &boundaries, GOLDEN_BUDGET)
        .map_err(|e| fail("simpoint", e))?;
    if set.total_insts != total || set.checkpoints.len() != plan.len() {
        return Err(fail(
            "simpoint",
            format!(
                "warming pass saw {} instructions / {} checkpoints, wanted {total} / {}",
                set.total_insts,
                set.checkpoints.len(),
                plan.len()
            ),
        ));
    }
    let overshoot = cfg.commit_width as u64 - 1;
    let mut blended = CoreStats::default();
    let mut blended_committed = 0u64;
    for (cp, &(iv, weight)) in set.checkpoints.iter().zip(&plan) {
        let mut core = Core::new(binary, cfg.clone());
        cp.restore_into(&mut core)
            .map_err(|e| fail("checkpoint", e))?;
        let res = core
            .run(CYCLE_BUDGET, interval)
            .map_err(|e| fail("sim-error", e.to_string()))?;
        let committed = res.stats.committed;
        let ok = if iv.len < interval {
            res.exit == RunExit::Halted && committed == iv.len
        } else {
            (interval..=interval + overshoot).contains(&committed)
        };
        if !ok {
            return Err(fail(
                "simpoint",
                format!(
                    "representative at {} (len {}) retired {committed} (exit {:?})",
                    iv.start_inst, iv.len, res.exit
                ),
            ));
        }
        res.stats
            .check_invariants(8)
            .map_err(|e| fail("invariants", e))?;
        blended.merge_scaled(&res.stats, weight);
        blended_committed += committed * weight;
    }
    blended
        .check_invariants(8)
        .map_err(|e| fail("invariants", format!("blended aggregate: {e}")))?;
    let slack = clustering.k as u64 * (interval + overshoot);
    if blended_committed.abs_diff(g.icount) > slack {
        return Err(fail(
            "simpoint",
            format!(
                "blended committed {blended_committed}, golden {} (slack {slack})",
                g.icount
            ),
        ));
    }
    report.configs_checked += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SegKind, Segment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_tree_passes_a_mixed_spec() {
        let spec = ProgramSpec {
            seed: 99,
            segments: vec![
                Segment {
                    kind: SegKind::Gather,
                    a: 100,
                    b: 3,
                },
                Segment {
                    kind: SegKind::Diamond,
                    a: 1,
                    b: 2,
                },
                Segment {
                    kind: SegKind::PointerChase,
                    a: 60,
                    b: 17,
                },
                Segment {
                    kind: SegKind::StoreLoadMix,
                    a: 0,
                    b: 9,
                },
            ],
        };
        let report = check(&spec).expect("clean tree must pass");
        assert!(report.golden_icount > 0);
        // 9 matrix configs (3 machines x {ctx2, ctx4, ctx2+tage}) +
        // checkpoint round-trip + two sampled passes + the simpoint
        // blend + trace replay.
        assert_eq!(report.configs_checked, 14);
    }

    #[test]
    fn random_specs_pass_on_clean_tree() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..3 {
            let spec = ProgramSpec::generate(&mut rng);
            check(&spec).expect("clean tree must pass");
        }
    }
}

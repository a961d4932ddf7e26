//! The resumable campaign engine: crash-safe, parallel execution of
//! (workload, machine, predictor, frontend, latency, interval) cells.
//!
//! A campaign lives in a directory:
//!
//! ```text
//! campaign-dir/
//!   manifest.json    # the campaign spec fingerprint (guards resume)
//!   cells.jsonl      # one CellResult per line, appended as cells finish
//! ```
//!
//! Every finished cell is appended to `cells.jsonl` and flushed before
//! the worker takes more work, so killing the process at any moment loses
//! at most the cells still in flight. On restart the engine replays the
//! file, skips every completed cell (a truncated final line — the
//! signature of a mid-write crash — is tolerated and re-run), and
//! continues. Two phases, both run by the one executor, [`parallel_map`]:
//!
//! 1. **prepare** (one job per workload × predictor spec): compile the
//!    p-thread table, then one functional pass capturing a warm
//!    checkpoint at each sampled interval start — every `stride`-th
//!    interval, or one SimPoint representative per phase (see
//!    [`crate::checkpoint`] and [`crate::sample`]);
//! 2. **simulate** (one job per pending cell, in deterministic order):
//!    build a core, restore the interval's checkpoint, run for the
//!    interval's instruction budget, persist the statistics. A stop
//!    (`max_cells` reached, a cancel, or a failed cell) makes every cell
//!    not yet started return at once; the summary lists the new cells in
//!    that same pending order.
//!
//! Checkpoints are keyed by (workload, predictor spec): the cache
//! geometry is identical across the five machine models and the latency
//! sweep, but the warmer trains the *configured* predictor, so a
//! predictor sweep needs one functional pass per distinct spec. Each
//! pass still serves every (machine, latency) point that uses the same
//! predictor.

use crate::cache::{record_trace, ApproxBytes, ShardCache, TraceCache};
use crate::checkpoint::{capture_checkpoints_at, capture_interval_checkpoints, CheckpointSet};
use crate::sample::{aggregate, plan_intervals, simpoint_plan, Aggregate, Interval};
use crate::spec::{
    CampaignSpec, CellKey, MachinePoint, ManifestDoc, ShardKey, SimpointSpec, CELL_SCHEMA_VERSION,
};
use serde::{Deserialize, Serialize};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, CoreStats, RunExit, SimpointBlock, StatsExport, TraceSource};
use spear_isa::SpearBinary;
use spear_trace::TraceFile;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cycle ceiling per cell, so one pathological cell cannot hang a
/// campaign (same ceiling the full-run experiment runner uses).
const MAX_CELL_CYCLES: u64 = 200_000_000;

/// Instruction ceiling for the functional pass.
const MAX_FUNCTIONAL_INSTS: u64 = 1_000_000_000;

/// Finished cells between heartbeat rewrites of `progress.json` /
/// `metrics.prom` (a final heartbeat is always written at the end).
const HEARTBEAT_EVERY_CELLS: u64 = 10;

/// One completed cell, as persisted to `cells.jsonl`.
///
/// The SimPoint `weight` field is *omitted* when 1: every record a
/// non-simpoint campaign writes keeps its exact historical bytes, and
/// records from older writers parse back with the implied unit weight.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Record format version ([`CELL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload name.
    pub workload: String,
    /// Machine model name.
    pub machine: String,
    /// Canonical branch-predictor spec label (`bimodal` for the paper
    /// default; see `spear_bpred::PredictorConfig::spec_label`).
    pub bpred: String,
    /// Instruction-supply front end (`program` or `trace`).
    pub frontend: String,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
    /// Interval index within the workload.
    pub interval: u64,
    /// First instruction of the interval.
    pub start_inst: u64,
    /// Instructions the cell was budgeted to simulate.
    pub target_insts: u64,
    /// How many whole-program intervals this cell stands for: 1 for a
    /// plain campaign cell, the phase's population count for a SimPoint
    /// representative. Aggregation scale-sums the cell's statistics by
    /// this factor (see `spear_cpu::CoreStats::merge_scaled`).
    #[serde(default = "unit_weight", skip_serializing_if = "is_unit_weight")]
    pub weight: u64,
    /// How the cell's simulation ended (`InstBudget` for interior
    /// intervals, `Halted` for the final one).
    pub exit: RunExit,
    /// Wall-clock simulation time for this cell, in milliseconds.
    pub wall_ms: u64,
    /// Full simulator statistics for the interval.
    pub stats: CoreStats,
}

fn unit_weight() -> u64 {
    1
}

fn is_unit_weight(weight: &u64) -> bool {
    *weight == 1
}

impl CellResult {
    /// The cell's identity within a campaign.
    pub fn key(&self) -> CellKey {
        CellKey {
            workload: self.workload.clone(),
            machine: self.machine.clone(),
            bpred: self.bpred.clone(),
            frontend: self.frontend.clone(),
            mem_latency: self.mem_latency,
            interval: self.interval,
        }
    }
}

/// Live progress, handed to the `on_progress` callback after every cell.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ProgressSnapshot {
    /// Cells finished (including ones skipped as already done).
    pub done: u64,
    /// Total cells in the campaign.
    pub total: u64,
    /// Cells finished by this invocation: `done` minus the cells skipped
    /// as already done (never a cell still in flight).
    pub executed: u64,
    /// Wall-clock time since this invocation started, in ms.
    pub elapsed_ms: u64,
    /// Estimated remaining time, from the mean per-cell wall time of the
    /// cells finished so far divided across the worker threads (`None`
    /// until the first cell finishes).
    pub eta_ms: Option<u64>,
}

/// Per-workload simulation time over the whole campaign directory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTiming {
    /// Workload name.
    pub workload: String,
    /// Cells recorded for this workload.
    pub cells: u64,
    /// Summed per-cell wall time, in ms.
    pub wall_ms: u64,
}

/// What one `Campaign::run` invocation did.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Total cells in the campaign.
    pub total_cells: u64,
    /// Cells executed by this invocation.
    pub executed: u64,
    /// Cells skipped because a prior invocation had completed them.
    pub skipped: u64,
    /// True if `max_cells` stopped this invocation before the campaign
    /// finished (pending cells remain for a future resume).
    pub interrupted: bool,
    /// Every cell result now on disk (prior + new).
    pub results: Vec<CellResult>,
    /// Per-workload timing over `results`, sorted by workload name.
    pub timings: Vec<WorkloadTiming>,
    /// Wall-clock time of this invocation, in ms.
    pub elapsed_ms: u64,
}

impl RunSummary {
    /// Weighted aggregates over all cells on disk (see
    /// [`crate::sample::aggregate`]).
    pub fn aggregates(&self) -> Vec<Aggregate> {
        aggregate(&self.results)
    }
}

/// A campaign bound to its directory.
pub struct Campaign {
    dir: PathBuf,
    spec: CampaignSpec,
}

/// Everything phase 1 prepares for one workload: the compiled binary
/// with its p-thread table, the warm checkpoint shards, and the sampled
/// interval plan. Shared read-only across every cell that needs it (and,
/// through a [`ShardCache`], across every *job* that needs it).
#[derive(Debug)]
pub struct WorkloadData {
    /// Workload name.
    pub name: String,
    /// Canonical spec label of the predictor the warmer trained (the
    /// checkpoints carry this predictor's state).
    pub bpred: String,
    /// Evaluation binary with the compiled p-thread table attached.
    pub binary: SpearBinary,
    /// Warm checkpoints at each sampled interval start.
    pub set: CheckpointSet,
    /// The sampled interval plan, each interval with its aggregation
    /// weight: 1 for a plain campaign; under SimPoint, the representative
    /// interval of each phase with the phase's population count,
    /// ascending by start instruction.
    pub intervals: Vec<(Interval, u64)>,
    /// The recorded replay trace, present only when the campaign sweeps
    /// the `trace` front end (shards built without it cannot serve
    /// trace-backed cells, which is why the shard-cache key carries the
    /// supply discriminator).
    pub trace: Option<Arc<TraceFile>>,
}

/// Dominated by the per-checkpoint memory images; the binary and plan
/// are a flat base charge, and cache/predictor snapshots a flat overhead
/// per checkpoint, rather than measured field by field.
impl ApproxBytes for WorkloadData {
    fn approx_bytes(&self) -> u64 {
        const BASE_OVERHEAD: u64 = 64 * 1024;
        const PER_CHECKPOINT_OVERHEAD: u64 = 256 * 1024;
        BASE_OVERHEAD
            + self
                .set
                .checkpoints
                .iter()
                .map(|c| c.mem.as_bytes().len() as u64 + PER_CHECKPOINT_OVERHEAD)
                .sum::<u64>()
    }
}

/// One unit of phase-2 work. `w` indexes the prepared shard list
/// (workload-major, predictor-minor), `p` the sweep points, `f` the
/// spec's front-end list.
struct Cell {
    w: usize,
    p: usize,
    f: usize,
    interval: Interval,
    weight: u64,
}

impl Campaign {
    /// Bind a spec to a directory (created on [`Campaign::run`]).
    pub fn new(dir: impl Into<PathBuf>, spec: CampaignSpec) -> Campaign {
        Campaign {
            dir: dir.into(),
            spec,
        }
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn check_or_write_manifest(&self) -> Result<(), String> {
        let path = self.dir.join("manifest.json");
        let manifest = self.spec.manifest();
        match std::fs::read_to_string(&path) {
            Ok(existing) => {
                let theirs: ManifestDoc = serde::json::from_str(&existing)
                    .map_err(|e| format!("corrupt manifest {}: {e:?}", path.display()))?;
                if theirs != manifest {
                    return Err(format!(
                        "campaign directory {} was created for a different spec; \
                         use a fresh directory",
                        self.dir.display()
                    ));
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(&path, serde::json::to_string_pretty(&manifest))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))
            }
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Replay `cells.jsonl`: every parseable line is a completed cell. A
    /// final truncated line (mid-write crash) is tolerated and its cell
    /// re-run; a malformed line elsewhere is an error.
    pub fn load_results(&self) -> Result<Vec<CellResult>, String> {
        let path = self.dir.join("cells.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut out = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde::json::from_str::<CellResult>(line) {
                Ok(cell) => out.push(cell),
                Err(_) if i + 1 == lines.len() => break, // truncated tail
                Err(e) => {
                    return Err(format!(
                        "{}: malformed record on line {}: {e:?}",
                        path.display(),
                        i + 1
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Weighted aggregates over every cell currently on disk.
    pub fn aggregates(&self) -> Result<Vec<Aggregate>, String> {
        Ok(aggregate(&self.load_results()?))
    }

    /// Physically truncate a torn trailing line off `cells.jsonl` (the
    /// signature of a kill mid-append). [`Campaign::load_results`] already
    /// *tolerates* a torn tail, but without truncation the next append
    /// would glue a fresh record onto the partial line, corrupting a
    /// record permanently — so a resume must repair the file first.
    /// Returns the number of bytes cut, if any.
    fn repair_torn_tail(&self) -> Result<Option<u64>, String> {
        let path = self.dir.join("cells.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        // Find the last non-empty line and its byte offset.
        let mut last: Option<(usize, &str)> = None;
        let mut offset = 0;
        for line in text.split_inclusive('\n') {
            if !line.trim().is_empty() {
                last = Some((offset, line.trim_end_matches(['\n', '\r'])));
            }
            offset += line.len();
        }
        let Some((start, line)) = last else {
            return Ok(None);
        };
        if serde::json::from_str::<CellResult>(line).is_ok() {
            return Ok(None);
        }
        let cut = (text.len() - start) as u64;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("cannot open {} for repair: {e}", path.display()))?;
        f.set_len(start as u64)
            .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
        Ok(Some(cut))
    }

    /// Run (or resume) the campaign. `on_progress` is invoked after every
    /// executed cell.
    pub fn run(
        &self,
        on_progress: Option<&(dyn Fn(&ProgressSnapshot) + Sync)>,
    ) -> Result<RunSummary, String> {
        self.run_with(&RunOptions {
            on_progress,
            ..RunOptions::default()
        })
    }

    /// Run (or resume) the campaign with the full option set: progress
    /// callbacks, cooperative cancellation, and a cross-job checkpoint-
    /// shard cache.
    pub fn run_with(&self, opts: &RunOptions<'_>) -> Result<RunSummary, String> {
        let t0 = Instant::now();
        self.spec.validate()?;
        let frontends = self.spec.frontends();
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        self.check_or_write_manifest()?;
        if let Some(cut) = self.repair_torn_tail()? {
            eprintln!(
                "campaign {}: truncated a torn {cut}-byte trailing record in \
                 cells.jsonl (crash mid-append); its cell will re-run",
                self.dir.display()
            );
        }
        let prior = self.load_results()?;
        let done: HashSet<CellKey> = prior.iter().map(|c| c.key()).collect();

        let threads = if self.spec.threads == 0 {
            available_threads()
        } else {
            self.spec.threads
        };

        // Phase 1: compile + functional checkpointing, one job per
        // (workload, distinct predictor spec) — the warmer trains the
        // configured predictor, so each spec needs its own warm shards.
        // With a shard cache, warm state built by an earlier job (or an
        // earlier workload of this one) is reused instead of rebuilt.
        let mut bpreds: Vec<(String, spear_bpred::PredictorConfig)> = Vec::new();
        for p in &self.spec.points {
            let label = p.config.bpred.spec_label();
            if !bpreds.iter().any(|(l, _)| *l == label) {
                bpreds.push((label, p.config.bpred));
            }
        }
        let prep: Vec<(ShardKey, spear_bpred::PredictorConfig)> = self
            .spec
            .workloads
            .iter()
            .flat_map(|name| {
                bpreds
                    .iter()
                    .map(move |(label, cfg)| (self.spec.shard_key(name, label), *cfg))
            })
            .collect();
        let prepared: Vec<Result<Arc<WorkloadData>, String>> =
            parallel_map(&prep, threads, |(key, cfg)| {
                let build = || prepare_workload(key, *cfg, opts.traces);
                match opts.cache {
                    Some(cache) => cache.get_or_create(key.clone(), build),
                    None => build().map(Arc::new),
                }
            });
        let wds = prepared.into_iter().collect::<Result<Vec<_>, _>>()?;

        // Enumerate cells in deterministic order and drop completed ones.
        let mut pending = Vec::new();
        let mut total: u64 = 0;
        for w in 0..self.spec.workloads.len() {
            for (p, point) in self.spec.points.iter().enumerate() {
                let label = point.config.bpred.spec_label();
                let shard = w * bpreds.len()
                    + bpreds
                        .iter()
                        .position(|(l, _)| *l == label)
                        .expect("every point's predictor was prepared");
                let wd = &wds[shard];
                for (f, frontend) in frontends.iter().enumerate() {
                    for &(interval, weight) in &wd.intervals {
                        total += 1;
                        let key = CellKey {
                            workload: wd.name.clone(),
                            machine: point.machine.clone(),
                            bpred: wd.bpred.clone(),
                            frontend: frontend.clone(),
                            mem_latency: point.mem_latency,
                            interval: interval.index,
                        };
                        if !done.contains(&key) {
                            pending.push(Cell {
                                w: shard,
                                p,
                                f,
                                interval,
                                weight,
                            });
                        }
                    }
                }
            }
        }
        let skipped = total - pending.len() as u64;

        // Phase 2: every pending cell through the one parallel executor.
        let results_path = self.dir.join("cells.jsonl");
        let sink = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&results_path)
            .map_err(|e| format!("cannot open {}: {e}", results_path.display()))?;
        let sink = Mutex::new(sink);
        // Execution slots claimed against `max_cells`, including cells
        // still in flight; progress reports count finished cells only.
        let claimed = AtomicU64::new(0);
        let done_count = AtomicU64::new(skipped);
        let wall_sum_ms = AtomicU64::new(0);
        let committed_sum = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let budget = self.spec.max_cells.unwrap_or(u64::MAX);
        // One writer at a time keeps the temp-file dance race-free;
        // heartbeats are advisory, so their IO errors never stop a run.
        let heartbeat = Mutex::new(String::new());
        let beat = |last_cell: &str| {
            let d = done_count.load(Ordering::SeqCst);
            let ex = d - skipped;
            let elapsed_ms = t0.elapsed().as_millis() as u64;
            let committed = committed_sum.load(Ordering::SeqCst);
            let kips = if elapsed_ms > 0 {
                committed as f64 / elapsed_ms as f64
            } else {
                0.0
            };
            let _ = write_heartbeat(
                &self.dir,
                &HeartbeatDoc {
                    done: d,
                    total,
                    executed: ex,
                    threads: threads as u64,
                    elapsed_ms,
                    eta_ms: eta_ms(wall_sum_ms.load(Ordering::SeqCst), ex, total - d, threads),
                    committed_insts: committed,
                    kips,
                    kips_per_shard: kips / threads as f64,
                    last_cell: last_cell.to_string(),
                },
            );
        };

        let outcomes = parallel_map(&pending, threads, |cell| {
            // A cancel drains like `max_cells`: in-flight cells finish and
            // are persisted; nothing new is started.
            if stop.load(Ordering::SeqCst) || opts.cancel.is_some_and(|c| c.load(Ordering::SeqCst))
            {
                return None;
            }
            // Claim an execution slot against the cell budget before
            // running the cell, so `max_cells` is exact.
            if claimed.fetch_add(1, Ordering::SeqCst) >= budget {
                claimed.fetch_sub(1, Ordering::SeqCst);
                stop.store(true, Ordering::SeqCst);
                return None;
            }
            let persisted = run_cell(
                &wds[cell.w],
                &self.spec.points[cell.p],
                &frontends[cell.f],
                cell.interval,
                cell.weight,
                self.spec.window,
            )
            .and_then(|(res, _)| {
                let mut f = sink.lock().expect("a cell worker panicked");
                writeln!(f, "{}", serde::json::to_string(&res))
                    .and_then(|_| f.flush())
                    .map_err(|e| format!("cannot append cell result: {e}"))?;
                Ok(res)
            });
            let res = match persisted {
                Ok(res) => res,
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    return Some(Err(e));
                }
            };
            wall_sum_ms.fetch_add(res.wall_ms, Ordering::SeqCst);
            committed_sum.fetch_add(res.stats.committed, Ordering::SeqCst);
            let d = done_count.fetch_add(1, Ordering::SeqCst) + 1;
            let mut last = heartbeat.lock().expect("a cell worker panicked");
            *last = res.key().to_string();
            if d.is_multiple_of(HEARTBEAT_EVERY_CELLS) {
                beat(&last);
            }
            drop(last);
            if let Some(cb) = opts.on_progress {
                let ex = d - skipped;
                cb(&ProgressSnapshot {
                    done: d,
                    total,
                    executed: ex,
                    elapsed_ms: t0.elapsed().as_millis() as u64,
                    eta_ms: eta_ms(wall_sum_ms.load(Ordering::SeqCst), ex, total - d, threads),
                });
            }
            Some(Ok(res))
        });

        // Final heartbeat so `progress.json` reflects the end state even
        // when the cell count never hit the heartbeat interval.
        beat(&heartbeat.into_inner().expect("a cell worker panicked"));

        let new = outcomes
            .into_iter()
            .flatten()
            .collect::<Result<Vec<_>, _>>()?;
        let executed = new.len() as u64;
        let interrupted = executed + skipped < total;
        let mut results = prior;
        results.extend(new);
        let timings = workload_timings(&results);
        Ok(RunSummary {
            total_cells: total,
            executed,
            skipped,
            interrupted,
            results,
            timings,
            elapsed_ms: t0.elapsed().as_millis() as u64,
        })
    }
}

/// Knobs for [`Campaign::run_with`], beyond what the spec pins.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Invoked after every executed cell with live progress.
    pub on_progress: Option<&'a (dyn Fn(&ProgressSnapshot) + Sync)>,
    /// Cooperative cancellation: once set, workers stop claiming cells;
    /// in-flight cells finish and are flushed, so the run ends in a
    /// cleanly resumable state (`interrupted` in the summary).
    pub cancel: Option<&'a AtomicBool>,
    /// Checkpoint-shard cache shared across runs: warm state is built
    /// once per (workload, interval, stride) and reused read-only.
    pub cache: Option<&'a ShardCache>,
    /// Trace cache shared across runs: the replay stream of a workload
    /// is recorded once and reused by every trace-backed job.
    pub traces: Option<&'a TraceCache>,
}

/// Write one versioned stats-JSON envelope per (workload, machine,
/// latency) aggregate under `<dir>/aggregates/`, exactly as the
/// `spear-sim campaign` CLI does — the campaign server calls the same
/// function, which is what makes server and CLI aggregate files
/// byte-identical by construction. Returns the paths written, in
/// aggregate order.
///
/// `simpoint` is the campaign's clustering spec paired with its interval
/// length: when set, every envelope gains the additive `simpoint`
/// provenance block. `None` (every non-simpoint campaign) leaves the
/// envelopes byte-identical to the historical schema.
pub fn write_aggregate_envelopes(
    dir: &Path,
    results: &[CellResult],
    simpoint: Option<(SimpointSpec, u64)>,
) -> Result<Vec<PathBuf>, String> {
    let aggs = aggregate(results);
    let agg_dir = dir.join("aggregates");
    std::fs::create_dir_all(&agg_dir)
        .map_err(|e| format!("cannot create {}: {e}", agg_dir.display()))?;
    let mut written = Vec::with_capacity(aggs.len());
    for a in &aggs {
        let k = &a.key;
        let exit = if a.halted {
            RunExit::Halted
        } else {
            RunExit::InstBudget
        };
        let mut doc = StatsExport::new(
            k.workload.clone(),
            &k.machine,
            k.mem_latency,
            exit,
            a.stats.clone(),
        )
        .with_bpred(&k.bpred)
        .with_frontend(&k.frontend);
        if let Some((sp, interval_len)) = simpoint {
            doc = doc.with_simpoint(SimpointBlock {
                k: sp.k,
                seed: sp.seed,
                interval_len,
                phases: a.cells,
                intervals: a.weight,
            });
        }
        let file = agg_dir.join(format!("{}.json", k.file_stem()));
        std::fs::write(&file, doc.to_json())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        written.push(file);
    }
    Ok(written)
}

/// Estimated remaining campaign wall time: mean per-cell simulation time
/// of the cells finished so far, divided across the worker threads.
/// `None` until the first cell finishes (and under a degenerate zero
/// thread count), so a fresh campaign never reports a bogus 0ms ETA.
pub fn eta_ms(wall_sum_ms: u64, finished: u64, remaining: u64, threads: usize) -> Option<u64> {
    if finished == 0 || threads == 0 {
        return None;
    }
    let per_cell = wall_sum_ms as f64 / finished as f64;
    Some((per_cell * remaining as f64 / threads as f64) as u64)
}

/// The campaign heartbeat persisted as `progress.json` (see
/// [`write_heartbeat`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatDoc {
    /// Cells finished (including ones skipped as already done).
    pub done: u64,
    /// Total cells in the campaign.
    pub total: u64,
    /// Cells finished by this invocation: `done` minus the cells skipped
    /// as already done (never a cell still in flight).
    pub executed: u64,
    /// Worker threads in use.
    pub threads: u64,
    /// Wall-clock time since this invocation started, in ms.
    pub elapsed_ms: u64,
    /// Estimated remaining time ([`eta_ms`]); `null` until known.
    pub eta_ms: Option<u64>,
    /// Committed instructions simulated by this invocation.
    pub committed_insts: u64,
    /// Simulation throughput: committed kilo-instructions per
    /// wall-clock second, summed over all shards.
    pub kips: f64,
    /// [`HeartbeatDoc::kips`] divided by the worker count — the mean
    /// per-shard throughput.
    pub kips_per_shard: f64,
    /// Key of the most recently finished cell
    /// (`workload/machine/bpred/frontend/mem_latency/interval`); empty
    /// before the first one.
    pub last_cell: String,
}

/// Atomically (write-to-temp + rename) rewrite the campaign heartbeat:
/// `progress.json` for machines and `metrics.prom` (Prometheus text
/// exposition format) for scrapers. A reader never observes a torn
/// file. Heartbeats are advisory: callers may ignore the error.
pub fn write_heartbeat(dir: &Path, hb: &HeartbeatDoc) -> Result<(), String> {
    let atomic = |name: &str, contents: String| -> Result<(), String> {
        let tmp = dir.join(format!("{name}.tmp"));
        let fin = dir.join(name);
        std::fs::write(&tmp, contents)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &fin)
            .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), fin.display()))
    };
    atomic("progress.json", serde::json::to_string_pretty(hb))?;
    let eta = hb
        .eta_ms
        .map_or_else(|| "NaN".to_string(), |v| v.to_string());
    let gauges = [
        (
            "cells_done",
            "Cells finished, including previously completed ones.",
            hb.done.to_string(),
        ),
        (
            "cells_total",
            "Total cells in the campaign.",
            hb.total.to_string(),
        ),
        (
            "cells_executed",
            "Cells finished by this invocation.",
            hb.executed.to_string(),
        ),
        ("threads", "Worker threads in use.", hb.threads.to_string()),
        (
            "elapsed_ms",
            "Wall-clock ms since this invocation started.",
            hb.elapsed_ms.to_string(),
        ),
        (
            "eta_ms",
            "Estimated remaining ms (absent until the first cell finishes).",
            eta,
        ),
        (
            "committed_insts",
            "Committed instructions simulated by this invocation.",
            hb.committed_insts.to_string(),
        ),
        (
            "kips",
            "Committed kilo-instructions per wall-clock second, all shards.",
            format!("{:.3}", hb.kips),
        ),
        (
            "kips_per_shard",
            "Mean per-shard simulation throughput in KIPS.",
            format!("{:.3}", hb.kips_per_shard),
        ),
    ];
    let mut prom = String::new();
    for (name, help, value) in gauges {
        let name = format!("spear_campaign_{name}");
        prom.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    }
    atomic("metrics.prom", prom)
}

/// Per-workload wall-time table over a set of cell results, sorted by
/// workload name.
pub fn workload_timings(results: &[CellResult]) -> Vec<WorkloadTiming> {
    let mut out: Vec<WorkloadTiming> = Vec::new();
    for r in results {
        match out.binary_search_by(|t| t.workload.as_str().cmp(&r.workload)) {
            Ok(i) => {
                out[i].cells += 1;
                out[i].wall_ms += r.wall_ms;
            }
            Err(i) => out.insert(
                i,
                WorkloadTiming {
                    workload: r.workload.clone(),
                    cells: 1,
                    wall_ms: r.wall_ms,
                },
            ),
        }
    }
    out
}

/// Phase 1 for one named workload: compile its p-thread table against
/// the profiling input, attach it to the evaluation image, and prepare
/// the shard from that binary (see [`prepare_shard`]).
fn prepare_workload(
    key: &ShardKey,
    bpred_cfg: spear_bpred::PredictorConfig,
    traces: Option<&TraceCache>,
) -> Result<WorkloadData, String> {
    let name = key.workload.as_str();
    let (w, scale) =
        spear_workloads::by_spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let profile = w.profile_program();
    let (compiled, _report) = SpearCompiler::new(CompilerConfig::default())
        .compile(&profile)
        .map_err(|e| format!("{name}: compile failed: {e}"))?;
    let binary = SpearCompiler::attach(w.eval_program_scaled(scale), compiled.table);
    prepare_shard(key, binary, bpred_cfg, traces)
}

/// Phase 1 for one compiled binary: capture warm checkpoints at every
/// sampled interval boundary of `key`'s plan. The warmer trains
/// `bpred_cfg`'s predictor, so the checkpoints restore only into cores
/// configured with the same spec. When the shard carries a trace, the
/// binary's committed path is also recorded (or fetched from `traces`,
/// keyed by the workload name) so trace-backed cells can replay it.
pub fn prepare_shard(
    key: &ShardKey,
    binary: SpearBinary,
    bpred_cfg: spear_bpred::PredictorConfig,
    traces: Option<&TraceCache>,
) -> Result<WorkloadData, String> {
    let name = key.workload.as_str();
    let sample = &key.sample;
    // The cache substrate is machine-independent (Table 2 geometry is
    // shared by every evaluated model), so these checkpoints serve all
    // (machine, latency) points that share the predictor spec.
    let (set, intervals) = match key.simpoint {
        None => {
            let set = capture_interval_checkpoints(
                &binary.program,
                name,
                spear_mem::HierConfig::paper(),
                bpred_cfg,
                sample.interval_len,
                sample.stride,
                MAX_FUNCTIONAL_INSTS,
            )?;
            let intervals: Vec<(Interval, u64)> = plan_intervals(set.total_insts, sample)
                .into_iter()
                .map(|iv| (iv, 1))
                .collect();
            debug_assert_eq!(intervals.len(), set.checkpoints.len());
            (set, intervals)
        }
        Some(sp) => {
            // Pass A (functional only, no warming): slice the committed
            // stream into basic-block vectors and cluster them into
            // phases. The partial tail interval clusters with the rest —
            // projection is frequency-normalized, so a short interval
            // compares by profile, not length.
            let (bbvs, total_a) = spear_exec::collect_bbvs(
                &binary.program,
                sample.interval_len,
                MAX_FUNCTIONAL_INSTS,
            )
            .map_err(|e| format!("{name}: BBV pass failed: {e}"))?;
            let matrix: Vec<Vec<(u64, u64)>> = bbvs.iter().map(|b| b.counts.clone()).collect();
            let cfg = spear_simpoint::SimpointConfig {
                k: sp.k as usize,
                seed: sp.seed,
                ..Default::default()
            };
            let clustering = spear_simpoint::cluster(&matrix, &cfg);
            let plan = simpoint_plan(&bbvs, &clustering);
            let boundaries: Vec<u64> = plan.iter().map(|(iv, _)| iv.start_inst).collect();
            // Pass B: one warming pass over the whole stream, capturing a
            // checkpoint only at each representative's start boundary.
            let set = capture_checkpoints_at(
                &binary.program,
                name,
                spear_mem::HierConfig::paper(),
                bpred_cfg,
                &boundaries,
                MAX_FUNCTIONAL_INSTS,
            )?;
            if set.total_insts != total_a {
                return Err(format!(
                    "{name}: BBV pass ran {total_a} instructions but the \
                     checkpoint pass ran {} — non-deterministic workload?",
                    set.total_insts
                ));
            }
            (set, plan)
        }
    };
    let trace = if key.trace {
        let record = || record_trace(name, &binary, MAX_FUNCTIONAL_INSTS);
        Some(match traces {
            Some(tc) => tc.get_or_create(name.to_string(), record)?,
            None => Arc::new(record()?),
        })
    } else {
        None
    };
    Ok(WorkloadData {
        name: name.to_string(),
        bpred: key.bpred.clone(),
        binary,
        set,
        intervals,
        trace,
    })
}

/// Phase 2 for one cell: restore the interval's checkpoint into a fresh
/// core — program-driven or replaying the recorded trace from the
/// checkpoint's cursor — and simulate the interval's instruction budget.
/// Returns the finished core with the result, so a caller can inspect
/// its final architectural and cache state.
pub fn run_cell<'a>(
    wd: &'a WorkloadData,
    point: &MachinePoint,
    frontend: &str,
    interval: Interval,
    weight: u64,
    window: Option<u64>,
) -> Result<(CellResult, Core<'a>), String> {
    debug_assert_eq!(
        wd.bpred,
        point.config.bpred.spec_label(),
        "cell paired with a shard warmed for a different predictor"
    );
    let cp = wd.set.at(interval.start_inst).ok_or_else(|| {
        format!(
            "{}: no checkpoint at instruction {}",
            wd.name, interval.start_inst
        )
    })?;
    let t0 = Instant::now();
    let mut core = match frontend {
        "trace" => {
            let tf = wd
                .trace
                .as_ref()
                .ok_or_else(|| format!("{}: shard carries no recorded trace", wd.name))?;
            let src = TraceSource::at_cursor(tf, cp.trace_cursor)
                .map_err(|e| format!("{} interval {}: {e}", wd.name, interval.index))?;
            Core::with_source(&wd.binary, point.config.clone(), Box::new(src))
        }
        _ => Core::new(&wd.binary, point.config.clone()),
    };
    cp.restore_into(&mut core)?;
    if let Some(len) = window {
        core.probe_mut().enable_windows(len);
    }
    let res = core
        .run(MAX_CELL_CYCLES, interval.len)
        .map_err(|e| format!("{} on {}: {e}", wd.name, point.machine))?;
    if res.exit == RunExit::CycleBudget {
        return Err(format!(
            "{} on {} interval {}: cycle ceiling hit before the instruction budget",
            wd.name, point.machine, interval.index
        ));
    }
    let cell = CellResult {
        schema_version: CELL_SCHEMA_VERSION,
        workload: wd.name.clone(),
        machine: point.machine.clone(),
        bpred: wd.bpred.clone(),
        frontend: frontend.to_string(),
        mem_latency: point.mem_latency,
        interval: interval.index,
        start_inst: interval.start_inst,
        target_insts: interval.len,
        weight,
        exit: res.exit,
        wall_ms: t0.elapsed().as_millis() as u64,
        stats: res.stats,
    };
    Ok((cell, core))
}

/// All available cores (4 when the count is unknown).
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Run `f` over `items` on `threads` workers (0 = all available cores),
/// preserving order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                results.lock().expect("a parallel_map worker panicked")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("a parallel_map worker panicked")
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [0, 1, 3] {
            let out = parallel_map(&items, threads, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn eta_is_unknown_before_the_first_cell_and_under_zero_threads() {
        assert_eq!(eta_ms(0, 0, 100, 4), None, "no data yet");
        assert_eq!(eta_ms(500, 0, 100, 4), None, "zero executed");
        assert_eq!(eta_ms(500, 5, 100, 0), None, "degenerate thread count");
    }

    #[test]
    fn eta_divides_mean_cell_time_across_threads() {
        // 10 cells took 1000ms -> 100ms/cell; 40 remain on 4 threads.
        assert_eq!(eta_ms(1000, 10, 40, 4), Some(1000));
        assert_eq!(eta_ms(1000, 10, 0, 4), Some(0), "nothing remaining");
    }

    #[test]
    fn heartbeat_files_are_written_atomically_and_parse_back() {
        let dir = std::env::temp_dir().join(format!("spear-heartbeat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let hb = HeartbeatDoc {
            done: 12,
            total: 48,
            executed: 12,
            threads: 4,
            elapsed_ms: 6_000,
            eta_ms: eta_ms(6_000, 12, 36, 4),
            committed_insts: 1_200_000,
            kips: 200.0,
            kips_per_shard: 50.0,
            last_cell: "pointer/SPEAR-128/bimodal/program/120/3".into(),
        };
        write_heartbeat(&dir, &hb).unwrap();
        // The temp files were renamed away, not left behind.
        assert!(!dir.join("progress.json.tmp").exists());
        assert!(!dir.join("metrics.prom.tmp").exists());
        let back: HeartbeatDoc =
            serde::json::from_str(&std::fs::read_to_string(dir.join("progress.json")).unwrap())
                .unwrap();
        assert_eq!(back, hb);
        assert_eq!(back.eta_ms, Some(4_500));
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(
            prom.contains("# TYPE spear_campaign_cells_done gauge"),
            "{prom}"
        );
        assert!(prom.contains("spear_campaign_cells_done 12"), "{prom}");
        assert!(prom.contains("spear_campaign_kips 200.000"), "{prom}");
        assert!(prom.contains("spear_campaign_eta_ms 4500"), "{prom}");
        // An unknown ETA renders as NaN, the Prometheus idiom for
        // "no value", never as a parse-breaking empty sample.
        let cold = HeartbeatDoc { eta_ms: None, ..hb };
        write_heartbeat(&dir, &cold).unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("spear_campaign_eta_ms NaN"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The two campaign workloads, run through `spear-sim campaign`:
//!
//! - `fig6-simpoint`: Figure 6 (15 kernels × 3 machines) under SimPoint
//!   phase clustering — few cells, dominated by the functional passes
//!   (BBV collection, clustering, checkpoint warming);
//! - `replay-sampled`: five kernels on the baseline machine, program and
//!   trace front ends, stride-sampled into many small intervals — many
//!   cells and checkpoints, and `.spt` record/replay.
//!
//! The traced replica repeats the engine's prepare-then-cell-queue work
//! through the campaign crates' public functions, and must write
//! byte-identical aggregate envelopes.

use crate::harness::{self, pool, Bench, Ctx, MAX_CELL_CYCLES, MAX_FUNCTIONAL_INSTS};
use crate::rusage::{peak_rss_mb, Who};
use crate::spans::Tracer;
use crate::stats;
use spear_bpred::PredictorConfig;
use spear_campaign::{
    capture_checkpoints_at, capture_interval_checkpoints, plan_intervals, record_trace,
    write_aggregate_envelopes, Campaign, CampaignSpec, CellResult, CheckpointSet, Interval,
    MachinePoint, SampleSpec, SimpointSpec, CELL_SCHEMA_VERSION,
};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, Machine, RunExit, StatsExport, TraceSource};
use spear_isa::SpearBinary;
use spear_mem::{HierConfig, LatencyConfig};
use spear_trace::TraceFile;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One campaign workload.
pub struct CampaignBench {
    name: &'static str,
    kernels: Vec<&'static str>,
    scale: u32,
    machines: Vec<Machine>,
    frontends: Vec<&'static str>,
    sample: SampleSpec,
    simpoint: Option<SimpointSpec>,
    /// The recorded output digest, when this run's inputs have one.
    digest: Option<&'static str>,
    /// Golden dynamic instruction count per kernel (set-up).
    totals: Vec<u64>,
    /// The first checked CLI output; every later output must equal it.
    reference: Option<Vec<(String, Vec<u8>)>>,
    runs: u64,
}

const FIG6_KERNELS: [&str; 15] = [
    "pointer", "update", "nbh", "tr", "matrix", "field", "dm", "ray", "fft", "gzip", "mcf", "vpr",
    "bzip2", "equake", "art",
];

/// Figure 6 under SimPoint: every kernel at 5× its evaluation input,
/// k = 5 phases over 10k-instruction intervals, clustering seed 42 + S.
/// About half its time is the functional prepare phase, as at paper
/// scale. `small` is the self-test's shrunken form.
pub fn fig6(seed: u64, small: bool) -> CampaignBench {
    let kernels = if small {
        vec!["field", "matrix", "update"]
    } else {
        FIG6_KERNELS.to_vec()
    };
    CampaignBench {
        name: "fig6-simpoint",
        kernels,
        scale: if small { 1 } else { 5 },
        machines: Machine::FIG6.to_vec(),
        frontends: vec!["program"],
        sample: SampleSpec::full(10_000),
        simpoint: Some(SimpointSpec {
            k: 5,
            seed: 42 + seed,
        }),
        digest: (seed == 0 && !small)
            .then(|| harness::recorded_digest("fig6-simpoint"))
            .flatten(),
        totals: Vec::new(),
        reference: None,
        runs: 0,
    }
}

/// Five kernels at 2× on the baseline machine, program and trace front
/// ends, every fourth 5k-instruction interval; the kernel list is
/// rotated by the seed.
pub fn replay(seed: u64, small: bool) -> CampaignBench {
    let mut kernels = if small {
        vec!["pointer", "update"]
    } else {
        vec!["mcf", "pointer", "tr", "update", "vpr"]
    };
    let n = kernels.len();
    kernels.rotate_left((seed % n as u64) as usize);
    CampaignBench {
        name: "replay-sampled",
        kernels,
        scale: if small { 1 } else { 2 },
        machines: vec![Machine::Baseline],
        frontends: vec!["program", "trace"],
        sample: SampleSpec {
            interval_len: 5_000,
            stride: 4,
        },
        simpoint: None,
        digest: (seed == 0 && !small)
            .then(|| harness::recorded_digest("replay-sampled"))
            .flatten(),
        totals: Vec::new(),
        reference: None,
        runs: 0,
    }
}

/// Everything the prepare phase builds for one kernel.
struct Shard {
    spec: String,
    binary: SpearBinary,
    set: CheckpointSet,
    intervals: Vec<Interval>,
    weights: Vec<u64>,
    trace: Option<TraceFile>,
}

/// One unit of cell-phase work.
struct CellJob {
    shard: usize,
    point: usize,
    frontend: usize,
    interval: Interval,
    weight: u64,
}

impl CampaignBench {
    fn specs(&self) -> Vec<String> {
        self.kernels
            .iter()
            .map(|k| format!("{k}@x{}", self.scale))
            .collect()
    }

    fn points(&self) -> Vec<MachinePoint> {
        self.machines
            .iter()
            .map(|&m| {
                let mut config = m.config(None);
                config.bpred = PredictorConfig::paper();
                MachinePoint {
                    machine: m.name().to_string(),
                    mem_latency: LatencyConfig::paper().memory,
                    config,
                }
            })
            .collect()
    }

    fn cli_args(&self, dir: &std::path::Path, threads: usize) -> Vec<String> {
        let machines: Vec<&str> = self
            .machines
            .iter()
            .map(|&m| harness::cli_name(m))
            .collect();
        let mut args = vec![
            "campaign".to_string(),
            "--dir".into(),
            dir.display().to_string(),
            "--workloads".into(),
            self.specs().join(","),
            "--machines".into(),
            machines.join(","),
            "--frontends".into(),
            self.frontends.join(","),
            "--interval".into(),
            self.sample.interval_len.to_string(),
            "--stride".into(),
            self.sample.stride.to_string(),
            "--threads".into(),
            threads.to_string(),
            "--quiet".into(),
        ];
        if let Some(sp) = self.simpoint {
            args.extend([
                "--simpoint-k".into(),
                sp.k.to_string(),
                "--simpoint-seed".into(),
                sp.seed.to_string(),
            ]);
        }
        args
    }

    /// Check one campaign's aggregate envelopes against the golden
    /// interpreter's instruction counts and the workload's invariants.
    fn check_envelopes(&self, files: &[(String, Vec<u8>)]) -> Result<(), String> {
        let want = self.kernels.len() * self.machines.len() * self.frontends.len();
        if files.len() != want {
            return Err(format!("{} aggregate envelopes, want {want}", files.len()));
        }
        let specs = self.specs();
        let mut program_stats: Vec<(String, String)> = Vec::new();
        let mut trace_stats: Vec<(String, String)> = Vec::new();
        for (name, bytes) in files {
            let text = String::from_utf8_lossy(bytes);
            let doc = StatsExport::from_json(&text).map_err(|e| format!("{name}: {e}"))?;
            let k = specs
                .iter()
                .position(|s| *s == doc.workload)
                .ok_or_else(|| format!("{name}: unexpected workload `{}`", doc.workload))?;
            let total = self.totals[k];
            match (self.simpoint, &doc.simpoint) {
                (Some(sp), Some(block)) => {
                    let intervals = total.div_ceil(self.sample.interval_len);
                    if block.intervals != intervals || block.phases > sp.k || block.seed != sp.seed
                    {
                        return Err(format!(
                            "{name}: simpoint block {block:?} does not cover the {intervals} \
                             intervals of a {total}-instruction run"
                        ));
                    }
                }
                (None, None) => {
                    // A cell may overshoot its budget by less than one
                    // commit group.
                    let width = Machine::from_cli_name(&doc.machine)
                        .map_or(0, |m| m.config(None).commit_width as u64);
                    let plan = plan_intervals(total, &self.sample);
                    let budget: u64 = plan.iter().map(|i| i.len).sum();
                    let slack = plan.len() as u64 * width;
                    let got = doc.stats.committed;
                    if got < budget || got > budget + slack {
                        return Err(format!(
                            "{name}: committed {got} instructions, want {budget} (+{slack})"
                        ));
                    }
                }
                (None, Some(_)) => return Err(format!("{name}: unexpected simpoint block")),
                (Some(_), None) => return Err(format!("{name}: missing simpoint block")),
            }
            let key = format!("{}/{}", doc.workload, doc.machine);
            let stats = serde::json::to_string(&doc.stats);
            if doc.frontend.as_deref() == Some("trace") {
                trace_stats.push((key, stats));
            } else {
                program_stats.push((key, stats));
            }
        }
        // Baseline timing does not depend on the instruction supply.
        if !trace_stats.is_empty() && trace_stats != program_stats {
            return Err("trace-replayed statistics differ from program-driven ones".into());
        }
        Ok(())
    }

    /// Simulated geomean SPEAR speedups over the baseline, for the
    /// informational comparison with the paper.
    fn print_speedups(files: &[(String, Vec<u8>)]) {
        let mut ipc: Vec<(String, String, f64)> = Vec::new();
        for (_, bytes) in files {
            if let Ok(doc) = StatsExport::from_json(&String::from_utf8_lossy(bytes)) {
                ipc.push((doc.workload.clone(), doc.machine.clone(), doc.stats.ipc()));
            }
        }
        let geomean = |machine: &str| {
            let ratios: Vec<f64> = ipc
                .iter()
                .filter(|(_, m, _)| m == machine)
                .filter_map(|(w, _, x)| {
                    ipc.iter()
                        .find(|(w2, m2, _)| w2 == w && m2 == "superscalar")
                        .map(|(_, _, base)| x / base)
                })
                .collect();
            let logs: f64 = ratios.iter().map(|r| r.ln()).sum();
            ((logs / ratios.len().max(1) as f64).exp() - 1.0) * 100.0
        };
        println!(
            "fig6-simpoint: simulated geomean speedup SPEAR-128 {:+.1}%, SPEAR-256 {:+.1}% \
             (paper: +12.7%, +20.1%; informational, not a metric)",
            geomean("SPEAR-128"),
            geomean("SPEAR-256")
        );
    }

    /// The engine's prepare phase for one kernel: compile the p-thread
    /// table, then the functional passes that capture warm checkpoints
    /// (BBV collection and clustering first, under SimPoint), then the
    /// replay trace when a trace front end is swept.
    fn prepare(&self, spec: &str, tracer: &Tracer) -> Result<Shard, String> {
        let (w, scale) =
            spear_workloads::by_spec(spec).ok_or_else(|| format!("unknown workload `{spec}`"))?;
        let (profile, eval) = tracer.span("workloads.build", || {
            (w.profile_program(), w.eval_program_scaled(scale))
        });
        let binary = tracer.span("compiler.compile", || {
            SpearCompiler::new(CompilerConfig::default())
                .compile(&profile)
                .map(|(compiled, _)| SpearCompiler::attach(eval, compiled.table))
                .map_err(|e| format!("{spec}: compile failed: {e}"))
        })?;
        let hier = HierConfig::paper();
        let bpred = PredictorConfig::paper();
        let (set, intervals, weights) = match self.simpoint {
            None => {
                let set = tracer.span("campaign.capture_interval_checkpoints", || {
                    capture_interval_checkpoints(
                        &binary.program,
                        spec,
                        hier,
                        bpred,
                        self.sample.interval_len,
                        self.sample.stride,
                        MAX_FUNCTIONAL_INSTS,
                    )
                })?;
                let intervals = plan_intervals(set.total_insts, &self.sample);
                (set, intervals, Vec::new())
            }
            Some(sp) => {
                let (bbvs, total) = tracer.span("exec.collect_bbvs", || {
                    spear_exec::collect_bbvs(
                        &binary.program,
                        self.sample.interval_len,
                        MAX_FUNCTIONAL_INSTS,
                    )
                })?;
                let clustering = tracer.span("simpoint.cluster", || {
                    let matrix: Vec<Vec<(u64, u64)>> =
                        bbvs.iter().map(|b| b.counts.clone()).collect();
                    spear_simpoint::cluster(
                        &matrix,
                        &spear_simpoint::SimpointConfig {
                            k: sp.k as usize,
                            seed: sp.seed,
                            ..Default::default()
                        },
                    )
                });
                let mut reps: Vec<(Interval, u64)> = clustering
                    .representatives
                    .iter()
                    .zip(&clustering.counts)
                    .map(|(&r, &count)| {
                        let b = &bbvs[r];
                        let iv = Interval {
                            index: b.index,
                            start_inst: b.start_inst,
                            len: b.len,
                        };
                        (iv, count)
                    })
                    .collect();
                reps.sort_by_key(|(iv, _)| iv.start_inst);
                let starts: Vec<u64> = reps.iter().map(|(iv, _)| iv.start_inst).collect();
                let set = tracer.span("campaign.capture_checkpoints_at", || {
                    capture_checkpoints_at(
                        &binary.program,
                        spec,
                        hier,
                        bpred,
                        &starts,
                        MAX_FUNCTIONAL_INSTS,
                    )
                })?;
                if set.total_insts != total {
                    return Err(format!("{spec}: BBV and warming passes disagree on length"));
                }
                let (intervals, weights) = reps.into_iter().unzip();
                (set, intervals, weights)
            }
        };
        let trace = if self.frontends.contains(&"trace") {
            Some(tracer.span("trace.record_trace", || {
                record_trace(spec, &binary, MAX_FUNCTIONAL_INSTS)
            })?)
        } else {
            None
        };
        Ok(Shard {
            spec: spec.to_string(),
            binary,
            set,
            intervals,
            weights,
            trace,
        })
    }

    /// The engine's cell: restore the interval's checkpoint into a fresh
    /// core and simulate its instruction budget.
    fn run_cell(
        &self,
        shard: &Shard,
        point: &MachinePoint,
        job: &CellJob,
        tracer: &Tracer,
    ) -> Result<CellResult, String> {
        let frontend = self.frontends[job.frontend];
        let iv = job.interval;
        let cp = shard
            .set
            .at(iv.start_inst)
            .ok_or_else(|| format!("{}: no checkpoint at {}", shard.spec, iv.start_inst))?;
        let t0 = Instant::now();
        let mut core = tracer.span("cpu.core_new", || -> Result<Core<'_>, String> {
            Ok(match (frontend, &shard.trace) {
                ("trace", Some(tf)) => {
                    let src = TraceSource::at_cursor(tf, cp.trace_cursor)?;
                    Core::with_source(&shard.binary, point.config.clone(), Box::new(src))
                }
                _ => Core::new(&shard.binary, point.config.clone()),
            })
        })?;
        tracer.span("campaign.restore_into", || cp.restore_into(&mut core))?;
        let res = tracer
            .span("cpu.run", || core.run(MAX_CELL_CYCLES, iv.len))
            .map_err(|e| format!("{} on {}: {e}", shard.spec, point.machine))?;
        if res.exit == RunExit::CycleBudget {
            return Err(format!(
                "{} interval {}: cycle ceiling hit",
                shard.spec, iv.index
            ));
        }
        Ok(CellResult {
            schema_version: CELL_SCHEMA_VERSION,
            workload: shard.spec.clone(),
            machine: point.machine.clone(),
            bpred: point.config.bpred.spec_label(),
            frontend: frontend.to_string(),
            mem_latency: point.mem_latency,
            interval: iv.index,
            start_inst: iv.start_inst,
            target_insts: iv.len,
            weight: job.weight,
            exit: res.exit,
            wall_ms: t0.elapsed().as_millis() as u64,
            stats: res.stats,
        })
    }

    fn replica_into(
        &self,
        dir: &std::path::Path,
        ctx: &Ctx,
        tracer: &Tracer,
    ) -> Result<(), String> {
        let specs = self.specs();
        let points = self.points();
        let shards = tracer.span("campaign.prepare", || {
            pool(ctx.threads, &specs, tracer, |spec| {
                self.prepare(spec, tracer)
            })
        });
        let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut jobs = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            for p in 0..points.len() {
                for f in 0..self.frontends.len() {
                    for (i, &interval) in shard.intervals.iter().enumerate() {
                        jobs.push(CellJob {
                            shard: s,
                            point: p,
                            frontend: f,
                            interval,
                            weight: shard.weights.get(i).copied().unwrap_or(1),
                        });
                    }
                }
            }
        }
        let path = dir.join("cells.jsonl");
        let sink = std::fs::File::create(&path)
            .map(Mutex::new)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let cells = tracer.span("campaign.cells", || {
            pool(ctx.threads, &jobs, tracer, |job| {
                let cell = self.run_cell(&shards[job.shard], &points[job.point], job, tracer)?;
                tracer.span("campaign.append_cell", || {
                    let mut f = sink.lock().expect("cell sink poisoned");
                    writeln!(f, "{}", serde::json::to_string(&cell))
                        .and_then(|()| f.flush())
                        .map_err(|e| format!("cannot append {}: {e}", path.display()))
                })?;
                Ok::<_, String>(cell)
            })
        });
        let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
        let spec = CampaignSpec {
            workloads: specs.clone(),
            points,
            frontends: self.frontends.iter().map(|f| f.to_string()).collect(),
            sample: self.sample,
            threads: ctx.threads,
            max_cells: None,
            window: None,
            simpoint: self.simpoint,
        };
        let loaded = tracer.span("campaign.load_results", || {
            Campaign::new(dir, spec).load_results()
        })?;
        if loaded.len() != cells.len() {
            return Err(format!(
                "cells.jsonl holds {} of {} cells",
                loaded.len(),
                cells.len()
            ));
        }
        tracer.span("campaign.write_aggregate_envelopes", || {
            write_aggregate_envelopes(
                dir,
                &loaded,
                self.simpoint.map(|sp| (sp, self.sample.interval_len)),
            )
        })?;
        Ok(())
    }
}

impl Bench for CampaignBench {
    fn setup(&mut self, _ctx: &Ctx) -> Result<(), String> {
        self.totals = harness::golden_counts(&self.specs())?;
        Ok(())
    }

    fn op(&mut self, ctx: &Ctx) -> Result<f64, String> {
        self.runs += 1;
        let dir = ctx.fresh_dir(&format!("cli-{}", self.runs))?;
        let args = self.cli_args(&dir, ctx.threads);
        let t0 = Instant::now();
        let run = harness::spear_sim(ctx, &args);
        let secs = t0.elapsed().as_secs_f64();
        let files = run.and_then(|()| harness::read_files(&dir.join("aggregates")));
        harness::remove_dir(&dir);
        let files = files?;
        match &self.reference {
            Some(first) if *first != files => {
                return Err("aggregate envelopes differ from this run's first repetition".into())
            }
            Some(_) => {}
            None => {
                self.check_envelopes(&files)?;
                harness::check_digest(self.name, self.digest, &stats::digest_files(&files))?;
                if self.simpoint.is_some() {
                    Self::print_speedups(&files);
                }
                self.reference = Some(files);
            }
        }
        Ok(secs)
    }

    fn replica(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<f64, String> {
        self.runs += 1;
        let dir = ctx.fresh_dir(&format!("replica-{}", self.runs))?;
        let t0 = Instant::now();
        let made = tracer.span("bench.replica", || self.replica_into(&dir, ctx, tracer));
        let secs = t0.elapsed().as_secs_f64();
        let files = made.and_then(|()| harness::read_files(&dir.join("aggregates")));
        harness::remove_dir(&dir);
        let files = files?;
        match &self.reference {
            Some(cli) if *cli == files => Ok(secs),
            Some(_) => Err("the traced replica's envelopes differ from the CLI's".into()),
            None => Err("no checked CLI output to compare the replica with".into()),
        }
    }

    fn finish(&mut self, _ctx: &Ctx) -> Result<f64, String> {
        Ok(peak_rss_mb(Who::Children))
    }

    fn kernels(&self) -> Vec<&'static str> {
        self.kernels.clone()
    }
}

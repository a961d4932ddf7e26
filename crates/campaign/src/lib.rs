//! # spear-campaign — checkpointed sampled simulation and resumable campaigns
//!
//! Full-program cycle simulation of the evaluation grid (15 workloads ×
//! 5 machines × the latency sweep) is the bottleneck of every experiment
//! in the paper. This crate cuts that cost along two independent axes:
//!
//! * **Sampling** ([`sample`]): split each workload's dynamic instruction
//!   stream into fixed-length intervals and cycle-simulate only every
//!   `stride`-th one, SMARTS-style. The functional pass still touches
//!   every instruction, continuously warming the caches and the branch
//!   predictor, so each simulated interval starts from representative
//!   microarchitectural state rather than a cold machine.
//! * **Checkpointing** ([`checkpoint`]): the warm state at each sampled
//!   interval boundary — architectural registers, memory image, PC, plus
//!   cache contents/LRU and predictor tables — is captured once per
//!   (workload, predictor spec) and restored into a fresh cycle core per
//!   (machine, latency) cell. The cache substrate is machine-independent
//!   (Table 2 geometry is shared by all five models), so one functional
//!   pass serves every sweep point that shares the predictor.
//!
//! The [`spec`] module is the one place that knows what a campaign is:
//! the wire-form [`JobSpec`], the runnable [`CampaignSpec`] and its single
//! validator, and the typed [`CellKey`] / [`ShardKey`]. The [`engine`]
//! module turns the resulting (workload, machine, predictor, front end,
//! latency, interval) cells into a crash-safe parallel work queue: each
//! finished cell is flushed to an append-only `cells.jsonl` in the
//! campaign directory, and a restarted campaign skips everything already
//! on disk. Aggregation sorts cells by their full key before merging, so
//! the final statistics are byte-identical regardless of thread count or
//! completion order — and the exact-slot CPI accounting invariant holds
//! on the aggregate because it holds per interval and merging is a plain
//! sum.

pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod sample;
pub mod spec;

pub use cache::{record_trace, ApproxBytes, Lru, LruStats, ShardCache, TraceCache};
pub use checkpoint::{
    capture_checkpoints_at, capture_interval_checkpoints, Checkpoint, CheckpointSet, Warmer,
};
pub use engine::{
    eta_ms, parallel_map, workload_timings, write_aggregate_envelopes, write_heartbeat, Campaign,
    CellResult, HeartbeatDoc, ProgressSnapshot, RunOptions, RunSummary, WorkloadData,
    WorkloadTiming,
};
pub use sample::{aggregate, plan_intervals, Aggregate, Interval, SampleSpec};
pub use spec::{
    CampaignSpec, CellKey, JobSpec, MachinePoint, ShardKey, SimpointSpec, CELL_SCHEMA_VERSION,
};

#[cfg(test)]
mod engine_tests {
    use super::*;
    use spear_cpu::CoreConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spear-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec(threads: usize, max_cells: Option<u64>) -> CampaignSpec {
        CampaignSpec {
            workloads: vec!["pointer".into(), "update".into()],
            points: vec![
                MachinePoint {
                    machine: "superscalar".into(),
                    mem_latency: 120,
                    config: CoreConfig::baseline(),
                },
                MachinePoint {
                    machine: "SPEAR-128".into(),
                    mem_latency: 120,
                    config: CoreConfig::spear(128),
                },
            ],
            frontends: vec!["program".into()],
            sample: SampleSpec {
                interval_len: 20_000,
                stride: 2,
            },
            threads,
            max_cells,
            window: None,
            simpoint: None,
        }
    }

    /// Strip the wall-clock fields so runs can be compared for semantic
    /// equality.
    fn comparable(aggs: &[Aggregate]) -> Vec<String> {
        aggs.iter()
            .map(|a| {
                format!(
                    "{}|{}|{}|{}|{}",
                    a.key.file_stem(),
                    a.halted,
                    a.cells,
                    a.target_insts,
                    serde::json::to_string(&a.stats)
                )
            })
            .collect()
    }

    #[test]
    fn campaign_runs_resumes_after_interruption_and_matches_uninterrupted() {
        // Reference: one uninterrupted run.
        let ref_dir = temp_dir("ref");
        let full = Campaign::new(&ref_dir, small_spec(2, None))
            .run(None)
            .expect("uninterrupted run");
        assert!(!full.interrupted);
        assert_eq!(full.executed, full.total_cells);
        let want = comparable(&full.aggregates());

        // Interrupted run: stop after 3 cells, then resume to the end.
        let dir = temp_dir("resume");
        let first = Campaign::new(&dir, small_spec(2, Some(3)))
            .run(None)
            .expect("interrupted run");
        assert!(first.interrupted);
        assert_eq!(first.executed, 3);
        let second = Campaign::new(&dir, small_spec(2, None))
            .run(None)
            .expect("resumed run");
        assert!(!second.interrupted);
        assert_eq!(second.skipped, 3, "resume must skip the finished cells");
        assert_eq!(
            second.executed + second.skipped,
            second.total_cells,
            "resume must finish exactly the remaining cells"
        );
        assert_eq!(comparable(&second.aggregates()), want);

        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_aggregates_identical_across_thread_counts() {
        let d1 = temp_dir("t1");
        let dn = temp_dir("tn");
        let serial = Campaign::new(&d1, small_spec(1, None)).run(None).unwrap();
        let parallel = Campaign::new(&dn, small_spec(4, None)).run(None).unwrap();
        assert_eq!(
            comparable(&serial.aggregates()),
            comparable(&parallel.aggregates())
        );
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&dn);
    }

    #[test]
    fn campaign_tolerates_truncated_tail_line_and_reruns_that_cell() {
        let dir = temp_dir("trunc");
        let spec = small_spec(1, None);
        let full = Campaign::new(&dir, spec.clone()).run(None).unwrap();
        let want = comparable(&full.aggregates());

        // Chop the last line mid-record, as a crash during the final
        // append would.
        let path = dir.join("cells.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 40;
        std::fs::write(&path, &text[..cut]).unwrap();

        let resumed = Campaign::new(&dir, spec.clone()).run(None).unwrap();
        assert_eq!(resumed.executed, 1, "exactly the damaged cell re-runs");
        assert_eq!(comparable(&resumed.aggregates()), want);

        // The torn tail must have been physically truncated before the
        // re-run appended, or the partial line and the fresh record would
        // have been glued into one permanently malformed line. Re-reading
        // from disk (not the in-memory summary) proves the file healed.
        let on_disk = Campaign::new(&dir, spec.clone()).load_results().unwrap();
        assert_eq!(
            on_disk.len() as u64,
            full.total_cells,
            "every record on disk parses after a torn-tail resume"
        );
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            serde::json::from_str::<engine::CellResult>(line).expect("no glued records");
        }
        let again = Campaign::new(&dir, spec).run(None).unwrap();
        assert_eq!(again.executed, 0, "nothing left to re-run");
        assert_eq!(comparable(&again.aggregates()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_rejects_mismatched_manifest() {
        let dir = temp_dir("manifest");
        Campaign::new(&dir, small_spec(1, Some(1)))
            .run(None)
            .unwrap();
        let mut other = small_spec(1, Some(1));
        other.sample.interval_len = 999;
        let err = Campaign::new(&dir, other).run(None).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_campaign_partitions_cells_and_is_deterministic_and_resumable() {
        // Two window lengths bracket the checkpoint-restore cases: a
        // tiny one so every cell closes many full windows and ends
        // mid-window, and a huge one so each cell holds exactly one
        // partial window closed at the interval boundary.
        for (tag, len) in [("tiny", 257u64), ("huge", 1 << 40)] {
            let spec = |threads: usize, max_cells: Option<u64>| {
                let mut s = small_spec(threads, max_cells);
                s.window = Some(len);
                s
            };
            let ref_dir = temp_dir(&format!("win-ref-{tag}"));
            let serial = Campaign::new(&ref_dir, spec(1, None)).run(None).unwrap();
            let want = comparable(&serial.aggregates());
            for c in &serial.results {
                let width = if c.machine == "superscalar" {
                    spear_cpu::CoreConfig::baseline().commit_width
                } else {
                    spear_cpu::CoreConfig::spear(128).commit_width
                };
                c.stats
                    .check_invariants(width)
                    .expect("per-cell window partition holds after checkpoint restore");
                assert!(!c.stats.windows.is_empty());
                let committed: u64 = c.stats.windows.iter().map(|w| w.committed).sum();
                assert_eq!(committed, c.stats.committed);
                if len == 1 << 40 {
                    assert_eq!(c.stats.windows.len(), 1, "one partial window per cell");
                }
            }

            // Byte-identical aggregates across 2- and 4-thread runs
            // (`comparable` serializes the stats, windows included).
            for threads in [2usize, 4] {
                let dir = temp_dir(&format!("win-t{threads}-{tag}"));
                let run = Campaign::new(&dir, spec(threads, None)).run(None).unwrap();
                assert_eq!(comparable(&run.aggregates()), want, "{threads} threads");
                let _ = std::fs::remove_dir_all(&dir);
            }

            // Interrupt mid-campaign and resume: the restored cells'
            // windows must reproduce the uninterrupted aggregate.
            let dir = temp_dir(&format!("win-resume-{tag}"));
            let first = Campaign::new(&dir, spec(2, Some(3))).run(None).unwrap();
            assert!(first.interrupted);
            let second = Campaign::new(&dir, spec(2, None)).run(None).unwrap();
            assert!(!second.interrupted);
            assert_eq!(comparable(&second.aggregates()), want);

            // A windowless spec must not resume a windowed directory:
            // the manifest fingerprints the window shape.
            let err = Campaign::new(&dir, small_spec(1, None))
                .run(None)
                .unwrap_err();
            assert!(err.contains("different spec"), "{err}");

            let _ = std::fs::remove_dir_all(&ref_dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn campaign_writes_heartbeat_files_with_the_final_state() {
        let dir = temp_dir("beat");
        let summary = Campaign::new(&dir, small_spec(2, None)).run(None).unwrap();
        let hb: HeartbeatDoc =
            serde::json::from_str(&std::fs::read_to_string(dir.join("progress.json")).unwrap())
                .expect("progress.json parses");
        assert_eq!(hb.total, summary.total_cells);
        assert_eq!(hb.done, summary.total_cells, "final heartbeat sees the end");
        assert_eq!(hb.executed, summary.executed);
        assert!(hb.committed_insts > 0);
        assert!(hb.kips > 0.0);
        assert_eq!(
            hb.last_cell.split('/').count(),
            6,
            "workload/machine/bpred/frontend/latency/interval: {}",
            hb.last_cell
        );
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(
            prom.contains(&format!(
                "spear_campaign_cells_total {}",
                summary.total_cells
            )),
            "{prom}"
        );
        assert!(prom.contains("# TYPE spear_campaign_kips gauge"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_frontend_cells_match_program_cells_on_the_baseline_machine() {
        let dir = temp_dir("trace-fe");
        let mut spec = small_spec(2, None);
        spec.workloads = vec!["pointer".into()];
        spec.points.truncate(1); // the baseline superscalar point
        spec.frontends = vec!["program".into(), "trace".into()];
        let summary = Campaign::new(&dir, spec.clone()).run(None).unwrap();
        let aggs = summary.aggregates();
        assert_eq!(aggs.len(), 2, "one aggregate per front end");
        let prog = aggs.iter().find(|a| a.key.frontend == "program").unwrap();
        let trace = aggs.iter().find(|a| a.key.frontend == "trace").unwrap();
        assert!(prog.cells > 0 && prog.cells == trace.cells);
        assert_eq!(
            serde::json::to_string(&prog.stats),
            serde::json::to_string(&trace.stats),
            "baseline timing must not depend on the instruction source"
        );

        // The aggregate envelope files keep the historical name for the
        // program group and insert the front end for the trace group.
        let files = write_aggregate_envelopes(&dir, &summary.results, None).unwrap();
        let names: Vec<String> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.contains(&"pointer-superscalar-120.json".to_string()),
            "{names:?}"
        );
        assert!(
            names.contains(&"pointer-superscalar-trace-120.json".to_string()),
            "{names:?}"
        );

        // The frontend axis participates in resume identity: a re-run
        // has nothing left, and a program-only spec must not resume a
        // two-frontend directory.
        let again = Campaign::new(&dir, spec.clone()).run(None).unwrap();
        assert_eq!(again.executed, 0, "every (frontend, interval) cell done");
        let mut other = spec;
        other.frontends = vec!["program".into()];
        let err = Campaign::new(&dir, other).run(None).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_campaigns_share_the_trace_cache_across_jobs() {
        let traces = TraceCache::new(u64::MAX);
        let mut spec = small_spec(2, None);
        spec.workloads = vec!["pointer".into()];
        spec.points.truncate(1);
        spec.frontends = vec!["trace".into()];
        let opts = || RunOptions {
            traces: Some(&traces),
            ..RunOptions::default()
        };
        let d1 = temp_dir("share-1");
        let d2 = temp_dir("share-2");
        let a = Campaign::new(&d1, spec.clone()).run_with(&opts()).unwrap();
        let b = Campaign::new(&d2, spec).run_with(&opts()).unwrap();
        assert_eq!(comparable(&a.aggregates()), comparable(&b.aggregates()));
        let ts = traces.stats();
        assert_eq!(
            (ts.misses, ts.hits),
            (1, 1),
            "one recording serves both jobs: {ts:?}"
        );
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    fn simpoint_spec(threads: usize, max_cells: Option<u64>) -> CampaignSpec {
        let mut s = small_spec(threads, max_cells);
        s.sample.stride = 1;
        s.simpoint = Some(SimpointSpec { k: 3, seed: 42 });
        s
    }

    #[test]
    fn simpoint_campaign_runs_fewer_cells_resumes_and_is_thread_deterministic() {
        // Reference: the full (stride-1) campaign, for the cell count.
        let full_dir = temp_dir("sp-full");
        let mut full_spec = small_spec(1, None);
        full_spec.sample.stride = 1;
        let full = Campaign::new(&full_dir, full_spec).run(None).unwrap();

        let ref_dir = temp_dir("sp-ref");
        let sp = Campaign::new(&ref_dir, simpoint_spec(1, None))
            .run(None)
            .unwrap();
        assert!(
            sp.total_cells < full.total_cells,
            "simpoint must simulate fewer cells than full coverage \
             ({} vs {})",
            sp.total_cells,
            full.total_cells
        );
        // Every representative carries its phase's population count, and
        // per workload group the weights cover the whole program.
        let sp_aggs = sp.aggregates();
        let full_aggs = full.aggregates();
        for (s, f) in sp_aggs.iter().zip(&full_aggs) {
            assert!(s.key.same_group(&f.key));
            assert_eq!(s.weight, f.cells, "weights cover every interval");
            // The blend's instruction budget is Σ weight × rep_len: the
            // short tail interval may be stood for by a full-length
            // representative (or represent full ones itself), so the
            // reconstituted budget is the true total ± one interval per
            // phase, not exact.
            assert!(
                s.target_insts.abs_diff(f.target_insts) < s.cells * 20_000,
                "whole-program budget: {} vs {}",
                s.target_insts,
                f.target_insts
            );
            assert!(s.cells <= 3, "at most k representatives per group");
            let rel = (s.ipc() - f.ipc()).abs() / f.ipc();
            assert!(
                rel < 0.25,
                "{}/{}: blended IPC {} vs full {} ({}% off)",
                s.key.workload,
                s.key.machine,
                s.ipc(),
                f.ipc(),
                rel * 100.0
            );
        }
        // The blended statistics still satisfy the exact-slot invariant.
        for a in &sp_aggs {
            let width = if a.key.machine == "superscalar" {
                spear_cpu::CoreConfig::baseline().commit_width
            } else {
                spear_cpu::CoreConfig::spear(128).commit_width
            };
            a.stats.check_invariants(width).expect("scaled invariants");
        }
        let want = comparable(&sp_aggs);

        // Thread-count determinism, byte-for-byte.
        let dn = temp_dir("sp-t4");
        let parallel = Campaign::new(&dn, simpoint_spec(4, None))
            .run(None)
            .unwrap();
        assert_eq!(comparable(&parallel.aggregates()), want);

        // Interrupt + resume converges to the same aggregates.
        let dir = temp_dir("sp-resume");
        let first = Campaign::new(&dir, simpoint_spec(2, Some(2)))
            .run(None)
            .unwrap();
        assert!(first.interrupted);
        let second = Campaign::new(&dir, simpoint_spec(2, None))
            .run(None)
            .unwrap();
        assert!(!second.interrupted);
        assert_eq!(comparable(&second.aggregates()), want);

        // The manifest fingerprints the clustering: neither a plain spec
        // nor different clustering parameters may resume this directory.
        let mut plain = small_spec(1, None);
        plain.sample.stride = 1;
        let err = Campaign::new(&dir, plain).run(None).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
        let mut other = simpoint_spec(1, None);
        other.simpoint = Some(SimpointSpec { k: 3, seed: 7 });
        let err = Campaign::new(&dir, other).run(None).unwrap_err();
        assert!(err.contains("different spec"), "{err}");

        // Envelopes gain the additive simpoint block; weight-carrying
        // records on disk round-trip through the cell schema.
        let files = write_aggregate_envelopes(
            &dir,
            &second.results,
            Some((SimpointSpec { k: 3, seed: 42 }, 20_000)),
        )
        .unwrap();
        let doc = spear_cpu::StatsExport::from_json(&std::fs::read_to_string(&files[0]).unwrap())
            .expect("envelope parses");
        let block = doc.simpoint.expect("simpoint block present");
        assert_eq!((block.k, block.seed, block.interval_len), (3, 42, 20_000));
        assert!(block.phases <= block.intervals);
        for line in std::fs::read_to_string(dir.join("cells.jsonl"))
            .unwrap()
            .lines()
        {
            let cell: engine::CellResult = serde::json::from_str(line).unwrap();
            assert!(cell.weight >= 1);
        }
        assert!(
            second.results.iter().any(|c| c.weight > 1),
            "a 3-phase clustering of >3 intervals must weight some cell"
        );

        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scaled_workload_specs_run_and_keep_their_identity() {
        let dir = temp_dir("scaled");
        let mut spec = small_spec(2, None);
        spec.workloads = vec!["pointer".into(), "pointer@x2".into()];
        spec.points.truncate(1);
        let summary = Campaign::new(&dir, spec).run(None).unwrap();
        let aggs = summary.aggregates();
        assert_eq!(aggs.len(), 2, "base and scaled are distinct groups");
        let base = aggs.iter().find(|a| a.key.workload == "pointer").unwrap();
        let scaled = aggs
            .iter()
            .find(|a| a.key.workload == "pointer@x2")
            .unwrap();
        assert!(
            scaled.target_insts > base.target_insts,
            "the scale knob must grow the evaluation run: {} vs {}",
            scaled.target_insts,
            base.target_insts
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_callback_reports_monotone_done_and_eta() {
        let dir = temp_dir("progress");
        let calls = AtomicU64::new(0);
        let summary = Campaign::new(&dir, small_spec(1, None))
            .run(Some(&|p: &ProgressSnapshot| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert!(p.done <= p.total);
                assert!(p.eta_ms.is_some(), "ETA available after first cell");
            }))
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), summary.executed);
        assert!(!summary.timings.is_empty());
        let total_cells: u64 = summary.timings.iter().map(|t| t.cells).sum();
        assert_eq!(total_cells, summary.total_cells);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

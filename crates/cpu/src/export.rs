//! Structured telemetry export: a versioned JSON envelope around a full
//! run's statistics, for downstream tooling (plots, regression diffs,
//! CI dashboards) that should not have to scrape the text report.
//!
//! The schema is versioned by [`SCHEMA_VERSION`]: any field rename or
//! semantic change bumps it, and a golden-file test in the `spear`
//! crate's `tests/export_schema.rs` pins the flattened key set so
//! accidental drift fails loudly.
//!
//! Lives in `spear-cpu` (re-exported by the top-level `spear` crate) so
//! the campaign engine and the campaign server write their aggregate
//! envelopes through the *same* type the CLI uses — byte-identical by
//! construction rather than by convention.

use crate::stats::{CoreStats, RunExit};
use serde::{Deserialize, Serialize};

/// Version of the exported JSON schema. Bump on any breaking change to
/// [`StatsExport`] or the stats types it embeds.
pub const SCHEMA_VERSION: u32 = 1;

/// Simulator self-measurement: how fast the *simulation itself* ran.
///
/// Purely observational — derived from the host wall clock, so two runs
/// of the same cell will differ. It is therefore attached to envelopes
/// as an *optional, omitted-when-absent* block: deterministic artifacts
/// (golden files, campaign aggregate files compared byte-for-byte
/// across resume boundaries) simply never set it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimPerf {
    /// Host wall-clock time of the simulated run, in milliseconds.
    pub wall_ms: u64,
    /// Simulation throughput: committed kilo-instructions per host
    /// second.
    pub kips: f64,
    /// Simulated cycles per host second.
    pub cycles_per_sec: f64,
}

impl SimPerf {
    /// Throughput of a run that committed `committed` instructions over
    /// `cycles` cycles in `wall` of host time.
    pub fn from_run(committed: u64, cycles: u64, wall: std::time::Duration) -> SimPerf {
        let secs = wall.as_secs_f64().max(1e-9);
        SimPerf {
            wall_ms: wall.as_millis() as u64,
            kips: committed as f64 / secs / 1000.0,
            cycles_per_sec: cycles as f64 / secs,
        }
    }

    /// One-line human summary (the `spear-sim --perf` line).
    pub fn summary(&self) -> String {
        format!(
            "sim-perf: {:.0} KIPS, {:.2e} cycles/s, {} ms wall",
            self.kips, self.cycles_per_sec, self.wall_ms
        )
    }
}

/// Provenance of a SimPoint-sampled aggregate: how the phase clustering
/// that produced the weight-blended statistics was configured and what it
/// covered. Additive and omitted-when-absent, like [`SimPerf`]: envelopes
/// from full or systematically sampled runs never carry it, so their
/// bytes are unchanged by the block's existence.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimpointBlock {
    /// Requested phase count (0 = chosen automatically by BIC).
    pub k: u64,
    /// Clusterer seed.
    pub seed: u64,
    /// Instructions per clustering interval.
    pub interval_len: u64,
    /// Representative intervals actually cycle-simulated for this
    /// aggregate (one per phase).
    pub phases: u64,
    /// Total intervals the phase weights cover (the whole-program
    /// denominator the blend reconstitutes).
    pub intervals: u64,
}

/// The top-level JSON document written by `spear-sim --stats-json` and
/// the campaign aggregate writers.
///
/// Every optional block is *omitted* when absent, not emitted as `null`,
/// so envelopes built without it stay byte-identical to the schema that
/// predates it (golden files, campaign aggregates), and documents from
/// older writers parse back with the block absent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsExport {
    /// Schema version of this document ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload name or input-file path.
    pub workload: String,
    /// Machine model name (e.g. `SPEAR-128`).
    pub machine: String,
    /// Main-memory access latency in cycles (Table 2 default or the
    /// `--mem-latency` sweep point).
    pub mem_latency: u32,
    /// How the run ended.
    pub exit: RunExit,
    /// Full simulator statistics, including the CPI-stack cycle account
    /// and the per-d-load prefetch profiles.
    pub stats: CoreStats,
    /// Simulation-throughput self-measurement (additive; absent from
    /// deterministic artifacts).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sim_perf: Option<SimPerf>,
    /// Canonical branch-predictor spec label (e.g. `tage` or
    /// `tage:tables=8,...`) when the run used a non-default predictor.
    /// `None` — and omitted from JSON — for the paper's bimodal default,
    /// keeping default envelopes byte-identical to the pre-trait schema.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bpred: Option<String>,
    /// Instruction-supply front end (`trace`) when the run replayed a
    /// recorded trace instead of executing the program. `None` — and
    /// omitted from JSON — for the default program front end, keeping
    /// program-driven envelopes byte-identical to the pre-trace schema.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub frontend: Option<String>,
    /// SimPoint phase-clustering provenance when the statistics are a
    /// weight-blended reconstruction over phase representatives. `None` —
    /// and omitted from JSON — for full and systematically sampled runs,
    /// keeping their envelopes byte-identical to the pre-simpoint schema.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub simpoint: Option<SimpointBlock>,
}

impl StatsExport {
    /// Build the export envelope around a finished run.
    pub fn new(
        workload: impl Into<String>,
        machine: &str,
        mem_latency: u32,
        exit: RunExit,
        stats: CoreStats,
    ) -> Self {
        StatsExport {
            schema_version: SCHEMA_VERSION,
            workload: workload.into(),
            machine: machine.to_string(),
            mem_latency,
            exit,
            stats,
            sim_perf: None,
            bpred: None,
            frontend: None,
            simpoint: None,
        }
    }

    /// Attach a simulation-throughput block to the envelope.
    pub fn with_sim_perf(mut self, perf: SimPerf) -> Self {
        self.sim_perf = Some(perf);
        self
    }

    /// Record the predictor spec label. The default `bimodal` is stored
    /// as `None` so default envelopes keep their exact historical bytes.
    pub fn with_bpred(mut self, label: &str) -> Self {
        self.bpred = if label == "bimodal" {
            None
        } else {
            Some(label.to_string())
        };
        self
    }

    /// Record the instruction-supply front end. The default `program`
    /// source is stored as `None` so program-driven envelopes keep their
    /// exact historical bytes.
    pub fn with_frontend(mut self, frontend: &str) -> Self {
        self.frontend = if frontend == "program" {
            None
        } else {
            Some(frontend.to_string())
        };
        self
    }

    /// Attach SimPoint phase-clustering provenance to the envelope.
    pub fn with_simpoint(mut self, block: SimpointBlock) -> Self {
        self.simpoint = Some(block);
        self
    }

    /// Pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse a document produced by [`Self::to_json`]. Unknown fields are
    /// ignored, so newer documents load under older readers as long as
    /// the present fields keep their meaning.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let mut stats = CoreStats {
            cycles: 123,
            committed: 456,
            ..Default::default()
        };
        stats.cycle_account.useful_slots = 456;
        stats.cycle_account.dload_miss = 528;
        let doc = StatsExport::new("mcf", "SPEAR-128", 120, RunExit::Halted, stats);
        let json = doc.to_json();
        assert!(
            !json.contains("sim_perf"),
            "absent sim_perf is omitted, not null — deterministic envelopes \
             must not change shape"
        );
        assert!(
            !json.contains("bpred_detail") && !json.contains("\"bpred\": \""),
            "default-predictor envelopes must not grow predictor blocks"
        );
        let back = StatsExport::from_json(&json).expect("valid JSON");
        assert_eq!(doc, back);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn bpred_label_round_trips_and_bimodal_stays_omitted() {
        let doc = StatsExport::new(
            "mcf",
            "SPEAR-128",
            120,
            RunExit::Halted,
            CoreStats::default(),
        );
        let bimodal = doc.clone().with_bpred("bimodal");
        assert_eq!(bimodal.bpred, None, "default label normalizes to absent");
        assert_eq!(bimodal.to_json(), doc.to_json());
        let tage = doc.clone().with_bpred("tage");
        let json = tage.to_json();
        assert!(json.contains("\"bpred\": \"tage\""));
        let back = StatsExport::from_json(&json).expect("valid JSON");
        assert_eq!(back.bpred.as_deref(), Some("tage"));
    }

    #[test]
    fn frontend_label_round_trips_and_program_stays_omitted() {
        let doc = StatsExport::new(
            "mcf",
            "SPEAR-128",
            120,
            RunExit::Halted,
            CoreStats::default(),
        );
        let program = doc.clone().with_frontend("program");
        assert_eq!(
            program.frontend, None,
            "default source normalizes to absent"
        );
        assert_eq!(program.to_json(), doc.to_json());
        let trace = doc.clone().with_frontend("trace");
        let json = trace.to_json();
        assert!(json.contains("\"frontend\": \"trace\""));
        let back = StatsExport::from_json(&json).expect("valid JSON");
        assert_eq!(back.frontend.as_deref(), Some("trace"));
    }

    #[test]
    fn sim_perf_block_round_trips_when_present() {
        let stats = CoreStats {
            cycles: 2_000_000,
            committed: 1_000_000,
            ..Default::default()
        };
        let perf = SimPerf::from_run(1_000_000, 2_000_000, std::time::Duration::from_millis(250));
        assert_eq!(perf.wall_ms, 250);
        assert!(
            (perf.kips - 4000.0).abs() < 1e-6,
            "1M insts / 0.25s = 4000 KIPS"
        );
        assert!((perf.cycles_per_sec - 8_000_000.0).abs() < 1e-3);
        let doc =
            StatsExport::new("mcf", "SPEAR-128", 120, RunExit::Halted, stats).with_sim_perf(perf);
        let json = doc.to_json();
        assert!(json.contains("\"sim_perf\""));
        assert!(json.contains("\"kips\""));
        let back = StatsExport::from_json(&json).expect("valid JSON");
        assert_eq!(back.sim_perf, Some(perf));
        assert!(!perf.summary().is_empty());
    }

    #[test]
    fn simpoint_block_round_trips_and_stays_omitted_when_off() {
        let doc = StatsExport::new(
            "mcf",
            "SPEAR-128",
            120,
            RunExit::Halted,
            CoreStats::default(),
        );
        assert!(
            !doc.to_json().contains("simpoint"),
            "non-simpoint envelopes must not grow a simpoint block"
        );
        let block = SimpointBlock {
            k: 0,
            seed: 42,
            interval_len: 100_000,
            phases: 4,
            intervals: 150,
        };
        let json = doc.clone().with_simpoint(block).to_json();
        assert!(json.contains("\"simpoint\""));
        // The block is appended after every pre-existing optional field,
        // so the prefix of the document is byte-identical with it off.
        let plain = doc.to_json();
        let prefix = &plain[..plain.rfind('\n').unwrap_or(0)];
        assert!(
            json.starts_with(prefix.trim_end_matches(['}', '\n', ' '])),
            "simpoint block must be additive at the document tail"
        );
        let back = StatsExport::from_json(&json).expect("valid JSON");
        assert_eq!(back.simpoint, Some(block));
        assert_eq!(back.simpoint.unwrap().phases, 4);
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let p = SimPerf::from_run(100, 100, std::time::Duration::ZERO);
        assert!(p.kips.is_finite());
        assert!(p.cycles_per_sec.is_finite());
    }
}

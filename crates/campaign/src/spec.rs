//! The campaign spec: the one place that knows what a campaign is.
//!
//! A campaign is a grid — workloads × (machine, predictor, latency)
//! points × instruction-supply front ends — cut into sampled intervals.
//! Everything about the shape of that grid lives here:
//!
//! * [`JobSpec`] is the wire form: the `POST /jobs` body, and what the
//!   `spear-sim campaign` flags fill in. [`JobSpec::resolve`] is the only
//!   translation from names (`spear-128`, `tage`, `all`) to configurations.
//! * [`CampaignSpec`] is the runnable form, and [`CampaignSpec::validate`]
//!   is the only place its rules are checked. The CLI, the server and the
//!   engine all reach it, so a spec the engine would reject is rejected
//!   before any directory is created or any job is queued.
//! * [`CellKey`] names one cell, [`ShardKey`] one prepared shard, and
//!   [`ManifestDoc`] fingerprints the whole spec so a resume into the
//!   wrong directory fails loudly.
//!
//! A new sweep axis is a field here, threaded through these types, plus
//! the engine code that uses its value.

use crate::sample::SampleSpec;
use serde::{Deserialize, Serialize};
use spear_cpu::machine::Machine;
use spear_cpu::CoreConfig;
use spear_mem::LatencyConfig;
use std::fmt;

/// Version of the per-cell JSONL record format. Bump on breaking change.
///
/// v1 keyed cells by (workload, machine, latency, interval); v2 adds the
/// branch-predictor spec label as a first-class axis of the cell key and
/// the manifest fingerprint; v3 adds the instruction-supply front end
/// (`program` or `trace`) to both.
pub const CELL_SCHEMA_VERSION: u32 = 3;

/// The instruction-supply front ends a campaign may sweep.
const FRONTENDS: [&str; 2] = ["program", "trace"];

/// One (machine, latency) point of the sweep, with its fully resolved
/// core configuration. The `machine` and `mem_latency` fields are the
/// cell key; `config` is what actually runs.
#[derive(Clone, Debug)]
pub struct MachinePoint {
    /// Machine model name (e.g. `SPEAR-128`).
    pub machine: String,
    /// Main-memory latency in cycles (the key of the Figure 9 sweep).
    pub mem_latency: u32,
    /// The resolved configuration (latency already applied).
    pub config: CoreConfig,
}

impl MachinePoint {
    /// Machine `m` at `latency` (`None` = the Table 2 latencies),
    /// labelled with the machine's name.
    pub fn of(m: Machine, latency: Option<LatencyConfig>) -> MachinePoint {
        MachinePoint {
            machine: m.name().to_string(),
            mem_latency: latency.unwrap_or_else(LatencyConfig::paper).memory,
            config: m.config(latency),
        }
    }
}

/// SimPoint phase-clustering parameters for a `--simpoint` campaign.
///
/// With this set, the prepare phase slices every workload's committed
/// stream into BBV intervals (one per `sample.interval_len`
/// instructions), clusters them into phases with a seeded k-means (see
/// `spear_simpoint`), and cycle-simulates only one *representative*
/// interval per phase. Each representative's cell carries its phase's
/// population count as a weight, and the aggregate reconstitutes
/// whole-program statistics as the weight-blended sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimpointSpec {
    /// Number of phases; 0 chooses k automatically by BIC.
    pub k: u64,
    /// Clusterer seed (projection axes + deterministic k-means).
    pub seed: u64,
}

impl Default for SimpointSpec {
    fn default() -> SimpointSpec {
        SimpointSpec { k: 0, seed: 42 }
    }
}

impl SimpointSpec {
    /// Canonical one-string form, used as the manifest fingerprint field
    /// (e.g. `k4:seed42`; `k0` = auto).
    pub fn label(&self) -> String {
        format!("k{}:seed{}", self.k, self.seed)
    }
}

/// What a campaign runs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Workload specs: plain abbreviations (`mcf`) or scale-suffixed
    /// (`mcf@x100`), resolved via `spear_workloads::by_spec`.
    pub workloads: Vec<String>,
    /// The (machine, latency) sweep points.
    pub points: Vec<MachinePoint>,
    /// Instruction-supply front ends to sweep (`program`, `trace`).
    /// Empty normalizes to `["program"]`, the historical behavior.
    /// `trace` cells replay a recorded committed path instead of
    /// executing semantics; the trace is recorded once per workload
    /// during the prepare phase (or fetched from a trace cache). Only
    /// baseline machines take `trace` (see [`check_trace_machine`]).
    pub frontends: Vec<String>,
    /// Interval sampling parameters.
    pub sample: SampleSpec,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Stop after executing this many cells in this invocation (used to
    /// exercise crash-resume in tests and CI; `None` = run to the end).
    pub max_cells: Option<u64>,
    /// Windowed-telemetry length in cycles for every cell (`None` =
    /// windows off). Part of the manifest fingerprint: window shape
    /// changes the persisted stats, so a resume must match.
    pub window: Option<u64>,
    /// SimPoint phase clustering (`None` = systematic sampling as
    /// before). Part of the manifest fingerprint. Requires `stride == 1`
    /// and is incompatible with `window` (see [`CampaignSpec::validate`]).
    pub simpoint: Option<SimpointSpec>,
}

impl CampaignSpec {
    /// The spec's front-end list, normalized: empty means the historical
    /// program-driven campaign.
    pub(crate) fn frontends(&self) -> Vec<String> {
        if self.frontends.is_empty() {
            vec!["program".to_string()]
        } else {
            self.frontends.clone()
        }
    }

    /// Check every rule a campaign must satisfy. Each axis must be
    /// non-empty and free of repeats — a repeated workload or point would
    /// run its cells twice and double-count them in the aggregate — and
    /// the options must be compatible with each other.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() || self.points.is_empty() {
            return Err("campaign needs at least one workload and one machine point".into());
        }
        for (i, name) in self.workloads.iter().enumerate() {
            if spear_workloads::by_spec(name).is_none() {
                return Err(format!("unknown workload `{name}`"));
            }
            if self.workloads[..i].contains(name) {
                return Err(format!("workload `{name}` listed more than once"));
            }
        }
        for (i, p) in self.points.iter().enumerate() {
            p.config.check_latency()?;
            let label = p.config.bpred.spec_label();
            let seen = self.points[..i].iter().any(|q| {
                q.machine == p.machine
                    && q.mem_latency == p.mem_latency
                    && q.config.bpred.spec_label() == label
            });
            if seen {
                return Err(format!(
                    "machine point `{}/{label}/{}` listed more than once",
                    p.machine, p.mem_latency
                ));
            }
        }
        if self.sample.interval_len == 0 || self.sample.stride == 0 {
            return Err("interval and stride must be nonzero".into());
        }
        let frontends = self.frontends();
        for (i, f) in frontends.iter().enumerate() {
            if !FRONTENDS.contains(&f.as_str()) {
                return Err(format!(
                    "unknown front end `{f}` (expected `program` or `trace`)"
                ));
            }
            if frontends[..i].contains(f) {
                return Err(format!("front end `{f}` listed more than once"));
            }
        }
        if frontends.iter().any(|f| f == "trace") {
            for p in &self.points {
                check_trace_machine(&p.machine, &p.config)?;
            }
        }
        if self.simpoint.is_some() {
            // Windowed telemetry is a cycle partition of one run and
            // cannot be weight-blended across phase representatives.
            if self.window.is_some() {
                return Err("simpoint is incompatible with window: windowed telemetry \
                            cannot be weight-blended across phase representatives"
                    .into());
            }
            if self.sample.stride != 1 {
                return Err(format!(
                    "simpoint requires stride 1 (phase clustering replaces systematic \
                     sampling), got stride {}",
                    self.sample.stride
                ));
            }
        }
        Ok(())
    }

    /// The shard-cache key of `workload` warmed under predictor `bpred`.
    pub fn shard_key(&self, workload: &str, bpred: &str) -> ShardKey {
        ShardKey {
            workload: workload.to_string(),
            bpred: bpred.to_string(),
            trace: self.frontends().iter().any(|f| f == "trace"),
            simpoint: self.simpoint,
            sample: self.sample,
        }
    }

    /// The manifest fingerprint of this spec.
    pub(crate) fn manifest(&self) -> ManifestDoc {
        ManifestDoc {
            version: CELL_SCHEMA_VERSION,
            workloads: self.workloads.clone(),
            points: self
                .points
                .iter()
                .map(|p| ManifestPoint {
                    machine: p.machine.clone(),
                    bpred: p.config.bpred.spec_label(),
                    mem_latency: p.mem_latency,
                })
                .collect(),
            frontends: self.frontends(),
            interval_len: self.sample.interval_len,
            stride: self.sample.stride,
            window: self.window,
            simpoint: self.simpoint.map(|s| s.label()),
        }
    }
}

/// Refuse a SPEAR machine under the `trace` front end. Replay carries no
/// register values, so a SPEAR machine's p-thread live-in copies read
/// restored rather than recomputed values and its timing departs from
/// the `program` front end's; only the baseline replays exactly. The
/// campaign validator and the single-run flag parser both apply this.
pub fn check_trace_machine(machine: &str, config: &CoreConfig) -> Result<(), String> {
    match config.spear {
        Some(_) => Err(format!(
            "the `trace` front end cannot drive SPEAR machine `{machine}`: replay carries \
             no register values, so its timing would differ from the `program` front end \
             (trace replay needs a baseline machine)"
        )),
        None => Ok(()),
    }
}

/// A sweep request: the body of `POST /jobs`, and what the `spear-sim
/// campaign` flags fill in, field for flag, so a spec and a CLI
/// invocation describe the same grid. Absent keys take their defaults.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct JobSpec {
    /// Workload names (`"all"` expands to the full benchmark set).
    pub workloads: Vec<String>,
    /// Machine model names (CLI spellings, e.g. `spear-128`).
    pub machines: Vec<String>,
    /// Branch-predictor specs (`--bpreds`), each a `--bpred` spelling
    /// like `bimodal`, `gshare` or `tage:tables=6,...`. Empty means the
    /// paper default (`bimodal`). The grid is machines × bpreds.
    pub bpreds: Vec<String>,
    /// Instruction-supply front ends (`--frontends`): `program` and/or
    /// `trace`. Empty means the historical program-driven grid.
    pub frontends: Vec<String>,
    /// Main-memory latency override in cycles (`--mem-latency`).
    pub mem_latency: Option<u32>,
    /// Interval length in instructions (`--interval`).
    pub interval: u64,
    /// Simulate every `stride`-th interval (`--stride`).
    pub stride: u64,
    /// Windowed-telemetry length in cycles; `0` means the default
    /// window (`--window`).
    pub window: Option<u64>,
    /// Stop after this many cells per run (`--max-cells`; the campaign
    /// resumes on the next run).
    pub max_cells: Option<u64>,
    /// Run each workload as a SimPoint phase-clustered campaign
    /// (`--simpoint`): simulate one weighted representative interval
    /// per phase instead of every interval.
    pub simpoint: bool,
    /// Fixed phase count (`--simpoint-k`); providing it implies
    /// `simpoint`, and `0`/absent means BIC auto-selection.
    pub simpoint_k: Option<u64>,
    /// Clustering seed (`--simpoint-seed`); providing it implies
    /// `simpoint`. Absent means the default seed.
    pub simpoint_seed: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            workloads: Vec::new(),
            machines: Vec::new(),
            bpreds: Vec::new(),
            frontends: Vec::new(),
            mem_latency: None,
            interval: 100_000,
            stride: 1,
            window: None,
            max_cells: None,
            simpoint: false,
            simpoint_k: None,
            simpoint_seed: None,
        }
    }
}

impl JobSpec {
    /// Resolve the names into a runnable, validated [`CampaignSpec`]
    /// using `threads` worker threads: `all` expansion, machine and
    /// predictor lookup, the paper's default latency, and `window: 0` →
    /// the default window.
    pub fn resolve(&self, threads: usize) -> Result<CampaignSpec, String> {
        let workloads = if self.workloads.iter().any(|w| w == "all") {
            spear_workloads::all()
                .iter()
                .map(|w| w.name.to_string())
                .collect()
        } else {
            self.workloads.clone()
        };
        let machines = self
            .machines
            .iter()
            .map(|name| {
                Machine::from_cli_name(name).ok_or_else(|| format!("unknown machine `{name}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let default_bpreds = ["bimodal".to_string()];
        let bpreds = if self.bpreds.is_empty() {
            &default_bpreds[..]
        } else {
            &self.bpreds[..]
        }
        .iter()
        .map(|spec| {
            spear_bpred::PredictorConfig::paper()
                .with_spec(spec)
                .map_err(|e| format!("bad predictor spec `{spec}`: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
        let latency = self.mem_latency.map(LatencyConfig::sweep_point);
        let mut points = Vec::with_capacity(machines.len() * bpreds.len());
        for &m in &machines {
            for &bpred in &bpreds {
                let mut point = MachinePoint::of(m, latency);
                point.config.bpred = bpred;
                points.push(point);
            }
        }
        // `simpoint_k` / `simpoint_seed` imply simpoint, exactly like the
        // CLI's `--simpoint-k` / `--simpoint-seed` flags.
        let simpoint = (self.simpoint || self.simpoint_k.is_some() || self.simpoint_seed.is_some())
            .then(|| SimpointSpec {
                k: self.simpoint_k.unwrap_or(0),
                seed: self.simpoint_seed.unwrap_or(SimpointSpec::default().seed),
            });
        let spec = CampaignSpec {
            workloads,
            points,
            frontends: self.frontends.clone(),
            sample: SampleSpec {
                interval_len: self.interval,
                stride: self.stride,
            },
            threads,
            max_cells: self.max_cells,
            window: self.window.map(|n| {
                if n == 0 {
                    spear_cpu::DEFAULT_WINDOW_CYCLES
                } else {
                    n
                }
            }),
            simpoint,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The identity of one cell within a campaign. Orders axis by axis in
/// field order, which is the order aggregation sorts and groups cells in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Workload spec.
    pub workload: String,
    /// Machine model name.
    pub machine: String,
    /// Canonical branch-predictor spec label.
    pub bpred: String,
    /// Instruction-supply front end.
    pub frontend: String,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
    /// Interval index within the workload.
    pub interval: u64,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}/{}/{}",
            self.workload, self.machine, self.bpred, self.frontend, self.mem_latency, self.interval
        )
    }
}

impl CellKey {
    /// Whether `other` belongs to the same aggregate group: every axis
    /// but the interval matches.
    pub(crate) fn same_group(&self, other: &CellKey) -> bool {
        fn group(k: &CellKey) -> (&str, &str, &str, &str, u32) {
            (
                &k.workload,
                &k.machine,
                &k.bpred,
                &k.frontend,
                k.mem_latency,
            )
        }
        group(self) == group(other)
    }

    /// File-name stem of the group's aggregate envelope. Default-axis
    /// groups (bimodal predictor, program front end) keep the historical
    /// `<workload>-<machine>-<latency>` name; other predictors insert
    /// their sanitized spec label and other front ends their name, so a
    /// sweep's groups never collide.
    pub(crate) fn file_stem(&self) -> String {
        let mut stem = format!("{}-{}", self.workload, self.machine.replace('.', "_"));
        if self.bpred != "bimodal" {
            stem.push('-');
            stem.push_str(&self.bpred.replace([':', ',', '='], "_"));
        }
        if self.frontend != "program" {
            stem.push('-');
            stem.push_str(&self.frontend);
        }
        format!("{stem}-{}", self.mem_latency)
    }
}

/// The parameters a prepared shard (compiled binary, warm checkpoints,
/// interval plan) depends on — never the (machine, latency) grid. Shards
/// with different keys are not interchangeable: warm state is per
/// predictor, a shard without a recorded trace cannot serve trace cells,
/// and SimPoint shards carry checkpoints at representative boundaries
/// with population weights.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardKey {
    /// Workload spec.
    pub workload: String,
    /// Canonical spec label of the predictor the warmer trains.
    pub bpred: String,
    /// Whether the shard also carries the recorded replay trace.
    pub trace: bool,
    /// SimPoint clustering, if the shard is phase-sampled.
    pub simpoint: Option<SimpointSpec>,
    /// Interval length and stride.
    pub sample: SampleSpec,
}

/// One sweep point as pinned by the manifest: machine model, predictor
/// spec label, memory latency.
#[derive(PartialEq, Serialize, Deserialize)]
pub(crate) struct ManifestPoint {
    machine: String,
    bpred: String,
    mem_latency: u32,
}

/// The manifest pins the campaign's shape so a resume into the wrong
/// directory fails loudly instead of silently mixing results. The
/// `simpoint` field is omitted when the campaign does not cluster, so
/// non-simpoint manifests keep their exact historical bytes.
#[derive(PartialEq, Serialize, Deserialize)]
pub(crate) struct ManifestDoc {
    version: u32,
    workloads: Vec<String>,
    points: Vec<ManifestPoint>,
    frontends: Vec<String>,
    interval_len: u64,
    stride: u64,
    /// Always emitted (as null when off): it predates `simpoint`, and
    /// every existing manifest carries it.
    window: Option<u64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    simpoint: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let spec = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into(), "spear-128".into()],
            bpreds: vec!["bimodal".into(), "tage".into()],
            frontends: vec!["program".into(), "trace".into()],
            mem_latency: Some(200),
            interval: 50_000,
            stride: 2,
            window: Some(0),
            max_cells: None,
            simpoint: true,
            simpoint_k: Some(4),
            simpoint_seed: Some(7),
        };
        let text = serde::json::to_string(&spec);
        let back: JobSpec = serde::json::from_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn job_spec_optional_fields_may_be_omitted() {
        let spec: JobSpec =
            serde::json::from_str("{\"workloads\":[\"pointer\"],\"machines\":[\"baseline\"]}")
                .unwrap();
        assert_eq!(
            spec,
            JobSpec {
                workloads: vec!["pointer".into()],
                machines: vec!["baseline".into()],
                ..JobSpec::default()
            }
        );
        // A present but mistyped key is still an error.
        assert!(serde::json::from_str::<JobSpec>("{\"interval\":\"big\"}").is_err());
    }

    #[test]
    fn resolve_maps_simpoint_and_keeps_scaled_workloads() {
        let mut spec = JobSpec {
            workloads: vec!["pointer".into(), "pointer@x100".into()],
            machines: vec!["baseline".into()],
            simpoint: true,
            ..JobSpec::default()
        };
        let resolved = spec.resolve(2).unwrap();
        assert_eq!(
            resolved.simpoint,
            Some(SimpointSpec { k: 0, seed: 42 }),
            "bare simpoint means auto-k with the default seed"
        );
        assert_eq!(resolved.workloads, vec!["pointer", "pointer@x100"]);
        // k/seed imply simpoint even when the flag itself is omitted.
        spec.simpoint = false;
        spec.simpoint_k = Some(4);
        spec.simpoint_seed = Some(7);
        assert_eq!(
            spec.resolve(2).unwrap().simpoint,
            Some(SimpointSpec { k: 4, seed: 7 })
        );
    }

    #[test]
    fn resolve_expands_the_machine_by_predictor_grid() {
        let spec = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into(), "spear-128".into()],
            bpreds: vec!["bimodal".into(), "tage".into()],
            frontends: vec!["program".into()],
            ..JobSpec::default()
        };
        let resolved = spec.resolve(2).unwrap();
        let labels: Vec<(String, String)> = resolved
            .points
            .iter()
            .map(|p| (p.machine.clone(), p.config.bpred.spec_label()))
            .collect();
        let want = [
            ("superscalar", "bimodal"),
            ("superscalar", "tage"),
            ("SPEAR-128", "bimodal"),
            ("SPEAR-128", "tage"),
        ];
        assert_eq!(
            labels,
            want.map(|(m, b)| (m.to_string(), b.to_string())),
            "machines x bpreds"
        );
        assert_eq!(resolved.frontends, vec!["program"]);
    }

    #[test]
    fn resolve_expands_all_and_applies_latency() {
        let spec = JobSpec {
            workloads: vec!["all".into()],
            machines: vec!["spear-256".into()],
            mem_latency: Some(300),
            ..JobSpec::default()
        };
        let resolved = spec.resolve(4).unwrap();
        assert_eq!(resolved.workloads.len(), spear_workloads::all().len());
        assert_eq!(resolved.points.len(), 1);
        assert_eq!(resolved.points[0].machine, "SPEAR-256");
        assert_eq!(resolved.points[0].mem_latency, 300);
        assert_eq!(resolved.points[0].config.bpred.spec_label(), "bimodal");
        assert_eq!(resolved.threads, 4);
    }

    #[test]
    fn cell_keys_print_group_and_name_their_files() {
        let key = CellKey {
            workload: "mcf".into(),
            machine: "SPEAR-128".into(),
            bpred: "bimodal".into(),
            frontend: "program".into(),
            mem_latency: 120,
            interval: 3,
        };
        assert_eq!(key.to_string(), "mcf/SPEAR-128/bimodal/program/120/3");
        assert_eq!(key.file_stem(), "mcf-SPEAR-128-120");
        let other = CellKey {
            interval: 9,
            ..key.clone()
        };
        assert!(key.same_group(&other) && key < other);
        let tage_trace = CellKey {
            bpred: "tage:tables=6".into(),
            frontend: "trace".into(),
            ..key.clone()
        };
        assert!(!key.same_group(&tage_trace));
        assert_eq!(
            tage_trace.file_stem(),
            "mcf-SPEAR-128-tage_tables_6-trace-120"
        );
    }
}

//! Machine configuration (Table 2 plus the SPEAR-specific knobs).

use serde::{Deserialize, Serialize};
use spear_bpred::PredictorConfig;
use spear_isa::FuClass;
use spear_mem::HierConfig;

/// Execution latencies per functional-unit class, in cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatencies {
    /// Integer ALU ops and resolved control transfers.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide / remainder (non-pipelined).
    pub int_div: u32,
    /// FP add/compare/convert/move.
    pub fp_alu: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide (non-pipelined).
    pub fp_div: u32,
    /// FP square root (non-pipelined).
    pub fp_sqrt: u32,
}

impl OpLatencies {
    /// SimpleScalar `sim-outorder` defaults, which the paper's simulator
    /// inherits.
    pub fn paper() -> OpLatencies {
        OpLatencies {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_alu: 2,
            fp_mul: 4,
            fp_div: 12,
            fp_sqrt: 24,
        }
    }

    /// Latency for a (non-memory) op class. Memory latency comes from the
    /// cache hierarchy instead.
    pub fn for_class(&self, class: FuClass, is_sqrt: bool) -> u32 {
        match class {
            FuClass::IntAlu | FuClass::Ctrl => self.int_alu,
            FuClass::IntMul => self.int_mul,
            FuClass::IntDiv => self.int_div,
            FuClass::FpAlu => self.fp_alu,
            FuClass::FpMul => self.fp_mul,
            FuClass::FpDiv => {
                if is_sqrt {
                    self.fp_sqrt
                } else {
                    self.fp_div
                }
            }
            // Memory classes are costed via the hierarchy at issue time.
            FuClass::RdPort | FuClass::WrPort => 0,
            FuClass::None => 1,
        }
    }
}

/// SPEAR front-end parameters (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpearConfig {
    /// Minimum IFQ occupancy to accept a trigger, as a fraction of the IFQ
    /// size. The paper empirically uses one half.
    pub trigger_fraction: f64,
    /// Maximum p-thread instructions the PE may extract per cycle. The
    /// paper uses half the issue width (4 of 8).
    pub pe_bandwidth: usize,
    /// Cycles to copy one live-in register at trigger time (paper: 1).
    pub livein_cycles_per_reg: u32,
    /// P-thread RUU capacity (the paper gives the p-thread its own reorder
    /// buffer; the size is unspecified — 64 documented in DESIGN.md).
    pub pthread_ruu_size: usize,
    /// Maximum p-thread instructions issued per cycle (the paper's
    /// "not to overly penalize the main thread" principle applied to the
    /// issue stage as well as the PE; the p-thread still has priority
    /// within its share). `None` = unlimited.
    pub pthread_issue_cap: Option<usize>,
    /// Paper-literal §3.3 scheduling: give *every* ready p-thread
    /// instruction priority over the main thread. Off by default — with
    /// it on, a compute-dense slice (fft) can capture a scarce shared
    /// functional unit and halve the main thread, which is exactly the
    /// contention the Figure 7 `.sf` models relieve; the `fig7` bench
    /// prints both policies.
    pub full_priority: bool,
    /// Maximum cycles to wait for live-in producers to complete before
    /// copying. While a producer is in flight its register has no
    /// forwardable value; once the limit expires the copy falls back to
    /// the committed (architectural) value for that register — the
    /// paper's commit-state copy, stale by the in-flight window.
    pub livein_wait_limit: u32,
    /// Extension (off = paper behaviour): after a branch-misprediction IFQ
    /// flush, keep the episode alive and re-arm its trigger onto the next
    /// refetched instance of the d-load instead of aborting.
    pub rearm_after_flush: bool,
    /// Extension (off = paper behaviour): when main decode consumes the
    /// triggering d-load before the PE extracts it, re-target the episode
    /// onto a younger in-IFQ instance instead of aborting.
    pub retarget_missed: bool,
}

impl Default for SpearConfig {
    fn default() -> Self {
        SpearConfig {
            trigger_fraction: 0.5,
            pe_bandwidth: 4,
            livein_cycles_per_reg: 1,
            pthread_ruu_size: 64,
            pthread_issue_cap: Some(4),
            full_priority: false,
            livein_wait_limit: 64,
            rearm_after_flush: false,
            retarget_missed: false,
        }
    }
}

/// Full machine configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Decode/dispatch bandwidth per cycle (shared with the PE during
    /// pre-execution mode).
    pub decode_width: usize,
    /// Issue width (Table 2: 8).
    pub issue_width: usize,
    /// Commit width (Table 2: 8).
    pub commit_width: usize,
    /// Instruction fetch queue entries (Table 2: 128 or 256).
    pub ifq_size: usize,
    /// Main-thread RUU (reorder buffer) entries (Table 2: 128).
    pub ruu_size: usize,
    /// Integer ALUs (Table 2: 4).
    pub int_alu: usize,
    /// Integer MUL/DIV units (Table 2: 1).
    pub int_muldiv: usize,
    /// FP ALUs (Table 2: 4).
    pub fp_alu: usize,
    /// FP MUL/DIV units (Table 2: 1).
    pub fp_muldiv: usize,
    /// Memory ports (Table 2: 2).
    pub mem_ports: usize,
    /// Op latencies.
    pub lat: OpLatencies,
    /// Branch predictor configuration (Table 2: bimodal, 2048).
    pub bpred: PredictorConfig,
    /// Memory hierarchy configuration.
    pub hier: HierConfig,
    /// SPEAR front end; `None` = baseline superscalar.
    pub spear: Option<SpearConfig>,
    /// `.sf` models: give the p-thread its own copy of the functional
    /// units and memory ports (the CMP-like configuration of Figure 7).
    /// Otherwise the main program and the p-thread share one pool.
    pub separate_fu: bool,
}

impl CoreConfig {
    /// The baseline superscalar of the evaluation (Table 2, no SPEAR).
    pub fn baseline() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            ifq_size: 128,
            ruu_size: 128,
            int_alu: 4,
            int_muldiv: 1,
            fp_alu: 4,
            fp_muldiv: 1,
            mem_ports: 2,
            lat: OpLatencies::paper(),
            bpred: PredictorConfig::paper(),
            hier: HierConfig::paper(),
            spear: None,
            separate_fu: false,
        }
    }

    /// SPEAR with a given IFQ size (128 or 256 in the paper).
    pub fn spear(ifq_size: usize) -> CoreConfig {
        CoreConfig {
            ifq_size,
            spear: Some(SpearConfig::default()),
            ..CoreConfig::baseline()
        }
    }

    /// SPEAR.sf — separate functional units for the p-thread (Figure 7).
    pub fn spear_sf(ifq_size: usize) -> CoreConfig {
        CoreConfig {
            separate_fu: true,
            ..CoreConfig::spear(ifq_size)
        }
    }

    /// Reject memory latencies under which one L1 + L2 + main-memory
    /// miss takes more than a quarter of the core's deadlock watchdog
    /// window. Between two main-thread commits the oldest instruction
    /// waits on at most an instruction-fetch miss and a data miss, so
    /// under this bound a slow but live pipeline is never reported as
    /// deadlocked; a longer latency is refused before anything runs.
    pub fn check_latency(&self) -> Result<(), String> {
        let l = self.hier.latency;
        let miss = u64::from(l.l1_hit) + u64::from(l.l2_hit) + u64::from(l.memory);
        let watchdog = crate::core::DEADLOCK_CYCLES;
        if miss > watchdog / 4 {
            return Err(format!(
                "memory latency {} is too long: one L1+L2+memory miss takes {miss} cycles, \
                 more than {} (a quarter of the core's {watchdog}-cycle deadlock watchdog)",
                l.memory,
                watchdog / 4
            ));
        }
        Ok(())
    }

    /// Human-readable name used in reports.
    pub fn model_name(&self) -> String {
        match (&self.spear, self.separate_fu) {
            (None, _) => "superscalar".to_string(),
            (Some(_), false) => format!("SPEAR-{}", self.ifq_size),
            (Some(_), true) => format!("SPEAR.sf-{}", self.ifq_size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names() {
        assert_eq!(CoreConfig::baseline().model_name(), "superscalar");
        assert_eq!(CoreConfig::spear(128).model_name(), "SPEAR-128");
        assert_eq!(CoreConfig::spear_sf(256).model_name(), "SPEAR.sf-256");
    }

    #[test]
    fn latency_check_admits_misses_within_a_quarter_of_the_watchdog() {
        let at = |memory: u32| {
            let mut cfg = CoreConfig::spear(128);
            cfg.hier.latency = spear_mem::LatencyConfig::sweep_point(memory);
            cfg.check_latency()
        };
        assert_eq!(CoreConfig::baseline().check_latency(), Ok(()));
        // sweep_point(m) misses take 1 + m/10 + m cycles; 50_000 is the cap.
        assert_eq!(at(45_454), Ok(()));
        let err = at(45_455).unwrap_err();
        assert!(err.contains("memory latency 45455 is too long"), "{err}");
        assert!(at(u32::MAX).is_err(), "no overflow at the largest latency");
    }

    #[test]
    fn paper_latencies() {
        let l = OpLatencies::paper();
        assert_eq!(l.for_class(FuClass::IntAlu, false), 1);
        assert_eq!(l.for_class(FuClass::FpDiv, true), 24);
        assert_eq!(l.for_class(FuClass::FpDiv, false), 12);
    }

    #[test]
    fn spear_defaults_match_paper() {
        let s = SpearConfig::default();
        assert_eq!(s.trigger_fraction, 0.5);
        assert_eq!(s.pe_bandwidth, 4, "half of the 8-wide issue bandwidth");
        assert_eq!(s.livein_cycles_per_reg, 1);
    }
}

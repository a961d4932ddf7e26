//! # spear-bpred — branch prediction
//!
//! The paper's front end uses a bimodal predictor with a 2048-entry table
//! (Table 2). This crate provides that predictor, a gshare alternative for
//! ablations, and a TAGE port for the "does SPEAR survive a modern
//! predictor?" sensitivity study, all behind the [`BranchPredictor`]
//! trait. A branch target buffer for indirect jumps and a return address
//! stack complete the [`Predictor`] facade that the fetch stage drives.
//!
//! Direction state is updated at branch *resolution* on the true path only
//! (the core calls [`Predictor::update`] when a branch executes), so
//! wrong-path fetches never pollute the tables — the same discipline
//! `sim-outorder` uses. Because history registers only advance in
//! `update`, no direction predictor needs history checkpointing on a
//! squash: [`Predictor::recover`] clears only the return stack.

pub mod ras;
pub mod tables;
pub mod tage;

pub use ras::ReturnStack;
pub use tables::{Bimodal, Btb, Gshare};
pub use tage::{Tage, TageConfig, TageSnapshot};

use serde::{Deserialize, Serialize};
use spear_isa::{Inst, OpShape};

/// Which direction predictor to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// 2-bit saturating counters indexed by PC (the paper's predictor).
    Bimodal,
    /// Global-history-xor-PC indexing (ablation).
    Gshare,
    /// TAGE: tagged geometric-history tables over a bimodal base.
    Tage,
}

impl PredictorKind {
    /// Canonical lowercase name (the CLI spelling and snapshot tag).
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Gshare => "gshare",
            PredictorKind::Tage => "tage",
        }
    }
}

/// Predictor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Direction predictor flavour.
    pub kind: PredictorKind,
    /// Direction table entries (power of two). Table 2: 2048. For TAGE
    /// this sizes the bimodal *base* table; the tagged tables are sized
    /// by [`TageConfig`].
    pub table_size: usize,
    /// BTB entries (power of two).
    pub btb_entries: usize,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// TAGE geometry (used only when `kind == Tage`, but always carried
    /// so a config round-trips losslessly through JSON).
    pub tage: TageConfig,
}

impl PredictorConfig {
    /// Table 2: bimodal, 2048-entry table.
    pub fn paper() -> PredictorConfig {
        PredictorConfig {
            kind: PredictorKind::Bimodal,
            table_size: 2048,
            btb_entries: 512,
            ras_depth: 16,
            tage: TageConfig::default_spec(),
        }
    }

    /// Apply a CLI predictor spec to this configuration, keeping the BTB
    /// and RAS sizing. Accepted forms:
    ///
    /// * `bimodal` | `gshare` | `tage`
    /// * `tage:key=val,...` with keys `tables`, `bits` (log2 entries per
    ///   tagged table), `tag` (tag bits), `hmin`/`hmax` (geometric
    ///   history bounds) and `decay` (useful-bit decay period).
    pub fn with_spec(mut self, spec: &str) -> Result<PredictorConfig, String> {
        let (kind, rest) = match spec.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (spec, None),
        };
        self.kind = match kind {
            "bimodal" => PredictorKind::Bimodal,
            "gshare" => PredictorKind::Gshare,
            "tage" => PredictorKind::Tage,
            other => return Err(format!("unknown predictor `{other}`")),
        };
        if let Some(rest) = rest {
            if self.kind != PredictorKind::Tage {
                return Err(format!("predictor `{kind}` takes no parameters"));
            }
            let mut t = self.tage;
            for kv in rest.split(',') {
                let Some((key, val)) = kv.split_once('=') else {
                    return Err(format!("bad tage parameter `{kv}` (want key=val)"));
                };
                let n: u32 = val
                    .parse()
                    .map_err(|_| format!("bad tage value `{val}` for `{key}`"))?;
                match key {
                    "tables" => t.tables = n as usize,
                    "bits" => t.table_bits = n,
                    "tag" => t.tag_bits = n,
                    "hmin" => t.min_hist = n,
                    "hmax" => t.max_hist = n,
                    "decay" => t.u_decay_period = n,
                    other => return Err(format!("unknown tage parameter `{other}`")),
                }
            }
            t.validate()?;
            self.tage = t;
        }
        Ok(self)
    }

    /// The canonical spec label: parses back into an identical config via
    /// [`PredictorConfig::with_spec`]. Non-default TAGE geometry is
    /// spelled out in full so the label alone pins the tables.
    pub fn spec_label(&self) -> String {
        match self.kind {
            PredictorKind::Bimodal => "bimodal".to_string(),
            PredictorKind::Gshare => "gshare".to_string(),
            PredictorKind::Tage => {
                if self.tage == TageConfig::default_spec() {
                    "tage".to_string()
                } else {
                    let t = &self.tage;
                    format!(
                        "tage:tables={},bits={},tag={},hmin={},hmax={},decay={}",
                        t.tables,
                        t.table_bits,
                        t.tag_bits,
                        t.min_hist,
                        t.max_hist,
                        t.u_decay_period
                    )
                }
            }
        }
    }
}

/// Prediction statistics (Table 3 reports the branch hit ratio).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredStats {
    /// Conditional branches resolved.
    pub cond_branches: u64,
    /// Conditional branches whose predicted direction was correct.
    pub cond_correct: u64,
    /// Indirect jumps resolved.
    pub indirect: u64,
    /// Indirect jumps whose predicted target was correct.
    pub indirect_correct: u64,
}

impl PredStats {
    /// Direction hit ratio over conditional branches.
    pub fn hit_ratio(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            self.cond_correct as f64 / self.cond_branches as f64
        }
    }
}

/// A fetch-time prediction for one control instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted next PC.
    pub next_pc: u32,
    /// For conditional branches, the predicted direction.
    pub taken: Option<bool>,
}

/// Per-predictor internals for the stats-json envelope: a flat bag of
/// named counters, additive under [`PredictorDetail::merge`] so campaign
/// aggregation can sum cells. Only non-default predictors report one
/// (bimodal has no internal structure worth exporting), which keeps the
/// default envelopes byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorDetail {
    /// Predictor kind name (`tage`, ...).
    pub kind: String,
    /// Named counters, in a fixed per-kind order.
    pub counters: Vec<(String, u64)>,
}

impl PredictorDetail {
    /// Sum another detail block into this one, matching counters by
    /// name (unknown names are appended, preserving order).
    pub fn merge(&mut self, other: &PredictorDetail) {
        if self.kind.is_empty() {
            self.kind = other.kind.clone();
        }
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
    }
}

impl Serialize for PredictorDetail {
    fn to_value(&self) -> serde::Value {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.to_value()))
            .collect();
        serde::Value::Object(vec![
            ("kind".to_string(), self.kind.to_value()),
            ("counters".to_string(), serde::Value::Object(counters)),
        ])
    }
}

impl Deserialize for PredictorDetail {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let kind = String::from_value(v.field("kind")?)?;
        let serde::Value::Object(fields) = v.field("counters")? else {
            return Err(serde::Error::new(
                "predictor detail counters must be an object",
            ));
        };
        let mut counters = Vec::with_capacity(fields.len());
        for (name, val) in fields {
            counters.push((name.clone(), u64::from_value(val)?));
        }
        Ok(PredictorDetail { kind, counters })
    }
}

/// The direction-prediction contract every flavour implements.
///
/// Scope is *direction only*: target prediction (BTB, return stack) is
/// shared plumbing in the [`Predictor`] facade. The contract mirrors the
/// core's update discipline — `predict` may be called speculatively on
/// any path, `update` is called once per conditional branch at
/// resolution on the true path, and internal history advances only in
/// `update`, so implementations need no squash hook: wrong-path fetches
/// never touch their state.
pub trait BranchPredictor: std::fmt::Debug + Send {
    /// Which flavour this is.
    fn kind(&self) -> PredictorKind;

    /// Predicted direction for the conditional branch at `pc`.
    fn predict(&self, pc: u32) -> bool;

    /// Train with the resolved direction (true path, at resolution).
    fn update(&mut self, pc: u32, taken: bool);

    /// Capture warm direction state as a kind-tagged snapshot.
    fn snapshot(&self) -> DirSnapshot;

    /// Load warm state. Must fail loudly when the snapshot's kind or
    /// geometry does not match this predictor. Resets any internal
    /// counters exposed via [`BranchPredictor::detail`].
    fn restore(&mut self, snap: &DirSnapshot) -> Result<(), String>;

    /// Table geometry as named scalars, for `dump-config`/`/metrics`.
    fn geometry(&self) -> Vec<(&'static str, u64)>;

    /// Internal counters for the stats-json envelope; `None` for
    /// flavours with nothing worth exporting (the default bimodal).
    fn detail(&self) -> Option<PredictorDetail> {
        None
    }

    /// Clone into a boxed trait object (the facade derives its own
    /// `Clone` through this).
    fn clone_box(&self) -> Box<dyn BranchPredictor>;
}

impl BranchPredictor for Bimodal {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Bimodal
    }

    fn predict(&self, pc: u32) -> bool {
        Bimodal::predict(self, pc)
    }

    fn update(&mut self, pc: u32, taken: bool) {
        Bimodal::update(self, pc, taken)
    }

    fn snapshot(&self) -> DirSnapshot {
        DirSnapshot::Bimodal {
            counters: Bimodal::snapshot(self),
        }
    }

    fn restore(&mut self, snap: &DirSnapshot) -> Result<(), String> {
        let DirSnapshot::Bimodal { counters } = snap else {
            return Err(format!(
                "snapshot holds {} state, live predictor is bimodal",
                snap.kind().name()
            ));
        };
        Bimodal::restore(self, counters)
    }

    fn geometry(&self) -> Vec<(&'static str, u64)> {
        vec![("table_entries", self.len() as u64)]
    }

    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }
}

impl BranchPredictor for Gshare {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Gshare
    }

    fn predict(&self, pc: u32) -> bool {
        Gshare::predict(self, pc)
    }

    fn update(&mut self, pc: u32, taken: bool) {
        Gshare::update(self, pc, taken)
    }

    fn snapshot(&self) -> DirSnapshot {
        let (counters, history) = Gshare::snapshot(self);
        DirSnapshot::Gshare { counters, history }
    }

    fn restore(&mut self, snap: &DirSnapshot) -> Result<(), String> {
        let DirSnapshot::Gshare { counters, history } = snap else {
            return Err(format!(
                "snapshot holds {} state, live predictor is gshare",
                snap.kind().name()
            ));
        };
        Gshare::restore(self, counters, *history)
    }

    fn geometry(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("table_entries", self.len() as u64),
            ("history_bits", self.history_bits() as u64),
        ]
    }

    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }
}

/// Build the configured direction predictor.
fn build_dir(cfg: &PredictorConfig) -> Box<dyn BranchPredictor> {
    match cfg.kind {
        PredictorKind::Bimodal => Box::new(Bimodal::new(cfg.table_size)),
        PredictorKind::Gshare => Box::new(Gshare::new(cfg.table_size)),
        PredictorKind::Tage => Box::new(Tage::new(cfg.table_size, cfg.tage)),
    }
}

/// The combined front-end predictor.
#[derive(Debug)]
pub struct Predictor {
    dir: Box<dyn BranchPredictor>,
    btb: Btb,
    ras: ReturnStack,
    /// Resolution statistics.
    pub stats: PredStats,
}

impl Clone for Predictor {
    fn clone(&self) -> Predictor {
        Predictor {
            dir: self.dir.clone_box(),
            btb: self.btb.clone(),
            ras: self.ras.clone(),
            stats: self.stats,
        }
    }
}

impl Predictor {
    /// Build from a configuration.
    pub fn new(cfg: PredictorConfig) -> Predictor {
        Predictor {
            dir: build_dir(&cfg),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_depth),
            stats: PredStats::default(),
        }
    }

    /// The active direction-predictor flavour.
    pub fn kind(&self) -> PredictorKind {
        self.dir.kind()
    }

    /// Direction-table geometry of the active flavour, as named scalars.
    pub fn geometry(&self) -> Vec<(&'static str, u64)> {
        self.dir.geometry()
    }

    /// Per-predictor internal counters for the stats envelope (`None`
    /// for the default bimodal).
    pub fn detail(&self) -> Option<PredictorDetail> {
        self.dir.detail()
    }

    /// Predict the next PC for the instruction at `pc`.
    ///
    /// The fetch stage calls this for every fetched instruction (our fetch
    /// model sees the instruction word, i.e. predecode-time prediction).
    /// Speculatively pushes/pops the return stack for `jal`/`jr`.
    pub fn predict(&mut self, pc: u32, inst: &Inst) -> Prediction {
        let fall = pc + 1;
        match inst.op.shape() {
            OpShape::Branch => {
                let taken = self.dir.predict(pc);
                let next_pc = if taken { inst.imm as u32 } else { fall };
                Prediction {
                    next_pc,
                    taken: Some(taken),
                }
            }
            OpShape::Jump => Prediction {
                next_pc: inst.imm as u32,
                taken: None,
            },
            OpShape::JumpLink => {
                self.ras.push(fall);
                Prediction {
                    next_pc: inst.imm as u32,
                    taken: None,
                }
            }
            OpShape::JumpReg => {
                // Treat register-indirect jumps as returns first (workloads
                // use jal/jr as call/ret), falling back to the BTB.
                let next_pc = self
                    .ras
                    .pop()
                    .or_else(|| self.btb.lookup(pc))
                    .unwrap_or(fall);
                Prediction {
                    next_pc,
                    taken: None,
                }
            }
            OpShape::JumpLinkReg => {
                let target = self.btb.lookup(pc);
                self.ras.push(fall);
                Prediction {
                    next_pc: target.unwrap_or(fall),
                    taken: None,
                }
            }
            _ => Prediction {
                next_pc: fall,
                taken: None,
            },
        }
    }

    /// Resolve a control instruction on the true path: update direction
    /// tables, BTB, and statistics. `predicted` is what [`Predictor::predict`]
    /// returned at fetch (if this instruction was fetched with a prediction).
    pub fn update(
        &mut self,
        pc: u32,
        inst: &Inst,
        taken: bool,
        target: u32,
        predicted: Option<Prediction>,
    ) {
        match inst.op.shape() {
            OpShape::Branch => {
                self.stats.cond_branches += 1;
                if let Some(p) = predicted {
                    if p.taken == Some(taken) {
                        self.stats.cond_correct += 1;
                    }
                }
                self.dir.update(pc, taken);
            }
            OpShape::JumpReg | OpShape::JumpLinkReg => {
                self.stats.indirect += 1;
                if let Some(p) = predicted {
                    if p.next_pc == target {
                        self.stats.indirect_correct += 1;
                    }
                }
                self.btb.insert(pc, target);
            }
            _ => {}
        }
    }

    /// Squash speculative return-stack state after a misprediction. The
    /// stack is simply cleared — a conservative recovery that matches the
    /// cheap hardware the paper assumes. Direction predictors need no
    /// squash hook: their history advances only at resolution (see the
    /// [`BranchPredictor`] contract).
    pub fn recover(&mut self) {
        self.ras.clear();
    }

    /// Capture the warm predictor state (direction tables and history,
    /// BTB, RAS). Statistics are not captured: a restored predictor
    /// counts only its own resolutions.
    pub fn snapshot(&self) -> PredictorSnapshot {
        PredictorSnapshot {
            dir: self.dir.snapshot(),
            btb: self.btb.snapshot(),
            ras: self.ras.snapshot(),
        }
    }

    /// Load warm state captured from a predictor built with the same
    /// configuration. A snapshot whose direction-predictor kind or table
    /// geometry does not match the live configuration is rejected loudly
    /// — restoring, say, a gshare image with a different history length
    /// would otherwise silently corrupt every subsequent prediction.
    /// Resets statistics.
    pub fn restore(&mut self, snap: &PredictorSnapshot) -> Result<(), String> {
        self.dir
            .restore(&snap.dir)
            .map_err(|e| format!("{}: {e}", self.dir.kind().name()))?;
        self.btb
            .restore(&snap.btb)
            .map_err(|e| format!("btb: {e}"))?;
        self.ras.restore(&snap.ras);
        self.stats = PredStats::default();
        Ok(())
    }
}

/// Kind-tagged warm direction-predictor state: a checkpoint restored
/// under a different predictor configuration fails by *kind*, never by
/// a coincidental geometry match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirSnapshot {
    /// Bimodal 2-bit counters.
    Bimodal {
        /// The counter table.
        counters: Vec<u8>,
    },
    /// Gshare counters plus the global history register.
    Gshare {
        /// The counter table.
        counters: Vec<u8>,
        /// Global history register.
        history: u32,
    },
    /// TAGE base + tagged tables + history (see [`TageSnapshot`]).
    Tage(TageSnapshot),
}

impl DirSnapshot {
    /// The predictor flavour this snapshot belongs to.
    pub fn kind(&self) -> PredictorKind {
        match self {
            DirSnapshot::Bimodal { .. } => PredictorKind::Bimodal,
            DirSnapshot::Gshare { .. } => PredictorKind::Gshare,
            DirSnapshot::Tage(_) => PredictorKind::Tage,
        }
    }
}

impl Default for DirSnapshot {
    fn default() -> DirSnapshot {
        DirSnapshot::Bimodal {
            counters: Vec::new(),
        }
    }
}

/// Image of a [`Predictor`]'s warm state, used by the checkpointing
/// subsystem (`spear-campaign`). The direction state is a kind-tagged
/// payload ([`DirSnapshot`]), so a kind/geometry mismatch on restore
/// fails loudly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorSnapshot {
    /// Kind-tagged direction-predictor state.
    pub dir: DirSnapshot,
    /// BTB `(tag, target)` entries.
    pub btb: Vec<Option<(u32, u32)>>,
    /// Return-stack live entries, oldest first.
    pub ras: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_isa::reg::*;
    use spear_isa::Opcode;

    fn branch(target: u32) -> Inst {
        Inst::new(Opcode::Bne, R0, R1, R0, target as i64)
    }

    fn config(kind: PredictorKind) -> PredictorConfig {
        PredictorConfig {
            kind,
            ..PredictorConfig::paper()
        }
    }

    #[test]
    fn bimodal_learns_a_loop_branch() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let b = branch(5);
        for _ in 0..4 {
            let pred = p.predict(100, &b);
            p.update(100, &b, true, 5, Some(pred));
        }
        let pred = p.predict(100, &b);
        assert_eq!(pred.taken, Some(true));
        assert_eq!(pred.next_pc, 5);
    }

    #[test]
    fn hit_ratio_tracks_accuracy() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let b = branch(5);
        for i in 0..10 {
            let pred = p.predict(100, &b);
            let taken = i >= 2; // first two may mispredict while warming
            p.update(100, &b, taken, 5, Some(pred));
        }
        assert_eq!(p.stats.cond_branches, 10);
        assert!(p.stats.hit_ratio() > 0.5, "{}", p.stats.hit_ratio());
    }

    #[test]
    fn call_return_pairs_predict_via_ras() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let call = Inst::new(Opcode::Jal, R31, R0, R0, 50);
        let ret = Inst::new(Opcode::Jr, R0, R31, R0, 0);
        let c = p.predict(10, &call);
        assert_eq!(c.next_pc, 50);
        let r = p.predict(60, &ret);
        assert_eq!(r.next_pc, 11, "return address from RAS");
    }

    #[test]
    fn indirect_jump_uses_btb_after_training() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let jr = Inst::new(Opcode::Jr, R0, R7, R0, 0);
        let miss = p.predict(20, &jr);
        assert_eq!(miss.next_pc, 21);
        p.update(20, &jr, true, 77, Some(miss));
        let hit = p.predict(20, &jr);
        assert_eq!(hit.next_pc, 77);
        assert_eq!(p.stats.indirect, 1);
        assert_eq!(p.stats.indirect_correct, 0);
    }

    #[test]
    fn non_control_predicts_fallthrough() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let add = Inst::new(Opcode::Add, R1, R2, R3, 0);
        assert_eq!(p.predict(7, &add).next_pc, 8);
    }

    #[test]
    fn recover_clears_ras() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let call = Inst::new(Opcode::Jal, R31, R0, R0, 50);
        p.predict(10, &call);
        p.recover();
        let ret = Inst::new(Opcode::Jr, R0, R31, R0, 0);
        assert_eq!(p.predict(60, &ret).next_pc, 61, "stack cleared");
    }

    #[test]
    fn snapshot_restore_reproduces_predictions() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let b = branch(5);
        for _ in 0..4 {
            let pred = p.predict(100, &b);
            p.update(100, &b, true, 5, Some(pred));
        }
        let jr = Inst::new(Opcode::Jr, R0, R7, R0, 0);
        p.update(20, &jr, true, 77, None);
        let call = Inst::new(Opcode::Jal, R31, R0, R0, 50);
        p.predict(10, &call); // push 11 onto the RAS
        let snap = p.snapshot();

        let mut q = Predictor::new(PredictorConfig::paper());
        q.restore(&snap).expect("same configuration");
        let ret = Inst::new(Opcode::Jr, R0, R31, R0, 0);
        assert_eq!(q.predict(60, &ret).next_pc, 11, "RAS carried over");
        assert_eq!(q.predict(100, &b).taken, Some(true), "counters warm");
        assert_eq!(q.predict(20, &jr).next_pc, 77, "BTB carried over");
        assert_eq!(q.stats, PredStats::default(), "stats reset on restore");
    }

    #[test]
    fn restore_rejects_size_mismatch() {
        let p = Predictor::new(PredictorConfig::paper());
        let snap = p.snapshot();
        let mut small = Predictor::new(PredictorConfig {
            table_size: 64,
            ..PredictorConfig::paper()
        });
        assert!(small.restore(&snap).is_err());
    }

    #[test]
    fn restore_rejects_kind_mismatch_by_name() {
        for (a, b) in [
            (PredictorKind::Bimodal, PredictorKind::Gshare),
            (PredictorKind::Gshare, PredictorKind::Tage),
            (PredictorKind::Tage, PredictorKind::Bimodal),
        ] {
            let snap = Predictor::new(config(a)).snapshot();
            let mut live = Predictor::new(config(b));
            let err = live.restore(&snap).unwrap_err();
            assert!(
                err.contains(a.name()) && err.contains(b.name()),
                "error must name both kinds: {err}"
            );
        }
    }

    #[test]
    fn gshare_distinguishes_history() {
        let mut p = Predictor::new(config(PredictorKind::Gshare));
        let b = branch(5);
        // Alternating pattern TNTN… — gshare can learn it, bimodal cannot.
        let mut correct = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let pred = p.predict(100, &b);
            if pred.taken == Some(taken) {
                correct += 1;
            }
            p.update(100, &b, taken, 5, Some(pred));
        }
        assert!(
            correct > 150,
            "gshare should learn alternation, got {correct}"
        );
    }

    #[test]
    fn bimodal_fails_alternation() {
        let mut p = Predictor::new(PredictorConfig::paper());
        let b = branch(5);
        let mut correct = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let pred = p.predict(100, &b);
            if pred.taken == Some(taken) {
                correct += 1;
            }
            p.update(100, &b, taken, 5, Some(pred));
        }
        assert!(
            correct < 120,
            "bimodal cannot learn alternation, got {correct}"
        );
    }

    #[test]
    fn spec_labels_round_trip() {
        for spec in [
            "bimodal",
            "gshare",
            "tage",
            "tage:tables=3,bits=8,tag=7,hmin=2,hmax=32,decay=4096",
        ] {
            let cfg = PredictorConfig::paper().with_spec(spec).unwrap();
            let label = cfg.spec_label();
            let again = PredictorConfig::paper().with_spec(&label).unwrap();
            assert_eq!(cfg, again, "label `{label}` must re-parse identically");
        }
        // The default tage geometry canonicalizes to the bare name.
        let cfg = PredictorConfig::paper().with_spec("tage").unwrap();
        assert_eq!(cfg.spec_label(), "tage");
        assert!(PredictorConfig::paper().with_spec("nbp").is_err());
        assert!(PredictorConfig::paper().with_spec("bimodal:x=1").is_err());
        assert!(PredictorConfig::paper().with_spec("tage:bogus=1").is_err());
        assert!(PredictorConfig::paper().with_spec("tage:tables=").is_err());
    }

    #[test]
    fn detail_is_none_for_paper_default_and_some_for_tage() {
        assert!(Predictor::new(PredictorConfig::paper()).detail().is_none());
        assert!(Predictor::new(config(PredictorKind::Gshare))
            .detail()
            .is_none());
        let mut p = Predictor::new(config(PredictorKind::Tage));
        let b = branch(5);
        for _ in 0..8 {
            let pred = p.predict(100, &b);
            p.update(100, &b, true, 5, Some(pred));
        }
        let d = p.detail().expect("tage exports detail");
        assert_eq!(d.kind, "tage");
        assert!(d
            .counters
            .iter()
            .any(|(n, v)| n == "provider_base" && *v > 0));
    }

    #[test]
    fn detail_merge_sums_by_counter_name() {
        let a = PredictorDetail {
            kind: "tage".into(),
            counters: vec![("x".into(), 2), ("y".into(), 3)],
        };
        let b = PredictorDetail {
            kind: "tage".into(),
            counters: vec![("y".into(), 10), ("z".into(), 1)],
        };
        let mut m = PredictorDetail::default();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.kind, "tage");
        assert_eq!(
            m.counters,
            vec![("x".into(), 2), ("y".into(), 13), ("z".into(), 1)]
        );
        // And it survives the JSON envelope.
        let back = PredictorDetail::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn geometry_names_the_active_tables() {
        let p = Predictor::new(config(PredictorKind::Tage));
        let g = p.geometry();
        assert!(g.iter().any(|(n, _)| *n == "tagged_tables"));
        let p = Predictor::new(PredictorConfig::paper());
        assert_eq!(p.geometry(), vec![("table_entries", 2048)]);
        assert_eq!(p.kind(), PredictorKind::Bimodal);
    }
}

//! # spear-bpred — branch prediction
//!
//! The paper's front end uses a bimodal predictor with a 2048-entry table
//! (Table 2). This crate provides that predictor, a gshare alternative for
//! ablations, and a TAGE port for the "does SPEAR survive a modern
//! predictor?" sensitivity study. The [`Predictor`] facade that the fetch
//! stage drives holds whichever of the three [`PredictorConfig`] names,
//! plus a branch target buffer for indirect jumps and a return address
//! stack.
//!
//! Direction state is updated at branch *resolution* on the true path only
//! (the core calls [`Predictor::update`] when a branch executes), so
//! wrong-path fetches never pollute the tables — the same discipline
//! `sim-outorder` uses. Because history registers only advance in
//! `update`, no direction predictor needs history checkpointing on a
//! squash: [`Predictor::recover`] clears only the return stack.
//!
//! Sampled campaigns warm a predictor functionally and then seed each
//! cell's predictor from it with [`Predictor::restore`], which refuses
//! warm state built under a different configuration.

pub mod ras;
pub mod tables;
pub mod tage;

pub use ras::ReturnStack;
pub use tables::{Bimodal, Btb, Gshare};
pub use tage::{Tage, TageConfig};

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
    /// Canonical lowercase name (the CLI spelling).
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

    /// Direction-table geometry of the configured flavour, as named
    /// scalars (for `dump-config` and the server's `/metrics`).
    pub fn geometry(&self) -> Vec<(&'static str, u64)> {
        let entries = self.table_size as u64;
        match self.kind {
            PredictorKind::Bimodal => vec![("table_entries", entries)],
            PredictorKind::Gshare => vec![
                ("table_entries", entries),
                ("history_bits", self.table_size.trailing_zeros() as u64),
            ],
            PredictorKind::Tage => {
                let t = &self.tage;
                vec![
                    ("base_entries", entries),
                    ("tagged_tables", t.tables as u64),
                    ("entries_per_table", 1u64 << t.table_bits),
                    ("tag_bits", t.tag_bits as u64),
                    ("min_history", t.min_hist as u64),
                    ("max_history", t.max_hist as u64),
                ]
            }
        }
    }

    /// Why warm state built under `warm` cannot seed a predictor built
    /// from this configuration: the kind, or else the first differing
    /// table dimension, each side named. `None` when they agree on
    /// everything the predictor's state depends on.
    fn mismatch(&self, warm: &PredictorConfig) -> Option<String> {
        if self.kind != warm.kind {
            return Some(format!(
                "warm state is {}, live predictor is {}",
                warm.kind.name(),
                self.kind.name()
            ));
        }
        let dims = |c: &PredictorConfig| {
            let mut d = c.geometry();
            d.push(("btb_entries", c.btb_entries as u64));
            d.push(("ras_depth", c.ras_depth as u64));
            if c.kind == PredictorKind::Tage {
                d.push(("decay_period", c.tage.u_decay_period as u64));
            }
            d
        };
        dims(warm)
            .into_iter()
            .zip(dims(self))
            .find(|(w, l)| w != l)
            .map(|((name, w), (_, l))| {
                format!(
                    "{}: warm state has {w}, live predictor has {l}",
                    name.replace('_', " ")
                )
            })
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

/// The configured direction predictor. Target prediction (BTB, return
/// stack) is shared plumbing in [`Predictor`]. Every flavour is trained
/// once per conditional branch, at resolution on the true path, and its
/// history advances only then, so wrong-path fetches never touch it and
/// no flavour needs a squash hook.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Direction {
    Bimodal(Bimodal),
    Gshare(Gshare),
    Tage(Tage),
}

impl Direction {
    fn new(cfg: &PredictorConfig) -> Direction {
        match cfg.kind {
            PredictorKind::Bimodal => Direction::Bimodal(Bimodal::new(cfg.table_size)),
            PredictorKind::Gshare => Direction::Gshare(Gshare::new(cfg.table_size)),
            PredictorKind::Tage => Direction::Tage(Tage::new(cfg.table_size, cfg.tage)),
        }
    }

    #[inline]
    fn predict(&self, pc: u32) -> bool {
        match self {
            Direction::Bimodal(d) => d.predict(pc),
            Direction::Gshare(d) => d.predict(pc),
            Direction::Tage(d) => d.predict(pc),
        }
    }

    #[inline]
    fn update(&mut self, pc: u32, taken: bool) {
        match self {
            Direction::Bimodal(d) => d.update(pc, taken),
            Direction::Gshare(d) => d.update(pc, taken),
            Direction::Tage(d) => d.update(pc, taken),
        }
    }
}

/// The combined front-end predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Predictor {
    cfg: PredictorConfig,
    dir: Direction,
    btb: Btb,
    ras: ReturnStack,
    /// Resolution statistics.
    pub stats: PredStats,
}

impl Predictor {
    /// Build from a configuration.
    pub fn new(cfg: PredictorConfig) -> Predictor {
        Predictor {
            cfg,
            dir: Direction::new(&cfg),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_depth),
            stats: PredStats::default(),
        }
    }

    /// The active direction-predictor flavour.
    pub fn kind(&self) -> PredictorKind {
        self.cfg.kind
    }

    /// Direction-table geometry of the active flavour, as named scalars.
    pub fn geometry(&self) -> Vec<(&'static str, u64)> {
        self.cfg.geometry()
    }

    /// Per-predictor internal counters for the stats envelope (`None`
    /// for bimodal and gshare, which have nothing worth exporting).
    pub fn detail(&self) -> Option<PredictorDetail> {
        match &self.dir {
            Direction::Tage(t) => Some(t.detail()),
            _ => None,
        }
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
    /// squash hook: their history advances only at resolution.
    pub fn recover(&mut self) {
        self.ras.clear();
    }

    /// Copy the warm state of a predictor built with the same
    /// configuration: direction tables and history, BTB and return
    /// stack. A different kind or table geometry is refused with an error
    /// naming the mismatch — seeding, say, a gshare table with a
    /// different history length would silently corrupt every later
    /// prediction. Statistics and TAGE's detail counters start at zero,
    /// so a restored predictor counts only its own resolutions.
    pub fn restore(&mut self, warm: &Predictor) -> Result<(), String> {
        if let Some(why) = self.cfg.mismatch(&warm.cfg) {
            return Err(why);
        }
        self.dir.clone_from(&warm.dir);
        if let Direction::Tage(t) = &mut self.dir {
            t.clear_detail();
        }
        self.btb.clone_from(&warm.btb);
        self.ras.clone_from(&warm.ras);
        self.stats = PredStats::default();
        Ok(())
    }
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
    fn restore_reproduces_predictions() {
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

        let mut q = Predictor::new(PredictorConfig::paper());
        q.restore(&p).expect("same configuration");
        let ret = Inst::new(Opcode::Jr, R0, R31, R0, 0);
        assert_eq!(q.predict(60, &ret).next_pc, 11, "RAS carried over");
        assert_eq!(q.predict(100, &b).taken, Some(true), "counters warm");
        assert_eq!(q.predict(20, &jr).next_pc, 77, "BTB carried over");
        assert_eq!(q.stats, PredStats::default(), "stats reset on restore");
    }

    #[test]
    fn restore_rejects_size_mismatch() {
        let p = Predictor::new(PredictorConfig::paper());
        let mut small = Predictor::new(PredictorConfig {
            table_size: 64,
            ..PredictorConfig::paper()
        });
        let err = small.restore(&p).unwrap_err();
        assert!(err.contains("2048") && err.contains("64"), "{err}");
        // The BTB and return stack are part of the configuration too.
        for other in [
            PredictorConfig {
                btb_entries: 256,
                ..PredictorConfig::paper()
            },
            PredictorConfig {
                ras_depth: 8,
                ..PredictorConfig::paper()
            },
        ] {
            assert!(Predictor::new(other).restore(&p).is_err());
        }
    }

    #[test]
    fn restore_rejects_kind_mismatch_by_name() {
        for (a, b) in [
            (PredictorKind::Bimodal, PredictorKind::Gshare),
            (PredictorKind::Gshare, PredictorKind::Tage),
            (PredictorKind::Tage, PredictorKind::Bimodal),
        ] {
            let warm = Predictor::new(config(a));
            let mut live = Predictor::new(config(b));
            let err = live.restore(&warm).unwrap_err();
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
        assert_eq!(
            config(PredictorKind::Gshare).geometry(),
            vec![("table_entries", 2048), ("history_bits", 11)]
        );
    }
}

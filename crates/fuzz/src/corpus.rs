//! The regression corpus: minimized reproducers on disk.
//!
//! Every failure the fuzzer finds is shrunk and written to the corpus
//! directory (`tests/corpus/` in this repo) as a small JSON document
//! carrying the [`ProgramSpec`] plus the failure it reproduced when it
//! was found. Replaying the corpus re-runs the full oracle on every
//! entry; since corpus entries describe *fixed* bugs, replay must pass —
//! a failing replay means a regression resurrected an old bug.
//!
//! The `found_*` fields are historical: they record what broke when the
//! reproducer was minted, for triage. Replay does not require the same
//! divergence to reappear — any divergence on a corpus program is a
//! regression.

use crate::gen::ProgramSpec;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One corpus entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// The fuzzer base seed and iteration that found it ("seed42/iter17"),
    /// or "handwritten" for curated entries.
    pub origin: String,
    /// Configuration that diverged when found (historical).
    pub found_config: String,
    /// Property that broke when found (historical).
    pub found_kind: String,
    /// Divergence detail when found (historical).
    pub found_detail: String,
    /// Golden dynamic instruction count of the minimized program.
    pub golden_icount: u64,
    /// Static instruction count of the minimized program.
    pub static_insts: u64,
    /// The minimized program spec.
    pub spec: ProgramSpec,
}

/// Stable fingerprint of a spec (FNV-1a over its JSON), used as the
/// corpus file name so identical reproducers dedupe.
pub fn fingerprint(spec: &ProgramSpec) -> u64 {
    let json = serde::json::to_string(spec);
    let mut h = 0xcbf29ce484222325u64;
    for b in json.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Write `repro` into `dir` (created if absent) as
/// `repro-<fingerprint>.json`. Returns the path written.
pub fn save(dir: &Path, repro: &Reproducer) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{:016x}.json", fingerprint(&repro.spec)));
    std::fs::write(&path, serde::json::to_string_pretty(repro))?;
    Ok(path)
}

/// Load every `*.json` reproducer in `dir`, sorted by file name for
/// deterministic replay order. A missing directory is an empty corpus;
/// an unreadable or unparsable entry is an error (corpus files are
/// checked in — they must stay valid).
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Reproducer)>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let repro: Reproducer = serde::json::from_str(&text)
            .map_err(|e| format!("{}: bad reproducer: {e:?}", path.display()))?;
        out.push((path, repro));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SegKind, Segment};

    fn sample() -> Reproducer {
        Reproducer {
            origin: "seed42/iter7".into(),
            found_config: "SPEAR-128".into(),
            found_kind: "memory".into(),
            found_detail: "first diff at byte 0x40".into(),
            golden_icount: 33,
            static_insts: 19,
            spec: ProgramSpec {
                seed: 1,
                segments: vec![Segment {
                    kind: SegKind::Gather,
                    a: 8,
                    b: 0,
                }],
            },
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("spear-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = sample();
        let path = save(&dir, &r).expect("save");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("repro-"));
        let loaded = load_dir(&dir).expect("load");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, r);
        // Saving the identical spec dedupes to the same file.
        let path2 = save(&dir, &r).expect("save again");
        assert_eq!(path, path2);
        assert_eq!(load_dir(&dir).expect("load").len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_empty_corpus() {
        let dir = Path::new("/nonexistent/spear-fuzz-nowhere");
        assert!(load_dir(dir).expect("empty").is_empty());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let r = sample();
        let f1 = fingerprint(&r.spec);
        assert_eq!(f1, fingerprint(&r.spec));
        let mut other = r.spec.clone();
        other.seed ^= 1;
        assert_ne!(f1, fingerprint(&other));
    }
}

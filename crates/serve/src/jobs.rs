//! Job specs, job state, and the crash-safe on-disk job store.
//!
//! Every job lives in `root/jobs/<id>/`:
//!
//! ```text
//! jobs/job-0003/
//!   spec.json        # the submitted JobSpec (written before enqueue)
//!   campaign/        # a normal spear-campaign directory (cells.jsonl,
//!                    # manifest.json, progress.json, aggregates/)
//!   done.json        # terminal marker: finished, aggregates written
//!   error.json       # terminal marker: failed, with the error
//!   cancelled.json   # terminal marker: cancelled by the operator
//! ```
//!
//! State is *derived from the filesystem*, never from memory alone: a
//! job with no terminal marker is unfinished, whatever the process
//! thought before it died. That is the whole crash-safety story — a
//! restarted server rescans `jobs/`, re-enqueues everything unfinished,
//! and the campaign engine's own cells.jsonl resume logic guarantees a
//! `kill -9` costs at most the cells that were in flight.

use spear_campaign::{JobSpec, ProgressSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Where a job is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue (also: unfinished after a restart).
    Queued,
    /// The runner is executing its campaign right now.
    Running,
    /// Finished; aggregates are on disk.
    Done,
    /// The campaign failed; `error.json` has the message.
    Failed,
    /// Cancelled by the operator; completed cells remain on disk.
    Cancelled,
}

impl JobState {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// No further work will happen on this job.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A registry entry: everything the control plane knows about one job.
pub struct Job {
    /// Job id (`job-NNNN`).
    pub id: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current state (kept in sync with the disk markers).
    pub state: JobState,
    /// Failure message, for `state == Failed`.
    pub error: Option<String>,
    /// Cooperative cancellation flag handed to the campaign engine.
    pub cancel: Arc<AtomicBool>,
    /// True once the operator asked for cancellation — distinguishes a
    /// user cancel from a shutdown drain, which also sets `cancel` but
    /// must leave the job resumable.
    pub cancel_requested: bool,
    /// Latest progress snapshot while running, kept for `GET /jobs/<id>`.
    pub progress: Option<ProgressSnapshot>,
}

impl Job {
    /// A fresh registry entry in `state`.
    pub fn new(id: String, spec: JobSpec, state: JobState) -> Job {
        Job {
            id,
            spec,
            state,
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_requested: false,
            progress: None,
        }
    }
}

/// `root/jobs/<id>`.
pub fn job_dir(root: &Path, id: &str) -> PathBuf {
    root.join("jobs").join(id)
}

/// The job's campaign directory, `root/jobs/<id>/campaign`.
pub fn campaign_dir(root: &Path, id: &str) -> PathBuf {
    job_dir(root, id).join("campaign")
}

/// Persist a terminal marker file (`done.json` / `error.json` /
/// `cancelled.json`). Markers are tiny and written atomically via
/// temp-file + rename so a crash never leaves a torn marker.
pub fn write_marker(root: &Path, id: &str, name: &str, contents: &str) -> Result<(), String> {
    let dir = job_dir(root, id);
    let tmp = dir.join(format!("{name}.tmp"));
    let fin = dir.join(name);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &fin)
        .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), fin.display()))
}

/// Read a job's state from its markers alone.
pub fn state_on_disk(root: &Path, id: &str) -> JobState {
    let dir = job_dir(root, id);
    if dir.join("done.json").exists() {
        JobState::Done
    } else if dir.join("error.json").exists() {
        JobState::Failed
    } else if dir.join("cancelled.json").exists() {
        JobState::Cancelled
    } else {
        JobState::Queued
    }
}

/// Scan `root/jobs/` and rebuild the registry: every job directory with
/// a parseable `spec.json`, sorted by id so re-enqueue order matches
/// submission order. Unfinished jobs (no terminal marker) come back as
/// [`JobState::Queued`] — including ones that were mid-run when the
/// previous server process died.
pub fn scan_jobs(root: &Path) -> Result<Vec<Job>, String> {
    let jobs_root = root.join("jobs");
    if !jobs_root.exists() {
        return Ok(Vec::new());
    }
    let mut ids = Vec::new();
    let entries = std::fs::read_dir(&jobs_root)
        .map_err(|e| format!("cannot read {}: {e}", jobs_root.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", jobs_root.display()))?;
        if entry.path().is_dir() {
            ids.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    ids.sort();
    let mut jobs = Vec::with_capacity(ids.len());
    for id in ids {
        let spec_path = job_dir(root, &id).join("spec.json");
        let Ok(text) = std::fs::read_to_string(&spec_path) else {
            // A directory without a spec is a half-created job whose
            // submission never completed; ignore it.
            continue;
        };
        let spec: JobSpec = serde::json::from_str(&text)
            .map_err(|e| format!("corrupt {}: {e:?}", spec_path.display()))?;
        let state = state_on_disk(root, &id);
        let mut job = Job::new(id, spec, state);
        if state == JobState::Failed {
            job.error = std::fs::read_to_string(job_dir(root, &job.id).join("error.json"))
                .ok()
                .and_then(|t| {
                    serde::json::from_str::<serde::Value>(&t)
                        .ok()
                        .and_then(|v| match v.field("error") {
                            Ok(serde::Value::Str(s)) => Some(s.clone()),
                            _ => None,
                        })
                });
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// The next unused job id given the existing registry: `job-NNNN` with
/// a strictly increasing suffix, so ids stay unique across restarts.
pub fn next_id(existing: &[Job]) -> String {
    let max = existing
        .iter()
        .filter_map(|j| j.id.strip_prefix("job-"))
        .filter_map(|n| n.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    format!("job-{:04}", max + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_increase_and_scan_orders_by_id() {
        let jobs = vec![
            Job::new("job-0002".into(), JobSpec::default(), JobState::Done),
            Job::new("job-0010".into(), JobSpec::default(), JobState::Queued),
        ];
        assert_eq!(next_id(&jobs), "job-0011");
        assert_eq!(next_id(&[]), "job-0001");
    }

    #[test]
    fn disk_state_tracks_markers() {
        let root = std::env::temp_dir().join(format!("spear-serve-jobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let id = "job-0001";
        std::fs::create_dir_all(job_dir(&root, id)).unwrap();
        std::fs::write(
            job_dir(&root, id).join("spec.json"),
            serde::json::to_string(&JobSpec {
                workloads: vec!["pointer".into()],
                machines: vec!["baseline".into()],
                ..JobSpec::default()
            }),
        )
        .unwrap();
        assert_eq!(state_on_disk(&root, id), JobState::Queued);
        let scanned = scan_jobs(&root).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].state, JobState::Queued);

        write_marker(&root, id, "done.json", "{}").unwrap();
        assert_eq!(state_on_disk(&root, id), JobState::Done);
        assert_eq!(scan_jobs(&root).unwrap()[0].state, JobState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }
}

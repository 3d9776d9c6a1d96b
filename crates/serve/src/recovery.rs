//! Service-side crash consistency: opening the write-ahead journal the
//! serve loop and the cluster coordinator append to, and the one resume
//! fold both replay it with.
//!
//! The journal lives in its own single-disk [`MmapEnv`], so it is
//! durable across restarts and exercises the same `FileOps::sync`
//! contract the store does.
//!
//! A job costs two records, `JobSubmitted` and `JobCompleted`, both
//! committed by the shared lifecycle
//! ([`JobLog`](mmjoin_recovery::JobLog)); [`refused_completion`] is
//! the error a refused completion publishes.
//!
//! On restart with `--resume`, [`resume_jobs`] folds the replayed
//! records into the jobs they describe; completed jobs are re-reported
//! from their journaled results, in-flight jobs are re-submitted under
//! their original ids, and every leftover per-job store directory is
//! removed whole. A job that re-runs clears its own store first
//! (`run_join`), so the removal serves the stores of jobs that never
//! run again; nothing in a dead store needs mapping to be destroyed.

use std::path::Path;
use std::sync::Arc;

use mmjoin_env::{EnvError, ProcId, TraceSink};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_recovery::{Journal, ReplayState, Replayed};

use crate::job::{JobId, JobRequest, PAGE};

/// Journal file name inside the serve journal directory's disk 0.
pub(crate) const JOURNAL_FILE: &str = "serve.wal";

/// The process identity journal operations are attributed to.
const JOURNAL_PROC: ProcId = ProcId(0);

/// Open the journal `file` in its own single-disk [`MmapEnv`] under
/// `dir` ([`Journal::open_or_create`]), whose trace sink receives the
/// journal's `journal_append` events. The serve and cluster coordinator
/// journals are both opened here.
///
/// A fresh start wipes `dir` first: the directory is dedicated to the
/// journal, and stale records from an unrelated earlier run must not
/// leak into this one's replay. The replay is `Some` only when resuming
/// found a journal; resuming without one is a first start.
pub fn open_journal(
    dir: &Path,
    file: &str,
    resume: bool,
    sink: Arc<dyn TraceSink>,
) -> Result<(Journal<MmapEnv>, Option<Replayed>), String> {
    let cfg = MmapEnvConfig {
        root: dir.to_path_buf(),
        num_disks: 1,
        page_size: PAGE,
    };
    let env = if resume {
        MmapEnv::recover(cfg).map(|(env, _)| env)
    } else {
        let _ = std::fs::remove_dir_all(dir);
        MmapEnv::new(cfg)
    }
    .map_err(|e| format!("journal env: {e}"))?;
    env.set_trace_sink(sink);
    Journal::open_or_create(env, file, resume, JOURNAL_PROC).map_err(|e| format!("journal: {e}"))
}

/// One job a replayed journal knows: its id, its request, and its
/// journaled result `(pairs, checksum, ok)` if it completed.
pub type ResumedJob = (JobId, JobRequest, Option<(u64, u64, bool)>);

/// Fold a replayed job journal into its jobs, in id order, plus the
/// highest id it has seen (id assignment continues above it). A job
/// whose submission line does not parse is dropped with a warning: a
/// completion commits only after its submission, so that takes a
/// tampered journal, and guessing a workload would be worse.
pub fn resume_jobs(state: &ReplayState) -> (Vec<ResumedJob>, JobId) {
    let jobs = state
        .jobs
        .iter()
        .filter_map(|(&id, js)| match JobRequest::parse_line(&js.line) {
            Ok(Some(req)) => Some((id, req, js.completed)),
            Ok(None) | Err(_) => {
                eprintln!(
                    "mmjoin-serve: journal job {id} has no usable submission line ({:?}); dropped",
                    js.line
                );
                None
            }
        })
        .collect();
    (jobs, state.max_job_id().unwrap_or(0))
}

/// The error a job re-reported from the journal carries: none for a
/// journaled success.
pub fn replayed_error(ok: bool) -> Option<String> {
    (!ok).then(|| "failed before restart (replayed from journal)".to_string())
}

/// The error a job reports when the journal refused its completion
/// record: its own error, if it had one, then the refusal.
pub fn refused_completion(error: Option<String>, refusal: &EnvError) -> String {
    let refused = format!("journal commit failed: {refusal}");
    match error {
        Some(err) => format!("{err}; {refused}"),
        None => refused,
    }
}

/// Remove every leftover per-job store (a `job*` directory) under
/// `root` whole. Returns the number of regular files the removed stores
/// held: every area a store keeps is one.
pub(crate) fn gc_job_stores(root: &Path) -> Result<u64, String> {
    let Ok(entries) = std::fs::read_dir(root) else {
        // No store directory yet (nothing ever ran): nothing to GC.
        return Ok(0);
    };
    let mut deleted = 0;
    for entry in entries.flatten() {
        let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
        if !is_dir || !entry.file_name().to_string_lossy().starts_with("job") {
            continue;
        }
        let path = entry.path();
        deleted += count_files(&path);
        std::fs::remove_dir_all(&path)
            .map_err(|e| format!("gc: cannot remove {}: {e}", path.display()))?;
    }
    Ok(deleted)
}

/// The regular files below `dir`, following no symlink.
fn count_files(dir: &Path) -> u64 {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => count_files(&e.path()),
            Ok(t) => u64::from(t.is_file()),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_env::{null_sink, Env};
    use mmjoin_recovery::JournalRecord;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmjoin-serve-rec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_journal_then_resume_round_trips_records() {
        let dir = tmp("roundtrip");
        {
            let (mut j, replayed) = open_journal(&dir, "serve.wal", false, null_sink()).unwrap();
            assert!(replayed.is_none());
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 1,
                line: "objects=800 d=2".into(),
            })
            .unwrap();
            j.append_commit(&JournalRecord::JobCompleted {
                job: 1,
                pairs: 7,
                checksum: 9,
                ok: false,
            })
            .unwrap();
            assert_eq!(j.stats().commits, 2);
        }
        let (_j, replayed) = open_journal(&dir, "serve.wal", true, null_sink()).unwrap();
        let replayed = replayed.expect("resume sees the journal");
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.torn_bytes, 0);
        let (jobs, next_id) = resume_jobs(&ReplayState::from_records(&replayed.records));
        assert_eq!(next_id, 1);
        assert_eq!(jobs.len(), 1);
        assert_eq!((jobs[0].0, jobs[0].2), (1, Some((7, 9, false))));
        assert!(replayed_error(false)
            .unwrap()
            .contains("replayed from journal"));
        assert_eq!(replayed_error(true), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_start_wipes_a_prior_journal() {
        let dir = tmp("wipe");
        {
            let (mut j, _) = open_journal(&dir, "serve.wal", false, null_sink()).unwrap();
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 1,
                line: "objects=800 d=2".into(),
            })
            .unwrap();
        }
        {
            let (_j, replayed) = open_journal(&dir, "serve.wal", false, null_sink()).unwrap();
            assert!(replayed.is_none());
        }
        let (_j, replayed) = open_journal(&dir, "serve.wal", true, null_sink()).unwrap();
        assert!(replayed.unwrap().records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unusable_submission_line_is_dropped_but_keeps_its_id() {
        let state = ReplayState::from_records(&[
            JournalRecord::JobSubmitted {
                job: 1,
                line: "objects=800 d=2".into(),
            },
            JournalRecord::JobSubmitted {
                job: 2,
                line: "alg=bogus".into(),
            },
        ]);
        let (jobs, next_id) = resume_jobs(&state);
        assert_eq!(jobs.iter().map(|j| j.0).collect::<Vec<_>>(), [1]);
        assert_eq!(next_id, 2, "a dropped job's id is never reused");
    }

    #[test]
    fn gc_removes_leftover_job_stores() {
        let root = tmp("gc");
        // A dead job store with two disks and two leftover areas.
        let env = MmapEnv::new(MmapEnvConfig {
            root: root.join("job7"),
            num_disks: 2,
            page_size: PAGE,
        })
        .unwrap();
        env.create_file(JOURNAL_PROC, "R_0", mmjoin_env::DiskId(0), 4096)
            .unwrap();
        env.create_file(JOURNAL_PROC, "RS_1", mmjoin_env::DiskId(1), 4096)
            .unwrap();
        drop(env);
        // A non-job directory must be left alone.
        std::fs::create_dir_all(root.join("keepme")).unwrap();
        let deleted = gc_job_stores(&root).unwrap();
        assert_eq!(deleted, 2);
        assert!(!root.join("job7").exists());
        assert!(root.join("keepme").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_counts_the_files_of_dead_stores_and_spares_the_rest() {
        let root = tmp("gc-count");
        let file = |rel: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, b"area").unwrap();
        };
        file("job3/disk0/a");
        file("job3/disk1/b");
        std::fs::create_dir_all(root.join("job9")).unwrap();
        // Not a directory, so not a store, whatever its name.
        file("job5");
        file("keepme/x");
        assert_eq!(gc_job_stores(&root).unwrap(), 2);
        assert!(!root.join("job3").exists());
        assert!(!root.join("job9").exists());
        assert!(root.join("job5").is_file());
        assert!(root.join("keepme/x").is_file());
        let _ = std::fs::remove_dir_all(&root);
    }
}

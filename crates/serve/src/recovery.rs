//! Service-side crash consistency: the write-ahead journal the serve
//! loop appends to, and the restart path that replays it.
//!
//! The journal lives in its own single-disk [`MmapEnv`] (so it is
//! durable across restarts and exercises the same `FileOps::sync`
//! contract the store does), guarded by one mutex — append order in the
//! file is the lock-acquisition order, which is all replay needs.
//!
//! What gets journaled, and when it commits — two records per job,
//! each committed before what it describes becomes visible:
//!
//! * `JobSubmitted` — at submission, before the id is returned (a
//!   client that got an id back will find its job after a crash);
//! * `JobCompleted` — after the job finishes, before its result is
//!   published.
//!
//! On restart with `--resume`, the replayed record prefix is folded
//! into a [`ReplayState`]; completed jobs are re-reported from their
//! journaled results, in-flight jobs are re-submitted under their
//! original ids, and every leftover per-job store directory is
//! garbage-collected through `Env::list_files`/`delete_file` — a job
//! that re-runs starts from scratch, so nothing in its old directory
//! is worth keeping (and `MmapEnv::create_file` would refuse to
//! recreate areas over leftovers anyway).

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use mmjoin::choose;
use mmjoin_env::{ProcId, TraceEvent, TraceSink};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_recovery::{
    gc_orphans, Journal, JournalRecord, JournalStats, ReplayState, Replayed, JOURNAL_CAPACITY,
};

use crate::job::{JobId, JobRequest, JobResult, PAGE};
use crate::service::{EnvKind, ServeConfig};

/// Journal file name inside the journal directory's disk 0.
const JOURNAL_FILE: &str = "serve.wal";

/// The process identity journal operations are attributed to.
const JOURNAL_PROC: ProcId = ProcId(0);

/// Open (resuming) or create (fresh) the journal `file` in its own
/// single-disk [`MmapEnv`] under `dir`, whose trace sink receives the
/// journal's `journal_append` events. The serve and cluster
/// coordinator journals are both opened here.
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
    let (env, found) = if resume {
        let (env, adopted) = MmapEnv::recover(cfg).map_err(|e| format!("journal env: {e}"))?;
        let found = adopted.iter().any(|n| n == file);
        (env, found)
    } else {
        let _ = std::fs::remove_dir_all(dir);
        let env = MmapEnv::new(cfg).map_err(|e| format!("journal env: {e}"))?;
        (env, false)
    };
    env.set_trace_sink(sink);
    if found {
        let (journal, replayed) =
            Journal::open(env, file, JOURNAL_PROC).map_err(|e| format!("journal open: {e}"))?;
        Ok((journal, Some(replayed)))
    } else {
        let journal = Journal::create(env, file, JOURNAL_CAPACITY, JOURNAL_PROC)
            .map_err(|e| format!("journal create: {e}"))?;
        Ok((journal, None))
    }
}

/// What `Journal::open` replayed, before the service interprets it.
pub(crate) struct ResumePlan {
    /// Folded journal state.
    pub(crate) state: ReplayState,
    /// CRC-valid records adopted.
    pub(crate) records: u64,
    /// Committed bytes lost to a torn or corrupted tail.
    pub(crate) torn_bytes: u64,
}

/// The journal shared by every worker of a service. Commit failures are
/// reported to stderr but never fail the job that triggered them: the
/// journal is a recovery aid, and a full journal must not take the
/// service down with it.
pub(crate) struct ServiceJournal {
    inner: Mutex<Journal<MmapEnv>>,
}

impl ServiceJournal {
    /// Open (resuming) or create (fresh) the journal under `dir` (see
    /// [`open_journal`]). Returns the journal plus, when resuming, the
    /// replayed plan — empty when there was no journal to replay.
    pub(crate) fn open(
        dir: &Path,
        resume: bool,
        sink: Arc<dyn TraceSink>,
    ) -> Result<(Arc<ServiceJournal>, Option<ResumePlan>), String> {
        let (journal, replayed) = open_journal(dir, JOURNAL_FILE, resume, sink)?;
        let plan = resume.then(|| {
            let (records, torn_bytes) =
                replayed.map_or((Vec::new(), 0), |r| (r.records, r.torn_bytes));
            ResumePlan {
                records: records.len() as u64,
                torn_bytes,
                state: ReplayState::from_records(&records),
            }
        });
        let journal = Arc::new(ServiceJournal {
            inner: Mutex::new(journal),
        });
        Ok((journal, plan))
    }

    fn lock(&self) -> MutexGuard<'_, Journal<MmapEnv>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append and make durable (data sync → header write → header sync).
    pub(crate) fn append_commit(&self, rec: &JournalRecord) {
        if let Err(e) = self.lock().append_commit(rec) {
            eprintln!("mmjoin-serve: journal commit ({}) failed: {e}", rec.kind());
        }
    }

    /// Live journal counters.
    pub(crate) fn stats(&self) -> JournalStats {
        self.lock().stats()
    }
}

/// Everything a restarted service must do with a replayed journal,
/// computed before the scheduler exists so `apply_resume` only installs it.
pub(crate) struct ResumeOutcome {
    /// Completed jobs re-reported from their journaled results.
    pub(crate) finished: Vec<JobResult>,
    /// In-flight jobs to re-submit, with their original ids.
    pub(crate) pending: Vec<(JobId, JobRequest)>,
    /// Highest id the journal has seen; id assignment continues above.
    pub(crate) next_id: JobId,
    /// Orphaned store areas deleted during garbage collection.
    pub(crate) orphans_deleted: u64,
    /// CRC-valid records replayed.
    pub(crate) records: u64,
    /// Committed bytes lost to a torn tail.
    pub(crate) torn_bytes: u64,
}

impl ResumeOutcome {
    /// The `RecoveryReplayed` lifecycle event describing this outcome.
    pub(crate) fn trace_event(&self) -> TraceEvent {
        TraceEvent::RecoveryReplayed {
            records: self.records,
            torn: self.torn_bytes,
            orphans_deleted: self.orphans_deleted,
            resumed_jobs: self.pending.len() as u64,
        }
    }
}

/// Interpret a replayed journal against the service configuration:
/// garbage-collect leftover per-job stores, synthesize results for
/// completed jobs, and list the in-flight jobs to re-run.
pub(crate) fn plan_resume(cfg: &ServeConfig, plan: ResumePlan) -> Result<ResumeOutcome, String> {
    let orphans_deleted = match &cfg.env {
        EnvKind::Mmap { root } => gc_job_stores(root)?,
        EnvKind::Sim => 0,
    };
    let mut finished = Vec::new();
    let mut pending = Vec::new();
    for (id, js) in &plan.state.jobs {
        let req = match JobRequest::parse_line(&js.line) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => {
                // A torn tail can leave a completion without its
                // submission line only if the journal was tampered with
                // (completion commits after submission); treat an
                // unparseable line as unrecoverable rather than
                // guessing a workload.
                eprintln!(
                    "mmjoin-serve: journal job {id} has no usable submission line ({:?}); dropped",
                    js.line
                );
                continue;
            }
        };
        match js.completed {
            Some((pairs, checksum, ok)) => {
                let plan = choose(cfg.machine()?, &req.planner_inputs());
                finished.push(JobResult {
                    pairs,
                    checksum,
                    verified: ok,
                    resumed: true,
                    error: (!ok).then(|| "failed before restart (replayed from journal)".into()),
                    ..JobResult::new(*id, &req, &plan)
                });
            }
            None => pending.push((*id, req)),
        }
    }
    Ok(ResumeOutcome {
        next_id: plan.state.max_job_id().unwrap_or(0),
        finished,
        pending,
        orphans_deleted,
        records: plan.records,
        torn_bytes: plan.torn_bytes,
    })
}

/// Delete every leftover per-job store under `root` through the
/// environment's own file table (`Env::list_files` → `delete_file`),
/// then drop the emptied directories. Returns the number of orphaned
/// areas deleted.
fn gc_job_stores(root: &Path) -> Result<u64, String> {
    let mut deleted = 0u64;
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        // No store directory yet (nothing ever ran): nothing to GC.
        Err(_) => return Ok(0),
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !path.is_dir() || !name.starts_with("job") {
            continue;
        }
        // Disk fan-out of the dead store: one `disk{j}` directory per
        // disk it was created with.
        let disks = std::fs::read_dir(&path)
            .map(|it| {
                it.flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("disk"))
                    .count() as u32
            })
            .unwrap_or(0)
            .max(1);
        let (env, _) = MmapEnv::recover(MmapEnvConfig {
            root: path.clone(),
            num_disks: disks,
            page_size: PAGE,
        })
        .map_err(|e| format!("gc: cannot adopt {}: {e}", path.display()))?;
        // Nothing in a dead job's store is worth keeping: completed
        // jobs tear their stores down on success, and re-run jobs
        // rebuild from scratch.
        let gone =
            gc_orphans(&env, JOURNAL_PROC).map_err(|e| format!("gc: {}: {e}", path.display()))?;
        deleted += gone.len() as u64;
        let _ = std::fs::remove_dir_all(&path);
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_env::{null_sink, Env};

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
            let (j, plan) = ServiceJournal::open(&dir, false, null_sink()).unwrap();
            assert!(plan.is_none());
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 1,
                line: "objects=800 d=2".into(),
            });
            j.append_commit(&JournalRecord::JobCompleted {
                job: 1,
                pairs: 7,
                checksum: 9,
                ok: true,
            });
            assert_eq!(j.stats().commits, 2);
        }
        let (_j, plan) = ServiceJournal::open(&dir, true, null_sink()).unwrap();
        let plan = plan.expect("resume sees the journal");
        assert_eq!(plan.records, 2);
        assert_eq!(plan.torn_bytes, 0);
        assert_eq!(plan.state.completed_jobs().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_start_wipes_a_prior_journal() {
        let dir = tmp("wipe");
        {
            let (j, _) = ServiceJournal::open(&dir, false, null_sink()).unwrap();
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 1,
                line: "objects=800 d=2".into(),
            });
        }
        {
            let (_j, plan) = ServiceJournal::open(&dir, false, null_sink()).unwrap();
            assert!(plan.is_none());
        }
        let (_j, plan) = ServiceJournal::open(&dir, true, null_sink()).unwrap();
        assert_eq!(plan.unwrap().records, 0);
        let _ = std::fs::remove_dir_all(&dir);
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
}

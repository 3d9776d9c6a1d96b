//! Service-side crash consistency: the write-ahead journal the serve
//! loop appends to, and the restart path that replays it.
//!
//! The journal lives in its own single-disk [`MmapEnv`] (so it is
//! durable across restarts and exercises the same `FileOps::sync`
//! contract the store does), guarded by one mutex — append order in the
//! file is the lock-acquisition order, which is all replay needs.
//!
//! What gets journaled, and when it commits:
//!
//! * `JobSubmitted` — at submission, committed immediately (a client
//!   that got an id back will find its job after a crash);
//! * `AreaCreated` / `AreaDeleted` — as the job's environment emits
//!   `MapSetup`/`MapTeardown` trace events, *uncommitted* (they ride
//!   the next commit: area records only matter if later records prove
//!   the job progressed);
//! * `Checkpoint` — when a pass boundary is crossed, committed (the
//!   paper's pass structure makes these the only consistent cuts);
//! * `JobCompleted` — after the job finishes, committed.
//!
//! On restart with `--resume`, the replayed record prefix is folded
//! into a [`ReplayState`]; completed jobs are re-reported from their
//! journaled results, in-flight jobs are re-submitted under their
//! original ids, and every leftover per-job store directory is
//! garbage-collected through `Env::list_files`/`delete_file` — a job
//! that re-runs starts from scratch, so nothing in its old directory
//! is worth keeping (and `MmapEnv::create_file` would refuse to
//! recreate areas over leftovers anyway).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use mmjoin::choose;
use mmjoin_env::{MapOp, ProcId, TraceEvent, TraceSink};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_recovery::{gc_orphans, Journal, JournalRecord, JournalStats, ReplayState};

use crate::job::{JobId, JobRequest, JobResult, PAGE};
use crate::service::{EnvKind, ServeConfig};

/// Journal file name inside the journal directory's disk 0.
const JOURNAL_FILE: &str = "serve.wal";

/// Journal capacity: generous for thousands of jobs' worth of records.
const JOURNAL_CAPACITY: u64 = 4 << 20;

/// The process identity journal operations are attributed to.
const JOURNAL_PROC: ProcId = ProcId(0);

/// What `Journal::open` replayed, before the service interprets it.
pub(crate) struct ResumePlan {
    /// Folded journal state.
    pub(crate) state: ReplayState,
    /// CRC-valid records adopted.
    pub(crate) records: u64,
    /// Committed bytes lost to a torn or corrupted tail.
    pub(crate) torn_bytes: u64,
}

/// The journal shared by every worker of a service. Append failures are
/// reported to stderr but never fail the job that triggered them: the
/// journal is a recovery aid, and a full journal must not take the
/// service down with it.
pub(crate) struct ServiceJournal {
    inner: Mutex<Journal<MmapEnv>>,
}

impl ServiceJournal {
    /// Open (resuming) or create (fresh) the journal under `dir`.
    ///
    /// A fresh start wipes `dir` first: the directory is dedicated to
    /// the journal, and stale records from an unrelated earlier run
    /// must not leak into this one's replay. Returns the journal plus,
    /// when resuming, the replayed plan.
    pub(crate) fn open(
        dir: &Path,
        resume: bool,
        sink: Arc<dyn TraceSink>,
    ) -> Result<(Arc<ServiceJournal>, Option<ResumePlan>), String> {
        let cfg = MmapEnvConfig {
            root: dir.to_path_buf(),
            num_disks: 1,
            page_size: PAGE,
        };
        if !resume {
            let _ = std::fs::remove_dir_all(dir);
            let env = MmapEnv::new(cfg).map_err(|e| format!("journal env: {e}"))?;
            env.set_trace_sink(sink);
            let journal = Journal::create(env, JOURNAL_FILE, JOURNAL_CAPACITY, JOURNAL_PROC)
                .map_err(|e| format!("journal create: {e}"))?;
            return Ok((
                Arc::new(ServiceJournal {
                    inner: Mutex::new(journal),
                }),
                None,
            ));
        }
        let (env, adopted) = MmapEnv::recover(cfg).map_err(|e| format!("journal env: {e}"))?;
        env.set_trace_sink(sink);
        if adopted.iter().any(|n| n == JOURNAL_FILE) {
            let (journal, replayed) = Journal::open(env, JOURNAL_FILE, JOURNAL_PROC)
                .map_err(|e| format!("journal open: {e}"))?;
            let plan = ResumePlan {
                records: replayed.records.len() as u64,
                torn_bytes: replayed.torn_bytes,
                state: ReplayState::from_records(&replayed.records),
            };
            Ok((
                Arc::new(ServiceJournal {
                    inner: Mutex::new(journal),
                }),
                Some(plan),
            ))
        } else {
            // --resume with no prior journal: first start, nothing to
            // replay.
            let journal = Journal::create(env, JOURNAL_FILE, JOURNAL_CAPACITY, JOURNAL_PROC)
                .map_err(|e| format!("journal create: {e}"))?;
            Ok((
                Arc::new(ServiceJournal {
                    inner: Mutex::new(journal),
                }),
                Some(ResumePlan {
                    state: ReplayState::default(),
                    records: 0,
                    torn_bytes: 0,
                }),
            ))
        }
    }

    fn lock(&self) -> MutexGuard<'_, Journal<MmapEnv>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append without committing (the record rides the next commit).
    pub(crate) fn append(&self, rec: &JournalRecord) {
        if let Err(e) = self.lock().append(rec) {
            eprintln!("mmjoin-serve: journal append ({}) failed: {e}", rec.kind());
        }
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

/// A trace tee installed on each job's environment when a journal is
/// configured: forwards every event to the real sink and turns the
/// storage-consistency-relevant ones into journal records.
///
/// Pass boundaries are detected from the environment's own `PassEnd`
/// stream: the join's stages are barrier-synchronized, so the first
/// `PassEnd` naming pass `p` proves every process finished pass `p-1`
/// — that is the durable cut the checkpoint records.
pub(crate) struct CheckpointSink {
    inner: Arc<dyn TraceSink>,
    journal: Arc<ServiceJournal>,
    job: JobId,
    /// Highest pass number seen in a `PassEnd`; passes below it are
    /// checkpointed. Never decreases, so a retried join restarting at
    /// pass 0 cannot re-checkpoint (replay's `max` fold would ignore
    /// duplicates anyway).
    max_pass: Mutex<u32>,
}

impl CheckpointSink {
    pub(crate) fn new(
        inner: Arc<dyn TraceSink>,
        journal: Arc<ServiceJournal>,
        job: JobId,
    ) -> CheckpointSink {
        CheckpointSink {
            inner,
            journal,
            job,
            max_pass: Mutex::new(0),
        }
    }

    /// Journal-scoped name for one of this job's storage areas. Jobs
    /// run in per-job directories, so raw area names (`R_0`, ...)
    /// collide across jobs; the prefix keeps the journal's live-area
    /// map per-job.
    fn area(&self, name: &str) -> String {
        format!("job{}/{name}", self.job)
    }
}

impl TraceSink for CheckpointSink {
    fn emit(&self, t: f64, event: TraceEvent) {
        match &event {
            TraceEvent::PassEnd { pass, .. } => {
                let mut max = self.max_pass.lock().unwrap_or_else(|e| e.into_inner());
                if *pass > *max {
                    for done in *max..*pass {
                        let rec = JournalRecord::Checkpoint {
                            job: self.job,
                            pass: done,
                        };
                        if done + 1 == *pass {
                            self.journal.append_commit(&rec);
                        } else {
                            self.journal.append(&rec);
                        }
                    }
                    *max = *pass;
                }
            }
            TraceEvent::MapSetup {
                op: MapOp::New,
                name,
                disk,
                bytes,
                ..
            } => {
                self.journal.append(&JournalRecord::AreaCreated {
                    name: self.area(name),
                    disk: *disk,
                    bytes: *bytes,
                });
            }
            TraceEvent::MapTeardown { name, .. } => {
                self.journal.append(&JournalRecord::AreaDeleted {
                    name: self.area(name),
                });
            }
            _ => {}
        }
        if self.inner.enabled() {
            self.inner.emit(t, event);
        }
    }

    fn enabled(&self) -> bool {
        // The journal needs the map/pass stream even when the real sink
        // discards everything.
        true
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
        // Nothing in a dead job's store is vouched for: completed jobs
        // tear their stores down on success, and re-run jobs rebuild
        // from scratch.
        let gone = gc_orphans(
            &env,
            JOURNAL_PROC,
            &ReplayState::default(),
            &BTreeSet::new(),
        )
        .map_err(|e| format!("gc: {}: {e}", path.display()))?;
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
    fn checkpoint_sink_journals_pass_boundaries_once() {
        let dir = tmp("ckpt");
        let (j, _) = ServiceJournal::open(&dir, false, null_sink()).unwrap();
        let sink = CheckpointSink::new(null_sink(), Arc::clone(&j), 3);
        let pass_end = |pass| TraceEvent::PassEnd {
            proc: 0,
            pass,
            phase: 0,
            disk: 0,
            area: "R".into(),
            bytes: 0,
            objects: 0,
        };
        sink.emit(0.0, pass_end(0));
        sink.emit(0.1, pass_end(0));
        sink.emit(0.2, pass_end(1));
        sink.emit(0.3, pass_end(1));
        // A retried attempt restarting at pass 0 must not re-checkpoint.
        sink.emit(0.4, pass_end(0));
        sink.emit(0.5, pass_end(2));
        drop(sink);
        drop(j);
        let (_j, plan) = ServiceJournal::open(&dir, true, null_sink()).unwrap();
        let plan = plan.unwrap();
        assert_eq!(plan.records, 2, "exactly two checkpoints journaled");
        assert_eq!(plan.state.jobs[&3].last_pass, Some(1));
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

//! Folding a replayed record sequence into recovered state, and
//! garbage-collecting storage areas the journal does not vouch for.
//!
//! # Idempotence
//!
//! Replay is a pure left-fold over the record prefix the journal scan
//! accepted, and every fold step is idempotent and last-writer-wins:
//!
//! * `AreaCreated`/`AreaDeleted` insert into / remove from a map keyed
//!   by area name — replaying a create twice, or a delete for an absent
//!   area, converges to the same map;
//! * `JobSubmitted` registers the job line (a re-submission with the
//!   same id overwrites with identical content, since ids are unique);
//! * `Checkpoint` advances the job's last-completed pass with `max`;
//! * `JobCompleted` stores the terminal result, after which checkpoints
//!   for that job are ignored;
//! * `JobDispatched` records (last-writer-wins) which cluster node holds
//!   the job; `NodeLost` clears that assignment for every job on the
//!   dead node, reverting them to undisposed-pending — replaying either
//!   twice converges.
//!
//! So replaying any *prefix* of the journal yields a state the system
//! actually passed through — which is exactly what a torn tail forces.

use std::collections::{BTreeMap, BTreeSet};

use mmjoin_env::{Env, EnvError, ProcId, Result};

use crate::record::JournalRecord;

/// Recovered per-job state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobState {
    /// The job-file line recorded at submission (re-parseable into the
    /// original request).
    pub line: String,
    /// Highest pass whose boundary checkpoint is durable, if any.
    pub last_pass: Option<u32>,
    /// Terminal result, if the job completed: `(pairs, checksum, ok)`.
    pub completed: Option<(u64, u64, bool)>,
    /// Cluster node the job was last dispatched to, if that node is
    /// still considered alive (cleared by `NodeLost`).
    pub dispatched: Option<String>,
}

/// Recovered per-stream-operation state (batches and resident-set
/// mutations share one sequence-number space).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchState {
    /// The stream-grammar op line recorded at submission.
    pub line: String,
    /// Terminal result: `(pairs, checksum, misses)` for probe batches,
    /// `(slots patched, 0, 0)` for mutations (`append=`/`delete=`). A
    /// completed mutation is still re-applied in sequence order on
    /// replay — the resident set is rebuilt from scratch, and only the
    /// op list reconstructs its state — but it is not re-journaled.
    pub completed: Option<(u64, u64, u64)>,
}

/// The state a journal prefix folds into.
#[derive(Clone, Debug, Default)]
pub struct ReplayState {
    /// Areas the journal says are live: name → (disk, bytes).
    pub live_areas: BTreeMap<String, (u32, u64)>,
    /// Every job the journal knows about, keyed by id.
    pub jobs: BTreeMap<u64, JobState>,
    /// The streaming session's `resident=` header line, if one opened.
    pub stream_line: Option<String>,
    /// Every stream op the journal knows about, keyed by sequence
    /// number.
    pub batches: BTreeMap<u64, BatchState>,
}

impl ReplayState {
    /// Fold `records` (in journal order) into recovered state.
    pub fn from_records(records: &[JournalRecord]) -> ReplayState {
        let mut st = ReplayState::default();
        for rec in records {
            match rec {
                JournalRecord::AreaCreated { name, disk, bytes } => {
                    st.live_areas.insert(name.clone(), (*disk, *bytes));
                }
                JournalRecord::AreaDeleted { name } => {
                    st.live_areas.remove(name);
                }
                JournalRecord::JobSubmitted { job, line } => {
                    st.jobs.entry(*job).or_default().line = line.clone();
                }
                JournalRecord::Checkpoint { job, pass } => {
                    let j = st.jobs.entry(*job).or_default();
                    if j.completed.is_none() {
                        j.last_pass = Some(j.last_pass.map_or(*pass, |p| p.max(*pass)));
                    }
                }
                JournalRecord::JobCompleted {
                    job,
                    pairs,
                    checksum,
                    ok,
                } => {
                    st.jobs.entry(*job).or_default().completed = Some((*pairs, *checksum, *ok));
                }
                JournalRecord::JobDispatched { job, node } => {
                    st.jobs.entry(*job).or_default().dispatched = Some(node.clone());
                }
                JournalRecord::NodeLost { node } => {
                    for j in st.jobs.values_mut() {
                        if j.dispatched.as_deref() == Some(node) {
                            j.dispatched = None;
                        }
                    }
                }
                JournalRecord::StreamOpened { line } => {
                    st.stream_line = Some(line.clone());
                }
                JournalRecord::BatchSubmitted { batch, line } => {
                    st.batches.entry(*batch).or_default().line = line.clone();
                }
                JournalRecord::BatchCompleted {
                    batch,
                    pairs,
                    checksum,
                    misses,
                } => {
                    st.batches.entry(*batch).or_default().completed =
                        Some((*pairs, *checksum, *misses));
                }
            }
        }
        st
    }

    /// Jobs that were submitted but never completed, in id order —
    /// these must be re-run (or resumed) by the restarted service.
    pub fn pending_jobs(&self) -> Vec<(u64, &JobState)> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.completed.is_none())
            .map(|(id, j)| (*id, j))
            .collect()
    }

    /// Jobs with a durable terminal result, in id order.
    pub fn completed_jobs(&self) -> Vec<(u64, &JobState)> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.completed.is_some())
            .map(|(id, j)| (*id, j))
            .collect()
    }

    /// Highest job id the journal has seen (so a resumed service can
    /// continue numbering without collisions).
    pub fn max_job_id(&self) -> Option<u64> {
        self.jobs.keys().next_back().copied()
    }
}

/// Delete every file in `env` that the journal does not consider live
/// and that is not explicitly protected (the journal file itself, base
/// relation partitions, ...). Returns the names deleted, sorted.
///
/// A file already gone (deleted concurrently, or the create was itself
/// torn) is tolerated: the goal state is "absent", and it is.
pub fn gc_orphans<E: Env>(
    env: &E,
    proc: ProcId,
    state: &ReplayState,
    protect: &BTreeSet<String>,
) -> Result<Vec<String>> {
    let mut deleted = Vec::new();
    let mut names = env.list_files();
    names.sort();
    for name in names {
        if state.live_areas.contains_key(&name) || protect.contains(&name) {
            continue;
        }
        match env.delete_file(proc, &name) {
            Ok(()) => deleted.push(name),
            Err(EnvError::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_env::DiskId;

    fn recs() -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobSubmitted {
                job: 1,
                line: "name=a objects=100".into(),
            },
            JournalRecord::AreaCreated {
                name: "R_0".into(),
                disk: 0,
                bytes: 4096,
            },
            JournalRecord::AreaCreated {
                name: "w.RP_0#t1".into(),
                disk: 1,
                bytes: 8192,
            },
            JournalRecord::Checkpoint { job: 1, pass: 0 },
            JournalRecord::AreaDeleted {
                name: "w.RP_0#t1".into(),
            },
            JournalRecord::Checkpoint { job: 1, pass: 1 },
            JournalRecord::JobSubmitted {
                job: 2,
                line: "name=b objects=200".into(),
            },
            JournalRecord::JobCompleted {
                job: 1,
                pairs: 100,
                checksum: 42,
                ok: true,
            },
        ]
    }

    #[test]
    fn fold_tracks_areas_jobs_and_checkpoints() {
        let st = ReplayState::from_records(&recs());
        assert_eq!(st.live_areas.len(), 1);
        assert_eq!(st.live_areas["R_0"], (0, 4096));
        assert_eq!(st.jobs[&1].last_pass, Some(1));
        assert_eq!(st.jobs[&1].completed, Some((100, 42, true)));
        assert_eq!(st.jobs[&2].last_pass, None);
        assert_eq!(st.pending_jobs().len(), 1);
        assert_eq!(st.pending_jobs()[0].0, 2);
        assert_eq!(st.completed_jobs().len(), 1);
        assert_eq!(st.max_job_id(), Some(2));
    }

    #[test]
    fn every_prefix_is_consistent() {
        // The consistent-prefix property replay relies on: folding any
        // prefix never yields a state with a deleted-but-live area or a
        // completed-but-unknown job.
        let all = recs();
        for cut in 0..=all.len() {
            let st = ReplayState::from_records(&all[..cut]);
            for (id, j) in st.completed_jobs() {
                assert!(!j.line.is_empty(), "job {id} completed without submission");
            }
            // Monotone: prefix state's live areas are a subset of what
            // some full-history pass produced at that point (trivially
            // true by construction; assert the fold is total instead).
            assert!(st.live_areas.len() <= 2);
        }
    }

    #[test]
    fn dispatch_and_node_loss_fold_idempotently() {
        let recs = vec![
            JournalRecord::JobSubmitted {
                job: 1,
                line: "name=a objects=100".into(),
            },
            JournalRecord::JobSubmitted {
                job: 2,
                line: "name=b objects=200".into(),
            },
            JournalRecord::JobDispatched {
                job: 1,
                node: "n0".into(),
            },
            JournalRecord::JobDispatched {
                job: 2,
                node: "n1".into(),
            },
            // Re-dispatch after a re-queue: last writer wins.
            JournalRecord::JobDispatched {
                job: 1,
                node: "n1".into(),
            },
            JournalRecord::NodeLost { node: "n1".into() },
        ];
        let st = ReplayState::from_records(&recs);
        assert_eq!(st.jobs[&1].dispatched, None);
        assert_eq!(st.jobs[&2].dispatched, None);
        assert_eq!(st.pending_jobs().len(), 2);
        // Replaying the loss again converges to the same state.
        let mut twice = recs.clone();
        twice.push(JournalRecord::NodeLost { node: "n1".into() });
        let st2 = ReplayState::from_records(&twice);
        assert_eq!(st.jobs, st2.jobs);
        // A completion after a lost dispatch still lands (the node got
        // the result out before the coordinator declared it dead).
        let mut done = recs;
        done.push(JournalRecord::JobCompleted {
            job: 2,
            pairs: 9,
            checksum: 1,
            ok: true,
        });
        let st3 = ReplayState::from_records(&done);
        assert_eq!(st3.pending_jobs().len(), 1);
        assert_eq!(st3.jobs[&2].completed, Some((9, 1, true)));
    }

    #[test]
    fn checkpoints_after_completion_are_ignored() {
        let st = ReplayState::from_records(&[
            JournalRecord::JobCompleted {
                job: 5,
                pairs: 1,
                checksum: 2,
                ok: true,
            },
            JournalRecord::Checkpoint { job: 5, pass: 2 },
        ]);
        assert_eq!(st.jobs[&5].last_pass, None);
        assert_eq!(st.completed_jobs().len(), 1);
    }

    #[test]
    fn gc_deletes_exactly_the_unvouched_files() {
        let env = mmjoin_vmsim::SimEnv::new(mmjoin_vmsim::SimConfig::waterloo96(2)).unwrap();
        let p = mmjoin_env::ProcId(0);
        env.create_file(p, "wal", DiskId(0), 8192).unwrap();
        env.create_file(p, "R_0", DiskId(0), 4096).unwrap();
        env.create_file(p, "w.RP_1#t2", DiskId(1), 4096).unwrap();
        env.create_file(p, "RS_0", DiskId(0), 4096).unwrap();
        let st = ReplayState::from_records(&[JournalRecord::AreaCreated {
            name: "R_0".into(),
            disk: 0,
            bytes: 4096,
        }]);
        let protect = BTreeSet::from(["wal".to_string()]);
        let deleted = gc_orphans(&env, p, &st, &protect).unwrap();
        assert_eq!(deleted, vec!["RS_0".to_string(), "w.RP_1#t2".to_string()]);
        let mut left = env.list_files();
        left.sort();
        assert_eq!(left, vec!["R_0".to_string(), "wal".to_string()]);
    }
}

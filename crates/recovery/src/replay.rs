//! Folding a replayed record sequence into recovered state.
//!
//! # Idempotence
//!
//! Replay is a pure left-fold over the record prefix the journal scan
//! accepted, and every fold step is idempotent and last-writer-wins:
//!
//! * `JobSubmitted` registers the job line (a re-submission with the
//!   same id overwrites with identical content, since ids are unique);
//! * `JobCompleted` stores the terminal result;
//! * `StreamOpened`, `BatchSubmitted` and `BatchCompleted` do the same
//!   for the stream header and its ops, keyed by sequence number.
//!
//! So replaying any *prefix* of the journal yields a state the system
//! actually passed through — which is exactly what a torn tail forces.
//! A job without a completion re-runs from scratch, so nothing about
//! its progress is journaled.

use std::collections::BTreeMap;

use crate::record::JournalRecord;

/// Recovered per-job state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobState {
    /// The job-file line recorded at submission (re-parseable into the
    /// original request).
    pub line: String,
    /// Terminal result, if the job completed: `(pairs, checksum, ok)`.
    pub completed: Option<(u64, u64, bool)>,
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
                JournalRecord::JobSubmitted { job, line } => {
                    st.jobs.entry(*job).or_default().line = line.clone();
                }
                JournalRecord::JobCompleted {
                    job,
                    pairs,
                    checksum,
                    ok,
                } => {
                    st.jobs.entry(*job).or_default().completed = Some((*pairs, *checksum, *ok));
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
    /// these must be re-run by the restarted service.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobSubmitted {
                job: 1,
                line: "name=a objects=100".into(),
            },
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
    fn fold_tracks_submissions_and_completions() {
        let st = ReplayState::from_records(&recs());
        assert_eq!(st.jobs[&1].line, "name=a objects=100");
        assert_eq!(st.jobs[&1].completed, Some((100, 42, true)));
        assert_eq!(st.jobs[&2].completed, None);
        assert_eq!(st.pending_jobs().len(), 1);
        assert_eq!(st.pending_jobs()[0].0, 2);
        assert_eq!(st.completed_jobs().len(), 1);
        assert_eq!(st.max_job_id(), Some(2));
    }

    #[test]
    fn every_prefix_is_consistent() {
        // The consistent-prefix property replay relies on: folding any
        // prefix never yields a completed-but-unknown job, and every
        // job is pending or completed, never both.
        let all = recs();
        for cut in 0..=all.len() {
            let st = ReplayState::from_records(&all[..cut]);
            for (id, j) in st.completed_jobs() {
                assert!(!j.line.is_empty(), "job {id} completed without submission");
            }
            assert_eq!(
                st.pending_jobs().len() + st.completed_jobs().len(),
                st.jobs.len()
            );
        }
    }
}

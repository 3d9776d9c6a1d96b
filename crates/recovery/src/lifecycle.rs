//! The job lifecycle every tier shares, written once as [`JobLog`].
//!
//! Serve, the stream and the cluster coordinator schedule differently
//! (budget admission, one ordered lane, remote dispatch), but each job
//! or op they run is accepted (id, submission record, enqueue), then
//! published (completion record, result, wake-up) exactly once, and a
//! resume continues numbering above every id the journal holds.
//!
//! Lock order: the stream and the coordinator take the log's lock
//! inside their own; serve takes a shard's lock inside the log's (its
//! enqueue and completion bookkeeping run in the closures below). The
//! journal lives under the log's lock, so it adds no lock of its own.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use mmjoin_env::{Env, EnvError, Result};

use crate::journal::{Journal, JournalStats};
use crate::record::JournalRecord;

/// A tier's journal plus the lifecycle state of every job it accepted:
/// id assignment, the published ids, and the results in completion
/// order (`R` is the tier's result type).
pub struct JobLog<R, E: Env> {
    state: Mutex<LogState<R, E>>,
    journaled: bool,
    /// Signalled on every publication.
    published: Condvar,
}

struct LogState<R, E: Env> {
    journal: Option<Journal<E>>,
    next_id: u64,
    accepted: u64,
    published: BTreeSet<u64>,
    results: Vec<R>,
    /// Set by [`JobLog::wake`]: `wait_results` no longer blocks.
    woken: bool,
}

impl<R: Clone, E: Env> JobLog<R, E> {
    /// A log over `journal` (`None`: unjournaled) whose first id is
    /// `first_id`.
    pub fn new(journal: Option<Journal<E>>, first_id: u64) -> JobLog<R, E> {
        JobLog {
            journaled: journal.is_some(),
            state: Mutex::new(LogState {
                journal,
                next_id: first_id,
                accepted: 0,
                published: BTreeSet::new(),
                results: Vec::new(),
                woken: false,
            }),
            published: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogState<R, E>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether there is a journal to commit to.
    pub fn is_journaled(&self) -> bool {
        self.journaled
    }

    /// Live journal counters; `None` without a journal.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.lock().journal.as_ref().map(Journal::stats)
    }

    /// Accept one job: commit the submission record `record` builds for
    /// the next id, then `enqueue` the job under that id, and return it
    /// — all under the log's lock, so journal order, id order and queue
    /// order agree. On a refused commit `refused` decides: its `Err`
    /// fails the submission, which takes no id and enqueues nothing; its
    /// `Ok` goes on undurably.
    pub fn accept(
        &self,
        record: impl FnOnce(u64) -> JournalRecord,
        refused: impl FnOnce(EnvError) -> Result<()>,
        enqueue: impl FnOnce(u64),
    ) -> Result<u64> {
        let mut st = self.lock();
        let id = st.next_id;
        if let Some(Err(e)) = st.journal.as_mut().map(|j| j.append_commit(&record(id))) {
            refused(e)?;
        }
        st.next_id = id + 1;
        st.accepted += 1;
        enqueue(id);
        Ok(id)
    }

    /// Publish job `id`'s result: commit `record` (none: nothing to
    /// make durable), build the result with `finish` from the commit's
    /// outcome — a refused commit must come out failed — then make it
    /// visible and wake every waiter. Returns `false`, committing and
    /// building nothing, if `id` is already published: results are
    /// exactly-once even over at-least-once execution.
    pub fn publish(
        &self,
        id: u64,
        record: Option<JournalRecord>,
        finish: impl FnOnce(Result<()>) -> R,
    ) -> bool {
        let mut st = self.lock();
        if st.published.contains(&id) {
            return false;
        }
        let committed = match (st.journal.as_mut(), record) {
            (Some(j), Some(rec)) => j.append_commit(&rec),
            _ => Ok(()),
        };
        let result = finish(committed);
        st.published.insert(id);
        st.results.push(result);
        drop(st);
        self.published.notify_all();
        true
    }

    /// Install a replayed journal before any job runs: number new jobs
    /// above `top`, the highest id the journal holds (usable line or
    /// not), then accept each of `jobs` again, in order, without a
    /// commit. `each` re-queues its job and returns `None`, or returns
    /// the result to re-publish (a journaled completion, or a job that
    /// can no longer run). The first error stops the resume.
    pub fn resume<J, X>(
        &self,
        top: Option<u64>,
        jobs: impl IntoIterator<Item = (u64, J)>,
        mut each: impl FnMut(u64, J) -> std::result::Result<Option<R>, X>,
    ) -> std::result::Result<(), X> {
        let mut st = self.lock();
        if let Some(top) = top {
            st.next_id = st.next_id.max(top + 1);
        }
        for (id, job) in jobs {
            st.accepted += 1;
            if let Some(result) = each(id, job)? {
                st.published.insert(id);
                st.results.push(result);
            }
        }
        Ok(())
    }

    /// Whether job `id` has a published result.
    pub fn is_published(&self, id: u64) -> bool {
        self.lock().published.contains(&id)
    }

    /// Block until every accepted job is published.
    pub fn drain(&self) {
        let mut st = self.lock();
        while (st.published.len() as u64) < st.accepted {
            st = self.published.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until more than `from` results exist, then return
    /// `results[from..]` in completion order; an empty vector means
    /// `deadline` passed first, or [`JobLog::wake`] was called. A
    /// consumer that remembers how many results it has seen gets each
    /// one once, woken by the publication itself.
    pub fn wait_results(&self, from: usize, deadline: Instant) -> Vec<R> {
        let mut st = self.lock();
        loop {
            if let Some(fresh) = st.results.get(from..).filter(|s| !s.is_empty()) {
                return fresh.to_vec();
            }
            if st.woken {
                return Vec::new();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Vec::new();
            }
            let waited = self.published.wait_timeout(st, left);
            st = waited.unwrap_or_else(|e| e.into_inner()).0;
        }
    }

    /// Make every `wait_results`, blocked now or called later, return
    /// at once (with whatever results are fresh, possibly none): how a
    /// consumer that waits with no deadline is told to stop.
    pub fn wake(&self) {
        self.lock().woken = true;
        self.published.notify_all();
    }

    /// Results so far, in completion order.
    pub fn results(&self) -> Vec<R> {
        self.lock().results.clone()
    }

    /// Move every result out (completion order), leaving none.
    pub fn take_results(&self) -> Vec<R> {
        std::mem::take(&mut self.lock().results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::HEADER_SIZE;
    use crate::replay::ReplayState;
    use mmjoin_env::ProcId;
    use mmjoin_vmsim::{SimConfig, SimEnv};
    use std::time::Duration;

    /// A result is `(id, ok)`.
    type Log = JobLog<(u64, bool), SimEnv>;

    const P: ProcId = ProcId(0);

    fn submitted(job: u64, line: &str) -> JournalRecord {
        JournalRecord::JobSubmitted {
            job,
            line: line.into(),
        }
    }

    fn completed(job: u64) -> JournalRecord {
        JournalRecord::JobCompleted {
            job,
            pairs: job,
            checksum: 0,
            ok: true,
        }
    }

    /// A log numbering from 1 over a fresh journal of `capacity` bytes,
    /// and the environment to reopen that journal in.
    fn journaled(capacity: u64) -> (SimEnv, Log) {
        let env = SimEnv::new(SimConfig::waterloo96(1)).unwrap();
        let journal = Journal::create(env.clone(), "wal", capacity, P).unwrap();
        (env, JobLog::new(Some(journal), 1))
    }

    /// Accept one-byte-line jobs until the journal refuses one; returns
    /// the ids accepted.
    fn fill(log: &Log) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Ok(id) = log.accept(|id| submitted(id, "x"), Err, |_| {}) {
            ids.push(id);
        }
        ids
    }

    fn accept(log: &Log) -> u64 {
        log.accept(|id| submitted(id, "x"), Err, |_| {}).unwrap()
    }

    #[test]
    fn concurrent_accepts_take_dense_ids_in_journal_and_queue_order() {
        let (env, log) = journaled(1 << 16);
        let queue = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let (log, queue) = (&log, &queue);
                s.spawn(move || {
                    for k in 0..25 {
                        log.accept(
                            |id| submitted(id, &format!("t{t} k{k}")),
                            Err,
                            |id| queue.lock().unwrap().push(id),
                        )
                        .unwrap();
                    }
                });
            }
        });
        let queue = queue.into_inner().unwrap();
        assert_eq!(queue, (1..=100).collect::<Vec<_>>());
        drop(log);
        let (_, replayed) = Journal::open(env, "wal", P).unwrap();
        let journaled: Vec<u64> = replayed
            .records
            .iter()
            .map(|r| match r {
                JournalRecord::JobSubmitted { job, .. } => *job,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(journaled, queue, "journal order is id order");
    }

    #[test]
    fn a_refused_submission_takes_no_id_and_enqueues_nothing() {
        let (_, log) = journaled(HEADER_SIZE * 2);
        let ids = fill(&log);
        assert_eq!(ids, (1..=ids.len() as u64).collect::<Vec<_>>());
        let mut enqueued = false;
        let err = log
            .accept(|id| submitted(id, "x"), Err, |_| enqueued = true)
            .unwrap_err();
        assert!(err.to_string().contains("journal full"), "{err}");
        assert!(!enqueued);
        // A refusal the caller goes on from takes the id the failed
        // submissions did not.
        let next = log
            .accept(|id| submitted(id, "x"), |_| Ok(()), |_| enqueued = true)
            .unwrap();
        assert_eq!(next, ids.len() as u64 + 1);
        assert!(enqueued);
    }

    #[test]
    fn a_refused_completion_is_published_failed() {
        let (_, log) = journaled(HEADER_SIZE * 2);
        let ids = fill(&log);
        assert!(
            completed(1).encode().len() > submitted(1, "x").encode().len(),
            "a completion cannot fit where a submission did not"
        );
        let id = ids[0];
        let mut refusal = String::new();
        let published = log.publish(id, Some(completed(id)), |committed| {
            refusal = committed.as_ref().unwrap_err().to_string();
            (id, committed.is_ok())
        });
        assert!(published);
        assert!(refusal.contains("journal full"), "{refusal}");
        assert_eq!(log.results(), [(id, false)]);
    }

    #[test]
    fn a_second_publish_commits_nothing_and_returns_false() {
        let (_, log) = journaled(1 << 16);
        let id = accept(&log);
        assert!(log.publish(id, Some(completed(id)), |c| (id, c.is_ok())));
        let commits = log.journal_stats().unwrap().commits;
        let mut built = false;
        let again = log.publish(id, Some(completed(id)), |_| {
            built = true;
            (id, false)
        });
        assert!(!again && !built);
        assert_eq!(log.journal_stats().unwrap().commits, commits);
        assert_eq!(log.results(), [(id, true)]);
        assert!(log.is_published(id));
    }

    #[test]
    fn drain_returns_only_once_every_accepted_id_is_published() {
        let log: &Log = &JobLog::new(None, 1);
        let ids: Vec<u64> = (0..3).map(|_| accept(log)).collect();
        let drained = &Mutex::new(false);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                tx.send(()).unwrap();
                log.drain();
                *drained.lock().unwrap() = true;
            });
            rx.recv().unwrap();
            for &id in &ids {
                assert!(!*drained.lock().unwrap(), "drained before job {id}");
                log.publish(id, None, |_| (id, true));
            }
        });
        assert!(*drained.lock().unwrap());
    }

    #[test]
    fn wait_results_returns_each_result_exactly_once() {
        let log: Log = JobLog::new(None, 1);
        let ids: Vec<u64> = (0..50).map(|_| accept(&log)).collect();
        let far = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|s| {
            // Two publishers race over every id: one result each.
            for _ in 0..2 {
                s.spawn(|| {
                    for &id in &ids {
                        log.publish(id, None, |_| (id, true));
                    }
                });
            }
            let mut seen: Vec<(u64, bool)> = Vec::new();
            while seen.len() < ids.len() {
                seen.extend(log.wait_results(seen.len(), far));
            }
            let mut got: Vec<u64> = seen.iter().map(|r| r.0).collect();
            got.sort_unstable();
            assert_eq!(got, ids);
        });
        let t = Instant::now();
        assert!(log
            .wait_results(ids.len(), t + Duration::from_millis(5))
            .is_empty());
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_wake_ends_a_blocked_wait_and_every_later_one() {
        let log: Log = JobLog::new(None, 1);
        let t = Instant::now();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| log.wait_results(0, Instant::now() + Duration::from_secs(60)));
            std::thread::sleep(Duration::from_millis(20));
            log.wake();
            assert!(waiter.join().unwrap().is_empty());
        });
        assert!(t.elapsed() < Duration::from_secs(30), "{:?}", t.elapsed());
        let far = Instant::now() + Duration::from_secs(60);
        assert!(log.wait_results(0, far).is_empty(), "the wake is sticky");
        // Fresh results still come back first.
        let id = accept(&log);
        log.publish(id, None, |_| (id, true));
        assert_eq!(log.wait_results(0, far), [(id, true)]);
        assert!(log.wait_results(1, far).is_empty());
    }

    #[test]
    fn resume_numbers_above_an_unparseable_top_id() {
        // Job 1 completed, job 2 pending, job 3's line no longer parses.
        let state = ReplayState::from_records(&[
            submitted(1, "7"),
            submitted(2, "8"),
            submitted(3, "bogus"),
            completed(1),
        ]);
        let jobs = state
            .jobs
            .iter()
            .filter_map(|(&id, js)| Some((id, (js.line.parse::<u64>().ok()?, js.completed))));
        let log: Log = JobLog::new(None, 1);
        let mut queued = Vec::new();
        log.resume(state.max_job_id(), jobs, |id, (_, done)| {
            if done.is_none() {
                queued.push(id);
            }
            Ok::<_, ()>(done.map(|(_, _, ok)| (id, ok)))
        })
        .unwrap();
        assert_eq!(queued, [2]);
        assert_eq!(log.results(), [(1, true)]);
        assert_eq!(accept(&log), 4, "the dropped job's id is never reused");
        log.publish(2, None, |_| (2, true));
        log.publish(4, None, |_| (4, true));
        log.drain();
    }
}

//! The scheduler: the global budget partitioned across N shards, each
//! owning its own admission queue, worker pool, and counters.
//!
//! The paper removes disk contention *inside* one join by partitioning
//! — D disks, D process pairs, one staggered schedule. This module
//! applies the same move to the service: [`ShardedService`] is the only
//! scheduler in the crate, and the single-queue
//! [`Service`](crate::Service) is its N = 1 form (one slice holding the
//! whole budget, placement with one choice), not a second
//! implementation. With N > 1 it is shared-nothing:
//!
//! * the global budget is partitioned into per-shard slices (quotient
//!   split; remainders spread over the first shards), so the *sum of
//!   per-shard reservations can never exceed the global budget* — each
//!   shard enforces its own slice locally, without a global lock;
//! * a [`Placement`] policy picks the owning shard at submission time
//!   (the stock one balances planner-predicted backlog); a job no slice
//!   can ever hold is refused at submit — and failed visibly at resume
//!   — rather than queued forever;
//! * each shard runs `cfg.workers` worker threads against its own queue
//!   under the configured [`AdmissionPolicy`](crate::AdmissionPolicy),
//!   and a job runs on the shard it was placed on.
//!
//! Ids, the journal and the results live in one
//! [`JobLog`], the lifecycle every tier shares.
//! Lock order: the log's lock may be held while taking one shard's lock
//! (submit enqueues, and a completion settles its shard, under it),
//! never the reverse.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use mmjoin::{choose, PlanChoice, SAMPLE_CAP};
use mmjoin_env::TraceEvent;
use mmjoin_mmstore::MmapEnv;
use mmjoin_recovery::{JobLog, JournalRecord, ReplayState, Replayed};

use crate::admission::Candidate;
use crate::job::{JobId, JobRequest, JobResult};
use crate::placement::{Placement, ShardLoad};
use crate::plan::{resolve_auto, ResolvedPlan};
use crate::recovery::{
    gc_job_stores, open_journal, refused_completion, replayed_error, resume_jobs, JOURNAL_FILE,
};
use crate::service::{run_job, EnvKind, JoinService, Queued, ServeConfig};
use crate::stats::ServiceStats;

/// One budget slice with its queue and counters.
struct Shard {
    /// This shard's slice of the global budget, in bytes.
    budget_bytes: u64,
    state: Mutex<ShardState>,
    /// Signalled when this shard's workers may be able to make progress
    /// (new work, freed budget, shutdown).
    work: Condvar,
}

#[derive(Default)]
struct ShardState {
    pending: VecDeque<Queued>,
    /// Bytes reserved by running jobs.
    used_bytes: u64,
    /// Footprint bytes of queued (not yet admitted) jobs.
    queued_bytes: u64,
    /// Planner-predicted seconds of queued plus running jobs.
    backlog_seconds: f64,
    running: usize,
    stats: ServiceStats,
    shutdown: bool,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn load(&self, id: u32) -> ShardLoad {
        let st = self.lock();
        ShardLoad {
            shard: id,
            budget_bytes: self.budget_bytes,
            reserved_bytes: st.used_bytes + st.queued_bytes,
            queued: st.pending.len(),
            backlog_seconds: st.backlog_seconds,
        }
    }

    /// Per-shard stats snapshot with budget fields filled in.
    fn stats_snapshot(&self) -> ServiceStats {
        let st = self.lock();
        let mut stats = st.stats.clone();
        stats.budget_bytes = self.budget_bytes;
        stats.budget_leak_bytes = if st.running == 0 { st.used_bytes } else { 0 };
        stats
    }
}

/// Everything the shards share. The execution core
/// ([`run_job`]) reads the configuration from here and
/// reports lifecycle events and mid-run releases back through it.
pub(crate) struct ShardedInner {
    pub(crate) cfg: ServeConfig,
    placement: Box<dyn Placement>,
    shards: Vec<Shard>,
    /// Ids, the journal shared by every shard, and the results.
    log: JobLog<JobResult, MmapEnv>,
    /// Service-wide counters: submit-time rejections and the startup
    /// replay (`--resume`), merged into [`ShardedService`]'s stats.
    counters: Mutex<ServiceStats>,
    /// Service start; lifecycle trace timestamps are seconds since it.
    origin: Instant,
}

impl ShardedInner {
    fn counters(&self) -> MutexGuard<'_, ServiceStats> {
        self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emit a job lifecycle event at the service wall clock.
    pub(crate) fn trace(&self, event: TraceEvent) {
        if self.cfg.trace.enabled() {
            self.cfg
                .trace
                .emit(self.origin.elapsed().as_secs_f64(), event);
        }
    }

    /// Return `bytes` of a running job's reservation to `shard`'s slice
    /// mid-run (graceful degradation); that shard may then admit.
    pub(crate) fn release(&self, shard: usize, bytes: u64) {
        let s = &self.shards[shard];
        s.lock().used_bytes -= bytes;
        s.work.notify_all();
    }

    fn loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.load(i as u32))
            .collect()
    }

    /// Plan `req` — resolving `plan=auto` in place, so footprint,
    /// placement, and admission all see the *chosen* grants — and ask
    /// the placement policy for its shard (`None`: no slice can ever
    /// hold it). A journaled `plan=auto` line re-resolves to the
    /// identical plan at resume: the sampler is seeded from the
    /// workload seed.
    fn plan_and_place(
        &self,
        req: &mut JobRequest,
    ) -> Result<(Option<ResolvedPlan>, PlanChoice, Option<usize>), String> {
        let resolved = resolve_auto(&self.cfg, req, SAMPLE_CAP)?;
        let plan = match &resolved {
            Some(r) => r.auto.choice.clone(),
            None => choose(self.cfg.machine()?, &req.planner_inputs()),
        };
        let cand = Candidate {
            footprint: req.footprint(),
            predicted_seconds: plan.predicted_seconds(),
        };
        let shard = self.placement.place(&cand, &self.loads());
        Ok((resolved, plan, shard))
    }

    /// Queue a placed job on shard `k` under `id`.
    fn enqueue(&self, k: usize, id: JobId, req: JobRequest, plan: PlanChoice) {
        let mut st = self.shards[k].lock();
        st.queued_bytes += req.footprint();
        st.backlog_seconds += plan.predicted_seconds();
        st.stats.submitted += 1;
        st.pending.push_back(Queued {
            id,
            req,
            plan,
            enqueued: Instant::now(),
        });
    }

    /// Narrate a queued job: its auto-plan provenance, if any, then the
    /// submission itself.
    fn trace_submitted(
        &self,
        id: JobId,
        footprint: u64,
        k: usize,
        resolved: Option<&ResolvedPlan>,
    ) {
        if let Some(r) = resolved {
            for ev in r.trace_events(id) {
                self.trace(ev);
            }
        }
        self.trace(TraceEvent::JobSubmitted {
            job: id,
            footprint,
            shard: k as u32,
        });
    }
}

/// A running sharded join service. Dropping it shuts the workers down;
/// use [`ShardedService::finish`] to also collect results and stats.
pub struct ShardedService {
    inner: std::sync::Arc<ShardedInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardedService {
    /// Start `shards` shards, each with a `cfg.budget_bytes / shards`
    /// slice of the global budget (remainder bytes spread over the
    /// first shards) and `cfg.workers` worker threads of its own.
    pub fn start(
        cfg: ServeConfig,
        shards: u32,
        placement: Box<dyn Placement>,
    ) -> Result<ShardedService, String> {
        let n = shards.max(1) as usize;
        let workers_per_shard = cfg.workers.max(1);
        let base = cfg.budget_bytes / n as u64;
        let rem = cfg.budget_bytes % n as u64;
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                budget_bytes: base + u64::from((i as u64) < rem),
                state: Mutex::new(ShardState::default()),
                work: Condvar::new(),
            })
            .collect();
        let (journal, replayed) = match &cfg.journal_dir {
            Some(dir) => {
                let (j, replayed) = open_journal(dir, JOURNAL_FILE, cfg.resume, cfg.trace.clone())?;
                // Resuming without a journal to replay is a first start
                // that still garbage-collects the store.
                (Some(j), cfg.resume.then(|| replayed.unwrap_or_default()))
            }
            None => (None, None),
        };
        let inner = std::sync::Arc::new(ShardedInner {
            cfg,
            placement,
            shards,
            log: JobLog::new(journal, 1),
            counters: Mutex::new(ServiceStats::default()),
            origin: Instant::now(),
        });
        if let Some(replayed) = replayed {
            apply_resume(&inner, replayed)?;
        }
        let mut handles = Vec::with_capacity(n * workers_per_shard);
        for shard in 0..n {
            for w in 0..workers_per_shard {
                let worker_inner = std::sync::Arc::clone(&inner);
                match std::thread::Builder::new()
                    .name(format!("mmjoin-shard-{shard}-{w}"))
                    .spawn(move || shard_worker(&worker_inner, shard))
                {
                    Ok(h) => handles.push(h),
                    Err(e) => {
                        let mut svc = ShardedService {
                            inner,
                            workers: handles,
                        };
                        svc.stop();
                        return Err(format!("cannot spawn shard {shard} worker {w}: {e}"));
                    }
                }
            }
        }
        Ok(ShardedService {
            inner,
            workers: handles,
        })
    }

    /// The configured global budget (the sum of every shard's slice).
    pub fn budget_bytes(&self) -> u64 {
        self.inner.cfg.budget_bytes
    }

    /// Per-shard budget slices, in shard order.
    pub fn shard_budgets(&self) -> Vec<u64> {
        self.inner.shards.iter().map(|s| s.budget_bytes).collect()
    }

    /// Results past the first `from`, in completion order, once there
    /// are any; empty once `deadline` passes ([`JobLog::wait_results`]).
    pub fn wait_results(&self, from: usize, deadline: Instant) -> Vec<JobResult> {
        self.inner.log.wait_results(from, deadline)
    }

    /// Make every `wait_results`, blocked now or called later, return
    /// at once ([`JobLog::wake`]).
    pub fn wake_waiters(&self) {
        self.inner.log.wake()
    }

    /// Drain, stop the workers, and return every result plus the merged
    /// counters.
    pub fn finish(mut self) -> (Vec<JobResult>, ServiceStats) {
        JoinService::drain(&self);
        self.stop();
        let results = self.inner.log.take_results();
        let stats = JoinService::stats(&self);
        (results, stats)
    }

    fn stop(&mut self) {
        for s in &self.inner.shards {
            s.lock().shutdown = true;
            s.work.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        self.stop();
    }
}

impl JoinService for ShardedService {
    /// Plan and place one job. Returns its id, or an error if no
    /// shard's budget slice could *ever* hold its footprint: it would
    /// sit in a queue forever (and under FIFO starve everything behind
    /// it), so it is refused here instead. With N > 1 the threshold is
    /// the largest slice, not the whole budget.
    fn submit(&self, mut req: JobRequest) -> Result<JobId, String> {
        let inner = &*self.inner;
        // Capture the submitted form before auto-planning mutates the
        // grants: the journal must store the original `plan=auto` line
        // so a resumed service re-resolves it instead of re-trimming a
        // trimmed grant.
        let original_line = req.to_line();
        let (resolved, plan, shard) = inner.plan_and_place(&mut req)?;
        let footprint = req.footprint();
        let Some(k) = shard else {
            inner.counters().rejected += 1;
            let slices = inner.shards.iter().map(|s| s.budget_bytes);
            let max = slices.max().unwrap_or(0);
            return Err(if inner.shards.len() == 1 {
                format!("job footprint {footprint} B exceeds the global budget {max} B")
            } else {
                format!(
                    "job footprint {footprint} B exceeds every shard's budget slice (largest {max} B)"
                )
            });
        };
        let id = inner
            .log
            .accept(
                |id| JournalRecord::JobSubmitted {
                    job: id,
                    line: original_line,
                },
                Err,
                |id| inner.enqueue(k, id, req, plan),
            )
            .map_err(|e| format!("journal commit failed: {e}"))?;
        inner.trace_submitted(id, footprint, k, resolved.as_ref());
        inner.shards[k].work.notify_all();
        Ok(id)
    }

    fn drain(&self) {
        self.inner.log.drain()
    }

    fn results(&self) -> Vec<JobResult> {
        self.inner.log.results()
    }

    /// Merged counters: per-shard snapshots folded with
    /// [`ServiceStats::merge`], plus the service-wide counters.
    fn stats(&self) -> ServiceStats {
        let mut merged = ServiceStats::default();
        for s in &self.inner.shards {
            merged.merge(&s.stats_snapshot());
        }
        merged.merge(&self.inner.counters());
        if let Some(js) = self.inner.log.journal_stats() {
            merged.journal_appended_records = js.appended_records;
            merged.journal_commits = js.commits;
            merged.journal_syncs = js.syncs;
        }
        merged
    }

    fn shard_stats(&self) -> Vec<ServiceStats> {
        self.inner
            .shards
            .iter()
            .map(Shard::stats_snapshot)
            .collect()
    }

    fn shards(&self) -> u32 {
        self.inner.shards.len() as u32
    }
}

/// Install a replayed journal into a freshly-built service (before its
/// workers start): garbage-collect leftover per-job stores, re-report
/// completed jobs through shard 0's counters, and re-place in-flight
/// jobs under their original ids with the configured placement policy
/// ([`JobLog::resume`]).
fn apply_resume(inner: &ShardedInner, replayed: Replayed) -> Result<(), String> {
    let orphans_deleted = match &inner.cfg.env {
        EnvKind::Mmap { root } => gc_job_stores(root)?,
        EnvKind::Sim => 0,
    };
    let (jobs, top) = resume_jobs(&ReplayState::from_records(&replayed.records));
    let resumed_jobs = jobs.iter().filter(|(_, _, done)| done.is_none()).count() as u64;
    let records = replayed.records.len() as u64;
    inner.trace(TraceEvent::RecoveryReplayed {
        records,
        torn: replayed.torn_bytes,
        orphans_deleted,
        resumed_jobs,
    });
    {
        let mut c = inner.counters();
        c.journal_replayed_records = records;
        c.journal_torn_bytes = replayed.torn_bytes;
        c.journal_orphans_deleted = orphans_deleted;
        c.journal_resumed_jobs = resumed_jobs;
    }
    let report = |r: JobResult| {
        let mut st = inner.shards[0].lock();
        st.stats.submitted += 1;
        st.stats.record(&r, None, None);
        r
    };
    let jobs = jobs.into_iter().map(|(id, req, done)| (id, (req, done)));
    inner
        .log
        .resume(Some(top), jobs, |id, (mut req, completed)| {
            if let Some((pairs, checksum, ok)) = completed {
                let plan = choose(inner.cfg.machine()?, &req.planner_inputs());
                return Ok(Some(report(JobResult {
                    pairs,
                    checksum,
                    verified: ok,
                    resumed: true,
                    error: replayed_error(ok),
                    ..JobResult::new(id, &req, &plan)
                })));
            }
            let (resolved, plan, shard) = inner.plan_and_place(&mut req)?;
            let footprint = req.footprint();
            let Some(k) = shard else {
                // The journal came from a differently-shaped service and no
                // slice can ever hold this job: fail it visibly rather than
                // queue it forever (which would hang every drain).
                return Ok(Some(report(JobResult {
                    resumed: true,
                    error: Some(format!(
                        "resumed job footprint {footprint} B exceeds every shard's budget slice"
                    )),
                    ..JobResult::new(id, &req, &plan)
                })));
            };
            inner.enqueue(k, id, req, plan);
            inner.trace_submitted(id, footprint, k, resolved.as_ref());
            Ok(None)
        })
}

fn shard_worker(inner: &ShardedInner, me: usize) {
    let shard = &inner.shards[me];
    loop {
        let mut st = shard.lock();
        let job = loop {
            if st.shutdown {
                return;
            }
            let free = shard.budget_bytes - st.used_bytes;
            let candidates: Vec<Candidate> = st
                .pending
                .iter()
                .map(|q| Candidate {
                    footprint: q.req.footprint(),
                    predicted_seconds: q.plan.predicted_seconds(),
                })
                .collect();
            if let Some(q) = inner
                .cfg
                .policy
                .pick(&candidates, free)
                .and_then(|idx| st.pending.remove(idx))
            {
                st.queued_bytes -= q.req.footprint();
                break q;
            }
            st = shard.work.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        let footprint = job.req.footprint();
        let predicted = job.plan.predicted_seconds();
        st.used_bytes += footprint;
        st.running += 1;
        st.stats.peak_budget_bytes = st.stats.peak_budget_bytes.max(st.used_bytes);
        let used = st.used_bytes;
        drop(st);
        inner.trace(TraceEvent::JobAdmitted {
            job: job.id,
            footprint,
            used,
            shard: me as u32,
        });

        let (result, folded, passes) = run_job(inner, job, me);
        let completed = JournalRecord::JobCompleted {
            job: result.id,
            pairs: result.pairs,
            checksum: result.checksum,
            ok: result.error.is_none() && result.verified,
        };
        inner.log.publish(result.id, Some(completed), |committed| {
            let mut result = result;
            if let Err(e) = committed {
                result.error = Some(refused_completion(result.error.take(), &e));
            }
            let mut st = shard.lock();
            debug_assert!(result.released_bytes <= footprint);
            // Terminal release: degradations already returned part of
            // the reservation mid-run; exactly the remainder is held.
            st.used_bytes -= footprint - result.released_bytes;
            st.running -= 1;
            st.backlog_seconds = (st.backlog_seconds - predicted).max(0.0);
            st.stats.record(&result, folded.as_ref(), passes.as_ref());
            drop(st);
            inner.trace(TraceEvent::JobCompleted {
                job: result.id,
                ok: result.error.is_none() && result.verified,
                degraded: result.degraded,
            });
            result
        });
        // Freed budget may admit or un-starve a job queued here.
        shard.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PAGE;
    use crate::placement::PlacementKind;

    fn tiny_job(seed: u64, mem_pages: u64) -> JobRequest {
        JobRequest::new(800, 32, 2, mem_pages, seed)
    }

    fn start(budget_pages: u64, shards: u32, placement: Box<dyn Placement>) -> ShardedService {
        ShardedService::start(ServeConfig::sim(budget_pages * PAGE, 1), shards, placement).unwrap()
    }

    #[test]
    fn budget_splits_exactly_across_shards() {
        let svc = start(10, 4, PlacementKind::default().build());
        let budgets = svc.shard_budgets();
        assert_eq!(budgets.len(), 4);
        assert_eq!(budgets.iter().sum::<u64>(), 10 * PAGE);
        // Slices differ by at most one byte.
        let (min, max) = (budgets.iter().min(), budgets.iter().max());
        assert!(max.unwrap() - min.unwrap() <= 1);
    }

    #[test]
    fn oversized_for_every_slice_is_rejected() {
        // Global budget 32 pages over 4 shards ⇒ 8-page slices; a
        // 16-page footprint fits the old global budget but no slice.
        let svc = start(32, 4, PlacementKind::default().build());
        let err = svc.submit(tiny_job(1, 8)).unwrap_err();
        assert!(err.contains("every shard's budget slice"), "{err}");
        let (results, stats) = svc.finish();
        assert!(results.is_empty());
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn batch_completes_under_every_placement() {
        // The stock policy, and one that pins everything to shard 0.
        let placements: [Box<dyn Placement>; 2] =
            [PlacementKind::default().build(), Box::new(PinFirst)];
        for (i, placement) in placements.into_iter().enumerate() {
            let svc = start(64, 4, placement);
            for seed in 0..8 {
                svc.submit(tiny_job(seed, 4)).unwrap();
            }
            let (results, stats) = svc.finish();
            assert_eq!(results.len(), 8, "placement {i}");
            assert!(results.iter().all(|r| r.verified && r.error.is_none()));
            if i == 1 {
                // A job runs on the shard it was placed on.
                assert!(
                    results.iter().all(|r| r.shard == 0),
                    "{:?}",
                    results.iter().map(|r| r.shard).collect::<Vec<_>>()
                );
            }
            assert_eq!(stats.completed, 8);
            assert_eq!(stats.in_flight(), 0);
            assert_eq!(stats.budget_leak_bytes, 0);
            // Budget invariant: every shard's peak stayed within its
            // slice, so the summed reservation never exceeded the
            // global budget.
            assert!(stats.peak_budget_bytes <= stats.budget_bytes);
            assert_eq!(stats.budget_bytes, 64 * PAGE);
        }
    }

    #[test]
    fn wait_results_returns_the_suffix_blocks_for_a_completion_and_times_out() {
        use std::time::Duration;
        let far = || Instant::now() + Duration::from_secs(30);
        // The stall keeps the job running while the waiter goes to sleep.
        let cfg = ServeConfig::sim(32 * PAGE, 1)
            .with_faults(mmjoin_env::FaultSpec::parse("delay:count=1:ms=50").unwrap());
        let svc = ShardedService::start(cfg, 1, PlacementKind::default().build()).unwrap();

        // Nothing submitted: empty at the deadline, and not before it.
        let t = Instant::now();
        let none = svc.wait_results(0, t + Duration::from_millis(30));
        assert!(none.is_empty());
        assert!(t.elapsed() >= Duration::from_millis(30));

        // Blocks until the job completes, far short of the deadline.
        let first = svc.submit(tiny_job(1, 4)).unwrap();
        let t = Instant::now();
        let got = svc.wait_results(0, far());
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), [first]);
        assert!(t.elapsed() >= Duration::from_millis(40), "returned early");
        assert!(t.elapsed() < Duration::from_secs(10));

        // Suffix semantics: `from` skips what the caller already holds.
        let second = svc.submit(tiny_job(2, 4)).unwrap();
        let got = svc.wait_results(1, far());
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), [second]);
        assert_eq!(svc.wait_results(0, far()).len(), 2);
        // Past the end (even far past) waits out the deadline.
        assert!(svc.wait_results(2, Instant::now()).is_empty());
        assert!(svc
            .wait_results(9, Instant::now() + Duration::from_millis(5))
            .is_empty());
    }

    /// A placement that pins everything to shard 0.
    struct PinFirst;

    impl Placement for PinFirst {
        fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize> {
            loads
                .first()
                .filter(|l| l.budget_bytes >= job.footprint)
                .map(|_| 0)
        }
    }

    #[test]
    fn sharded_jobs_with_faults_retry_and_all_verify() {
        // Jobs run tagged (`#j<id>`), so a failing attempt's cleanup is
        // scoped to its own temporaries; with retries every job heals.
        let cfg = ServeConfig::sim(64 * PAGE, 2)
            .with_faults(mmjoin_env::FaultSpec::parse("seed=5;write:p=0.001:count=2").unwrap())
            .with_retries(6);
        let svc = ShardedService::start(cfg, 2, PlacementKind::default().build()).unwrap();
        for seed in 0..6 {
            JoinService::submit(&svc, tiny_job(seed, 4)).unwrap();
        }
        let (results, stats) = svc.finish();
        assert_eq!(results.len(), 6);
        assert!(
            results.iter().all(|r| r.verified && r.error.is_none()),
            "{:?}",
            results
                .iter()
                .filter(|r| !r.verified)
                .map(|r| (&r.name, &r.error))
                .collect::<Vec<_>>()
        );
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn sharded_resume_replays_and_requeues_across_shards() {
        let dir = std::env::temp_dir().join(format!("mmjoin-resume-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServeConfig::sim(64 * PAGE, 1).with_journal(dir.clone());
        // First life: two completions on a 2-shard service.
        let svc = ShardedService::start(cfg(), 2, PlacementKind::default().build()).unwrap();
        svc.submit(tiny_job(1, 4)).unwrap();
        svc.submit(tiny_job(2, 4)).unwrap();
        let (mut first, _) = svc.finish();
        first.sort_by_key(|r| r.id);
        // An in-flight job at "crash" time.
        {
            let (mut j, _) =
                open_journal(&dir, JOURNAL_FILE, true, mmjoin_env::null_sink()).unwrap();
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 3,
                line: tiny_job(7, 4).to_line(),
            })
            .unwrap();
        }
        // Second life: resume on the sharded service.
        let svc = ShardedService::start(cfg().with_resume(), 2, PlacementKind::default().build())
            .unwrap();
        assert_eq!(JoinService::submit(&svc, tiny_job(9, 4)).unwrap(), 4);
        let (mut results, stats) = svc.finish();
        results.sort_by_key(|r| r.id);
        assert_eq!(results.len(), 4);
        for (r, f) in results[..2].iter().zip(&first) {
            assert!(r.resumed);
            assert_eq!((r.id, r.pairs, r.checksum), (f.id, f.pairs, f.checksum));
        }
        assert!(!results[2].resumed);
        assert!(results[2].verified, "{:?}", results[2].error);
        assert_eq!(stats.journal_resumed_jobs, 1);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.in_flight(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

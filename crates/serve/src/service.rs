//! Service configuration, the [`JoinService`] surface, the single-queue
//! [`Service`], and the execution core every worker runs an admitted
//! job through.
//!
//! Scheduling — queues, budget admission, the worker loop, journaling
//! order, resume — lives in [`crate::shard`]; [`Service`] is that
//! scheduler with one shard, whose slice is the whole budget. Admission
//! reserves `m_rproc × D` bytes for the duration of a run, so the
//! reservation never exceeds the budget, by construction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mmjoin::{
    choose, join_with_retry_report, verify, Algo, JoinOutput, JoinSpec, PlanChoice, RetryPolicy,
    RetryReport,
};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::{
    null_sink, Env, EnvError, FaultSpec, FaultyEnv, Histogram, ProcStats, TraceEvent, TraceSink,
};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, WorkloadSpec};
use mmjoin_vmsim::{calibrated_params, DiskParams, SimConfig, SimEnv};

use crate::admission::AdmissionPolicy;
use crate::job::{JobId, JobRequest, JobResult, PAGE};
use crate::placement::PlacementKind;
use crate::shard::{ShardedInner, ShardedService};
use crate::stats::ServiceStats;

/// Which environment jobs execute on.
#[derive(Clone, Debug)]
pub enum EnvKind {
    /// The execution-driven simulator with the calibrated machine:
    /// deterministic, no disk needed.
    Sim,
    /// The real memory-mapped store; each job runs in its own
    /// subdirectory of `root`, removed after the job finishes.
    Mmap {
        /// Parent directory for per-job stores.
        root: PathBuf,
    },
}

/// Service configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Global memory budget in bytes that concurrently-running jobs'
    /// `m_rproc × D` footprints must fit into.
    pub budget_bytes: u64,
    /// Worker threads (concurrent jobs ≤ workers).
    pub workers: usize,
    /// Admission ordering.
    pub policy: AdmissionPolicy,
    /// Execution environment.
    pub env: EnvKind,
    /// Fault injection applied to every job's environment (each job
    /// gets its own injector with this spec, so rule counters are
    /// per-job). Empty = passthrough.
    pub fault_spec: FaultSpec,
    /// Per-job retry budget: join attempts per plan, first try
    /// included. Transient failures within this budget are retried with
    /// bounded exponential backoff.
    pub retries: u32,
    /// Structured trace sink. Job lifecycle events (submission,
    /// admission, degradation, completion) are emitted here with
    /// service wall-clock timestamps; the sink is also installed on
    /// every job's environment, so pass/map/fault events land in the
    /// same stream (with env-local timestamps).
    pub trace: Arc<dyn TraceSink>,
    /// The machine every job is planned and (in [`EnvKind::Sim`])
    /// executed against. `None` falls back to the process-wide
    /// [`service_machine`] calibrated from the simulated waterloo96
    /// disk; services built from a measured host profile install it
    /// here via [`ServeConfig::with_machine`].
    pub machine: Option<Arc<MachineParams>>,
    /// Directory holding the service's write-ahead journal. `None`
    /// disables journaling (and with it restart recovery).
    pub journal_dir: Option<PathBuf>,
    /// Replay an existing journal at startup instead of truncating it:
    /// completed jobs are re-reported from their journaled results,
    /// in-flight jobs re-run under their original ids, and leftover
    /// per-job stores are garbage-collected. No-op without
    /// `journal_dir`.
    pub resume: bool,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("budget_bytes", &self.budget_bytes)
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("env", &self.env)
            .field("fault_spec", &self.fault_spec)
            .field("retries", &self.retries)
            .field("trace_enabled", &self.trace.enabled())
            .field("machine_override", &self.machine.is_some())
            .field("journal_dir", &self.journal_dir)
            .field("resume", &self.resume)
            .finish()
    }
}

/// How many times a job may halve its footprint on `DiskFull` before
/// giving up.
const MAX_DEGRADE: u32 = 3;

impl ServeConfig {
    /// A simulator-backed service with the given budget and workers.
    pub fn sim(budget_bytes: u64, workers: usize) -> Self {
        ServeConfig {
            budget_bytes,
            workers,
            policy: AdmissionPolicy::Fifo,
            env: EnvKind::Sim,
            fault_spec: FaultSpec::none(),
            retries: 3,
            trace: null_sink(),
            machine: None,
            journal_dir: None,
            resume: false,
        }
    }

    /// Same config with a different admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same config with fault injection.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = spec;
        self
    }

    /// Same config with a per-job retry budget.
    pub fn with_retries(mut self, attempts: u32) -> Self {
        self.retries = attempts.max(1);
        self
    }

    /// Same config with a structured trace sink.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// Same config planned and simulated against `machine` (a loaded
    /// host profile) instead of the process-wide calibrated default.
    pub fn with_machine(mut self, machine: Arc<MachineParams>) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Same config with a write-ahead journal under `dir`.
    pub fn with_journal(mut self, dir: PathBuf) -> Self {
        self.journal_dir = Some(dir);
        self
    }

    /// Same config replaying the journal at startup (see
    /// [`ServeConfig::resume`]).
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// The machine in effect: the installed override, else the
    /// process-wide calibrated default.
    pub fn machine(&self) -> Result<&MachineParams, String> {
        match &self.machine {
            Some(m) => Ok(m),
            None => service_machine(),
        }
    }
}

/// The one default machine: the waterloo96 preset with its `dtt` curves
/// re-measured from the simulated drive. Served jobs, the experiment
/// bins and every CLI command without `--machine-profile` read it. It is
/// calibrated once per process; the outcome (success or failure) is
/// replayed and never panics.
pub fn service_machine() -> Result<&'static MachineParams, String> {
    static MACHINE: OnceLock<Result<MachineParams, String>> = OnceLock::new();
    MACHINE
        .get_or_init(|| {
            calibrated_params(&DiskParams::waterloo96())
                .map_err(|e| format!("machine calibration failed: {e}"))
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// A planned job waiting for admission in a shard's queue.
pub(crate) struct Queued {
    pub(crate) id: JobId,
    pub(crate) req: JobRequest,
    pub(crate) plan: PlanChoice,
    pub(crate) enqueued: Instant,
}

/// The common surface of [`Service`] and [`ShardedService`]: submit
/// jobs, wait for them, read results and counters. Dropping an
/// implementation shuts its workers down, so a `drain` + `results` +
/// `stats` sequence through this trait observes the same final state
/// `finish` would return.
pub trait JoinService: Send + Sync {
    /// Plan and enqueue one job; returns its id or a submit-time
    /// rejection. Each shard's queue is in id order
    /// ([`JobLog::accept`](mmjoin_recovery::JobLog::accept)).
    fn submit(&self, req: JobRequest) -> Result<JobId, String>;

    /// Block until every submitted job has completed.
    fn drain(&self);

    /// Results completed so far, in completion order.
    fn results(&self) -> Vec<JobResult>;

    /// Merged snapshot of the service counters.
    fn stats(&self) -> ServiceStats;

    /// Per-shard snapshots (a single-element vector on the single-queue
    /// service).
    fn shard_stats(&self) -> Vec<ServiceStats>;

    /// Number of shards (1 for the single-queue service).
    fn shards(&self) -> u32;

    /// Parse and submit every job line of `text` (see
    /// [`JobRequest::parse_line`]). Returns the accepted ids; a line
    /// that fails to parse or is rejected aborts with an error naming
    /// its line number.
    fn submit_script(&self, text: &str) -> Result<Vec<JobId>, String> {
        let mut ids = Vec::new();
        for (no, line) in text.lines().enumerate() {
            match JobRequest::parse_line(line) {
                Ok(None) => {}
                Ok(Some(req)) => match self.submit(req) {
                    Ok(id) => ids.push(id),
                    Err(e) => return Err(format!("line {}: {e}", no + 1)),
                },
                Err(e) => return Err(format!("line {}: {e}", no + 1)),
            }
        }
        Ok(ids)
    }
}

/// The single-queue join service: one queue, one budget, `cfg.workers`
/// workers — a [`ShardedService`] with one shard. Dropping it shuts the
/// workers down; use [`Service::finish`] to also collect results and
/// stats.
pub struct Service(ShardedService);

impl Service {
    /// Start a service with `cfg.workers` worker threads. Fails if the
    /// OS refuses to spawn them (already-started workers are shut back
    /// down).
    pub fn start(cfg: ServeConfig) -> Result<Service, String> {
        ShardedService::start(cfg, 1, PlacementKind::default().build()).map(Service)
    }

    /// The configured global budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.0.budget_bytes()
    }

    /// Plan and enqueue one job. Returns its id, or an error if the job
    /// could *never* run: a footprint above the whole budget would sit
    /// in the queue forever (and under FIFO starve everything behind
    /// it), so it is refused here instead.
    pub fn submit(&self, req: JobRequest) -> Result<JobId, String> {
        self.0.submit(req)
    }

    /// Block until every submitted job has completed.
    pub fn drain(&self) {
        self.0.drain()
    }

    /// Results completed so far, in completion order.
    pub fn results(&self) -> Vec<JobResult> {
        self.0.results()
    }

    /// Block until there are results past the first `from`, and return
    /// them; empty once `deadline` passes
    /// ([`ShardedService::wait_results`]).
    pub fn wait_results(&self, from: usize, deadline: Instant) -> Vec<JobResult> {
        self.0.wait_results(from, deadline)
    }

    /// Make every `wait_results`, blocked now or called later, return
    /// at once ([`ShardedService::wake_waiters`]).
    pub fn wake_waiters(&self) {
        self.0.wake_waiters()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.0.stats()
    }

    /// Drain, stop the workers, and return every result plus the final
    /// counters.
    pub fn finish(self) -> (Vec<JobResult>, ServiceStats) {
        self.0.finish()
    }
}

impl JoinService for Service {
    fn submit(&self, req: JobRequest) -> Result<JobId, String> {
        self.0.submit(req)
    }

    fn drain(&self) {
        self.0.drain()
    }

    fn results(&self) -> Vec<JobResult> {
        self.0.results()
    }

    fn stats(&self) -> ServiceStats {
        self.0.stats()
    }

    fn shard_stats(&self) -> Vec<ServiceStats> {
        self.0.shard_stats()
    }

    fn shards(&self) -> u32 {
        self.0.shards()
    }
}

/// Execute one admitted job through [`run_join`] and package the
/// outcome. Never panics: worker panics are caught and become
/// `JobResult::error`.
///
/// Failure handling, outermost first:
/// * **`DiskFull`** — non-transient: re-plan with halved `m_rproc`/
///   `m_sproc` (graceful degradation), up to [`MAX_DEGRADE`] times;
/// * **transient faults** — absorbed inside [`run_join`]'s retry layer with
///   bounded exponential backoff and orphan cleanup.
pub(crate) fn run_job(
    inner: &ShardedInner,
    job: Queued,
    shard: usize,
) -> (JobResult, Option<ProcStats>, Option<Histogram>) {
    let cfg = &inner.cfg;
    let started = Instant::now();
    let mut m_rproc = job.req.m_rproc;
    let mut m_sproc = job.req.m_sproc;
    let mut result = JobResult {
        shard: shard as u32,
        queue_wait: job.enqueued.elapsed().as_secs_f64(),
        ..JobResult::new(job.id, &job.req, &job.plan)
    };
    let outcome: Result<(JoinOutput, bool), String> = loop {
        // Re-plan under the (possibly degraded) budgets. Jobs that
        // pinned an algorithm keep it; `auto` jobs ask the planner what
        // is cheapest at this footprint.
        let alg = match plan_algorithm(cfg, &job, m_rproc, m_sproc) {
            Ok(alg) => alg,
            Err(e) => break Err(e),
        };
        result.alg = alg;
        // Tag the job's temporary areas with its id so concurrent (or
        // interrupted) jobs sharing a store can never collide, and so the
        // retry layer's orphan cleanup can scope itself to this run.
        let spec = JoinSpec::new(m_rproc, m_sproc)
            .with_mode(job.req.mode)
            .with_tag(&format!("j{}", job.id));
        let store = format!("job{}", job.id);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_join(cfg, &store, &job.req.workload, alg, &spec)
        }));
        let run = match run {
            Ok(run) => run,
            Err(panic) => {
                result.panicked = true;
                result.attempts += 1;
                break Err(format!("worker panic isolated: {}", panic_message(&panic)));
            }
        };
        result.attempts += run.report.attempts;
        result.retries += run.report.transient_errors;
        result.cleaned_files += run.report.cleaned_files;
        result.faults_injected += run.faults;
        match run.output {
            Ok(out) => break Ok((out, run.mismatch.is_none())),
            Err(EnvError::DiskFull(_)) if result.degraded < MAX_DEGRADE && m_rproc / 2 >= PAGE => {
                // Graceful degradation: halve the footprint and re-plan
                // rather than failing the job. The halved reservation is
                // returned to the shard's slice immediately, so queued
                // jobs can be admitted while this one re-runs smaller.
                let d = job.req.workload.rel.d as u64;
                let freed = (m_rproc - m_rproc / 2) * d;
                m_rproc /= 2;
                m_sproc = (m_sproc / 2).max(PAGE);
                result.degraded += 1;
                result.released_bytes += freed;
                // Emit before releasing: a trace consumer must see the
                // cause (degradation) before its effect (another job's
                // admission into the freed room).
                inner.trace(TraceEvent::JobDegraded {
                    job: job.id,
                    footprint: m_rproc * d,
                    released: freed,
                });
                inner.release(shard, freed);
            }
            Err(e) => break Err(e.to_string()),
        }
    };
    result.exec_wall = started.elapsed().as_secs_f64();
    match outcome {
        Ok((out, verified)) => {
            result.pairs = out.pairs;
            result.checksum = out.checksum;
            result.verified = verified;
            result.env_elapsed = out.elapsed;
            let folded = out.stats.folded();
            result.read_faults = folded.fault_read_blocks;
            result.write_backs = folded.fault_write_blocks;
            if !verified {
                result.error = Some("join result failed oracle verification".into());
            }
            (result, Some(folded), Some(out.pass_seconds))
        }
        Err(e) => {
            result.error = Some(e);
            (result, None, None)
        }
    }
}

/// The algorithm to run at the given (possibly degraded) budgets.
fn plan_algorithm(
    cfg: &ServeConfig,
    job: &Queued,
    m_rproc: u64,
    m_sproc: u64,
) -> Result<Algo, String> {
    if let Some(alg) = job.req.alg {
        return Ok(alg);
    }
    if m_rproc == job.req.m_rproc {
        return Ok(Algo::from(job.plan.algorithm));
    }
    let mut inputs = job.req.planner_inputs();
    inputs.m_rproc = m_rproc;
    inputs.m_sproc = m_sproc;
    Ok(Algo::from(choose(cfg.machine()?, &inputs).algorithm))
}

/// Best-effort text from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// What one run of [`run_join`] produced.
pub struct JoinRun {
    /// The join's output, stage times included, or the error that ended
    /// the run (a failed build, or the join once retries ran out).
    pub output: Result<JoinOutput, EnvError>,
    /// Why the output failed oracle verification, if it did.
    pub mismatch: Option<EnvError>,
    /// What the retry layer did, failed runs included.
    pub report: RetryReport,
    /// Faults the injector fired.
    pub faults: u64,
}

/// Run one join job start to finish, the one path `mmjoin join` and every
/// service worker take:
///
/// 1. build the environment `cfg.env` names: the simulator with
///    `cfg.machine()` and `spec`'s grants, or a fresh store in the
///    directory `store` under the [`EnvKind::Mmap`] root;
/// 2. wrap it in a [`FaultyEnv`] injecting `cfg.fault_spec`;
/// 3. build `workload` on the inner environment: the relations are the
///    job's input, so the fault domain is the join itself, as in the
///    paper's model;
/// 4. attach `cfg.trace`, so the trace covers the join and not relation
///    generation;
/// 5. join under `cfg.retries` attempts (a failed attempt's files are
///    cleaned up) and verify the output against the workload oracle;
/// 6. remove the store, on every path.
pub fn run_join(
    cfg: &ServeConfig,
    store: &str,
    workload: &WorkloadSpec,
    alg: Algo,
    spec: &JoinSpec,
) -> JoinRun {
    let d = workload.rel.d;
    match &cfg.env {
        EnvKind::Sim => {
            let pages = |bytes: u64| (bytes / PAGE).max(1) as usize;
            let (r, s) = (pages(spec.m_rproc), pages(spec.m_sproc));
            let env = match cfg.machine() {
                Ok(m) => SimEnv::new(SimConfig::granted(d, m.clone(), r, s)),
                Err(e) => Err(EnvError::InvalidConfig(e)),
            };
            join_on(env, SimEnv::set_trace_sink, cfg, workload, alg, spec)
        }
        EnvKind::Mmap { root } => {
            let store = StoreDir(root.join(store));
            let _ = std::fs::remove_dir_all(&store.0);
            let env = MmapEnv::new(MmapEnvConfig {
                root: store.0.clone(),
                num_disks: d,
                page_size: PAGE,
            });
            join_on(env, MmapEnv::set_trace_sink, cfg, workload, alg, spec)
        }
    }
}

/// A store directory, removed when dropped: a job's after the join, on
/// an error, and while a panic unwinds to the worker that isolates it;
/// a command's per-process root on every path out of the command.
pub struct StoreDir(pub PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Steps 2–5 of [`run_join`] on the environment step 1 built, which is
/// dropped before returning.
fn join_on<E: Env>(
    env: Result<E, EnvError>,
    attach: fn(&E, Arc<dyn TraceSink>),
    cfg: &ServeConfig,
    workload: &WorkloadSpec,
    alg: Algo,
    spec: &JoinSpec,
) -> JoinRun {
    let built = env.and_then(|env| {
        let env = FaultyEnv::new(env, cfg.fault_spec.clone());
        let rels = build(env.inner(), workload)?;
        attach(env.inner(), cfg.trace.clone());
        Ok((env, rels))
    });
    let (env, rels) = match built {
        Ok(built) => built,
        Err(e) => {
            return JoinRun {
                output: Err(e),
                mismatch: None,
                report: RetryReport::default(),
                faults: 0,
            }
        }
    };
    let policy = RetryPolicy::attempts(cfg.retries);
    let (output, report) = join_with_retry_report(&env, &rels, alg, spec, &policy);
    let mismatch = output
        .as_ref()
        .ok()
        .and_then(|out| verify(out, &rels).err());
    JoinRun {
        output,
        mismatch,
        report,
        faults: env.fault_stats().total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{open_journal, JOURNAL_FILE};
    use mmjoin_recovery::JournalRecord;
    use std::time::Duration;

    fn tiny_job(seed: u64, mem_pages: u64) -> JobRequest {
        JobRequest::new(800, 32, 2, mem_pages, seed)
    }

    #[test]
    fn oversized_job_is_rejected_at_submit() {
        let svc = Service::start(ServeConfig::sim(8 * PAGE, 1)).unwrap();
        // footprint = 16 pages × 2 disks = 32 pages > 8-page budget.
        let err = svc.submit(tiny_job(1, 16)).unwrap_err();
        assert!(err.contains("exceeds the global budget"), "{err}");
        let (results, stats) = svc.finish();
        assert!(results.is_empty());
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn admission_reserves_the_auto_chosen_grant_not_the_submitted_one() {
        let budget = 4 * 1024 * PAGE; // 16 MiB
        let svc = Service::start(ServeConfig::sim(budget, 1)).unwrap();
        // A grossly over-granted request: 4096 pages × 4 disks = 64 MiB
        // footprint, four times the global budget. Under the default
        // fixed plan, admission budgets the submitted grant and rejects.
        let mut req = JobRequest::new(8_000, 64, 4, 4_096, 7);
        let err = svc.submit(req.clone()).unwrap_err();
        assert!(err.contains("exceeds the global budget"), "{err}");
        // The same request under plan=auto is trimmed to the planner's
        // chosen grant *before* admission sees it, so it fits and runs.
        req.plan = crate::job::PlanMode::Auto;
        svc.submit(req).unwrap();
        let (results, stats) = svc.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].verified, "{:?}", results[0].error);
        assert_eq!(stats.rejected, 1);
        assert!(stats.peak_budget_bytes > 0);
        assert!(stats.peak_budget_bytes <= budget);
    }

    #[test]
    fn single_job_runs_and_verifies() {
        let svc = Service::start(ServeConfig::sim(64 * PAGE, 2)).unwrap();
        let id = svc.submit(tiny_job(7, 8)).unwrap();
        assert_eq!(id, 1);
        let (results, stats) = svc.finish();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.verified);
        assert!(r.pairs > 0);
        assert!(r.env_elapsed > 0.0);
        assert!(r.predicted_seconds > 0.0);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert!(stats.peak_budget_bytes <= stats.budget_bytes);
        assert_eq!(stats.peak_budget_bytes, 16 * PAGE);
    }

    #[test]
    fn budget_is_never_exceeded_under_contention() {
        // 8 jobs of 16 pages each against a 32-page budget: at most two
        // run at once even with four workers.
        let svc = Service::start(ServeConfig::sim(32 * PAGE, 4)).unwrap();
        for seed in 0..8 {
            svc.submit(tiny_job(seed, 8)).unwrap();
        }
        let (results, stats) = svc.finish();
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|r| r.verified));
        assert!(stats.peak_budget_bytes <= 32 * PAGE);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn a_journaled_job_costs_one_sync_per_commit() {
        let dir = std::env::temp_dir().join(format!("mmjoin-syncs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::start(ServeConfig::sim(64 * PAGE, 1).with_journal(dir.clone())).unwrap();
        for seed in 0..3 {
            svc.submit(tiny_job(seed, 8)).unwrap();
        }
        let (_, stats) = svc.finish();
        assert_eq!(stats.journal_commits, 6, "{stats:?}");
        // The create's sync, then one per commit: the watermark rides
        // the next commit's sync instead of paying its own.
        assert_eq!(stats.journal_syncs, stats.journal_commits + 1, "{stats:?}");
        assert!(stats.to_json().contains("\"commits\":6,\"syncs\":7,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_completed_jobs_and_reruns_pending_ones() {
        let dir = std::env::temp_dir().join(format!("mmjoin-resume-single-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First life: run two jobs to completion under a journal.
        let svc = Service::start(ServeConfig::sim(64 * PAGE, 1).with_journal(dir.clone())).unwrap();
        svc.submit(tiny_job(1, 8)).unwrap();
        svc.submit(tiny_job(2, 8)).unwrap();
        let (mut first, stats) = svc.finish();
        first.sort_by_key(|r| r.id);
        // A job journals its submission and its completion, each
        // committed on its own, and nothing else.
        assert_eq!(stats.journal_appended_records, 4, "{stats:?}");
        assert_eq!(stats.journal_commits, 4, "{stats:?}");
        // Simulate a job that was admitted but never finished before
        // the "crash": journal its submission with no completion.
        {
            let (mut j, _) = open_journal(&dir, JOURNAL_FILE, true, null_sink()).unwrap();
            j.append_commit(&JournalRecord::JobSubmitted {
                job: 3,
                line: tiny_job(5, 8).to_line(),
            })
            .unwrap();
        }
        // Second life: resume.
        let svc = Service::start(
            ServeConfig::sim(64 * PAGE, 1)
                .with_journal(dir.clone())
                .with_resume(),
        )
        .unwrap();
        // Id assignment continues past everything the journal saw.
        assert_eq!(svc.submit(tiny_job(9, 8)).unwrap(), 4);
        let (mut results, stats) = svc.finish();
        results.sort_by_key(|r| r.id);
        assert_eq!(results.len(), 4);
        // Jobs 1 and 2: re-reported from the journal, same outputs.
        for (r, f) in results[..2].iter().zip(&first) {
            assert!(r.resumed);
            assert_eq!((r.id, r.pairs, r.checksum), (f.id, f.pairs, f.checksum));
            assert!(r.verified);
        }
        // Job 3: re-run live from its journaled submission line.
        assert!(!results[2].resumed);
        assert_eq!(results[2].id, 3);
        assert!(results[2].verified, "{:?}", results[2].error);
        assert_eq!(stats.journal_resumed_jobs, 1);
        assert_eq!(stats.journal_replayed_records, 5);
        assert_eq!(stats.completed, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_under_a_smaller_budget_fails_the_oversized_job_visibly() {
        let dir = std::env::temp_dir().join(format!("mmjoin-resume-shrunk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First life, 64-page budget: one job completes, two more are
        // accepted (32 and 16 pages — both fit) but still in flight at
        // the "crash".
        let svc = Service::start(ServeConfig::sim(64 * PAGE, 1).with_journal(dir.clone())).unwrap();
        svc.submit(tiny_job(1, 8)).unwrap();
        svc.finish();
        {
            let (mut j, _) = open_journal(&dir, JOURNAL_FILE, true, null_sink()).unwrap();
            for (job, mem_pages) in [(2, 16), (3, 8)] {
                j.append_commit(&JournalRecord::JobSubmitted {
                    job,
                    line: tiny_job(job, mem_pages).to_line(),
                })
                .unwrap();
            }
        }
        // Second life with a quarter of the budget: job 2 can never be
        // admitted. Queued anyway it would hang the drain (and, FIFO,
        // starve job 3 behind it), hence the watchdog.
        let cfg = ServeConfig::sim(16 * PAGE, 1)
            .with_journal(dir.clone())
            .with_resume();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // A timed-out receiver is gone; the assertion below reports it.
            let _ = tx.send(Service::start(cfg).unwrap().finish());
        });
        let (mut results, stats) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("finish() hung on a resumed job no budget can admit");
        results.sort_by_key(|r| r.id);
        assert_eq!(results.len(), 3);
        assert!(results[0].resumed && results[0].verified);
        assert!(results[1].resumed, "the oversized job never ran here");
        let err = results[1].error.as_deref().unwrap_or_default();
        assert!(err.contains("exceeds"), "{err}");
        assert!(!results[2].resumed);
        assert!(results[2].verified, "{:?}", results[2].error);
        assert_eq!((stats.completed, stats.failed), (2, 1));
        assert_eq!(stats.in_flight(), 0);
        assert_eq!(stats.budget_leak_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_journal_refuses_submissions_without_taking_ids_and_resumes_each_accepted_job_once() {
        let dir = std::env::temp_dir().join(format!("mmjoin-full-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // ~64 KiB a submission record: the 4 MiB journal holds about 64.
        let big = |seed: u64| JobRequest {
            name: format!("j{seed}-{}", "x".repeat(64 << 10)),
            ..tiny_job(seed, 8)
        };
        let svc = Service::start(ServeConfig::sim(64 * PAGE, 2).with_journal(dir.clone())).unwrap();
        let mut accepted = Vec::new();
        let mut refused = 0;
        for seed in 0..80 {
            match svc.submit(big(seed)) {
                Ok(id) => accepted.push(id),
                Err(e) => {
                    assert!(e.contains("journal full"), "{e}");
                    refused += 1;
                }
            }
        }
        assert!(refused > 0, "the journal never filled");
        // A refusal takes no id: the accepted ids are dense.
        let n = accepted.len() as u64;
        assert_eq!(accepted, (1..=n).collect::<Vec<_>>());
        assert_eq!(svc.stats().submitted, n);
        // "Crash" with jobs still queued: the resume re-runs those.
        drop(svc);

        let cfg = ServeConfig::sim(64 * PAGE, 2)
            .with_journal(dir.clone())
            .with_resume();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(Service::start(cfg).unwrap().finish());
        });
        let (results, _) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a resumed drain over a full journal must terminate");
        let mut ids: Vec<JobId> = results.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids, accepted,
            "every accepted id exactly once, nothing else"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_script_reports_bad_lines() {
        let svc = Service::start(ServeConfig::sim(256 * PAGE, 1)).unwrap();
        let err = svc
            .submit_script("# fine\nobjects=800 d=2\nalg=bogus\n")
            .unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }
}

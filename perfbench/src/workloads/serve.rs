//! `serve-mix`: a seeded list of heterogeneous jobs through a journaled
//! `Service` on the mmap store — admission, queue, per-job
//! `relstore::build`, join and journal under mixed sizes and skew. It
//! is the workload a scheduling refactor must hold still.
//!
//! The job list and the phase driver are shared with `cluster-2node`,
//! which pushes the same inputs through the RPC tier.
//!
//! Why one worker and a closed loop for the end-to-end numbers: the
//! median of an open loop over this mix sits on a cliff — a quarter of
//! the jobs are large, and whether a small job queues behind one moves
//! the median from 17 ms to 29 ms for the same inputs — and a second
//! worker makes peak memory depend on which jobs happen to overlap. So
//! the bounded metrics come from a closed loop (one job in flight) and
//! from bursts through one worker, and the open loop — which a user of
//! the tier does care about — runs in the traced pass and reports
//! per-layer metrics without a bound. The workload runs on one CPU (see
//! `OneCpu`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mmjoin::{choose_auto, SampleSummary, HISTOGRAM_BUCKETS, SAMPLE_CAP};
use mmjoin_relstore::sample_spec_pointers;
use mmjoin_serve::{
    service_machine, AdmissionPolicy, EnvKind, JobRequest, JobResult, JoinService, PlacementKind,
    ServeConfig, Service, ShardedService, PAGE,
};

use super::{after, journal_record_counts, sleep_until, Ctx, Outcome};
use crate::gen::{is_large, job_list, poisson_schedule, JobMix, Rng};
use crate::stats::median;

/// Shape of the serve and cluster workloads.
pub(crate) struct JobScale {
    pub mix: JobMix,
    /// Global memory budget in pages: two large jobs do not fit it
    /// together.
    pub budget_pages: u64,
    /// Jobs per round run one at a time (submit, wait for the result).
    pub closed: usize,
    /// Jobs per round submitted at once, then drained.
    pub burst: usize,
    /// Traced pass only: open-loop jobs per round, and their arrival
    /// rate per second (seeded Poisson) — about a quarter of what the
    /// tier sustains on the introducing commit. Fixed.
    pub open: usize,
    pub open_rate: f64,
    /// Seconds one round is budgeted at (sets the number of rounds).
    pub round_seconds: f64,
    /// Closed loop: the client thinks for a seeded random time up to
    /// this many milliseconds before each job. The cluster tier polls
    /// its sockets every 20 ms, and a client that resubmits the instant
    /// a result lands locks onto that cycle (every job then waits a
    /// whole poll, or none, for a run at a time).
    pub think_ms: u64,
}

const MIX_FULL: JobMix = JobMix {
    small_objects: 20_000,
    small_pages: 32,
    large_objects: 200_000,
    large_pages: 128,
};

const MIX_SMOKE: JobMix = JobMix {
    small_objects: 1_000,
    small_pages: 32,
    large_objects: 4_000,
    large_pages: 128,
};

pub(crate) const FULL: JobScale = JobScale {
    mix: MIX_FULL,
    budget_pages: 320,
    closed: 32,
    burst: 48,
    open: 16,
    open_rate: 8.0,
    round_seconds: 2.8,
    think_ms: 0,
};

pub(crate) const SMOKE: JobScale = JobScale {
    mix: MIX_SMOKE,
    budget_pages: 320,
    closed: 8,
    burst: 8,
    open: 8,
    open_rate: 200.0,
    round_seconds: 0.2,
    think_ms: 0,
};

/// One finished job as the phase driver needs it, whatever tier ran it.
pub(crate) struct Done {
    pub id: u64,
    /// Seconds from the tier accepting the job to its result.
    pub latency: f64,
    /// Queue-wait and execution parts, where the tier reports them.
    pub parts: Option<(f64, f64)>,
    pub ok: bool,
    pub why: String,
}

/// The three calls the driver makes into a job tier.
pub(crate) trait JobTier {
    fn submit(&self, req: JobRequest) -> Result<u64, String>;
    fn drain(&self);
    fn done(&self) -> Vec<Done>;
}

fn done_of(results: Vec<JobResult>) -> Vec<Done> {
    results
        .into_iter()
        .map(|r| Done {
            id: r.id,
            latency: r.latency(),
            parts: Some((r.queue_wait, r.exec_wall)),
            ok: r.verified && r.error.is_none(),
            why: r
                .error
                .unwrap_or_else(|| "result did not verify".to_string()),
        })
        .collect()
}

impl JobTier for Service {
    fn submit(&self, req: JobRequest) -> Result<u64, String> {
        Service::submit(self, req)
    }

    fn drain(&self) {
        Service::drain(self)
    }

    fn done(&self) -> Vec<Done> {
        done_of(self.results())
    }
}

impl JobTier for ShardedService {
    fn submit(&self, req: JobRequest) -> Result<u64, String> {
        JoinService::submit(self, req)
    }

    fn drain(&self) {
        JoinService::drain(self)
    }

    fn done(&self) -> Vec<Done> {
        done_of(self.results())
    }
}

/// The seeded inputs of one round.
pub(crate) struct Round {
    pub closed: Vec<JobRequest>,
    pub burst: Vec<JobRequest>,
    /// Open-loop jobs and their due times (empty untraced).
    pub open: Vec<JobRequest>,
    pub due: Vec<f64>,
}

pub(crate) fn plan(ctx: &Ctx, scale: &JobScale) -> Vec<Round> {
    let rounds = ((ctx.seconds / scale.round_seconds).round() as u64).max(1);
    let open = if ctx.traced() { scale.open } else { 0 };
    (0..rounds)
        .map(|k| {
            let seed = ctx.seed.wrapping_add(k);
            Round {
                closed: job_list(seed, scale.closed, &scale.mix),
                burst: job_list(seed ^ 0xB0057, scale.burst, &scale.mix),
                open: job_list(seed ^ 0x09E4, open, &scale.mix),
                // A fixed number of arrivals, so every seed sends the
                // same load; the seed spaces them.
                due: poisson_schedule(seed, scale.open_rate, f64::MAX)
                    .take(open)
                    .collect(),
            }
        })
        .collect()
}

pub(crate) fn jobs_in(rounds: &[Round]) -> usize {
    rounds
        .iter()
        .map(|r| r.closed.len() + r.burst.len() + r.open.len())
        .sum()
}

/// What the phases measured.
#[derive(Default)]
pub(crate) struct Measured {
    /// Closed loop: submit to result, one job in flight.
    pub closed_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub small_exec_ms: Vec<f64>,
    pub large_exec_ms: Vec<f64>,
    /// Burst: jobs per second, one value per round.
    pub round_jobs_per_s: Vec<f64>,
    /// Open loop (traced pass): due time to result, queue wait, and how
    /// late the generator ran.
    pub open_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
}

/// Check one job's result and return it.
fn checked<'d>(out: &mut Outcome, done: &'d BTreeMap<u64, Done>, id: u64) -> Option<&'d Done> {
    let d = done.get(&id);
    out.check(d.is_some_and(|d| d.ok), || match d {
        Some(d) => format!("job {id}: {}", d.why),
        None => format!("job {id} was accepted but has no result"),
    });
    d
}

fn done_by_id(tier: &dyn JobTier) -> BTreeMap<u64, Done> {
    tier.done().into_iter().map(|d| (d.id, d)).collect()
}

/// Record a job's span with its submit, queue-wait and execution parts
/// as children. `queued` is the tracer time `submit()` returned.
fn job_span(
    ctx: &Ctx,
    layer: &'static str,
    id: u64,
    from: f64,
    submit: f64,
    queued: f64,
    d: &Done,
) {
    let whole = ctx
        .tracer
        .record("bench", "job", id, None, from, queued + d.latency);
    ctx.tracer
        .record(layer, "submit", id, whole, queued - submit, queued);
    if let Some((queue, exec)) = d.parts {
        ctx.tracer
            .record(layer, "queue_wait", id, whole, queued, queued + queue);
        ctx.tracer.record(
            layer,
            "exec",
            id,
            whole,
            queued + queue,
            queued + queue + exec,
        );
    }
}

/// Run every round through `tier`: the closed loop (latency with one
/// job in flight), the burst (jobs per second), and — traced — the open
/// loop on its seeded arrival times (latency from the instant a job was
/// due).
pub(crate) fn drive(
    ctx: &Ctx,
    tier: &dyn JobTier,
    rounds: &[Round],
    scale: &JobScale,
    layer: &'static str,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let mix = &scale.mix;
    let mut think = Rng::new(ctx.seed, 0x7417);
    let mut m = Measured::default();
    for round in rounds {
        let mut sent = Vec::with_capacity(round.closed.len());
        for req in &round.closed {
            if scale.think_ms > 0 {
                std::thread::sleep(Duration::from_micros(think.below(scale.think_ms * 1000)));
            }
            let from = ctx.tracer.now();
            let started = Instant::now();
            let id = tier.submit(req.clone())?;
            let submit = started.elapsed().as_secs_f64();
            tier.drain();
            m.closed_ms.push(started.elapsed().as_secs_f64() * 1e3);
            sent.push((id, from, submit, is_large(req, mix)));
        }
        let done = done_by_id(tier);
        for &(id, from, submit, large) in &sent {
            let Some(d) = checked(out, &done, id) else {
                continue;
            };
            m.submit_us.push(submit * 1e6);
            if let Some((_, exec)) = d.parts {
                m.exec_ms.push(exec * 1e3);
                if large {
                    &mut m.large_exec_ms
                } else {
                    &mut m.small_exec_ms
                }
                .push(exec * 1e3);
            }
            job_span(ctx, layer, id, from, submit, from + submit, d);
        }

        let (jobs, wall) = burst(tier, &round.burst, out)?;
        m.round_jobs_per_s.push(jobs as f64 / wall);

        let t0 = Instant::now();
        let t0_traced = ctx.tracer.now();
        let mut sent = Vec::with_capacity(round.open.len());
        for (req, &due) in round.open.iter().zip(&round.due) {
            m.late_ms.push(sleep_until(after(t0, due)) * 1e3);
            let started = Instant::now();
            let id = tier.submit(req.clone())?;
            let done = Instant::now();
            let before_queue = done.saturating_duration_since(after(t0, due)).as_secs_f64();
            sent.push((
                id,
                t0_traced + due,
                (done - started).as_secs_f64(),
                before_queue,
            ));
        }
        tier.drain();
        let done = done_by_id(tier);
        for &(id, due, submit, before_queue) in &sent {
            let Some(d) = checked(out, &done, id) else {
                continue;
            };
            m.open_ms.push((before_queue + d.latency) * 1e3);
            if let Some((queue, _)) = d.parts {
                m.queue_ms.push(queue * 1e3);
            }
            job_span(ctx, layer, id, due, submit, due + before_queue, d);
        }
    }
    Ok(m)
}

/// Submit `jobs` at once, drain, check every result. Returns the job
/// count and the wall seconds from first submit to drained.
pub(crate) fn burst(
    tier: &dyn JobTier,
    jobs: &[JobRequest],
    out: &mut Outcome,
) -> Result<(usize, f64), String> {
    let t0 = Instant::now();
    let ids: Vec<u64> = jobs
        .iter()
        .map(|req| tier.submit(req.clone()))
        .collect::<Result<_, _>>()?;
    tier.drain();
    let wall = t0.elapsed().as_secs_f64();
    let done = done_by_id(tier);
    for id in &ids {
        checked(out, &done, *id);
    }
    Ok((ids.len(), wall))
}

/// Put the readings both job tiers share.
pub(crate) fn put_shared(ctx: &Ctx, m: &Measured, out: &mut Outcome) {
    out.readings.put_median("latency_p50_ms", &m.closed_ms);
    out.readings
        .put_median("throughput_per_s", &m.round_jobs_per_s);
    if ctx.traced() {
        out.readings.put_median("serve.submit_us", &m.submit_us);
        out.readings.put_median("serve.open_lat_p50_ms", &m.open_ms);
        out.readings
            .put_tail("serve.open_lat_p95_ms", &m.open_ms, 95.0);
        out.readings.put_tail("serve.late_ms", &m.late_ms, 95.0);
    }
}

/// A service configuration on the mmap store under `root`.
pub(crate) fn serve_config(root: &Path, budget_pages: u64, workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::sim(budget_pages * PAGE, workers)
        .with_policy(AdmissionPolicy::ShortestPredicted);
    cfg.env = EnvKind::Mmap {
        root: root.to_path_buf(),
    };
    cfg
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let rounds = plan(ctx, scale);
    let wal = ctx.scratch.dir("wal");
    let config =
        || serve_config(&ctx.scratch.dir("jobs"), scale.budget_pages, 1).with_journal(wal.clone());

    // The planner's machine is calibrated once per process, lazily; pay
    // that before timing anything, as a long-running service has.
    service_machine()?;
    let mut setup = Vec::new();
    let mut svc: Option<Service> = None;
    while ctx.setup_again(&setup) {
        drop(svc.take());
        let (started, secs, _) =
            ctx.tracer
                .time("serve", "Service::start", setup.len() as u64, None, || {
                    Service::start(config())
                });
        svc = Some(started?);
        setup.push(secs);
    }
    let svc = svc.expect("setup_reps >= 1");
    out.readings.put_median("setup_s", &setup);

    // Warm-up: one burst of the mix (so a large job has run, and peak
    // memory does not wait for the first one in a measured phase).
    let warm = job_list(ctx.seed ^ 0x3A3A, scale.burst.min(16), &scale.mix);
    let (warm_jobs, _) = burst(&svc, &warm, &mut out)?;

    let m = drive(ctx, &svc, &rounds, scale, "serve", &mut out)?;
    let (_, stats) = svc.finish();
    let jobs = (warm_jobs + jobs_in(&rounds)) as u64;

    // Gates over the whole run: nothing refused or failed, no budget
    // leaked, and the journal file itself holds a committed submission
    // and completion for every job the service acknowledged.
    if stats.rejected + stats.failed != 0 || stats.completed != jobs {
        out.fail(format!(
            "{jobs} jobs submitted: {} completed, {} failed, {} rejected",
            stats.completed, stats.failed, stats.rejected
        ));
    }
    if stats.budget_leak_bytes != 0 {
        out.fail(format!("{} budget bytes leaked", stats.budget_leak_bytes));
    }
    let (_, kinds) = journal_record_counts(&wal, "serve.wal")?;
    let count = |kind: &str| kinds.get(kind).copied().unwrap_or(0);
    if count("job_submitted") != jobs
        || count("job_completed") != jobs
        || stats.journal_commits < 2 * jobs
    {
        out.fail(format!(
            "{jobs} jobs acknowledged but the journal holds {} submissions / {} completions / {} commits",
            count("job_submitted"),
            count("job_completed"),
            stats.journal_commits
        ));
    }
    out.note("rounds", rounds.len());
    out.note("jobs", jobs);
    put_shared(ctx, &m, &mut out);

    if ctx.traced() {
        out.note("open_loop_rate_per_s", scale.open_rate);
        out.readings.put("serve.start_ms", median(&setup) * 1e3);
        out.readings
            .put_median("serve.queue_wait_p50_ms", &m.queue_ms);
        out.readings.put_median("serve.exec_p50_ms", &m.exec_ms);
        out.readings.put_tail("serve.exec_p95_ms", &m.exec_ms, 95.0);
        out.readings
            .put_median("serve.small_exec_p50_ms", &m.small_exec_ms);
        out.readings
            .put_median("serve.large_exec_p50_ms", &m.large_exec_ms);
        out.readings.put(
            "serve.peak_budget_frac",
            stats.peak_budget_bytes as f64 / stats.budget_bytes as f64,
        );
        out.readings
            .put("serve.journal_commits", stats.journal_commits as f64);

        // The same bursts through two 1-worker shards (each with the
        // whole budget as its slice, so the large shape is admissible):
        // must track a 2-worker `Service` once that is a one-shard
        // sharded service. Two busy workers: host-bimodal, never gated.
        let sharded = ShardedService::start(
            serve_config(&ctx.scratch.dir("shard-jobs"), 2 * scale.budget_pages, 1),
            2,
            PlacementKind::default().build(),
        )?;
        let mut rates = Vec::new();
        for round in &rounds {
            let (n, wall) = burst(&sharded, &round.burst, &mut out)?;
            rates.push(n as f64 / wall);
        }
        sharded.finish();
        out.readings.put_median("serve.sharded2_jobs_per_s", &rates);

        // What a `plan=auto` submit pays the planner, on a large job.
        let machine = service_machine()?;
        let req = JobRequest::new(
            scale.mix.large_objects,
            128,
            2,
            scale.mix.large_pages,
            ctx.seed,
        );
        let pointers = sample_spec_pointers(&req.workload, SAMPLE_CAP);
        let rel = &req.workload.rel;
        let summary = SampleSummary::from_pointers(
            &pointers,
            rel.r_objects,
            rel.s_objects,
            rel.d,
            HISTOGRAM_BUCKETS,
        );
        let mut micros = Vec::new();
        for rep in 0..50 {
            let (auto, secs, _) = ctx.tracer.time("core", "choose_auto", rep, None, || {
                choose_auto(machine, &req.planner_inputs(), Some(&summary))
            });
            std::hint::black_box(auto);
            micros.push(secs * 1e6);
        }
        out.readings.put_median("core.choose_auto_us", &micros);
    }
    Ok(out)
}

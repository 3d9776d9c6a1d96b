//! `cluster-2node`: the `serve-mix` job list through a `Coordinator`
//! over two in-process `NodeServer`s (one worker each) on loopback TCP,
//! no node killed. Same inputs through the RPC tier, so the difference
//! from `serve-mix` is the coordinator and the wire.

use std::time::{Duration, Instant};

use mmjoin::RetryPolicy;
use mmjoin_cluster::{ClusterConfig, Coordinator, NodeServer};
use mmjoin_serve::{JobRequest, Service};

use super::serve::{
    self, burst, drive, jobs_in, plan, put_shared, serve_config, Done, JobScale, JobTier,
};
use super::{Ctx, Outcome};
use crate::gen::{is_large, job_list};
use crate::stats::median;

/// The `serve-mix` shape with a think time, and fewer closed-loop jobs
/// (each costs a socket poll or two more). Every node gets the whole
/// `serve-mix` budget: with one worker the budget never binds, and half
/// of it would refuse the large shape.
const FULL: JobScale = JobScale {
    closed: 24,
    round_seconds: 3.2,
    think_ms: 15,
    ..serve::FULL
};

const SMOKE: JobScale = JobScale {
    round_seconds: 0.4,
    think_ms: 2,
    ..serve::SMOKE
};

const NODES: usize = 2;
/// Jobs in the closed-loop pass that isolates the RPC cost.
const TWIN_JOBS: usize = 40;

impl JobTier for Coordinator {
    fn submit(&self, req: JobRequest) -> Result<u64, String> {
        Coordinator::submit(self, req)
    }

    fn drain(&self) {
        Coordinator::drain(self)
    }

    fn done(&self) -> Vec<Done> {
        self.results()
            .into_iter()
            .map(|r| Done {
                id: r.id,
                latency: r.latency,
                parts: None,
                ok: r.ok && r.error.is_none(),
                why: r
                    .error
                    .unwrap_or_else(|| "result did not verify".to_string()),
            })
            .collect()
    }
}

/// Two nodes and a coordinator connected to both.
struct Cluster {
    co: Coordinator,
    // Dropped after the coordinator has sent them `Shutdown`.
    _nodes: Vec<NodeServer>,
}

fn start(ctx: &Ctx, scale: &JobScale) -> Result<Cluster, String> {
    let nodes = (0..NODES)
        .map(|i| {
            let cfg = serve_config(&ctx.scratch.dir(&format!("node{i}")), scale.budget_pages, 1);
            NodeServer::start("127.0.0.1:0", &format!("perf-{i}"), cfg)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let addrs = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    // No node dies here; a generous timeout keeps a busy 2-vCPU host
    // from mistaking a late heartbeat for a death.
    let cfg = ClusterConfig::new(addrs)
        .with_heartbeat(Duration::from_millis(50))
        .with_timeout(Duration::from_secs(10))
        .with_retry(RetryPolicy::attempts(6))
        .with_journal(ctx.scratch.dir("co-wal"));
    let co = Coordinator::start(cfg)?;
    // Started means able to take a job: wait for both registrations.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (co.stats().nodes_alive as usize) < NODES {
        if Instant::now() > deadline {
            return Err("nodes did not register within 10 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Cluster { co, _nodes: nodes })
}

/// Median wall milliseconds of `jobs` run one at a time (submit, then
/// drain) through `tier`.
fn one_at_a_time(
    tier: &dyn JobTier,
    jobs: &[JobRequest],
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut walls = Vec::new();
    for req in jobs {
        let (_, wall) = burst(tier, std::slice::from_ref(req), out)?;
        walls.push(wall * 1e3);
    }
    Ok(median(&walls))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let rounds = plan(ctx, scale);

    let mut setup = Vec::new();
    let mut cluster: Option<Cluster> = None;
    while ctx.setup_again(&setup) {
        if let Some(c) = cluster.take() {
            c.co.finish();
        }
        let (started, secs, _) = ctx.tracer.time(
            "cluster",
            "nodes+Coordinator::start",
            setup.len() as u64,
            None,
            || start(ctx, scale),
        );
        cluster = Some(started?);
        setup.push(secs);
    }
    let cluster = cluster.expect("setup_reps >= 1");
    out.readings.put_median("setup_s", &setup);

    // Warm-up: two large jobs at once (one per node, which is the most
    // memory the run can hold at a time, so peak memory does not depend
    // on which jobs later happen to overlap), then one of everything.
    let mut warm: Vec<JobRequest> = job_list(ctx.seed ^ 0x3A3A, 32, &scale.mix);
    warm.sort_by_key(|j| !is_large(j, &scale.mix));
    warm.truncate(NODES);
    let (peak_jobs, _) = burst(&cluster.co, &warm, &mut out)?;
    let (mixed_jobs, _) = burst(
        &cluster.co,
        &job_list(ctx.seed ^ 0x3A3B, scale.burst.min(16), &scale.mix),
        &mut out,
    )?;
    let warm_jobs = peak_jobs + mixed_jobs;
    let m = drive(ctx, &cluster.co, &rounds, scale, "cluster", &mut out)?;

    // Traced: small jobs one at a time, here and (below) through a
    // local service. No queueing anywhere, so the difference of the
    // medians is what the coordinator and the wire add to a job.
    let small: Vec<JobRequest> = job_list(ctx.seed ^ 0x7717, 4 * TWIN_JOBS, &scale.mix)
        .into_iter()
        .filter(|j| !is_large(j, &scale.mix))
        .take(match (ctx.traced(), ctx.smoke) {
            (false, _) => 0,
            (true, false) => TWIN_JOBS,
            (true, true) => TWIN_JOBS / 8,
        })
        .collect();
    let remote_ms = one_at_a_time(&cluster.co, &small, &mut out)?;
    let twin_jobs = small.len();

    let Cluster { co, _nodes } = cluster;
    let (_, stats) = co.finish();
    let jobs = (warm_jobs + twin_jobs + jobs_in(&rounds)) as u64;
    if stats.rejected + stats.failed != 0 || stats.completed != jobs {
        out.fail(format!(
            "{jobs} jobs submitted: {} completed, {} failed, {} rejected",
            stats.completed, stats.failed, stats.rejected
        ));
    }
    // With no node killed, none of these may move.
    for (what, n) in [
        ("requeued", stats.requeued),
        ("duplicate completions", stats.duplicate_completions),
        ("leaked budget bytes", stats.budget_leak_bytes),
        ("node losses", stats.node_losses),
    ] {
        if n != 0 {
            out.fail(format!("{n} {what} with no node killed"));
        }
    }
    out.note("rounds", rounds.len());
    out.note("jobs", jobs);
    put_shared(ctx, &m, &mut out);

    if ctx.traced() {
        out.note("open_loop_rate_per_s", scale.open_rate);
        out.readings.put("cluster.start_ms", median(&setup) * 1e3);
        out.readings.put("cluster.requeued", stats.requeued as f64);
        out.readings.put(
            "cluster.duplicate_completions",
            stats.duplicate_completions as f64,
        );
        out.readings
            .put("cluster.budget_leak_bytes", stats.budget_leak_bytes as f64);

        // The same jobs through a local service: one worker for the
        // closed loop, two for the bursts (the cluster has two).
        let local = Service::start(serve_config(
            &ctx.scratch.dir("local1"),
            scale.budget_pages,
            1,
        ))?;
        let local_ms = one_at_a_time(&local, &small, &mut out)?;
        local.finish();
        out.readings
            .put("cluster.rpc_overhead_ms", remote_ms - local_ms);

        let local = Service::start(serve_config(
            &ctx.scratch.dir("local2"),
            scale.budget_pages,
            2,
        ))?;
        let mut rates = Vec::new();
        for round in &rounds {
            let (n, wall) = burst(&local, &round.burst, &mut out)?;
            rates.push(n as f64 / wall);
        }
        local.finish();
        out.readings.put(
            "cluster.vs_serve_ratio",
            median(&m.round_jobs_per_s) / median(&rates),
        );
    }
    Ok(out)
}

//! Load generator for the mmjoin-serve service: submit `--jobs N`
//! randomized join jobs against a budget-constrained service and report
//! throughput plus the p50/p90/p99/p99.9 client latency ladder from the
//! service's fixed-memory log-scale histograms.
//!
//! ```sh
//! cargo run --release -p mmjoin-bench --bin loadgen -- \
//!     --jobs 32 --budget-pages 128 --workers 4 --policy spf [--json]
//! ```
//!
//! With `--shards N` (N > 1) it becomes a sweep: the **same** job list
//! under the **same** fault spec is run twice — once through the
//! single-queue [`Service`], once through the N-shard
//! [`ShardedService`] — and the two throughput/latency profiles are
//! compared side by side (JSON lands in `results/loadgen_shards.json`).
//! The default mix injects small real I/O stalls ([`CONTENDED_SPEC`]),
//! which a single admission queue serializes and shards overlap.
//!
//! With `--nodes N` (N > 1) it becomes the **cluster** sweep: the same
//! contended job list runs three times through a [`Coordinator`] over
//! real TCP — against one worker node, against N nodes, and against N
//! nodes with node 0 killed a third of the way through — and the run
//! reports the 1→N throughput ratio and asserts zero lost jobs under
//! the kill (JSON lands in `results/loadgen_cluster.json`).

use std::time::Duration;

use mmjoin::RetryPolicy;
use mmjoin_bench::load::{machine_override, opt, random_job, CONTENDED_SPEC};
use mmjoin_cluster::{ClusterConfig, Coordinator, NodeServer};
use mmjoin_env::FaultSpec;
use mmjoin_serve::{
    AdmissionPolicy, JobRequest, JoinService, PlacementKind, ServeConfig, Service, ShardedService,
    PAGE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic splitmix64 step. The arrival process must reproduce
/// exactly for a given seed — independent of the `rand` shim's stream,
/// which the job mix already consumes.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parse `--arrival`: `closed` (the default — submit jobs back to
/// back) or `poisson:RATE` (open loop: exponential inter-arrival gaps
/// at RATE jobs/s, pre-drawn from a seeded splitmix64 stream so two
/// runs with the same seed see the identical arrival schedule).
fn arrival_gaps(mode: &str, seed: u64, jobs: u64) -> Result<Option<Vec<Duration>>, String> {
    if mode == "closed" {
        return Ok(None);
    }
    let Some(rate_str) = mode.strip_prefix("poisson:") else {
        return Err(format!(
            "unknown arrival mode '{mode}' (closed | poisson:RATE)"
        ));
    };
    let rate: f64 = rate_str
        .parse()
        .map_err(|e| format!("poisson rate '{rate_str}': {e}"))?;
    if !rate.is_finite() || rate <= 0.0 {
        return Err(format!("poisson rate must be positive, got {rate}"));
    }
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    Ok(Some(
        (0..jobs)
            .map(|_| {
                // Inverse-CDF draw; the u53 mantissa is in [0, 1), so
                // 1-u is in (0, 1] and the log is finite.
                let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                Duration::from_secs_f64(-(1.0 - u).ln() / rate)
            })
            .collect(),
    ))
}

/// One run's worth of reportable numbers.
struct RunSummary {
    label: String,
    wall: f64,
    accepted: u64,
    failed: u64,
    completed: u64,
    throughput: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    peak_pages: u64,
    stolen: u64,
    per_shard_completed: Vec<u64>,
    stats_json: String,
}

fn run(label: &str, svc: Box<dyn JoinService>, jobs: &[JobRequest]) -> RunSummary {
    let started = std::time::Instant::now();
    let mut accepted = 0u64;
    for (i, req) in jobs.iter().enumerate() {
        match svc.submit(req.clone()) {
            Ok(_) => accepted += 1,
            Err(e) => eprintln!("{label}: job {i}: {e}"),
        }
    }
    svc.drain();
    let results = svc.results();
    let stats = svc.stats();
    let wall = started.elapsed().as_secs_f64();
    let failed = results.iter().filter(|r| r.error.is_some()).count() as u64;
    let lat = &stats.latency_hist;
    RunSummary {
        label: label.to_string(),
        wall,
        accepted,
        failed,
        completed: stats.completed,
        throughput: accepted as f64 / wall,
        p50_ms: lat.p50() * 1e3,
        p90_ms: lat.p90() * 1e3,
        p99_ms: lat.p99() * 1e3,
        p999_ms: lat.p999() * 1e3,
        peak_pages: stats.peak_budget_bytes / PAGE,
        stolen: stats.stolen,
        per_shard_completed: svc.shard_stats().iter().map(|s| s.completed).collect(),
        stats_json: stats.to_json(),
    }
}

impl RunSummary {
    fn print(&self) {
        println!(
            "{:<12} {:>8.3} s  {:>7.1} jobs/s  p50 {:>7.1} ms  p99 {:>8.1} ms  \
             {} ok / {} failed{}",
            self.label,
            self.wall,
            self.throughput,
            self.p50_ms,
            self.p99_ms,
            self.completed,
            self.failed,
            if self.stolen > 0 {
                format!("  ({} stolen)", self.stolen)
            } else {
                String::new()
            }
        );
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"label\":\"{}\",\"wall_seconds\":{:.6},\"accepted\":{},",
                "\"failed\":{},\"completed\":{},\"throughput_jobs_per_sec\":{:.3},",
                "\"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3},\"p999_ms\":{:.3},",
                "\"peak_pages\":{},\"stolen\":{},\"per_shard_completed\":[{}]}}"
            ),
            self.label,
            self.wall,
            self.accepted,
            self.failed,
            self.completed,
            self.throughput,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.p999_ms,
            self.peak_pages,
            self.stolen,
            self.per_shard_completed
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

fn main() {
    let jobs: u64 = opt("--jobs", 32);
    let budget_pages: u64 = opt("--budget-pages", 128);
    let workers: usize = opt("--workers", 4);
    let seed: u64 = opt("--seed", 1996);
    let shards: u32 = opt("--shards", 1);
    let nodes: u32 = opt("--nodes", 1);
    let policy_name: String = opt("--policy", "fifo".to_string());
    let placement_name: String = opt("--placement", "pred".to_string());
    let Some(policy) = AdmissionPolicy::from_name(&policy_name) else {
        eprintln!("--policy: unknown policy '{policy_name}' (fifo | spf)");
        std::process::exit(2);
    };
    let Some(placement) = PlacementKind::from_name(&placement_name) else {
        eprintln!("--placement: unknown placement '{placement_name}' (rr | load | pred)");
        std::process::exit(2);
    };
    let machine = match machine_override() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("--machine-profile: {e}");
            std::process::exit(2);
        }
    };

    if nodes > 1 {
        if shards > 1 {
            eprintln!("--nodes and --shards are separate sweeps; pick one");
            std::process::exit(2);
        }
        cluster_sweep(jobs, budget_pages, workers, seed, nodes, machine);
        return;
    }

    if shards > 1 {
        sweep(
            jobs,
            budget_pages,
            workers,
            seed,
            shards,
            policy,
            placement,
            machine,
        );
        return;
    }

    let arrival: String = opt("--arrival", "closed".to_string());
    let gaps = match arrival_gaps(&arrival, seed, jobs) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("--arrival: {e}");
            std::process::exit(2);
        }
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut start_cfg = ServeConfig::sim(budget_pages * PAGE, workers).with_policy(policy);
    if let Some(m) = machine {
        start_cfg = start_cfg.with_machine(m);
    }
    let svc = match Service::start(start_cfg) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    let mut accepted = 0u64;
    for i in 0..jobs {
        if let Some(g) = &gaps {
            // Open loop: arrivals follow the pre-drawn schedule, not
            // the service's completion pace.
            std::thread::sleep(g[i as usize]);
        }
        match svc.submit(random_job(&mut rng, i + 1)) {
            Ok(_) => accepted += 1,
            Err(e) => eprintln!("job {i}: {e}"),
        }
    }
    let (results, stats) = svc.finish();
    let wall = started.elapsed().as_secs_f64();

    let failed = results.iter().filter(|r| r.error.is_some()).count();
    let throughput = accepted as f64 / wall;
    // Quantiles come from the service's latency histogram, not a
    // sorted sample vector — same numbers a long-running service would
    // report from constant memory.
    let lat = &stats.latency_hist;

    println!(
        "loadgen: {accepted}/{jobs} jobs accepted, policy {}, arrivals {arrival}",
        policy.name()
    );
    println!(
        "budget:     {budget_pages} pages (peak {} pages), {workers} workers",
        stats.peak_budget_bytes / PAGE
    );
    println!(
        "completed:  {} ok, {failed} failed in {wall:.3} s",
        stats.completed
    );
    println!("throughput: {throughput:.1} jobs/s");
    println!(
        "latency:    p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, p99.9 {:.1} ms",
        lat.p50() * 1e3,
        lat.p90() * 1e3,
        lat.p99() * 1e3,
        lat.p999() * 1e3
    );
    println!(
        "queue wait: {:.3} s total across jobs; exec {:.3} s",
        stats.queue_wait_seconds, stats.exec_wall_seconds
    );

    mmjoin_bench::maybe_write_json(
        "loadgen",
        &format!(
            concat!(
                "{{\"jobs\":{},\"accepted\":{},\"failed\":{},\"policy\":\"{}\",",
                "\"arrival\":\"{}\",",
                "\"budget_pages\":{},\"workers\":{},\"wall_seconds\":{:.6},",
                "\"throughput_jobs_per_sec\":{:.3},",
                "\"latency\":{},",
                "\"service\":{}}}"
            ),
            jobs,
            accepted,
            failed,
            policy.name(),
            arrival,
            budget_pages,
            workers,
            wall,
            throughput,
            lat.to_json(),
            stats.to_json()
        ),
    );

    assert!(
        stats.peak_budget_bytes <= budget_pages * PAGE,
        "admission exceeded the global budget"
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Run the identical contended job list through the single-queue
/// service and the sharded service, and compare.
#[allow(clippy::too_many_arguments)]
fn sweep(
    jobs: u64,
    budget_pages: u64,
    workers: usize,
    seed: u64,
    shards: u32,
    policy: AdmissionPolicy,
    placement: PlacementKind,
    machine: Option<std::sync::Arc<mmjoin_env::machine::MachineParams>>,
) {
    let spec_str: String = opt("--fault-spec", CONTENDED_SPEC.to_string());
    let fault_spec = match FaultSpec::parse(&spec_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--fault-spec: {e}");
            std::process::exit(2);
        }
    };
    // One fixed job list: both services see the same arrivals in the
    // same order, so the comparison isolates the service structure.
    let mut rng = StdRng::seed_from_u64(seed);
    let reqs: Vec<JobRequest> = (0..jobs).map(|i| random_job(&mut rng, i + 1)).collect();
    let cfg = || {
        let mut c = ServeConfig::sim(budget_pages * PAGE, workers).with_policy(policy);
        c.fault_spec = fault_spec.clone();
        if let Some(m) = &machine {
            c = c.with_machine(m.clone());
        }
        c
    };

    println!(
        "loadgen sweep: {jobs} jobs, budget {budget_pages} pages, \
         {workers} worker(s)/queue, policy {}, fault spec '{spec_str}'",
        policy.name()
    );
    let single = match Service::start(cfg()) {
        Ok(svc) => run("single-queue", Box::new(svc), &reqs),
        Err(e) => {
            eprintln!("cannot start single-queue service: {e}");
            std::process::exit(2);
        }
    };
    single.print();
    let sharded = match ShardedService::start(cfg(), shards, placement.build()) {
        Ok(svc) => run(
            &format!("{shards}-shard/{}", placement.name()),
            Box::new(svc),
            &reqs,
        ),
        Err(e) => {
            eprintln!("cannot start sharded service: {e}");
            std::process::exit(2);
        }
    };
    sharded.print();

    let speedup = sharded.throughput / single.throughput;
    println!(
        "speedup:     {speedup:.2}x throughput, p99 {:.1} ms -> {:.1} ms",
        single.p99_ms, sharded.p99_ms
    );

    mmjoin_bench::maybe_write_json(
        "loadgen_shards",
        &format!(
            concat!(
                "{{\"jobs\":{},\"seed\":{},\"budget_pages\":{},\"workers_per_queue\":{},",
                "\"shards\":{},\"policy\":\"{}\",\"placement\":\"{}\",",
                "\"fault_spec\":\"{}\",\"speedup\":{:.3},",
                "\"single\":{},\"sharded\":{},",
                "\"single_service\":{},\"sharded_service\":{}}}"
            ),
            jobs,
            seed,
            budget_pages,
            workers,
            shards,
            policy.name(),
            placement.name(),
            spec_str,
            speedup,
            single.to_json(),
            sharded.to_json(),
            single.stats_json,
            sharded.stats_json
        ),
    );

    assert!(
        single.peak_pages <= budget_pages && sharded.peak_pages <= budget_pages,
        "admission exceeded the global budget"
    );
    if single.failed + sharded.failed > 0 {
        std::process::exit(1);
    }
}

/// One coordinator run's worth of reportable numbers.
struct ClusterRun {
    label: String,
    nodes: u32,
    wall: f64,
    accepted: u64,
    failed: u64,
    completed: u64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    requeued: u64,
    node_losses: u64,
    duplicate_completions: u64,
    budget_leak_bytes: u64,
    stats_json: String,
}

impl ClusterRun {
    fn print(&self) {
        println!(
            "{:<14} {:>8.3} s  {:>7.1} jobs/s  p50 {:>7.1} ms  p99 {:>8.1} ms  \
             {} ok / {} failed{}",
            self.label,
            self.wall,
            self.throughput,
            self.p50_ms,
            self.p99_ms,
            self.completed - self.failed,
            self.failed,
            if self.node_losses > 0 {
                format!(
                    "  ({} lost node(s), {} requeue(s))",
                    self.node_losses, self.requeued
                )
            } else {
                String::new()
            }
        );
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"label\":\"{}\",\"nodes\":{},\"wall_seconds\":{:.6},\"accepted\":{},",
                "\"failed\":{},\"completed\":{},\"throughput_jobs_per_sec\":{:.3},",
                "\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"requeued\":{},\"node_losses\":{},",
                "\"duplicate_completions\":{},\"budget_leak_bytes\":{},\"cluster\":{}}}"
            ),
            self.label,
            self.nodes,
            self.wall,
            self.accepted,
            self.failed,
            self.completed,
            self.throughput,
            self.p50_ms,
            self.p99_ms,
            self.requeued,
            self.node_losses,
            self.duplicate_completions,
            self.budget_leak_bytes,
            self.stats_json
        )
    }
}

/// Run the fixed job list through a coordinator over `node_count`
/// in-process worker nodes (real TCP). With `kill_after`, node 0 is
/// killed as soon as that many results have landed, forcing its queued
/// and in-flight jobs onto the survivors.
fn run_cluster(
    label: &str,
    node_count: u32,
    kill_after: Option<usize>,
    reqs: &[JobRequest],
    node_cfg: &dyn Fn() -> ServeConfig,
) -> ClusterRun {
    let nodes: Vec<NodeServer> = (0..node_count)
        .map(|i| {
            NodeServer::start("127.0.0.1:0", &format!("bench-{i}"), node_cfg()).unwrap_or_else(
                |e| {
                    eprintln!("cannot start node {i}: {e}");
                    std::process::exit(2);
                },
            )
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let cfg = ClusterConfig::new(addrs)
        .with_heartbeat(Duration::from_millis(20))
        .with_timeout(Duration::from_millis(250))
        .with_retry(RetryPolicy::attempts(6));
    let co = match Coordinator::start(cfg) {
        Ok(co) => co,
        Err(e) => {
            eprintln!("cannot start coordinator: {e}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    let mut accepted = 0u64;
    for (i, req) in reqs.iter().enumerate() {
        match co.submit(req.clone()) {
            Ok(_) => accepted += 1,
            Err(e) => eprintln!("{label}: job {i}: {e}"),
        }
    }
    if let Some(after) = kill_after {
        // Wait for the first third of the results, then take node 0
        // out from under its remaining claims.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while co.results().len() < after && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        nodes[0].kill();
    }
    let (_, stats) = co.finish();
    let wall = started.elapsed().as_secs_f64();
    ClusterRun {
        label: label.to_string(),
        nodes: node_count,
        wall,
        accepted,
        failed: stats.failed,
        completed: stats.completed,
        throughput: accepted as f64 / wall,
        p50_ms: stats.latency.p50() * 1e3,
        p99_ms: stats.latency.p99() * 1e3,
        requeued: stats.requeued,
        node_losses: stats.node_losses,
        duplicate_completions: stats.duplicate_completions,
        budget_leak_bytes: stats.budget_leak_bytes,
        stats_json: stats.to_json(),
    }
}

/// The `--nodes N` cluster sweep: the same contended job list through
/// one node, through N nodes, and through N nodes with node 0 killed
/// mid-run. Asserts zero lost, failed or leaked jobs in every leg. The
/// 1→N throughput ratio is reported, not asserted: on a 2-CPU host two
/// in-process nodes mostly share the cores one node already had.
fn cluster_sweep(
    jobs: u64,
    budget_pages: u64,
    workers: usize,
    seed: u64,
    nodes: u32,
    machine: Option<std::sync::Arc<mmjoin_env::machine::MachineParams>>,
) {
    let spec_str: String = opt("--fault-spec", CONTENDED_SPEC.to_string());
    let fault_spec = match FaultSpec::parse(&spec_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--fault-spec: {e}");
            std::process::exit(2);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let reqs: Vec<JobRequest> = (0..jobs).map(|i| random_job(&mut rng, i + 1)).collect();
    let node_cfg = || {
        let mut c = ServeConfig::sim(budget_pages * PAGE, workers);
        c.fault_spec = fault_spec.clone();
        if let Some(m) = &machine {
            c = c.with_machine(m.clone());
        }
        c
    };

    println!(
        "loadgen cluster sweep: {jobs} jobs, {budget_pages} pages and \
         {workers} worker(s) per node, fault spec '{spec_str}'"
    );
    let single = run_cluster("1-node", 1, None, &reqs, &node_cfg);
    single.print();
    let multi = run_cluster(&format!("{nodes}-node"), nodes, None, &reqs, &node_cfg);
    multi.print();
    let kill_after = (jobs as usize / 3).max(1);
    let chaos = run_cluster(
        &format!("{nodes}-node-chaos"),
        nodes,
        Some(kill_after),
        &reqs,
        &node_cfg,
    );
    chaos.print();

    let scaling = multi.throughput / single.throughput;
    println!(
        "scaling:       {scaling:.2}x throughput 1 -> {nodes} nodes, p99 {:.1} ms -> {:.1} ms",
        single.p99_ms, multi.p99_ms
    );

    mmjoin_bench::maybe_write_json(
        "loadgen_cluster",
        &format!(
            concat!(
                "{{\"jobs\":{},\"seed\":{},\"budget_pages\":{},\"workers_per_node\":{},",
                "\"nodes\":{},\"fault_spec\":\"{}\",\"scaling\":{:.3},",
                "\"single\":{},\"multi\":{},\"chaos\":{}}}"
            ),
            jobs,
            seed,
            budget_pages,
            workers,
            nodes,
            spec_str,
            scaling,
            single.to_json(),
            multi.to_json(),
            chaos.to_json()
        ),
    );

    // Zero lost jobs in every leg — including the one that lost a node.
    for run in [&single, &multi, &chaos] {
        assert_eq!(
            run.completed,
            run.accepted,
            "{}: {} of {} jobs went missing",
            run.label,
            run.accepted - run.completed,
            run.accepted
        );
        assert_eq!(run.failed, 0, "{}: {} jobs failed", run.label, run.failed);
        assert_eq!(
            run.budget_leak_bytes, 0,
            "{}: budget accounting leaked",
            run.label
        );
    }
    assert_eq!(
        chaos.node_losses, 1,
        "chaos leg must lose exactly the killed node"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_mode_has_no_gaps() {
        assert!(arrival_gaps("closed", 1, 8).unwrap().is_none());
    }

    #[test]
    fn poisson_gaps_are_seed_deterministic_with_the_right_mean() {
        let a = arrival_gaps("poisson:200", 42, 4096).unwrap().unwrap();
        let b = arrival_gaps("poisson:200", 42, 4096).unwrap().unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        let c = arrival_gaps("poisson:200", 43, 4096).unwrap().unwrap();
        assert_ne!(a, c, "different seed, different schedule");
        let mean = a.iter().map(|d| d.as_secs_f64()).sum::<f64>() / a.len() as f64;
        // Exp(200) has mean 5 ms; 4096 draws put the sample mean well
        // within 20% of it.
        assert!((mean - 0.005).abs() < 0.001, "mean gap {mean}");
    }

    #[test]
    fn malformed_arrival_modes_are_rejected() {
        assert!(arrival_gaps("poisson:0", 1, 8).is_err());
        assert!(arrival_gaps("poisson:-3", 1, 8).is_err());
        assert!(arrival_gaps("poisson:x", 1, 8).is_err());
        assert!(arrival_gaps("uniform:5", 1, 8).is_err());
    }
}

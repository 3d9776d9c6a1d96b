//! Sharded-service invariants, from two angles:
//!
//! * **model properties** over the budget partition and the stock
//!   placement — for any budget, shard count, and job mix,
//!   per-shard admission against the shard slices can never commit more
//!   than the global budget, and merging per-shard stats snapshots is
//!   indistinguishable from folding every job into one snapshot
//!   (bucket-exact on all four histograms);
//! * **end-to-end runs** of [`ShardedService`], checking the same
//!   invariants against the real bookkeeping (per-shard peaks within
//!   per-shard slices, slices summing to the global budget, merged
//!   counters consistent) and that the shard count never changes a
//!   job's output, and of [`Service`], which is that scheduler with one
//!   shard.

use mmjoin::Algo;
use mmjoin_serve::{
    Candidate, JobRequest, JobResult, JoinService, PlacementKind, ServeConfig, Service,
    ServiceStats, ShardLoad, ShardedService, PAGE,
};
use proptest::prelude::*;

/// The sharded service's budget partition: quotient split, remainder
/// bytes spread over the first shards (mirrors `ShardedService::start`).
fn slices(budget: u64, shards: u32) -> Vec<u64> {
    let n = shards.max(1) as u64;
    (0..n)
        .map(|i| budget / n + u64::from(i < budget % n))
        .collect()
}

/// A synthetic finished job for stats-merge properties.
fn synth_result(id: u64, queue_wait: f64, exec_wall: f64, ok: bool, degraded: u32) -> JobResult {
    JobResult {
        id,
        shard: 0,
        name: String::new(),
        alg: Algo::Grace,
        predicted_seconds: 1.0,
        pairs: if ok { 10 } else { 0 },
        checksum: 0xfeed,
        verified: ok,
        env_elapsed: queue_wait + exec_wall,
        queue_wait,
        exec_wall,
        read_faults: 5,
        write_backs: 2,
        attempts: 1 + degraded,
        retries: u64::from(!ok),
        faults_injected: u64::from(degraded > 0),
        degraded,
        released_bytes: 0,
        cleaned_files: 0,
        panicked: false,
        resumed: false,
        error: if ok { None } else { Some("synthetic".into()) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slices are an exact, near-even partition: they sum to the
    /// global budget and differ by at most one byte.
    #[test]
    fn shard_slices_partition_the_global_budget(
        budget in 0u64..(1 << 40),
        shards in 1u32..16,
    ) {
        let s = slices(budget, shards);
        prop_assert_eq!(s.len(), shards as usize);
        prop_assert_eq!(s.iter().sum::<u64>(), budget);
        prop_assert!(s.iter().max().unwrap() - s.iter().min().unwrap() <= 1);
    }

    /// For any job mix, driving the stock placement over live load
    /// snapshots and admitting each shard's
    /// queue against its own slice never commits more than the global
    /// budget in total — and a placed job always fits its shard's
    /// slice, while a rejected job fits no slice.
    #[test]
    fn reserved_bytes_never_exceed_the_global_budget(
        budget in 1u64..100_000,
        shards in 1u32..8,
        jobs in proptest::collection::vec((1u64..50_000, 0.0f64..100.0), 1..64),
    ) {
        let placement = PlacementKind::default().build();
        let slices = slices(budget, shards);
        let max_slice = *slices.iter().max().unwrap();
        let mut used = vec![0u64; slices.len()];
        let mut queued: Vec<Vec<(u64, f64)>> = vec![Vec::new(); slices.len()];
        for (footprint, predicted_seconds) in jobs {
            let cand = Candidate { footprint, predicted_seconds };
            let loads: Vec<ShardLoad> = slices
                .iter()
                .enumerate()
                .map(|(i, &b)| ShardLoad {
                    shard: i as u32,
                    budget_bytes: b,
                    reserved_bytes: used[i] + queued[i].iter().map(|q| q.0).sum::<u64>(),
                    queued: queued[i].len(),
                    backlog_seconds: queued[i].iter().map(|q| q.1).sum(),
                })
                .collect();
            match placement.place(&cand, &loads) {
                None => prop_assert!(
                    footprint > max_slice,
                    "rejected a job ({footprint} B) that fits a slice ({max_slice} B)"
                ),
                Some(k) => {
                    prop_assert!(k < slices.len());
                    prop_assert!(
                        footprint <= slices[k],
                        "placed a {footprint} B job on a {} B slice",
                        slices[k]
                    );
                    queued[k].push((footprint, predicted_seconds));
                }
            }
            // Each shard admits FIFO against its own slice — the only
            // admission rule the sharded service has.
            for k in 0..slices.len() {
                while let Some(&(fp, _)) = queued[k].first() {
                    if used[k] + fp > slices[k] {
                        break;
                    }
                    queued[k].remove(0);
                    used[k] += fp;
                }
                prop_assert!(used[k] <= slices[k]);
            }
            prop_assert!(
                used.iter().sum::<u64>() <= budget,
                "committed {} B of a {budget} B global budget",
                used.iter().sum::<u64>()
            );
        }
    }

    /// Scattering jobs across per-shard stats snapshots and merging
    /// them equals folding every job into one single-queue snapshot:
    /// identical counters and bucket-exact histograms, regardless of
    /// how jobs land on shards.
    #[test]
    fn merged_shard_stats_match_a_single_queue_fold(
        shards in 1usize..6,
        jobs in proptest::collection::vec(
            (0.0f64..5.0, 0.0f64..5.0, proptest::bool::ANY, 0u32..3, 0usize..8),
            1..80,
        ),
    ) {
        let mut per: Vec<ServiceStats> = vec![ServiceStats::default(); shards];
        let mut single = ServiceStats::default();
        for (i, &(queue_wait, exec_wall, ok, degraded, shard_sel)) in jobs.iter().enumerate() {
            let r = synth_result(i as u64 + 1, queue_wait, exec_wall, ok, degraded);
            let shard = &mut per[shard_sel % shards];
            shard.submitted += 1;
            shard.record(&r, None, None);
            single.submitted += 1;
            single.record(&r, None, None);
        }
        let mut merged = ServiceStats::default();
        for s in &per {
            merged.merge(s);
        }
        prop_assert_eq!(merged.submitted, single.submitted);
        prop_assert_eq!(merged.completed, single.completed);
        prop_assert_eq!(merged.failed, single.failed);
        prop_assert_eq!(merged.degraded, single.degraded);
        prop_assert_eq!(merged.retries, single.retries);
        prop_assert_eq!(merged.in_flight(), single.in_flight());
        for (m, s, name) in [
            (&merged.latency_hist, &single.latency_hist, "latency"),
            (&merged.queue_hist, &single.queue_hist, "queue"),
            (&merged.exec_hist, &single.exec_hist, "exec"),
            (&merged.pass_hist, &single.pass_hist, "pass"),
        ] {
            prop_assert_eq!(m.buckets(), s.buckets(), "{} buckets diverge", name);
            prop_assert_eq!(m.count(), s.count(), "{} count diverges", name);
            prop_assert_eq!(m.min(), s.min(), "{} min diverges", name);
            prop_assert_eq!(m.max(), s.max(), "{} max diverges", name);
        }
    }
}

/// End-to-end: a real sharded run keeps every shard's peak within its
/// own slice, the slices sum to the global budget, and the merged stats
/// agree with the per-shard ones.
#[test]
fn sharded_runs_respect_per_shard_budgets() {
    let global = 64 * PAGE;
    let svc = ShardedService::start(
        ServeConfig::sim(global, 1),
        4,
        PlacementKind::default().build(),
    )
    .unwrap();
    let budgets = svc.shard_budgets();
    assert_eq!(budgets.iter().sum::<u64>(), global);
    // 8 jobs of 8 pages each against 16-page slices: oversubscribed
    // globally, so queues engage.
    for seed in 0..8 {
        svc.submit(JobRequest::new(1_000, 32, 2, 4, 200 + seed))
            .unwrap();
    }
    svc.drain();
    let per = svc.shard_stats();
    assert_eq!(per.len(), 4);
    for (i, s) in per.iter().enumerate() {
        assert_eq!(s.budget_bytes, budgets[i], "shard {i}");
        assert!(
            s.peak_budget_bytes <= s.budget_bytes,
            "shard {i}: peak {} exceeds slice {}",
            s.peak_budget_bytes,
            s.budget_bytes
        );
        assert_eq!(s.budget_leak_bytes, 0, "shard {i}");
    }
    let merged = svc.stats();
    assert_eq!(merged.completed, 8);
    assert_eq!(merged.failed, 0);
    assert_eq!(merged.in_flight(), 0);
    assert_eq!(
        merged.completed,
        per.iter().map(|s| s.completed).sum::<u64>()
    );
    assert!(merged.peak_budget_bytes <= merged.budget_bytes);
    let results = svc.results();
    assert_eq!(results.len(), 8);
    assert!(results.iter().all(|r| r.verified && r.error.is_none()));
    // Every result names a real shard.
    assert!(results.iter().all(|r| (r.shard as usize) < per.len()));
}

/// The shard count decides where a job runs, never what it computes:
/// one seeded job list — fixed and `plan=auto` lines, uniform, zipf and
/// cross-partition pointers — yields the same `(name, alg, pairs,
/// checksum)` multiset through 1, 2 and 4 shards.
#[test]
fn results_do_not_depend_on_shard_count() {
    const SCRIPT: &str = "\
name=a alg=grace objects=900 obj-size=32 d=2 mem-pages=8 seed=11
name=b alg=sort-merge objects=800 obj-size=32 d=2 mem-pages=8 seed=12 dist=zipf:0.8
name=c objects=1000 obj-size=32 d=2 mem-pages=8 seed=13 plan=auto
name=d alg=hybrid-hash objects=700 obj-size=32 d=2 mem-pages=8 seed=14 dist=cross
name=e objects=800 obj-size=32 d=2 mem-pages=8 seed=15 dist=zipf:0.5 plan=auto
name=f alg=nested-loops objects=600 obj-size=32 d=2 mem-pages=8 seed=16
";
    let run = |shards: u32| {
        let svc = ShardedService::start(
            ServeConfig::sim(128 * PAGE, 1),
            shards,
            PlacementKind::default().build(),
        )
        .unwrap();
        svc.submit_script(SCRIPT).unwrap();
        let (results, _) = svc.finish();
        assert!(
            results.iter().all(|r| r.verified && r.error.is_none()),
            "{shards} shard(s): {results:?}"
        );
        let mut outputs: Vec<(String, &str, u64, u64)> = results
            .iter()
            .map(|r| (r.name.clone(), r.alg.name(), r.pairs, r.checksum))
            .collect();
        outputs.sort();
        outputs
    };
    let one = run(1);
    assert_eq!(one.len(), 6);
    for shards in [2, 4] {
        assert_eq!(run(shards), one, "{shards} shards");
    }
}

/// `Service` is a one-shard `ShardedService`: its merged stats are its
/// single shard's snapshot plus the counters kept globally (rejections
/// and the journal), because merging one snapshot into the default is
/// the identity — byte-identical JSON, bucket-exact histograms.
#[test]
fn service_is_its_single_shard() {
    let dir = std::env::temp_dir().join(format!("mmjoin-one-shard-{}", std::process::id()));
    let svc = Service::start(ServeConfig::sim(32 * PAGE, 2).with_journal(dir.clone())).unwrap();
    for seed in 0..6 {
        svc.submit(JobRequest::new(1_000, 32, 2, 4, 300 + seed))
            .unwrap();
    }
    // 64 pages against a 32-page budget: counted globally, not per shard.
    svc.submit(JobRequest::new(1_000, 32, 2, 32, 1))
        .unwrap_err();
    svc.drain();
    assert_eq!(JoinService::shards(&svc), 1);
    let per = svc.shard_stats();
    assert_eq!(per.len(), 1);
    let stats = svc.stats();
    assert_eq!((stats.completed, stats.rejected), (6, 1));
    assert!(stats.journal_commits >= 12, "{stats:?}");
    let expected = ServiceStats {
        rejected: stats.rejected,
        journal_appended_records: stats.journal_appended_records,
        journal_commits: stats.journal_commits,
        journal_syncs: stats.journal_syncs,
        ..per[0].clone()
    };
    assert_eq!(stats.to_json(), expected.to_json());
    for (m, s) in [
        (&stats.latency_hist, &per[0].latency_hist),
        (&stats.queue_hist, &per[0].queue_hist),
        (&stats.exec_hist, &per[0].exec_hist),
        (&stats.pass_hist, &per[0].pass_hist),
    ] {
        assert_eq!(m.buckets(), s.buckets());
    }
    let (results, finished) = svc.finish();
    assert_eq!(results.len(), 6);
    assert_eq!(finished.to_json(), stats.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

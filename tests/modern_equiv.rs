//! Differential testing of the `--modern` execution mode: for any
//! workload shape, seed, and pointer distribution, the cache-conscious
//! kernels must produce the *identical* join — same pair count, same
//! order-independent checksum — as the faithful 1996 inner loops, on
//! both environments, for every algorithm. The faithful result itself
//! is verified against the workload oracle, so agreement here means
//! both are exactly right, not merely consistent.

use std::sync::Arc;

use mmjoin::{join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_env::{CollectingSink, Env, TraceEvent, TraceSink};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
use mmjoin_vmsim::{SimConfig, SimEnv};
use proptest::prelude::*;

const PAGE: u64 = 4096;

fn workload(objects_per_disk: u64, d: u32, seed: u64, dist: PointerDist) -> WorkloadSpec {
    WorkloadSpec {
        rel: RelConfig {
            r_size: 32,
            s_size: 32,
            d,
            r_objects: objects_per_disk * d as u64,
            s_objects: objects_per_disk * d as u64,
        },
        dist,
        seed,
        prefix: String::new(),
    }
}

fn sim(d: u32, pages: usize) -> SimEnv {
    let mut cfg = SimConfig::waterloo96(d);
    cfg.rproc_pages = pages;
    cfg.sproc_pages = pages;
    SimEnv::new(cfg).expect("valid test config")
}

fn mmap_env(d: u32, tag: &str) -> (MmapEnv, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("mmjoin-modern-{}-{tag}-{d}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = MmapEnv::new(MmapEnvConfig {
        root: root.clone(),
        num_disks: d,
        page_size: 4096,
    })
    .expect("mmap env");
    (env, root)
}

/// Build the workload on `env`, join with `mode`, verify against the
/// oracle, and return `(pairs, checksum)`.
fn run_mode<E: Env>(
    env: &E,
    w: &WorkloadSpec,
    alg: Algo,
    pages: u64,
    mode: ExecMode,
) -> (u64, u64) {
    let rels = build(env, w).expect("workload builds");
    let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(mode);
    let out =
        join(env, &rels, alg, &spec).unwrap_or_else(|e| panic!("{} {mode:?}: {e}", alg.name()));
    verify(&out, &rels).unwrap_or_else(|e| panic!("{} {mode:?} vs oracle: {e}", alg.name()));
    (out.pairs, out.checksum)
}

const DIFF_ALGOS: [Algo; 4] = [
    Algo::NestedLoops,
    Algo::SortMerge,
    Algo::Grace,
    Algo::HybridHash,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The differential property: over random sizes, seeds, memory
    /// budgets, and skewed + uniform pointer distributions, modern mode
    /// equals faithful mode for every algorithm on the simulator.
    #[test]
    fn modern_equals_faithful_on_sim(
        objects in 50u64..400,
        d in 1u32..=4,
        seed in 0u64..5_000,
        pages in 6u64..=16,
        dist_idx in 0usize..4,
    ) {
        let dist = match dist_idx {
            0 => PointerDist::Uniform,
            1 => PointerDist::Zipf { theta: 0.6 },
            2 => PointerDist::Zipf { theta: 1.1 },
            _ => PointerDist::CrossPartition,
        };
        let w = workload(objects, d, seed, dist);
        for alg in DIFF_ALGOS {
            let faithful = run_mode(&sim(d, pages as usize), &w, alg, pages, ExecMode::Sequential);
            let modern = run_mode(&sim(d, pages as usize), &w, alg, pages, ExecMode::Modern);
            prop_assert_eq!(faithful.0, modern.0, "pairs ({})", alg.name());
            prop_assert_eq!(faithful.1, modern.1, "checksum ({})", alg.name());
        }
    }
}

/// The same differential statement on the real memory-mapped store,
/// faithful threaded vs modern, uniform pointers.
#[test]
fn modern_equals_faithful_on_mmap() {
    let w = workload(1_000, 4, 31, PointerDist::Uniform);
    for alg in Algo::ALL {
        let (fe, froot) = mmap_env(4, &format!("f-{}", alg.name()));
        let faithful = run_mode(&fe, &w, alg, 24, ExecMode::Threaded);
        std::fs::remove_dir_all(&froot).expect("cleanup");

        let (me, mroot) = mmap_env(4, &format!("m-{}", alg.name()));
        let modern = run_mode(&me, &w, alg, 24, ExecMode::Modern);
        std::fs::remove_dir_all(&mroot).expect("cleanup");

        assert_eq!(faithful, modern, "{}", alg.name());
    }
}

/// Cross-partition skew (every pointer leaves its home partition) on
/// the mmap store: the radix scatter and run exchange carry the whole
/// relation, and the answer must not change.
#[test]
fn modern_survives_cross_partition_skew_on_mmap() {
    let w = workload(500, 4, 7, PointerDist::CrossPartition);
    for alg in DIFF_ALGOS {
        let (fe, froot) = mmap_env(4, &format!("xf-{}", alg.name()));
        let faithful = run_mode(&fe, &w, alg, 24, ExecMode::Threaded);
        std::fs::remove_dir_all(&froot).expect("cleanup");

        let (me, mroot) = mmap_env(4, &format!("xm-{}", alg.name()));
        let modern = run_mode(&me, &w, alg, 24, ExecMode::Modern);
        std::fs::remove_dir_all(&mroot).expect("cleanup");

        assert_eq!(faithful, modern, "{}", alg.name());
    }
}

/// Zipf-skewed pointers agree too (hot S-objects probed many times in
/// one batch).
#[test]
fn modern_survives_zipf_skew_on_sim() {
    let w = workload(800, 2, 19, PointerDist::Zipf { theta: 1.2 });
    for alg in DIFF_ALGOS {
        let faithful = run_mode(&sim(2, 16), &w, alg, 16, ExecMode::Sequential);
        let modern = run_mode(&sim(2, 16), &w, alg, 16, ExecMode::Modern);
        assert_eq!(faithful, modern, "{}", alg.name());
    }
}

/// Above the kernels' radix cutoff: ~20 000 skewed objects over an odd
/// `D` give runs of thousands of pairs, so the radix sort, the
/// three-run pairwise merge and the sorted bucket boundaries all run,
/// on both environments.
#[test]
fn modern_equals_faithful_above_the_radix_cutoff() {
    let d = 3;
    let w = workload(6_700, d, 23, PointerDist::Zipf { theta: 1.1 });
    for alg in DIFF_ALGOS {
        let faithful = run_mode(&sim(d, 16), &w, alg, 16, ExecMode::Sequential);
        let modern = run_mode(&sim(d, 16), &w, alg, 16, ExecMode::Modern);
        assert_eq!(faithful, modern, "{} on sim", alg.name());

        let (fe, froot) = mmap_env(d, &format!("rf-{}", alg.name()));
        let faithful = run_mode(&fe, &w, alg, 24, ExecMode::Threaded);
        std::fs::remove_dir_all(&froot).expect("cleanup");
        let (me, mroot) = mmap_env(d, &format!("rm-{}", alg.name()));
        let modern = run_mode(&me, &w, alg, 24, ExecMode::Modern);
        std::fs::remove_dir_all(&mroot).expect("cleanup");
        assert_eq!(faithful, modern, "{} on mmap", alg.name());
    }
}

/// Modern traces keep the paper's schedule invariants: every
/// `PassStart` has a matching `PassEnd`, and within each `(pass,
/// phase)` label every disk is owned by exactly one proc. The kernel
/// events must show up too.
#[test]
fn modern_trace_keeps_schedule_invariants() {
    let d = 4u32;
    for alg in DIFF_ALGOS {
        let env = sim(d, 16);
        let sink = CollectingSink::new();
        env.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
        let w = workload(200, d, 3, PointerDist::Uniform);
        run_mode(&env, &w, alg, 16, ExecMode::Modern);

        let events = sink.events();
        let mut starts: Vec<(u32, u32, u32, u32, String)> = Vec::new();
        let mut ends: Vec<(u32, u32, u32, u32, String)> = Vec::new();
        let mut radix = 0u32;
        let mut merges = 0u32;
        let mut probes = 0u32;
        for e in &events {
            match e {
                TraceEvent::PassStart {
                    proc,
                    pass,
                    phase,
                    disk,
                    area,
                } => starts.push((*proc, *pass, *phase, *disk, area.clone())),
                TraceEvent::PassEnd {
                    proc,
                    pass,
                    phase,
                    disk,
                    area,
                    ..
                } => ends.push((*proc, *pass, *phase, *disk, area.clone())),
                TraceEvent::KernelRadix { .. } => radix += 1,
                TraceEvent::KernelMerge { .. } => merges += 1,
                TraceEvent::KernelProbe { .. } => probes += 1,
                _ => {}
            }
        }
        let mut s = starts.clone();
        let mut e = ends.clone();
        s.sort();
        e.sort();
        assert_eq!(s, e, "{}: unbalanced pass events", alg.name());

        // Per (pass, phase) label: the disks must be exactly 0..d, each
        // owned by exactly one proc.
        let mut groups: std::collections::BTreeMap<(u32, u32), Vec<u32>> =
            std::collections::BTreeMap::new();
        for (_, pass, phase, disk, _) in &starts {
            groups.entry((*pass, *phase)).or_default().push(*disk);
        }
        for ((pass, phase), mut disks) in groups {
            disks.sort_unstable();
            assert_eq!(
                disks,
                (0..d).collect::<Vec<_>>(),
                "{}: pass {pass} phase {phase} does not own each disk exactly once",
                alg.name()
            );
        }

        assert!(
            radix >= d,
            "{}: expected a radix kernel per proc",
            alg.name()
        );
        assert!(probes >= d, "{}: expected probe kernels", alg.name());
        if alg == Algo::SortMerge {
            assert_eq!(merges, d, "sort-merge runs one merge-scan per owner");
        }
    }
}

/// Two tagged modern runs on one shared environment are bitwise
/// deterministic (and the second cannot be poisoned by the first —
/// arenas and shared slots are per-run).
#[test]
fn modern_repeat_runs_are_deterministic() {
    let env = sim(2, 16);
    let w = workload(400, 2, 41, PointerDist::Zipf { theta: 0.8 });
    let rels = build(&env, &w).expect("workload builds");
    let mut outs = Vec::new();
    for t in 0..2 {
        let spec = JoinSpec::new(16 * PAGE, 16 * PAGE)
            .with_mode(ExecMode::Modern)
            .with_tag(&format!("rep{t}"));
        let out = join(&env, &rels, Algo::SortMerge, &spec).expect("join runs");
        verify(&out, &rels).expect("matches oracle");
        outs.push((out.pairs, out.checksum));
    }
    assert_eq!(outs[0], outs[1]);
}

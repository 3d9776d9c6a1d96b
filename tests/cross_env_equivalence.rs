//! Cross-environment equivalence: every algorithm must produce the
//! identical join (pair count and order-independent checksum) on the
//! execution-driven simulator and on the real memory-mapped store —
//! and both must match the workload generator's oracle.
//!
//! This is the reproduction's strongest correctness statement: the same
//! algorithm text, two radically different machines, one answer.

use std::sync::Arc;

use mmjoin::{join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_env::{CollectingSink, FaultSpec, FaultyEnv, TraceEvent, TraceSink};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
use mmjoin_vmsim::{SimConfig, SimEnv};

fn workload(d: u32, objects: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        rel: RelConfig {
            r_size: 64,
            s_size: 64,
            d,
            r_objects: objects,
            s_objects: objects,
        },
        dist: PointerDist::Uniform,
        seed,
        prefix: String::new(),
    }
}

fn sim_env(d: u32) -> SimEnv {
    let mut cfg = SimConfig::waterloo96(d);
    cfg.rproc_pages = 24;
    cfg.sproc_pages = 24;
    SimEnv::new(cfg).unwrap()
}

fn mmap_env(d: u32, tag: &str) -> (MmapEnv, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("mmjoin-xenv-{}-{tag}-{d}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = MmapEnv::new(MmapEnvConfig {
        root: root.clone(),
        num_disks: d,
        page_size: 4096,
    })
    .unwrap();
    (env, root)
}

#[test]
fn identical_results_on_sim_and_mmap() {
    let w = workload(4, 4_000, 31);
    for alg in Algo::ALL {
        // Simulator, deterministic sequential execution.
        let sim = sim_env(4);
        let sim_rels = build(&sim, &w).unwrap();
        let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Sequential);
        let sim_out = join(&sim, &sim_rels, alg, &spec).unwrap();

        // Real mmap store, truly threaded Rprocs; S is served in the
        // requesting thread.
        let (mm, root) = mmap_env(4, alg.name());
        let mm_rels = build(&mm, &w).unwrap();
        let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Threaded);
        let mm_out = join(&mm, &mm_rels, alg, &spec).unwrap();
        std::fs::remove_dir_all(&root).unwrap();

        // Same workload (same seed) ⇒ same oracle on both environments.
        assert_eq!(sim_rels.expected_checksum, mm_rels.expected_checksum);
        verify(&sim_out, &sim_rels).unwrap_or_else(|e| panic!("sim {}: {e}", alg.name()));
        verify(&mm_out, &mm_rels).unwrap_or_else(|e| panic!("mmap {}: {e}", alg.name()));
        assert_eq!(sim_out.pairs, mm_out.pairs, "{}", alg.name());
        assert_eq!(sim_out.checksum, mm_out.checksum, "{}", alg.name());
    }
}

#[test]
fn mmap_event_counters_match_sim_protocol_counters() {
    // The declared protocol events (S batches, objects fetched, context
    // switches) are environment-independent facts about the algorithm;
    // both environments must count the same totals.
    let w = workload(2, 2_000, 77);
    for alg in [Algo::NestedLoops, Algo::Grace] {
        let sim = sim_env(2);
        let sim_rels = build(&sim, &w).unwrap();
        let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Sequential);
        let sim_out = join(&sim, &sim_rels, alg, &spec).unwrap();

        let (mm, root) = mmap_env(2, &format!("cnt-{}", alg.name()));
        let mm_rels = build(&mm, &w).unwrap();
        let mm_out = join(&mm, &mm_rels, alg, &spec).unwrap();
        std::fs::remove_dir_all(&root).unwrap();

        let sum = |st: &mmjoin_env::EnvStats, f: fn(&mmjoin_env::ProcStats) -> u64| -> u64 {
            st.procs.iter().map(f).sum()
        };
        assert_eq!(
            sum(&sim_out.stats, |p| p.s_objects),
            sum(&mm_out.stats, |p| p.s_objects),
            "{}",
            alg.name()
        );
        assert_eq!(
            sum(&sim_out.stats, |p| p.s_batches),
            sum(&mm_out.stats, |p| p.s_batches),
            "{}",
            alg.name()
        );
        assert_eq!(
            sum(&sim_out.stats, |p| p.ctx_switches),
            sum(&mm_out.stats, |p| p.ctx_switches),
            "{}",
            alg.name()
        );
    }
}

#[test]
fn trace_event_sequences_match_across_environments() {
    // Events carry no timestamps (the sink record does), so the event
    // *sequence* of a deterministic sequential join is an
    // environment-independent fact: the simulator and the real mmap
    // store must narrate the identical story, payload for payload.
    let w = workload(2, 2_000, 13);
    for alg in [Algo::NestedLoops, Algo::Grace] {
        let sim = sim_env(2);
        let sim_rels = build(&sim, &w).unwrap();
        let sim_sink = CollectingSink::new();
        sim.set_trace_sink(sim_sink.clone() as Arc<dyn TraceSink>);
        let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Sequential);
        join(&sim, &sim_rels, alg, &spec).unwrap();

        let (mm, root) = mmap_env(2, &format!("trace-{}", alg.name()));
        let mm_rels = build(&mm, &w).unwrap();
        let mm_sink = CollectingSink::new();
        mm.set_trace_sink(mm_sink.clone() as Arc<dyn TraceSink>);
        join(&mm, &mm_rels, alg, &spec).unwrap();
        std::fs::remove_dir_all(&root).unwrap();

        let sim_events = sim_sink.events();
        let mm_events = mm_sink.events();
        assert!(!sim_events.is_empty(), "{}", alg.name());
        assert_eq!(
            sim_events.len(),
            mm_events.len(),
            "{}: event counts differ",
            alg.name()
        );
        for (i, (a, b)) in sim_events.iter().zip(&mm_events).enumerate() {
            assert_eq!(a, b, "{}: event {i} differs", alg.name());
        }
    }
}

#[test]
fn empty_fault_spec_adds_zero_trace_events() {
    // FaultyEnv with an empty spec must be a pure passthrough at the
    // trace level too: the exact same event sequence as the bare
    // environment, and in particular no FaultInjected events.
    let w = workload(2, 2_000, 13);
    let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Sequential);

    let bare = sim_env(2);
    let bare_rels = build(&bare, &w).unwrap();
    let bare_sink = CollectingSink::new();
    bare.set_trace_sink(bare_sink.clone() as Arc<dyn TraceSink>);
    join(&bare, &bare_rels, Algo::Grace, &spec).unwrap();

    let inner = sim_env(2);
    let rels = build(&inner, &w).unwrap();
    let sink = CollectingSink::new();
    inner.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let faulty = FaultyEnv::new(inner, FaultSpec::none());
    join(&faulty, &rels, Algo::Grace, &spec).unwrap();

    let events = sink.events();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultInjected { .. })),
        "empty spec must inject nothing"
    );
    assert_eq!(
        bare_sink.events(),
        events,
        "fault wrapper with empty spec must add zero events"
    );
}

#[test]
fn skewed_pointers_agree_across_environments() {
    let mut w = workload(2, 2_000, 5);
    w.dist = PointerDist::Zipf { theta: 0.9 };
    for alg in [Algo::SortMerge, Algo::Grace] {
        let sim = sim_env(2);
        let sim_rels = build(&sim, &w).unwrap();
        let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Sequential);
        let sim_out = join(&sim, &sim_rels, alg, &spec).unwrap();
        verify(&sim_out, &sim_rels).unwrap();

        let (mm, root) = mmap_env(2, &format!("zipf-{}", alg.name()));
        let mm_rels = build(&mm, &w).unwrap();
        let mm_out = join(&mm, &mm_rels, alg, &spec).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        verify(&mm_out, &mm_rels).unwrap();
        assert_eq!(sim_out.checksum, mm_out.checksum);
    }
}

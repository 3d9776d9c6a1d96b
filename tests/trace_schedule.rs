//! Golden-schedule trace tests: the paper's central §5 claim is that
//! pass 1's staggered phases `offset(i,t)` keep every disk owned by
//! exactly one process per phase. Counters cannot show a schedule, so
//! these tests run every partition-based algorithm with a
//! [`CollectingSink`] attached and assert the claim directly on the
//! emitted event stream:
//!
//! * pass-1 phase `t`: the D `PassStart` events name D distinct
//!   processes and D distinct disks, and each process `i` touches
//!   exactly disk `phase_partner(i, t, d) = (i + t) % d`;
//! * pass boundaries nest per process — a `PassEnd` always matches the
//!   most recent open `PassStart`, and no pass-2 event appears before
//!   the process has ended its last pass-1 phase.

use std::collections::BTreeMap;
use std::sync::Arc;

use mmjoin::exec::phase_partner;
use mmjoin::{join, Algo, ExecMode, JoinSpec};
use mmjoin_env::{CollectingSink, TraceEvent, TraceSink};
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
use mmjoin_vmsim::{SimConfig, SimEnv};

/// The algorithms that follow the paper's three-pass structure (the
/// naive baseline deliberately has no schedule to validate).
const STAGED: [Algo; 4] = [
    Algo::NestedLoops,
    Algo::SortMerge,
    Algo::Grace,
    Algo::HybridHash,
];

fn workload(d: u32, objects: u64) -> WorkloadSpec {
    WorkloadSpec {
        rel: RelConfig {
            r_size: 64,
            s_size: 64,
            d,
            r_objects: objects,
            s_objects: objects,
        },
        dist: PointerDist::Uniform,
        seed: 1996,
        prefix: String::new(),
    }
}

/// Run `alg` on a fresh simulator with a collecting sink attached
/// *after* the relations are built, so the trace covers the join only.
fn traced_events(alg: Algo, d: u32, objects: u64) -> Vec<TraceEvent> {
    let mut cfg = SimConfig::waterloo96(d);
    cfg.rproc_pages = 24;
    cfg.sproc_pages = 24;
    let env = SimEnv::new(cfg).unwrap();
    let rels = build(&env, &workload(d, objects)).unwrap();
    let sink = CollectingSink::new();
    env.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Sequential);
    join(&env, &rels, alg, &spec).unwrap();
    sink.events()
}

/// The subset of events that are pass boundaries, as
/// `(is_start, proc, pass, phase, disk)` tuples in emission order.
fn pass_boundaries(events: &[TraceEvent]) -> Vec<(bool, u32, u32, u32, u32)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PassStart {
                proc,
                pass,
                phase,
                disk,
                ..
            } => Some((true, *proc, *pass, *phase, *disk)),
            TraceEvent::PassEnd {
                proc,
                pass,
                phase,
                disk,
                ..
            } => Some((false, *proc, *pass, *phase, *disk)),
            _ => None,
        })
        .collect()
}

#[test]
fn pass1_phases_touch_every_disk_exactly_once() {
    let d = 4u32;
    for alg in STAGED {
        let events = traced_events(alg, d, 4 * 1024);
        // Group pass-1 starts by phase t.
        let mut by_phase: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for e in &events {
            if let TraceEvent::PassStart {
                proc,
                pass: 1,
                phase,
                disk,
                ..
            } = e
            {
                by_phase.entry(*phase).or_default().push((*proc, *disk));
            }
        }
        let phases: Vec<u32> = by_phase.keys().copied().collect();
        assert_eq!(
            phases,
            (1..d).collect::<Vec<u32>>(),
            "{}: pass 1 must run phases 1..D",
            alg.name()
        );
        for (t, pairs) in &by_phase {
            let mut procs: Vec<u32> = pairs.iter().map(|(p, _)| *p).collect();
            let mut disks: Vec<u32> = pairs.iter().map(|(_, k)| *k).collect();
            procs.sort_unstable();
            disks.sort_unstable();
            let all: Vec<u32> = (0..d).collect();
            assert_eq!(procs, all, "{} phase {t}: every proc once", alg.name());
            assert_eq!(disks, all, "{} phase {t}: every disk once", alg.name());
            for (proc, disk) in pairs {
                assert_eq!(
                    *disk,
                    phase_partner(*proc, *t, d),
                    "{} phase {t}: proc {proc} must read disk offset(i,t)",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn pass0_scans_the_local_partition() {
    let d = 4u32;
    let objects = 4 * 1024u64;
    for alg in STAGED {
        let events = traced_events(alg, d, objects);
        let mut seen = vec![0u32; d as usize];
        let mut scanned = 0u64;
        for e in &events {
            if let TraceEvent::PassStart {
                proc,
                pass: 0,
                phase,
                disk,
                area,
            } = e
            {
                assert_eq!(*phase, 0, "{}", alg.name());
                assert_eq!(*disk, *proc, "{}: pass 0 reads the local disk", alg.name());
                assert_eq!(*area, format!("R_{proc}"), "{}", alg.name());
                seen[*proc as usize] += 1;
            }
            if let TraceEvent::PassEnd {
                pass: 0, objects, ..
            } = e
            {
                scanned += objects;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "{}: each proc scans its partition exactly once (got {seen:?})",
            alg.name()
        );
        assert_eq!(
            scanned,
            objects,
            "{}: pass 0 scans all of R exactly once",
            alg.name()
        );
    }
}

#[test]
fn pass_boundaries_nest_and_balance() {
    let d = 3u32;
    for alg in STAGED {
        let events = traced_events(alg, d, 3 * 1024);
        let bounds = pass_boundaries(&events);
        assert!(!bounds.is_empty(), "{}", alg.name());
        // Per-proc stack discipline: an end always matches the most
        // recent open start for that proc.
        let mut open: BTreeMap<u32, Vec<(u32, u32, u32)>> = BTreeMap::new();
        // Per-proc progress: pass ids never move backwards, so no
        // pass-2 start can precede the final pass-1 end.
        let mut hwm: BTreeMap<u32, u32> = BTreeMap::new();
        for (is_start, proc, pass, phase, disk) in bounds {
            if is_start {
                let prev = hwm.entry(proc).or_insert(0);
                assert!(
                    pass >= *prev,
                    "{}: proc {proc} started pass {pass} after pass {prev}",
                    alg.name()
                );
                *prev = pass;
                open.entry(proc).or_default().push((pass, phase, disk));
            } else {
                let top = open
                    .get_mut(&proc)
                    .and_then(|s| s.pop())
                    .unwrap_or_else(|| {
                        panic!("{}: proc {proc} ended a pass it never started", alg.name())
                    });
                assert_eq!(
                    top,
                    (pass, phase, disk),
                    "{}: proc {proc} pass end does not match its open start",
                    alg.name()
                );
            }
        }
        for (proc, stack) in &open {
            assert!(
                stack.is_empty(),
                "{}: proc {proc} left passes open: {stack:?}",
                alg.name()
            );
        }
    }
}

#[test]
fn sequential_and_threaded_traces_have_equal_event_sets() {
    // Threaded execution interleaves emissions across procs, but each
    // proc must still produce the same multiset of pass boundaries.
    let d = 2u32;
    for alg in STAGED {
        let seq = traced_events(alg, d, 2 * 1024);

        let mut cfg = SimConfig::waterloo96(d);
        cfg.rproc_pages = 24;
        cfg.sproc_pages = 24;
        let env = SimEnv::new(cfg).unwrap();
        let rels = build(&env, &workload(d, 2 * 1024)).unwrap();
        let sink = CollectingSink::new();
        env.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
        let spec = JoinSpec::new(24 * 4096, 24 * 4096).with_mode(ExecMode::Threaded);
        join(&env, &rels, alg, &spec).unwrap();
        let thr = sink.events();

        let mut a = pass_boundaries(&seq);
        let mut b = pass_boundaries(&thr);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{}", alg.name());
    }
}

//! Steady-state guarantees of the streaming tier, on the simulator's
//! measured clock:
//!
//! * after warmup the stream never re-pays the resident build — no
//!   `pass=0` partitioning event and no `resident_built` event appears
//!   in the trace once batches are flowing;
//! * a steady-state micro-batch is at least 3× cheaper in environment
//!   time than an independent full join of the same rows against the
//!   same inner relation — the whole point of keeping S resident;
//! * the store holds exactly the `D` S partitions under the stream's
//!   prefix at every point after open, and nothing after shutdown —
//!   no file is written that nothing reads.

use std::sync::Arc;

use mmjoin::{join, Algo, ExecMode, JoinSpec};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::trace::MapOp;
use mmjoin_env::{CollectingSink, Env, TraceEvent};
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
use mmjoin_stream::{StreamConfig, StreamHeader, StreamOp, StreamSession};
use mmjoin_vmsim::{SimConfig, SimEnv};

const D: u32 = 2;
const S_OBJECTS: u64 = 4096;
const BATCH_ROWS: u64 = 256;

/// The store's files under the `steady.` prefix, sorted.
fn stream_files(env: &SimEnv) -> Vec<String> {
    let mut files: Vec<String> = env
        .list_files()
        .into_iter()
        .filter(|n| n.starts_with("steady."))
        .collect();
    files.sort();
    files
}

fn sim(pages: usize) -> Arc<SimEnv> {
    let mut cfg = SimConfig::waterloo96(D);
    cfg.rproc_pages = pages;
    cfg.sproc_pages = pages;
    Arc::new(SimEnv::new(cfg).unwrap())
}

#[test]
fn no_pass_zero_events_after_warmup_and_batches_beat_full_joins() {
    let env = sim(64);
    let sink = CollectingSink::new();
    env.set_trace_sink(sink.clone());

    let header = StreamHeader {
        name: "steady".into(),
        s_objects: S_OBJECTS,
        s_size: 64,
        d: D,
        mem_pages: 64,
        seed: 3,
        modern: false,
    };
    let sess = StreamSession::open(
        Arc::clone(&env),
        header,
        StreamConfig::ephemeral(MachineParams::waterloo96()),
    )
    .unwrap();
    let s_parts = vec!["steady.S_0".to_string(), "steady.S_1".to_string()];
    assert_eq!(stream_files(&env), s_parts, "after open");

    // Warmup: the build itself plus one batch that pays the cold-cache
    // faults on S.
    sess.submit(StreamOp::Batch {
        name: "warmup".into(),
        objects: BATCH_ROWS,
        seed: 0,
    })
    .unwrap();
    sess.drain();
    let warmup_events = sink.records().len();

    // Steady state: many batches and a couple of in-place mutations.
    for i in 0..10u64 {
        sess.submit(StreamOp::Batch {
            name: format!("b{i}"),
            objects: BATCH_ROWS,
            seed: i + 1,
        })
        .unwrap();
        if i == 3 {
            sess.submit(StreamOp::Delete { count: 64, seed: 9 })
                .unwrap();
        }
        if i == 6 {
            sess.submit(StreamOp::Append { count: 32, seed: 0 })
                .unwrap();
        }
    }
    sess.drain();
    assert_eq!(
        stream_files(&env),
        s_parts,
        "after the batch train, delete= and append="
    );

    // The stream's whole warmup thesis: every pass-0 event (and the
    // resident build marker) happened before steady state began.
    let records = sink.records();
    assert!(
        records
            .iter()
            .take(warmup_events)
            .any(|r| matches!(r.event, TraceEvent::ResidentBuilt { .. })),
        "warmup contains the resident build"
    );
    for r in &records[warmup_events..] {
        match &r.event {
            TraceEvent::PassStart { pass, .. } | TraceEvent::PassEnd { pass, .. } => {
                assert_ne!(*pass, 0, "pass-0 partitioning after warmup: {:?}", r.event);
            }
            TraceEvent::ResidentBuilt { .. } => {
                panic!("resident rebuilt after warmup: {:?}", r.event)
            }
            _ => {}
        }
    }
    // Mutations patched in place (visible in the steady-state stream).
    assert!(records[warmup_events..]
        .iter()
        .any(|r| matches!(r.event, TraceEvent::ResidentPatched { .. })));

    // Steady-state batches: environment time per batch must be at
    // least 3x below an independent full join of the same row count
    // against the same |S| on the same machine.
    let results = sess.results();
    let steady: Vec<f64> = results
        .iter()
        .filter(|r| r.kind == "batch" && r.name != "warmup")
        .map(|r| r.env_elapsed)
        .collect();
    assert_eq!(steady.len(), 10);

    let full_env = sim(64);
    let spec = WorkloadSpec {
        rel: RelConfig {
            r_size: 16,
            s_size: 64,
            d: D,
            r_objects: BATCH_ROWS,
            s_objects: S_OBJECTS,
        },
        dist: PointerDist::Uniform,
        seed: 3,
        prefix: String::new(),
    };
    let rels = build(&*full_env, &spec).unwrap();
    let jspec = JoinSpec::new(64 * 4096, 64 * 4096).with_mode(ExecMode::Sequential);
    let full = join(&*full_env, &rels, Algo::Grace, &jspec).unwrap();
    for (i, &batch_seconds) in steady.iter().enumerate() {
        assert!(
            batch_seconds * 3.0 <= full.elapsed,
            "steady batch {i} took {batch_seconds:.6}s, full join {:.6}s — amortization lost",
            full.elapsed
        );
    }

    let stats = sess.stats();
    assert_eq!(stats.resident_builds, 1, "the build is paid exactly once");
    sess.shutdown();
    assert!(stream_files(&env).is_empty(), "after shutdown");
}

/// An op the resident set cannot serve fails alone: the worker
/// survives it, `drain()` returns, and later ops run normally.
#[test]
fn a_batch_over_no_live_slots_fails_and_the_stream_carries_on() {
    let header = StreamHeader {
        name: "empty".into(),
        s_objects: 128,
        s_size: 64,
        d: D,
        mem_pages: 64,
        seed: 1,
        modern: false,
    };
    let sess = StreamSession::open(
        sim(64),
        header,
        StreamConfig::ephemeral(MachineParams::waterloo96()),
    )
    .unwrap();
    let script = "\
batch=b0 objects=64 seed=1
delete=128 seed=3
batch=b1 objects=16 seed=2
batch-rows=bx rows=7:128
append=32 seed=4
batch=b2 objects=16 seed=5
";
    sess.submit_script(script).unwrap();
    sess.drain();
    let results = sess.results();
    let ok: Vec<bool> = results.iter().map(|r| r.ok).collect();
    assert_eq!(ok, [true, true, false, false, true, true], "{results:?}");
    assert_eq!(results[1].live_after, 0, "delete= emptied the set");
    let error = results[2].error.as_deref().unwrap();
    assert!(error.contains("no live slots"), "{error}");
    let error = results[3].error.as_deref().unwrap();
    assert!(error.contains("slot 128"), "{error}");
    assert_eq!((results[5].pairs, results[5].live_after), (16, 32));
    assert_eq!(sess.stats().failed, 2);
    sess.shutdown();
}

/// A mutation opens each S partition it patches once, not once per
/// slot: `delete=64` and `append=32` over four partitions make at most
/// four `map_setup op=open` events each.
#[test]
fn a_mutation_opens_each_s_partition_at_most_once() {
    const PARTS: u32 = 4;
    let mut cfg = SimConfig::waterloo96(PARTS);
    cfg.rproc_pages = 64;
    cfg.sproc_pages = 64;
    let env = Arc::new(SimEnv::new(cfg).unwrap());
    let sink = CollectingSink::new();
    env.set_trace_sink(sink.clone());
    let header = StreamHeader {
        name: "patch".into(),
        s_objects: S_OBJECTS,
        s_size: 64,
        d: PARTS,
        mem_pages: 64,
        seed: 3,
        modern: false,
    };
    let sess = StreamSession::open(
        Arc::clone(&env),
        header,
        StreamConfig::ephemeral(MachineParams::waterloo96()),
    )
    .unwrap();
    let opens = || {
        sink.records()
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::MapSetup {
                        op: MapOp::Open,
                        ..
                    }
                )
            })
            .count()
    };
    for op in [
        StreamOp::Delete { count: 64, seed: 9 },
        StreamOp::Append { count: 32, seed: 0 },
    ] {
        sess.drain();
        let before = opens();
        sess.submit(op).unwrap();
        sess.drain();
        let made = opens() - before;
        assert!(
            (1..=PARTS as usize).contains(&made),
            "{made} opens for one mutation"
        );
    }
    assert!(sess.results().iter().all(|r| r.error.is_none()));
    sess.shutdown();
}

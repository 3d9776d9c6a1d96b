//! Streaming-tier sweep: batch size vs client latency and throughput.
//!
//! For each micro-batch size, one resident-S streaming session runs a
//! warmup batch (paying the build and the cold faults on S exactly
//! once) and then a fixed steady-state batch train. Latency is the
//! simulator's measured environment time per batch — deterministic for
//! a given seed — so p50/p99 and the throughput curve reproduce
//! bit-for-bit. The sweep also re-derives the tier's core economics:
//! each steady batch must be at least 3x cheaper than an independent
//! full join of the same rows against the same |S|.
//!
//! ```sh
//! cargo run --release -p mmjoin-bench --bin stream -- [--json]
//! ```

use std::sync::Arc;

use mmjoin::{join, Algo, ExecMode, JoinSpec};
use mmjoin_bench::load::opt;
use mmjoin_env::machine::MachineParams;
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
use mmjoin_stream::{StreamConfig, StreamHeader, StreamOp, StreamSession};
use mmjoin_vmsim::{SimConfig, SimEnv};

const D: u32 = 2;
const MEM_PAGES: u64 = 64;

fn sim() -> Arc<SimEnv> {
    let mut cfg = SimConfig::waterloo96(D);
    cfg.rproc_pages = MEM_PAGES as usize;
    cfg.sproc_pages = MEM_PAGES as usize;
    Arc::new(SimEnv::new(cfg).unwrap())
}

/// Nearest-rank percentile over a sorted sample.
fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct Point {
    batch_rows: u64,
    batches: u64,
    p50_ms: f64,
    p99_ms: f64,
    rows_per_sec: f64,
    full_join_seconds: f64,
    amortization: f64,
}

fn measure(s_objects: u64, batch_rows: u64, batches: u64, seed: u64, modern: bool) -> Point {
    let env = sim();
    let header = StreamHeader {
        name: format!("sweep{batch_rows}"),
        s_objects,
        s_size: 64,
        d: D,
        mem_pages: MEM_PAGES,
        seed,
        modern,
    };
    let sess = StreamSession::open(
        Arc::clone(&env),
        header,
        StreamConfig::ephemeral(MachineParams::waterloo96()),
    )
    .unwrap();
    sess.submit(StreamOp::Batch {
        name: "warmup".into(),
        objects: batch_rows,
        seed: 0,
    })
    .unwrap();
    for i in 0..batches {
        sess.submit(StreamOp::Batch {
            name: format!("b{i}"),
            objects: batch_rows,
            seed: i + 1,
        })
        .unwrap();
    }
    sess.drain();
    let results = sess.results();
    let mut lat: Vec<f64> = results
        .iter()
        .filter(|r| r.name != "warmup")
        .map(|r| {
            assert!(r.ok, "batch {} failed: {:?}", r.seq, r.error);
            r.env_elapsed
        })
        .collect();
    assert_eq!(lat.len(), batches as usize);
    let total: f64 = lat.iter().sum();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sess.shutdown();

    // The yardstick: a from-scratch join of one batch's rows against
    // the same inner relation, on an identical fresh machine.
    let full_env = sim();
    let spec = WorkloadSpec {
        rel: RelConfig {
            r_size: 16,
            s_size: 64,
            d: D,
            r_objects: batch_rows,
            s_objects,
        },
        dist: PointerDist::Uniform,
        seed,
        prefix: String::new(),
    };
    let rels = build(&*full_env, &spec).unwrap();
    let jspec = JoinSpec::new(MEM_PAGES * 4096, MEM_PAGES * 4096).with_mode(ExecMode::Sequential);
    let full = join(&*full_env, &rels, Algo::Grace, &jspec).unwrap();

    let p99 = pct(&lat, 99.0);
    Point {
        batch_rows,
        batches,
        p50_ms: pct(&lat, 50.0) * 1e3,
        p99_ms: p99 * 1e3,
        rows_per_sec: batch_rows as f64 * batches as f64 / total,
        full_join_seconds: full.elapsed,
        amortization: full.elapsed / p99,
    }
}

fn main() {
    let s_objects: u64 = opt("--s-objects", 4096);
    let batches: u64 = opt("--batches", 32);
    let seed: u64 = opt("--seed", 1996);
    let modern = std::env::args().any(|a| a == "--modern");

    println!(
        "stream sweep: |S| = {s_objects} x 64 B, D = {D}, {MEM_PAGES} pages, \
         {batches} steady batches per point"
    );
    println!(
        "{:>10} {:>9} {:>9} {:>12} {:>12} {:>7}",
        "batch", "p50(ms)", "p99(ms)", "rows/s", "full(ms)", "amort"
    );
    let points: Vec<Point> = [64u64, 256, 1024]
        .iter()
        .map(|&rows| {
            let p = measure(s_objects, rows, batches, seed, modern);
            println!(
                "{:>10} {:>9.3} {:>9.3} {:>12.0} {:>12.3} {:>6.1}x",
                p.batch_rows,
                p.p50_ms,
                p.p99_ms,
                p.rows_per_sec,
                p.full_join_seconds * 1e3,
                p.amortization
            );
            p
        })
        .collect();

    // The resident set's reason to exist: even the worst (p99) steady
    // batch beats an equivalent cold join by 3x at every batch size.
    for p in &points {
        assert!(
            p.amortization >= 3.0,
            "batch {} rows: amortization {:.2}x is below the 3x floor",
            p.batch_rows,
            p.amortization
        );
    }

    let body = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{\"batch_rows\":{},\"batches\":{},\"p50_ms\":{:.6},",
                    "\"p99_ms\":{:.6},\"rows_per_sec\":{:.3},",
                    "\"full_join_ms\":{:.6},\"amortization\":{:.3}}}"
                ),
                p.batch_rows,
                p.batches,
                p.p50_ms,
                p.p99_ms,
                p.rows_per_sec,
                p.full_join_seconds * 1e3,
                p.amortization
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    mmjoin_bench::maybe_write_json(
        "stream",
        &format!(
            concat!(
                "{{\"s_objects\":{},\"d\":{},\"mem_pages\":{},\"seed\":{},",
                "\"modern\":{},\"points\":[{}]}}"
            ),
            s_objects, D, MEM_PAGES, seed, modern, body
        ),
    );
}

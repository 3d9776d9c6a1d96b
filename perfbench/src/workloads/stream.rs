//! The three streaming workloads, all on `MmapEnv` with `D = 2`:
//!
//! * `stream-probe` — reads only: session queue, `ResidentSet::probe`
//!   and `s_fetch_batch`; no journal, no mutations. Shows resident-index
//!   and queue changes; a journal change must not move it.
//! * `stream-durable` — writes beside reads on the same tier: two
//!   journal commits per op, the tombstone/patch path, batches queued
//!   behind mutations. A probe-side gain that costs mutations or
//!   durability shows here. Its bounded operation is the mutation; the
//!   journaled batches, which are `msync` and little else, are reported
//!   as measured beside the harness's own `msync` timing.
//! * `stream-resume` — reopening a journaled stream: resident rebuild
//!   plus a replay whose cost is a sum over history.
//!
//! Batches are `StreamOp::BatchRows` cycled from a seeded pool, so
//! neither the harness's generator nor `ResidentSet::gen_batch`'s
//! O(|S|) live-set copy is in a timed path.
//!
//! The bounded numbers come from a closed loop (one op in flight:
//! submit, wait for the result) and from a saturated phase measured in
//! chunks whose median is kept. The open loop at a fixed rate runs in
//! the traced pass only and reports per-layer metrics: at partial load
//! this host parks its second vCPU, and an open loop's latency then
//! depends on whether the generator happened to keep it awake (the same
//! inputs measured 1.4 ms at 600 batches/s and 1.5–2.0 ms at 400).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mmjoin_env::machine::MachineParams;
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_stream::{
    BatchResult, ResidentSet, StreamConfig, StreamHeader, StreamOp, StreamSession, PAGE,
};

use super::{after, journal_record_counts, msync_micros, sleep_until, Ctx, Outcome};
use crate::gen::{batch_pool, fixed_schedule};
use crate::stats::median;

const D: u32 = 2;
const MEM_PAGES: u64 = 64;
const S_SIZE: u32 = 128;
/// Name of the journal file inside a stream's journal directory.
const JOURNAL_FILE: &str = "stream.wal";
/// Capacity of that journal (fixed by the stream tier).
const JOURNAL_CAPACITY: f64 = (4u64 << 20) as f64;

type Session = StreamSession<MmapEnv>;

fn header(name: &str, s_objects: u64, seed: u64) -> StreamHeader {
    StreamHeader {
        name: name.to_string(),
        s_objects,
        s_size: S_SIZE,
        d: D,
        mem_pages: MEM_PAGES,
        seed,
        modern: false,
    }
}

fn store_config(root: &Path) -> MmapEnvConfig {
    MmapEnvConfig {
        root: root.to_path_buf(),
        num_disks: D,
        page_size: PAGE,
    }
}

fn store(root: &Path) -> Result<Arc<MmapEnv>, String> {
    MmapEnv::new(store_config(root))
        .map(Arc::new)
        .map_err(|e| format!("store {}: {e}", root.display()))
}

fn config(journal: Option<&Path>, resume: bool) -> StreamConfig {
    StreamConfig {
        journal_dir: journal.map(Path::to_path_buf),
        resume,
        ..StreamConfig::ephemeral(MachineParams::waterloo96())
    }
}

fn direct_set(ctx: &Ctx, s_objects: u64) -> Result<ResidentSet<MmapEnv>, String> {
    let root = ctx.scratch.dir("direct");
    ResidentSet::build(
        store(&root)?,
        &header("direct", s_objects, ctx.seed),
        &MachineParams::waterloo96(),
    )
    .map_err(|e| format!("resident build: {e}"))
}

/// What the harness knows about an op it submitted.
struct Sent {
    seq: u64,
    /// Tracer time the op was due (open loop) or handed over (closed).
    due: f64,
    /// Seconds inside `submit()` (durable: includes the commit).
    submit: f64,
    /// Due time to `submit()` returning: generator lateness, the
    /// submit call, and any wait for queue room.
    before_queue: f64,
    /// Closed loop: seconds from handing the op over to the session
    /// being drained, i.e. to the result being visible.
    wall: f64,
}

/// A closed loop: `n` ops, one in flight — submit, then wait for the
/// session to drain.
fn closed_loop(
    ctx: &Ctx,
    sess: &Session,
    n: usize,
    mut op: impl FnMut(usize) -> StreamOp,
) -> Result<Vec<Sent>, String> {
    let mut sent = Vec::with_capacity(n);
    for i in 0..n {
        let next = op(i);
        let due = ctx.tracer.now();
        let started = Instant::now();
        let seq = sess.submit(next).map_err(|e| format!("submit: {e}"))?;
        let submit = started.elapsed().as_secs_f64();
        sess.drain();
        sent.push(Sent {
            seq,
            due,
            submit,
            before_queue: submit,
            wall: started.elapsed().as_secs_f64(),
        });
    }
    Ok(sent)
}

/// An open-loop phase: ops submitted at their due times whatever the
/// session's backlog. Returns what was sent and how late the generator
/// was at each op, in seconds.
fn open_loop(
    ctx: &Ctx,
    sess: &Session,
    schedule: &[f64],
    mut op: impl FnMut(usize) -> StreamOp,
) -> Result<(Vec<Sent>, Vec<f64>), String> {
    let t0 = Instant::now();
    let t0_traced = ctx.tracer.now();
    let mut sent = Vec::with_capacity(schedule.len());
    let mut late = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        let next = op(i);
        late.push(sleep_until(after(t0, due)));
        let started = Instant::now();
        let seq = sess.submit(next).map_err(|e| format!("submit: {e}"))?;
        let done = Instant::now();
        sent.push(Sent {
            seq,
            due: t0_traced + due,
            submit: (done - started).as_secs_f64(),
            before_queue: done.saturating_duration_since(after(t0, due)).as_secs_f64(),
            wall: 0.0,
        });
    }
    sess.drain();
    Ok((sent, late))
}

/// A saturated phase: ops submitted as fast as backpressure admits for
/// `seconds` (or until `max_ops`), then drained. Returns the sequence
/// numbers and the ops per second of each full chunk of `chunk` ops —
/// the caller keeps their median, which rides out the second or so the
/// host takes to give a newly busy guest its second core. A phase
/// shorter than one chunk yields its overall rate.
fn saturated(
    sess: &Session,
    seconds: f64,
    max_ops: usize,
    chunk: usize,
    mut op: impl FnMut(usize) -> StreamOp,
) -> Result<(Vec<u64>, Vec<f64>), String> {
    let t0 = Instant::now();
    let mut seqs = Vec::new();
    let mut rates = Vec::new();
    let mut chunk_from = t0;
    while seqs.len() < max_ops && t0.elapsed().as_secs_f64() < seconds {
        seqs.push(
            sess.submit(op(seqs.len()))
                .map_err(|e| format!("submit: {e}"))?,
        );
        if seqs.len() % chunk == 0 {
            rates.push(chunk as f64 / chunk_from.elapsed().as_secs_f64());
            chunk_from = Instant::now();
        }
    }
    sess.drain();
    if rates.is_empty() {
        rates.push(seqs.len() as f64 / t0.elapsed().as_secs_f64());
    }
    Ok((seqs, rates))
}

/// Results by sequence number.
fn by_seq(sess: &Session) -> BTreeMap<u64, BatchResult> {
    sess.results().into_iter().map(|r| (r.seq, r)).collect()
}

/// Check that op `seq` finished and verified; returns its result.
fn checked<'r>(
    out: &mut Outcome,
    results: &'r BTreeMap<u64, BatchResult>,
    seq: u64,
) -> Option<&'r BatchResult> {
    let r = results.get(&seq);
    out.check(r.is_some_and(|r| r.ok), || match r {
        Some(r) => format!(
            "op {seq} ({}): {}",
            r.kind,
            r.error.as_deref().unwrap_or("not ok")
        ),
        None => format!("op {seq} was acknowledged but has no result"),
    });
    r
}

fn check_all(out: &mut Outcome, sess: &Session, seqs: &[u64]) {
    let results = by_seq(sess);
    for &seq in seqs {
        checked(out, &results, seq);
    }
}

/// Latency samples in milliseconds, batches and mutations apart.
#[derive(Default)]
struct Latencies {
    /// Closed loop: handing the op over to its result being visible.
    closed_batch: Vec<f64>,
    closed_mutation: Vec<f64>,
    /// Open loop: the instant the op was due to its result
    /// (`queue_wait + exec_wall` after the submit call returned).
    open_batch: Vec<f64>,
    queue: Vec<f64>,
    exec: Vec<f64>,
    submit_us: Vec<f64>,
}

impl Latencies {
    /// Fold one phase's ops in, checking each. Traced, every op becomes
    /// a span with its submit, queue-wait and execution as children.
    fn fold(&mut self, ctx: &Ctx, out: &mut Outcome, sess: &Session, sent: &[Sent], closed: bool) {
        let results = by_seq(sess);
        for s in sent {
            let Some(r) = checked(out, &results, s.seq) else {
                continue;
            };
            let batch = r.kind == "batch";
            self.submit_us.push(s.submit * 1e6);
            let queued = s.due + s.before_queue;
            let end = if closed {
                if batch {
                    &mut self.closed_batch
                } else {
                    &mut self.closed_mutation
                }
                .push(s.wall * 1e3);
                s.due + s.wall
            } else {
                if batch {
                    self.open_batch
                        .push((s.before_queue + r.queue_wait + r.exec_wall) * 1e3);
                    self.queue.push(r.queue_wait * 1e3);
                    self.exec.push(r.exec_wall * 1e3);
                }
                queued + r.queue_wait + r.exec_wall
            };
            let whole = ctx.tracer.record("bench", r.kind, s.seq, None, s.due, end);
            ctx.tracer
                .record("stream", "submit", s.seq, whole, queued - s.submit, queued);
            ctx.tracer.record(
                "stream",
                "queue_wait",
                s.seq,
                whole,
                queued,
                queued + r.queue_wait,
            );
            ctx.tracer.record(
                "stream",
                "exec",
                s.seq,
                whole,
                queued + r.queue_wait,
                queued + r.queue_wait + r.exec_wall,
            );
        }
    }

    /// The per-layer readings of the open loop (traced pass).
    fn put_open(&self, out: &mut Outcome, late_ms: &[f64], backpressure: u64) {
        out.readings.put_median("stream.submit_us", &self.submit_us);
        out.readings
            .put_median("stream.open_lat_p50_ms", &self.open_batch);
        out.readings
            .put_tail("stream.open_lat_p99_ms", &self.open_batch, 99.0);
        out.readings
            .put_median("stream.queue_wait_p50_ms", &self.queue);
        out.readings
            .put_tail("stream.queue_wait_p99_ms", &self.queue, 99.0);
        out.readings.put_median("stream.exec_p50_ms", &self.exec);
        out.readings
            .put_tail("stream.exec_p99_ms", &self.exec, 99.0);
        out.readings.put_tail("stream.late_ms", late_ms, 95.0);
        out.readings.put("stream.backpressure", backpressure as f64);
    }
}

/// Phases of one round, shared by the probe and durable workloads.
struct Phases {
    /// Ops in the closed loop.
    closed: usize,
    /// Seconds of saturation, and the ops per measured chunk of it.
    sat_seconds: f64,
    chunk: usize,
    /// Traced pass: seconds of open loop and its ops per second — fixed
    /// at about half (probe) or a fifth (durable, whose mutations stall
    /// the worker) of what the session sustains on the introducing
    /// commit; not to be re-tuned by later changes.
    open_seconds: f64,
    open_rate: f64,
    /// Seconds a round is budgeted at (sets the number of rounds).
    round_seconds: f64,
}

impl Phases {
    fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.round_seconds).round() as usize).max(2)
    }

    fn schedule(&self, ctx: &Ctx) -> Vec<f64> {
        if ctx.traced() {
            fixed_schedule(self.open_rate, self.open_seconds)
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------- probe

struct ProbeScale {
    s_objects: u64,
    rows: usize,
    pool: usize,
    phases: Phases,
}

const PROBE_FULL: ProbeScale = ProbeScale {
    s_objects: 1_000_000,
    rows: 4096,
    pool: 256,
    phases: Phases {
        closed: 300,
        sat_seconds: 1.5,
        chunk: 100,
        open_seconds: 1.0,
        open_rate: 500.0,
        round_seconds: 2.0,
    },
};

const PROBE_SMOKE: ProbeScale = ProbeScale {
    s_objects: 20_000,
    rows: 256,
    pool: 16,
    phases: Phases {
        closed: 20,
        sat_seconds: 0.05,
        chunk: 20,
        open_seconds: 0.05,
        open_rate: 400.0,
        round_seconds: 0.1,
    },
};

fn rows_op(pool: &[Vec<(u64, u64)>], n: usize) -> StreamOp {
    StreamOp::BatchRows {
        name: format!("b{n}"),
        rows: pool[n % pool.len()].clone(),
    }
}

pub fn run_probe(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.smoke { &PROBE_SMOKE } else { &PROBE_FULL };
    let phases = &scale.phases;
    let mut out = Outcome::default();
    let pool = batch_pool(
        ctx.seed,
        scale.s_objects,
        scale.rows,
        scale.pool,
        u64::MAX >> 1,
    );
    let head = header("probe", scale.s_objects, ctx.seed);

    // Set-up: store creation plus opening the session, which builds the
    // resident set; repeated on a fresh store.
    let mut setup = Vec::new();
    let mut sess: Option<Session> = None;
    while ctx.setup_again(&setup) {
        if let Some(s) = sess.take() {
            s.shutdown();
        }
        let root = ctx.scratch.dir("store");
        let (opened, secs, _) = ctx
            .tracer
            .time("stream", "open", setup.len() as u64, None, || {
                StreamSession::open(store(&root)?, head.clone(), config(None, false))
                    .map_err(|e| format!("open: {e}"))
            });
        sess = Some(opened?);
        setup.push(secs);
    }
    let sess = sess.expect("setup_reps >= 1");
    out.readings.put_median("setup_s", &setup);

    let (warm, _) = saturated(&sess, f64::MAX, 20, 20, |n| rows_op(&pool, n))?;
    check_all(&mut out, &sess, &warm);

    let rounds = phases.rounds(ctx.seconds);
    let schedule = phases.schedule(ctx);
    let mut lat = Latencies::default();
    let (mut rows_per_s, mut late_ms) = (Vec::new(), Vec::new());
    let mut next = 0usize;
    for _ in 0..rounds {
        let sent = closed_loop(ctx, &sess, phases.closed, |i| rows_op(&pool, next + i))?;
        next += sent.len();
        lat.fold(ctx, &mut out, &sess, &sent, true);

        let (seqs, rates) = saturated(&sess, phases.sat_seconds, usize::MAX, phases.chunk, |i| {
            rows_op(&pool, next + i)
        })?;
        next += seqs.len();
        check_all(&mut out, &sess, &seqs);
        rows_per_s.extend(rates.iter().map(|r| r * scale.rows as f64));

        let (sent, late) = open_loop(ctx, &sess, &schedule, |i| rows_op(&pool, next + i))?;
        next += sent.len();
        late_ms.extend(late.iter().map(|l| l * 1e3));
        lat.fold(ctx, &mut out, &sess, &sent, false);
    }
    let stats = sess.stats();
    if stats.failed != 0 {
        out.fail(format!("session counted {} failed ops", stats.failed));
    }
    sess.shutdown();
    out.note("rounds", rounds);
    out.note("s_objects", scale.s_objects);

    out.readings.put_median("latency_p50_ms", &lat.closed_batch);
    out.readings.put_median("throughput_per_s", &rows_per_s);

    if ctx.traced() {
        out.note("open_loop_rate_per_s", phases.open_rate);
        out.readings.put_median("stream.resident_build_s", &setup);
        lat.put_open(&mut out, &late_ms, stats.backpressure);

        // `ResidentSet::probe` called directly, no session around it.
        let set = direct_set(ctx, scale.s_objects)?;
        let mut ns_per_row = Vec::new();
        for batch in pool.iter().cycle().take(4 * scale.pool) {
            let (probed, secs, _) =
                ctx.tracer
                    .time("stream", "ResidentSet::probe", 0, None, || set.probe(batch));
            let probed = probed.map_err(|e| format!("probe: {e}"))?;
            out.check(probed == set.expected(batch), || {
                "direct probe disagrees with the oracle".to_string()
            });
            ns_per_row.push(secs / batch.len() as f64 * 1e9);
        }
        out.readings
            .put_median("stream.probe_ns_per_row", &ns_per_row);
        set.teardown().map_err(|e| format!("teardown: {e}"))?;
    }
    Ok(out)
}

// -------------------------------------------------------------- durable

/// Shape of the journaled workloads. `run_durable_with` takes it as an
/// argument so a test can over-fill the journal on purpose.
pub(crate) struct DurableScale {
    s_objects: u64,
    rows: usize,
    pool: usize,
    /// A `delete=` then an `append=` of this many slots follow every
    /// `mutate_every`-th batch of the closed- and open-loop script.
    mutate_every: usize,
    mutate_slots: u64,
    phases: Phases,
    /// Seconds, per round, the whole script (mutations included) is
    /// submitted as fast as backpressure admits, and the most ops that
    /// may take.
    script_seconds: f64,
    script_ops: usize,
    /// Most ops one session's batch-only saturated phase may submit.
    sat_ops: usize,
    /// Ops in the closed-loop durable/ephemeral twin pass.
    twin_ops: usize,
    /// Share of the journal's fixed capacity one session may fill. The
    /// session keeps acknowledging ops once its journal is full (it
    /// only says so on stderr), so the harness stays well inside — and
    /// a test sets this above 1 to prove the gate catches it.
    journal_fill: f64,
}

const DURABLE_FULL: DurableScale = DurableScale {
    s_objects: 262_144,
    rows: 16,
    pool: 256,
    mutate_every: 8,
    mutate_slots: 16,
    phases: Phases {
        closed: 100,
        sat_seconds: 0.5,
        chunk: 200,
        open_seconds: 1.0,
        open_rate: 60.0,
        round_seconds: 2.0,
    },
    script_seconds: 0.8,
    script_ops: 400,
    sat_ops: 4000,
    twin_ops: 300,
    journal_fill: 0.8,
};

const DURABLE_SMOKE: DurableScale = DurableScale {
    s_objects: 4_096,
    rows: 16,
    pool: 16,
    mutate_every: 8,
    mutate_slots: 4,
    phases: Phases {
        closed: 20,
        sat_seconds: 0.05,
        chunk: 20,
        open_seconds: 0.05,
        open_rate: 400.0,
        round_seconds: 0.1,
    },
    script_seconds: 0.05,
    script_ops: 40,
    sat_ops: 200,
    twin_ops: 20,
    journal_fill: 0.8,
};

/// Op `n` of the durable script: `mutate_every` batches, a delete, an
/// append, and so on. Batch keys stay below 2³² so a journaled line of
/// 16 rows is a few hundred bytes.
fn script_op(scale: &DurableScale, pool: &[Vec<(u64, u64)>], n: usize) -> StreamOp {
    let period = scale.mutate_every + 2;
    match n % period {
        k if k == scale.mutate_every => StreamOp::Delete {
            count: scale.mutate_slots,
            seed: n as u64,
        },
        k if k == scale.mutate_every + 1 => StreamOp::Append {
            count: scale.mutate_slots,
            seed: n as u64,
        },
        _ => rows_op(pool, n),
    }
}

/// Bytes a journaled session of `lines` op lines writes, at most: the
/// submitted line plus two framed records' overhead each.
fn journal_bytes(lines: impl Iterator<Item = StreamOp>) -> f64 {
    lines.map(|op| op.to_line().len() as f64 + 96.0).sum()
}

/// The journal gate: a session that acknowledged `ops` ops owes the
/// journal one `StreamOpened` record plus a submit and a completion
/// record per op, each committed. This is what catches a full journal,
/// which the session otherwise reports on stderr only.
fn journal_gate(out: &mut Outcome, sess: &Session, ops: u64) -> u64 {
    let stats = sess.stats();
    let owed = 1 + 2 * ops;
    if stats.journal_appended_records != owed || stats.journal_commits != owed {
        out.fail(format!(
            "{ops} ops acknowledged but the journal holds {} records / {} commits, not {owed}: \
             ops were acknowledged without a commit",
            stats.journal_appended_records, stats.journal_commits
        ));
    }
    stats.journal_commits
}

pub fn run_durable(ctx: &Ctx) -> Result<Outcome, String> {
    run_durable_with(
        ctx,
        if ctx.smoke {
            &DURABLE_SMOKE
        } else {
            &DURABLE_FULL
        },
    )
}

pub(crate) fn run_durable_with(ctx: &Ctx, scale: &DurableScale) -> Result<Outcome, String> {
    let phases = &scale.phases;
    let mut out = Outcome::default();
    let pool = batch_pool(ctx.seed, scale.s_objects, scale.rows, scale.pool, 1 << 32);
    let head = header("durable", scale.s_objects, ctx.seed);
    let schedule = phases.schedule(ctx);
    // Keep one session's records inside the journal's fixed capacity.
    let scripted = phases.closed + scale.script_ops + schedule.len();
    let scripted_bytes = journal_bytes((0..scripted).map(|n| script_op(scale, &pool, n)));
    let per_batch = journal_bytes(std::iter::once(rows_op(&pool, 0)));
    let room = JOURNAL_CAPACITY * scale.journal_fill - scripted_bytes;
    let sat_cap = scale.sat_ops.min((room / per_batch).max(0.0) as usize);

    let rounds = phases.rounds(ctx.seconds).max(ctx.setup_reps);
    let mut lat = Latencies::default();
    let (mut setup, mut late_ms) = (Vec::new(), Vec::new());
    let (mut script_ops_per_s, mut rows_per_s) = (Vec::new(), Vec::new());
    let (mut commits, mut bytes_per_op, mut backpressure) = (0u64, Vec::new(), 0u64);
    for round in 0..rounds {
        // Every round runs on a fresh store and a fresh journal, so
        // set-up is measured once per round.
        let (root, wal) = (ctx.scratch.dir("store"), ctx.scratch.dir("wal"));
        let (opened, secs, _) = ctx.tracer.time("stream", "open", round as u64, None, || {
            StreamSession::open(store(&root)?, head.clone(), config(Some(&wal), false))
                .map_err(|e| format!("open: {e}"))
        });
        let sess = opened?;
        setup.push(secs);

        // The script one op at a time, then as fast as backpressure
        // admits (ops over the wall time from the first submit to the
        // session being drained), then batches alone.
        let sent = closed_loop(ctx, &sess, phases.closed, |n| script_op(scale, &pool, n))?;
        lat.fold(ctx, &mut out, &sess, &sent, true);
        let mut ops = sent.len();

        let started = Instant::now();
        let (seqs, _) = saturated(
            &sess,
            scale.script_seconds,
            scale.script_ops,
            scale.script_ops,
            |n| script_op(scale, &pool, phases.closed + n),
        )?;
        script_ops_per_s.push(seqs.len() as f64 / started.elapsed().as_secs_f64());
        check_all(&mut out, &sess, &seqs);
        ops += seqs.len();

        let (seqs, rates) = saturated(&sess, phases.sat_seconds, sat_cap, phases.chunk, |n| {
            rows_op(&pool, n)
        })?;
        check_all(&mut out, &sess, &seqs);
        ops += seqs.len();
        rows_per_s.extend(rates.iter().map(|r| r * scale.rows as f64));

        let (sent, late) = open_loop(ctx, &sess, &schedule, |n| {
            script_op(scale, &pool, phases.closed + scale.script_ops + n)
        })?;
        late_ms.extend(late.iter().map(|l| l * 1e3));
        lat.fold(ctx, &mut out, &sess, &sent, false);
        ops += sent.len();

        let ops = ops as u64;
        commits = journal_gate(&mut out, &sess, ops);
        backpressure += sess.stats().backpressure;
        sess.shutdown();
        // Durability from the file alone: every op the session
        // acknowledged is there, CRC-valid, after the session is gone.
        let (used, kinds) = journal_record_counts(&wal, JOURNAL_FILE)?;
        let count = |kind: &str| kinds.get(kind).copied().unwrap_or(0);
        if count("batch_submitted") != ops || count("batch_completed") != ops {
            out.fail(format!(
                "{ops} ops acknowledged but the journal file holds {} submissions / {} completions",
                count("batch_submitted"),
                count("batch_completed")
            ));
        }
        bytes_per_op.push(used as f64 / ops as f64);
    }
    out.note("rounds", rounds);
    out.note("s_objects", scale.s_objects);
    out.note("saturated_ops_cap", sat_cap);

    // The bounded operation is the mutation: a `delete=` or `append=`
    // is the O(|S|) tombstone path plus four `msync`s, ~20 ms of which
    // the device's share is a twentieth. A journaled 16-row batch is
    // four `msync`s and little else, and this sandbox's virtual disk
    // takes 90 to 250 us for one depending on the hour, so the batch
    // figures are reported as measured, without a driver bound, with
    // the harness's own `msync` beside them.
    out.readings.put_median("setup_s", &setup);
    out.readings
        .put_median("latency_p50_ms", &lat.closed_mutation);
    out.readings
        .put_median("throughput_per_s", &script_ops_per_s);
    out.readings
        .put_median("stream.durable_batch_p50_ms", &lat.closed_batch);
    out.readings
        .put_median("stream.durable_rows_per_s", &rows_per_s);
    let probe = store(&ctx.scratch.dir("sync-probe"))?;
    out.readings
        .put_median("mmstore.sync_us", &msync_micros(ctx, &probe, 60)?);

    if ctx.traced() {
        out.note("open_loop_rate_per_s", phases.open_rate);
        out.readings.put_median("stream.resident_build_s", &setup);
        lat.put_open(&mut out, &late_ms, backpressure);
        out.readings
            .put_median("stream.mutation_lat_p50_ms", &lat.closed_mutation);
        out.readings
            .put_tail("stream.mutation_lat_p95_ms", &lat.closed_mutation, 95.0);
        out.readings.put("recovery.commits", commits as f64);
        out.readings
            .put_median("recovery.bytes_per_op", &bytes_per_op);
        twin_pass(ctx, scale, &pool, &mut out)?;
        direct_mutations(ctx, scale, &mut out)?;
    }
    Ok(out)
}

/// The cost of one commit, estimated without touching the journal's
/// code: the same batches one at a time through a journaled session and
/// through an ephemeral twin. A durable op makes two commits, so half
/// the difference of the medians is one commit.
fn twin_pass(
    ctx: &Ctx,
    scale: &DurableScale,
    pool: &[Vec<(u64, u64)>],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut medians = Vec::new();
    for journaled in [true, false] {
        let (root, wal) = (ctx.scratch.dir("twin-store"), ctx.scratch.dir("twin-wal"));
        let sess = StreamSession::open(
            store(&root)?,
            header("twin", scale.s_objects, ctx.seed),
            config(journaled.then_some(wal.as_path()), false),
        )
        .map_err(|e| format!("twin open: {e}"))?;
        let sent = closed_loop(ctx, &sess, scale.twin_ops, |n| rows_op(pool, n))?;
        check_all(out, &sess, &sent.iter().map(|s| s.seq).collect::<Vec<_>>());
        if journaled {
            journal_gate(out, &sess, sent.len() as u64);
        }
        sess.shutdown();
        medians.push(median(&sent.iter().map(|s| s.wall).collect::<Vec<_>>()));
    }
    out.readings.put(
        "recovery.commit_us_est",
        (medians[0] - medians[1]) / 2.0 * 1e6,
    );
    Ok(())
}

/// `ResidentSet::{delete, append, gen_batch}` called directly, so the
/// per-slot mutation cost (and the live-set copy the explicit-row
/// batches bypass) stays visible.
fn direct_mutations(ctx: &Ctx, scale: &DurableScale, out: &mut Outcome) -> Result<(), String> {
    let mut set = direct_set(ctx, scale.s_objects)?;
    let (mut delete, mut append, mut gen) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..8u64 {
        let (r, secs, _) = ctx
            .tracer
            .time("stream", "ResidentSet::delete", rep, None, || {
                set.delete(scale.mutate_slots, rep)
            });
        r.map_err(|e| format!("delete: {e}"))?;
        delete.push(secs / scale.mutate_slots as f64 * 1e6);
        let (r, secs, _) = ctx
            .tracer
            .time("stream", "ResidentSet::append", rep, None, || {
                set.append(scale.mutate_slots)
            });
        r.map_err(|e| format!("append: {e}"))?;
        append.push(secs / scale.mutate_slots as f64 * 1e6);
        let (rows, secs, _) =
            ctx.tracer
                .time("stream", "ResidentSet::gen_batch", rep, None, || {
                    set.gen_batch(scale.rows as u64, rep)
                });
        std::hint::black_box(rows);
        gen.push(secs * 1e6);
    }
    out.readings
        .put_median("stream.delete_us_per_slot", &delete);
    out.readings
        .put_median("stream.append_us_per_slot", &append);
    out.readings.put_median("stream.gen_batch_us", &gen);
    set.teardown().map_err(|e| format!("teardown: {e}"))
}

// --------------------------------------------------------------- resume

struct ResumeScale {
    shape: DurableScale,
    /// Ops in the journal every resume replays.
    ops: usize,
}

/// Mutations after every second batch: replay cost is the mutations',
/// and fewer batches keep `msync` (two commits an op) to a tenth of the
/// time it takes to write the journal.
const RESUME_FULL: ResumeScale = ResumeScale {
    shape: DurableScale {
        s_objects: 131_072,
        mutate_every: 2,
        ..DURABLE_FULL
    },
    ops: 200,
};

const RESUME_SMOKE: ResumeScale = ResumeScale {
    shape: DURABLE_SMOKE,
    ops: 40,
};

/// What a resumed session must re-report for an op, identically.
fn outcome_of(r: &BatchResult) -> (&'static str, u64, u64, u64, u64) {
    (r.kind, r.rows, r.pairs, r.checksum, r.misses)
}

pub fn run_resume(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.smoke {
        &RESUME_SMOKE
    } else {
        &RESUME_FULL
    };
    let shape = &scale.shape;
    let mut out = Outcome::default();
    let pool = batch_pool(ctx.seed, shape.s_objects, shape.rows, shape.pool, 1 << 32);
    let head = header("resume", shape.s_objects, ctx.seed);
    let (root, wal) = (ctx.scratch.dir("store"), ctx.scratch.dir("wal"));

    // Set-up: a journaled session runs the whole script and shuts down;
    // what it leaves on disk is what every resume below replays. At a
    // second a time it is repeated three times, not five.
    let mut setup = Vec::new();
    let mut original: BTreeMap<u64, BatchResult> = BTreeMap::new();
    for rep in 0..ctx.setup_reps.min(3) {
        let (root, wal) = (ctx.scratch.dir("store"), ctx.scratch.dir("wal"));
        let (ran, secs, _) =
            ctx.tracer
                .time("stream", "journaled script", rep as u64, None, || {
                    let sess =
                        StreamSession::open(store(&root)?, head.clone(), config(Some(&wal), false))
                            .map_err(|e| format!("open: {e}"))?;
                    saturated(&sess, f64::MAX, scale.ops, scale.ops, |n| {
                        script_op(shape, &pool, n)
                    })?;
                    Ok::<_, String>(sess)
                });
        let sess = ran?;
        setup.push(secs);
        original = by_seq(&sess);
        for seq in 0..scale.ops as u64 {
            checked(&mut out, &original, seq);
        }
        journal_gate(&mut out, &sess, scale.ops as u64);
        sess.shutdown();
    }
    out.readings.put_median("setup_s", &setup);

    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds {
        let op = walls.len() as u64;
        let (resumed, secs, _) = ctx
            .tracer
            .time("stream", "open(resume)+drain", op, None, || {
                // A restarted process finds the old store on disk: adopt its
                // files so the session can clear and rebuild them.
                let (env, _) = MmapEnv::recover(store_config(&root))
                    .map_err(|e| format!("recover store: {e}"))?;
                let sess =
                    StreamSession::open(Arc::new(env), head.clone(), config(Some(&wal), true))
                        .map_err(|e| format!("resume: {e}"))?;
                sess.drain();
                Ok::<_, String>(sess)
            });
        let sess = resumed?;
        walls.push(secs);
        // Every op is re-reported, from the journal, with the pairs and
        // checksum the original session reported.
        let again = by_seq(&sess);
        for (seq, first) in &original {
            let r = again.get(seq);
            out.check(
                r.is_some_and(|r| r.ok && r.resumed && outcome_of(r) == outcome_of(first)),
                || {
                    format!(
                        "op {seq} resumed as {:?}, originally {:?}",
                        r.map(outcome_of),
                        outcome_of(first)
                    )
                },
            );
        }
        if again.len() != original.len() {
            out.fail(format!(
                "resume reported {} ops, the journal holds {}",
                again.len(),
                original.len()
            ));
        }
        sess.shutdown();
    }
    out.note("resumes", walls.len());
    out.note("journal_ops", scale.ops);
    out.note("s_objects", shape.s_objects);

    let total: f64 = walls.iter().sum();
    out.readings.put_median(
        "latency_p50_ms",
        &walls.iter().map(|w| w * 1e3).collect::<Vec<_>>(),
    );
    out.readings
        .put("throughput_per_s", (walls.len() * scale.ops) as f64 / total);

    if ctx.traced() {
        out.readings.put(
            "stream.resume_ops_per_s",
            (walls.len() * scale.ops) as f64 / total,
        );
        // A resume is a resident rebuild plus the replay; build a set of
        // the same shape directly to tell the two apart.
        let mut builds = Vec::new();
        for rep in 0..3 {
            let (set, secs, _) = ctx
                .tracer
                .time("stream", "ResidentSet::build", rep, None, || {
                    direct_set(ctx, shape.s_objects)
                });
            set?.teardown().map_err(|e| format!("teardown: {e}"))?;
            builds.push(secs);
        }
        out.readings.put_median("stream.resident_build_s", &builds);
        out.readings.put(
            "stream.resume_replay_s",
            (median(&walls) - median(&builds)).max(0.0),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Scratch;
    use crate::spans::Tracer;

    #[test]
    fn the_script_mutates_after_every_eighth_batch_with_short_lines() {
        let pool = batch_pool(1, 4096, 16, 4, 1 << 32);
        let kinds: Vec<bool> = (0..20)
            .map(|n| script_op(&DURABLE_SMOKE, &pool, n).is_mutation())
            .collect();
        assert_eq!(kinds.iter().filter(|&&m| m).count(), 4);
        assert!(kinds[8] && kinds[9] && kinds[18] && kinds[19] && !kinds[10]);
        assert!(matches!(
            script_op(&DURABLE_SMOKE, &pool, 8),
            StreamOp::Delete { count: 4, .. }
        ));
        assert!(matches!(
            script_op(&DURABLE_SMOKE, &pool, 9),
            StreamOp::Append { count: 4, .. }
        ));
        // 16 rows of keys below 2^32: a few hundred bytes per record.
        assert!(rows_op(&pool, 0).to_line().len() <= 350);
    }

    #[test]
    fn an_over_filled_journal_fails_the_durable_run_loudly() {
        // Batches of 2048 rows are ~40 KB a record: a hundred and some
        // fill the 4 MiB journal, after which the session keeps
        // acknowledging ops it can no longer commit. With the harness's
        // own capacity guard lifted, the gate must say so.
        let oversized = DurableScale {
            rows: 2048,
            sat_ops: 400,
            journal_fill: 10.0,
            phases: Phases {
                sat_seconds: 5.0,
                ..DURABLE_SMOKE.phases
            },
            ..DURABLE_SMOKE
        };
        let scratch =
            Scratch::new(Path::new(crate::scratch::SCRATCH_BASE), "test-overfill").unwrap();
        let ctx = Ctx {
            seed: 7,
            seconds: 0.1,
            smoke: true,
            setup_reps: 1,
            scratch: &scratch,
            tracer: Tracer::new(false),
        };
        let out = run_durable_with(&ctx, &oversized).unwrap();
        assert!(out.failed > 0, "a full journal must count as failed ops");
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("acknowledged without a commit")),
            "{:?}",
            out.failures
        );
    }
}

//! The streaming session: one resident set, one ordered worker, an
//! unbounded op queue with backpressure, write-ahead journaling of
//! every op, and exactly-once resume.
//!
//! Ordering is the correctness backbone: `append=`/`delete=` mutate the
//! resident set, so batches must observe exactly the mutations that
//! preceded them in submission order. A single worker executes ops in
//! sequence, which also makes the journal's completion records a prefix
//! of its submission records — resume re-reports completed ops from
//! their journaled outputs (exactly once, no re-execution) and
//! re-executes only the suffix that never completed.
//!
//! The resident set a resume starts from is the one the last clean
//! shutdown checkpointed, reopened as it is, when the checkpoint names
//! the journal's last completed mutation ([`ResidentSet::reopen`]).
//! Otherwise (no checkpoint, a torn or stale one, any crash) the set is
//! rebuilt and the completed mutations are re-applied in seq order. A
//! clean shutdown of a journaled session checkpoints only when storage
//! holds exactly the completed mutations: no patch failed and no
//! commit was refused.
//!
//! The journal is opened like every tier's
//! ([`Journal::open_or_create`]), and sequence numbers, the op
//! records and the results go through the shared lifecycle
//! ([`JobLog`]): `BatchSubmitted` is committed as the op is accepted,
//! `BatchCompleted` as its result is published, and only for ops that
//! verified clean (a failed op re-runs on resume). Beyond it the stream
//! commits one `StreamOpened` at open, which pins the header line so a
//! resume with a different shape is refused; a refusal fails `open`.
//! A refused `BatchSubmitted` is the one refusal that is only logged:
//! the op runs, and is not durable (ROADMAP item 13).
//!
//! Lock order: the session lock, then the log's.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use mmjoin::probe_cost;
use mmjoin_env::machine::MachineParams;
use mmjoin_env::trace::escape;
use mmjoin_env::{Env, EnvError, Histogram, ProcId, Result, TraceEvent};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_recovery::{JobLog, Journal, JournalRecord, ReplayState};

use crate::grammar::{StreamHeader, StreamOp, PAGE};
use crate::resident::{delete_files, BatchOutput, ResidentSet};

/// Journal file name inside the stream journal directory.
const JOURNAL_FILE: &str = "stream.wal";

/// Process identity journal operations are attributed to.
const PROC: ProcId = ProcId(0);

/// Session configuration.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Backpressure bound: `submit` blocks while this many ops queue.
    pub queue_bound: usize,
    /// Machine parameters pricing each batch's `predicted_seconds`
    /// ([`mmjoin::probe_cost`]); nothing schedules by the price.
    pub machine: MachineParams,
    /// Journal directory; `None` disables journaling (and resume).
    pub journal_dir: Option<PathBuf>,
    /// Replay an existing journal instead of starting fresh.
    pub resume: bool,
}

impl StreamConfig {
    /// Journaling disabled, default bound.
    pub fn ephemeral(machine: MachineParams) -> StreamConfig {
        StreamConfig {
            queue_bound: 64,
            machine,
            journal_dir: None,
            resume: false,
        }
    }
}

/// One finished op, batch or mutation.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Stream sequence number.
    pub seq: u64,
    /// Batch name, or `"append"`/`"delete"`.
    pub name: String,
    /// `"batch"`, `"append"` or `"delete"`.
    pub kind: &'static str,
    /// R rows probed (batches) or slots patched (mutations).
    pub rows: u64,
    /// Join pairs produced (0 for mutations).
    pub pairs: u64,
    /// Order-independent checksum over the pairs.
    pub checksum: u64,
    /// Rows that hit a tombstoned slot.
    pub misses: u64,
    /// Output matched the session's oracle.
    pub ok: bool,
    /// Planner-predicted probe seconds (0 for mutations).
    pub predicted_seconds: f64,
    /// Wall seconds queued before the worker picked the op up.
    pub queue_wait: f64,
    /// Wall seconds executing.
    pub exec_wall: f64,
    /// Environment-reported seconds (virtual on `SimEnv`): worst
    /// per-partition clock advance during the op.
    pub env_elapsed: f64,
    /// Live slots after the op.
    pub live_after: u64,
    /// Re-reported from the journal by `--resume`, not re-executed.
    pub resumed: bool,
    /// Error text when `ok` is false.
    pub error: Option<String>,
}

impl BatchResult {
    /// Client-observed latency.
    pub fn latency(&self) -> f64 {
        self.queue_wait + self.exec_wall
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seq\":{},\"name\":\"{}\",\"kind\":\"{}\",\"rows\":{},",
                "\"pairs\":{},\"checksum\":{},\"misses\":{},\"ok\":{},",
                "\"predicted_seconds\":{:.6},\"queue_wait\":{:.6},",
                "\"exec_wall\":{:.6},\"env_elapsed\":{:.6},\"live_after\":{},",
                "\"resumed\":{}}}"
            ),
            self.seq,
            escape(&self.name),
            self.kind,
            self.rows,
            self.pairs,
            self.checksum,
            self.misses,
            self.ok,
            self.predicted_seconds,
            self.queue_wait,
            self.exec_wall,
            self.env_elapsed,
            self.live_after,
            self.resumed,
        )
    }
}

/// Aggregated session counters.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Ops accepted (batches + mutations).
    pub submitted: u64,
    /// Batches that completed and verified.
    pub completed: u64,
    /// Ops that failed verification or errored.
    pub failed: u64,
    /// Maintenance ops applied.
    pub mutations: u64,
    /// Join pairs across every batch.
    pub pairs: u64,
    /// Tombstone hits across every batch.
    pub misses: u64,
    /// Times a submitter blocked on the queue bound.
    pub backpressure: u64,
    /// Resident S slots (live + tombstoned).
    pub resident_objects: u64,
    /// Live slots right now.
    pub live_objects: u64,
    /// Resident sets this session built (0 or 1).
    pub resident_builds: u64,
    /// Resident sets this session reopened from a checkpoint (0 or 1).
    pub resident_reopens: u64,
    /// Slots patched in place by mutations.
    pub patched_objects: u64,
    /// Batches re-reported from the journal instead of re-executed.
    pub resumed_batches: u64,
    /// Journal records appended by this process.
    pub journal_appended_records: u64,
    /// Journal commits performed.
    pub journal_commits: u64,
    /// Journal `sync` calls issued (one per commit, plus the create's).
    pub journal_syncs: u64,
    /// CRC-valid records replayed at startup.
    pub journal_replayed_records: u64,
    /// Committed bytes lost to a torn tail at startup.
    pub journal_torn_bytes: u64,
    /// Predicted probe seconds summed over batches.
    pub predicted_seconds: f64,
    /// Wall seconds executing, summed.
    pub exec_seconds: f64,
    /// Client-observed per-batch latency.
    pub batch_hist: Histogram,
    /// Per-op queue wait.
    pub queue_hist: Histogram,
}

impl StreamStats {
    /// Fold one finished op in.
    fn record(&mut self, r: &BatchResult) {
        if r.ok {
            if r.kind == "batch" {
                self.completed += 1;
            } else {
                self.mutations += 1;
                self.patched_objects += r.rows;
            }
        } else {
            self.failed += 1;
        }
        self.pairs += r.pairs;
        self.misses += r.misses;
        self.exec_seconds += r.exec_wall;
        self.predicted_seconds += r.predicted_seconds;
        self.live_objects = r.live_after;
        if r.resumed {
            self.resumed_batches += 1;
        }
        if r.kind == "batch" {
            self.batch_hist.record(r.latency());
        }
        self.queue_hist.record(r.queue_wait);
    }
}

struct QueuedOp {
    seq: u64,
    op: StreamOp,
    enqueued: Instant,
}

#[derive(Default)]
struct SessState {
    queue: VecDeque<QueuedOp>,
    shutdown: bool,
    stats: StreamStats,
    /// An op ran without both of its records committed, so storage may
    /// hold a mutation the journal lacks: shutdown keeps nothing.
    uncommitted: bool,
    /// Seq of the last mutation applied to the resident set.
    last_mutation: Option<u64>,
}

struct Shared<E: Env> {
    env: Arc<E>,
    header: StreamHeader,
    machine: MachineParams,
    log: JobLog<BatchResult, MmapEnv>,
    state: Mutex<SessState>,
    not_full: Condvar,
    not_empty: Condvar,
    bound: usize,
}

impl<E: Env> Shared<E> {
    fn lock(&self) -> MutexGuard<'_, SessState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running streaming session over environment `E`.
pub struct StreamSession<E: Env + 'static> {
    shared: Arc<Shared<E>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<E: Env + 'static> StreamSession<E> {
    /// Open a stream: set up (or replay) the journal, reopen or build
    /// the resident set, re-report any replayed ops, and start the
    /// worker.
    pub fn open(env: Arc<E>, header: StreamHeader, cfg: StreamConfig) -> Result<StreamSession<E>> {
        header.rel().validate()?;
        let (mut journal, replayed) = match &cfg.journal_dir {
            None => (None, None),
            Some(dir) => {
                // The journal owns its `stream.wal` and nothing else in
                // `dir`: recovering (not wiping) the directory keeps a
                // store beside it (`serve --stream --env mmap` puts one
                // in `dir/store`), and a fresh stream clears only the
                // journal file.
                let (jenv, _) = MmapEnv::recover(MmapEnvConfig {
                    root: dir.clone(),
                    num_disks: 1,
                    page_size: PAGE,
                })?;
                let (journal, replayed) =
                    Journal::open_or_create(jenv, JOURNAL_FILE, cfg.resume, PROC)?;
                (Some(journal), replayed)
            }
        };
        let replayed = replayed.map(|r| ReplayState::from_records(&r.records));

        // A resumed stream must be the same stream: the journaled
        // header line pins the resident shape.
        if let Some(state) = &replayed {
            if let Some(line) = &state.stream_line {
                if *line != header.to_line() {
                    return Err(EnvError::InvalidConfig(format!(
                        "resume header mismatch: journal has {line:?}, caller has {:?}",
                        header.to_line()
                    )));
                }
            }
        }

        // The replayed op list, in seq order. A dropped op keeps its
        // seq (`top`).
        let (top, ops) = match &replayed {
            None => (None, Vec::new()),
            Some(state) => {
                let ops: Vec<_> = state
                    .batches
                    .iter()
                    .filter_map(|(seq, bs)| match StreamOp::parse_line(&bs.line) {
                        Ok(Some(op)) => Some((*seq, (op, bs.completed))),
                        _ => {
                            eprintln!(
                                "mmjoin-stream: journal op {seq} has unusable line {:?}; dropped",
                                bs.line
                            );
                            None
                        }
                    })
                    .collect();
                (state.batches.keys().next_back().copied(), ops)
            }
        };
        // What the completed mutations leave: the last one's seq and the
        // live count, which a reopened set must show.
        let mut last_mutation = None;
        let mut live = header.s_objects;
        for (seq, (op, completed)) in &ops {
            if op.is_mutation() && completed.is_some() {
                last_mutation = Some(*seq);
                live = live_after(live, op);
            }
        }

        let reopened = match replayed {
            Some(_) => ResidentSet::reopen(Arc::clone(&env), &header, last_mutation, live)?,
            None => None,
        };
        let reopen = reopened.is_some();
        let mut resident = match reopened {
            Some(set) => set,
            None => {
                // Leftover files of an earlier process would make the
                // build's create_file fail; whatever they hold, the
                // rebuild and the replay below reproduce.
                let prefix = format!("{}.", header.name);
                let mut leftovers = env.list_files();
                leftovers.retain(|name| name.starts_with(&prefix));
                delete_files(&*env, &header.name, &leftovers)?;
                ResidentSet::build(Arc::clone(&env), &header, &cfg.machine)?
            }
        };
        if let (Some(j), None) = (journal.as_mut(), &replayed) {
            j.append_commit(&JournalRecord::StreamOpened {
                line: header.to_line(),
            })?;
        }

        let shared = Arc::new(Shared {
            env: Arc::clone(&env),
            header: header.clone(),
            machine: cfg.machine,
            log: JobLog::new(journal, 0),
            state: Mutex::new(SessState::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            bound: cfg.queue_bound.max(1),
        });

        {
            let mut st = shared.lock();
            st.stats.resident_objects = header.s_objects;
            st.stats.live_objects = header.s_objects;
            st.stats.resident_builds = u64::from(!reopen);
            st.stats.resident_reopens = u64::from(reopen);
            st.last_mutation = last_mutation;
        }

        // Re-report completed ops in seq order, re-applying completed
        // mutations to a rebuilt set (a reopened one holds them
        // already); everything else queues for normal execution.
        if replayed.is_some() {
            let mut st = shared.lock();
            let mut live = header.s_objects;
            shared
                .log
                .resume(top, ops, |seq, (op, completed)| -> Result<_> {
                    st.stats.submitted += 1;
                    let Some((pairs, checksum, misses)) = completed else {
                        st.queue.push_back(QueuedOp {
                            seq,
                            op,
                            enqueued: Instant::now(),
                        });
                        return Ok(None);
                    };
                    if op.is_mutation() {
                        if !reopen {
                            apply_mutation(&mut resident, &op)?;
                        }
                        live = live_after(live, &op);
                    }
                    let r = BatchResult {
                        seq,
                        name: op.label().to_string(),
                        kind: op_kind(&op),
                        rows: op_rows(&op),
                        pairs,
                        checksum,
                        misses,
                        ok: true,
                        predicted_seconds: 0.0,
                        queue_wait: 0.0,
                        exec_wall: 0.0,
                        env_elapsed: 0.0,
                        live_after: live,
                        resumed: true,
                        error: None,
                    };
                    st.stats.record(&r);
                    Ok(Some(r))
                })?;
        }

        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mmjoin-stream-worker".into())
                .spawn(move || worker_loop(shared, resident))
                .map_err(|e| EnvError::InvalidConfig(format!("worker spawn: {e}")))?
        };

        Ok(StreamSession {
            shared,
            worker: Some(worker),
        })
    }

    /// Submit one op; blocks while the queue is at the bound
    /// (backpressure). Returns the op's sequence number.
    pub fn submit(&self, op: StreamOp) -> Result<u64> {
        // The journal line is formatted before the state lock is taken
        // (a 4096-row `batch-rows=` line is not short); an un-journaled
        // session formats nothing.
        let line = self.shared.log.is_journaled().then(|| op.to_line());
        let mut st = self.shared.lock();
        let mut blocked = false;
        while st.queue.len() >= self.shared.bound && !st.shutdown {
            if !blocked {
                blocked = true;
                st.stats.backpressure += 1;
                self.shared.env.trace(
                    PROC,
                    TraceEvent::StreamBackpressure {
                        queued: st.queue.len() as u64,
                        bound: self.shared.bound as u64,
                    },
                );
            }
            st = self
                .shared
                .not_full
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        if st.shutdown {
            return Err(EnvError::InvalidConfig("stream is shut down".into()));
        }
        let rows = op_rows(&op);
        let mut refused = false;
        let seq = self.shared.log.accept(
            |seq| JournalRecord::BatchSubmitted {
                batch: seq,
                line: line.unwrap_or_default(),
            },
            |e| {
                // The one refused commit that is only logged, not
                // propagated: the op still runs, and is not durable
                // (ROADMAP item 13).
                eprintln!("mmjoin-stream: journal commit (batch_submitted) failed: {e}");
                refused = true;
                Ok(())
            },
            |seq| {
                st.queue.push_back(QueuedOp {
                    seq,
                    op,
                    enqueued: Instant::now(),
                })
            },
        )?;
        st.uncommitted |= refused;
        st.stats.submitted += 1;
        self.shared
            .env
            .trace(PROC, TraceEvent::BatchSubmitted { batch: seq, rows });
        self.shared.not_empty.notify_one();
        Ok(seq)
    }

    /// Submit every op line of a script (blank/comment lines skipped).
    pub fn submit_script(&self, script: &str) -> Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for line in script.lines() {
            if let Some(op) = StreamOp::parse_line(line).map_err(EnvError::InvalidConfig)? {
                seqs.push(self.submit(op)?);
            }
        }
        Ok(seqs)
    }

    /// Block until every accepted op has its result.
    pub fn drain(&self) {
        self.shared.log.drain()
    }

    /// Results so far, submission order.
    pub fn results(&self) -> Vec<BatchResult> {
        let mut r = self.shared.log.results();
        r.sort_by_key(|x| x.seq);
        r
    }

    /// Results past the first `from`, in completion order, once there
    /// are any; empty once `deadline` passes ([`JobLog::wait_results`]).
    pub fn wait_results(&self, from: usize, deadline: Instant) -> Vec<BatchResult> {
        self.shared.log.wait_results(from, deadline)
    }

    /// Make every `wait_results`, blocked now or called later, return
    /// at once ([`JobLog::wake`]).
    pub fn wake_waiters(&self) {
        self.shared.log.wake()
    }

    /// Counter snapshot (journal counters folded in live).
    pub fn stats(&self) -> StreamStats {
        let mut s = self.shared.lock().stats.clone();
        if let Some(js) = self.shared.log.journal_stats() {
            s.journal_appended_records = js.appended_records;
            s.journal_commits = js.commits;
            s.journal_syncs = js.syncs;
            s.journal_replayed_records = js.replayed_records;
            s.journal_torn_bytes = js.torn_bytes;
        }
        s
    }

    /// Drain, stop the worker, and tear the resident set down.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl<E: Env + 'static> Drop for StreamSession<E> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn op_kind(op: &StreamOp) -> &'static str {
    match op {
        StreamOp::Batch { .. } | StreamOp::BatchRows { .. } => "batch",
        StreamOp::Append { .. } => "append",
        StreamOp::Delete { .. } => "delete",
    }
}

fn op_rows(op: &StreamOp) -> u64 {
    match op {
        StreamOp::Batch { objects, .. } => *objects,
        StreamOp::BatchRows { rows, .. } => rows.len() as u64,
        StreamOp::Append { count, .. } | StreamOp::Delete { count, .. } => *count,
    }
}

/// Live slots after completed op `op` left `live`.
fn live_after(live: u64, op: &StreamOp) -> u64 {
    match op {
        StreamOp::Append { count, .. } => live.saturating_add(*count),
        StreamOp::Delete { count, .. } => live.saturating_sub(*count),
        _ => live,
    }
}

fn apply_mutation<E: Env>(resident: &mut ResidentSet<E>, op: &StreamOp) -> Result<Vec<u64>> {
    match op {
        StreamOp::Append { count, .. } => resident.append(*count),
        StreamOp::Delete { count, seed } => resident.delete(*count, *seed),
        _ => Ok(Vec::new()),
    }
}

fn worker_loop<E: Env + 'static>(shared: Arc<Shared<E>>, mut resident: ResidentSet<E>) {
    loop {
        let item = {
            let mut st = shared.lock();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    break Some(item);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.not_full.notify_all();
        let Some(item) = item else { break };

        let queue_wait = item.enqueued.elapsed().as_secs_f64();
        let started = Instant::now();
        let t0: Vec<f64> = (0..resident.rel().d)
            .map(|j| shared.env.now(ProcId(j)))
            .collect();

        let (rows, output, predicted, error) = execute(&shared, &mut resident, &item.op);

        let env_elapsed = (0..resident.rel().d)
            .map(|j| shared.env.now(ProcId(j)) - t0[j as usize])
            .fold(0.0, f64::max);
        let exec_wall = started.elapsed().as_secs_f64();
        // Only a clean op commits its completion: a failed op re-runs
        // after a crash, and so does one whose commit is refused.
        let completed = error.is_none().then_some(JournalRecord::BatchCompleted {
            batch: item.seq,
            pairs: output.pairs,
            checksum: output.checksum,
            misses: output.misses,
        });
        let live_after = resident.live_count();
        let mut st = shared.lock();
        shared.log.publish(item.seq, completed, |committed| {
            st.uncommitted |= committed.is_err();
            let error = error.or_else(|| {
                committed
                    .err()
                    .map(|e| format!("journal commit failed: {e}"))
            });
            let ok = error.is_none();
            if ok && item.op.is_mutation() {
                st.last_mutation = Some(item.seq);
            }
            let result = BatchResult {
                seq: item.seq,
                name: item.op.label().to_string(),
                kind: op_kind(&item.op),
                rows,
                pairs: output.pairs,
                checksum: output.checksum,
                misses: output.misses,
                ok,
                predicted_seconds: predicted,
                queue_wait,
                exec_wall,
                env_elapsed,
                live_after,
                resumed: false,
                error,
            };
            shared.env.trace(
                PROC,
                TraceEvent::BatchCompleted {
                    batch: item.seq,
                    pairs: result.pairs,
                    misses: result.misses,
                    ok,
                },
            );
            st.stats.record(&result);
            result
        });
    }
    // A journaled session whose storage holds exactly the completed
    // mutations keeps its partitions for the next resume to reopen;
    // any other deletes them, and a resume rebuilds what they held.
    let (uncommitted, last_mutation) = {
        let st = shared.lock();
        (st.uncommitted, st.last_mutation)
    };
    let done = if shared.log.is_journaled() && !uncommitted {
        resident.checkpoint(&shared.header, last_mutation)
    } else {
        resident.teardown()
    };
    if let Err(e) = done {
        eprintln!("mmjoin-stream: resident shutdown failed: {e}");
    }
}

/// Run one op against the resident set. Returns
/// `(rows, output, predicted_seconds, error)`.
fn execute<E: Env>(
    shared: &Shared<E>,
    resident: &mut ResidentSet<E>,
    op: &StreamOp,
) -> (u64, BatchOutput, f64, Option<String>) {
    match op {
        StreamOp::Batch { .. } | StreamOp::BatchRows { .. } => {
            let rows = match op {
                StreamOp::Batch { objects, .. } if *objects > 0 && resident.live_count() == 0 => {
                    let error = format!("batch of {objects} rows but no live slots");
                    return (*objects, BatchOutput::default(), 0.0, Some(error));
                }
                StreamOp::Batch { objects, seed, .. } => resident.gen_batch(*objects, *seed),
                StreamOp::BatchRows { rows, .. } => rows.clone(),
                _ => unreachable!(),
            };
            let inputs = resident.batch_inputs(&shared.header, rows.len() as u64);
            let predicted = probe_cost(&shared.machine, &inputs, rows.len() as u64).total();
            // Probe before pricing the oracle: the probe refuses a row
            // past |S|, which the oracle's key table cannot index.
            match resident.probe(&rows) {
                Ok(out) => {
                    let expected = resident.expected(&rows);
                    let error = (out != expected).then(|| {
                        format!("verification failed: got {out:?}, expected {expected:?}")
                    });
                    (rows.len() as u64, out, predicted, error)
                }
                Err(e) => (
                    rows.len() as u64,
                    BatchOutput::default(),
                    predicted,
                    Some(e.to_string()),
                ),
            }
        }
        StreamOp::Append { count, .. } | StreamOp::Delete { count, .. } => {
            match apply_mutation(resident, op) {
                Ok(slots) => (slots.len() as u64, BatchOutput::default(), 0.0, None),
                Err(e) => (*count, BatchOutput::default(), 0.0, Some(e.to_string())),
            }
        }
    }
}

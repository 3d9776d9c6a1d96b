//! The cluster coordinator: dispatch, heartbeats, failure detection,
//! node-loss re-queue, and the coordinator-side write-ahead journal.
//!
//! # Fault model
//!
//! One thread per configured node owns that node's TCP session:
//! connect (with [`RetryPolicy`] backoff on transient errors — the same
//! classification [`EnvError::is_transient`] gives the join retry
//! layer) and read the node's `Hello` registration. From there the
//! session is event-driven and has two halves. The owner thread is the
//! *dispatcher*: it claims pending jobs that fit the node's advertised
//! budget and free worker slots, sends heartbeats on a timer, and
//! otherwise sleeps on the coordinator's condvar until a submit, a
//! completion, a membership change or the next timer wakes it. A
//! *reader* thread, alive only for the session, blocks on the socket
//! and absorbs `Pong`/`JobDone` replies. Nothing polls: a hand-off
//! between the two costs a context switch, not a tick.
//!
//! A connection **drop** that still has reconnect budget re-queues the
//! node's in-flight jobs before the reconnect attempt: a `RunJob`
//! written into the dying connection may never have arrived, and the
//! node cannot report while disconnected, so leaving the jobs in
//! flight could strand them forever on an otherwise healthy node.
//! Node-side dedup by job id absorbs the duplicate dispatch.
//!
//! A node is declared **dead** when its heartbeat goes unanswered for
//! the configured timeout, when the connection drops and reconnect
//! attempts are exhausted, or when the protocol stream is corrupt
//! (non-transient). Death is handled exactly once per node:
//!
//! * its budget reservation is zeroed *once* — the re-queued jobs
//!   re-reserve on whichever surviving node admits them, so releasing
//!   again at completion would double-count (that double release is the
//!   `budget_leak_bytes` bug this layer guards against with a
//!   take-the-entry-or-do-nothing discipline);
//! * every in-flight job is re-queued to the front of the pending
//!   queue with a `ready_at` delay of `RetryPolicy::backoff(attempt)` —
//!   the join retry layer's backoff semantics lifted to the cluster —
//!   or failed terminally once its dispatch attempts are exhausted;
//! * admission is re-planned against the survivors: any pending job
//!   whose footprint no longer fits *any* live node fails instead of
//!   waiting forever.
//!
//! # Exactly-once results over at-least-once dispatch
//!
//! Dispatch is at-least-once (re-queue can re-run a job whose first
//! completion died with its node before reporting). Ids, the journal
//! (opened like serve's by [`mmjoin_serve::open_journal`]) and the
//! results go through the lifecycle every tier shares ([`JobLog`]),
//! which publishes the first `JobDone` per id and drops the rest; a
//! dropped one counts as a duplicate. Across a coordinator crash
//! `--resume` re-reports journaled completions without re-running them
//! (folded by [`mmjoin_serve::resume_jobs`], as serve's are) and
//! re-dispatches every job with no durable completion, wherever it
//! last ran: dispatches and node deaths are not journaled.
//!
//! Lock order: the coordinator's lock, then the log's.
//!
//! [`EnvError::is_transient`]: mmjoin_env::EnvError::is_transient

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mmjoin::RetryPolicy;
use mmjoin_env::{null_sink, EnvError, TraceEvent, TraceSink};
use mmjoin_mmstore::MmapEnv;
use mmjoin_recovery::{JobLog, JournalRecord, ReplayState, Replayed};
use mmjoin_serve::{open_journal, refused_completion, replayed_error, resume_jobs, JobRequest};

use crate::stats::ClusterStats;
use crate::wire::{write_msg, FrameReader, Message};

/// Journal file name inside the coordinator's journal directory.
const JOURNAL_FILE: &str = "coordinator.wal";

/// Coordinator configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Node addresses to connect to (`host:port`).
    pub nodes: Vec<String>,
    /// Heartbeat ping interval.
    pub heartbeat: Duration,
    /// Declare a node dead after this long without hearing from it.
    pub timeout: Duration,
    /// Bounds reconnect attempts and per-job dispatch attempts, and
    /// supplies the backoff curve for both.
    pub retry: RetryPolicy,
    /// Write-ahead journal directory; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Replay an existing journal instead of starting fresh.
    pub resume: bool,
    /// Trace sink for node lifecycle and job events.
    pub trace: Arc<dyn TraceSink>,
}

impl ClusterConfig {
    /// A config for the given nodes with test-friendly timing defaults.
    pub fn new(nodes: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            nodes,
            heartbeat: Duration::from_millis(100),
            timeout: Duration::from_millis(1500),
            retry: RetryPolicy::default(),
            journal_dir: None,
            resume: false,
            trace: null_sink(),
        }
    }

    /// Set the heartbeat interval.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Set the failure-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Set the reconnect/re-dispatch retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enable the write-ahead journal under `dir`.
    pub fn with_journal(mut self, dir: PathBuf) -> Self {
        self.journal_dir = Some(dir);
        self
    }

    /// Resume from an existing journal (pair with `with_journal`).
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Install a trace sink.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = sink;
        self
    }
}

/// One terminal cluster job outcome.
#[derive(Clone, Debug)]
pub struct ClusterJobResult {
    /// Cluster job id (submission order, continued across resumes).
    pub id: u64,
    /// Client label from the request.
    pub name: String,
    /// Node that reported the result (`journal` for resumed results,
    /// `coordinator` for jobs failed without reaching a node).
    pub node: String,
    /// Algorithm that ran (name; `auto` when unknown).
    pub alg: String,
    /// Joined pairs produced.
    pub pairs: u64,
    /// Order-independent join checksum.
    pub checksum: u64,
    /// Whether the result verified on the node.
    pub ok: bool,
    /// Times the job was re-queued off a dead node.
    pub requeues: u32,
    /// Submit→completion wall seconds (0 for resumed results).
    pub latency: f64,
    /// Reconstructed from the journal rather than run in this life.
    pub resumed: bool,
    /// Failure message, if any.
    pub error: Option<String>,
}

struct PendingJob {
    id: u64,
    req: JobRequest,
    requeues: u32,
    ready_at: Instant,
    submitted: Instant,
}

struct InFlight {
    req: JobRequest,
    requeues: u32,
    submitted: Instant,
}

#[derive(Default)]
struct NodeState {
    addr: String,
    name: String,
    registered: bool,
    alive: bool,
    /// The node's thread is done with it: dead, or departed cleanly.
    terminal: bool,
    budget: u64,
    workers: u32,
    reserved: u64,
    in_flight: std::collections::BTreeMap<u64, InFlight>,
    /// When the live session's reader last got a frame; the heartbeat
    /// timer measures silence from here.
    last_heard: Option<Instant>,
    /// How the live session's reader ended, left for its dispatcher.
    reader_end: Option<SessionEnd>,
}

impl NodeState {
    fn display_name(&self) -> &str {
        if self.name.is_empty() {
            &self.addr
        } else {
            &self.name
        }
    }
}

struct CoState {
    pending: VecDeque<PendingJob>,
    nodes: Vec<NodeState>,
    stats: ClusterStats,
    /// Finish was requested: stop dispatching once drained and send
    /// each node a `Shutdown`.
    halt: bool,
}

struct CoShared {
    cfg: ClusterConfig,
    state: Mutex<CoState>,
    /// Signalled after every change to `state` that a sleeper could act
    /// on. Dispatchers, reconnect backoffs and `drain` all sleep here,
    /// and each checks its condition under `state` before waiting, so a
    /// wake-up cannot be lost.
    done: Condvar,
    start: Instant,
    log: JobLog<ClusterJobResult, MmapEnv>,
}

impl CoShared {
    fn lock(&self) -> MutexGuard<'_, CoState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn trace(&self, event: TraceEvent) {
        if self.cfg.trace.enabled() {
            self.cfg.trace.emit(self.now(), event);
        }
    }

    /// Could `footprint` ever be placed, given the nodes not yet
    /// terminal? Nodes that have not registered yet count as possible
    /// homes (their budget is unknown until their `Hello`).
    fn placeable(st: &CoState, footprint: u64) -> bool {
        st.nodes
            .iter()
            .any(|n| !n.terminal && (!n.registered || n.budget >= footprint))
    }

    /// Fail one job terminally, unless it already has a result.
    fn fail_job(&self, st: &mut CoState, id: u64, req: &JobRequest, requeues: u32, error: String) {
        let failed = JournalRecord::JobCompleted {
            job: id,
            pairs: 0,
            checksum: 0,
            ok: false,
        };
        self.log.publish(id, Some(failed), |committed| {
            let error = match committed {
                Ok(()) => error,
                Err(e) => refused_completion(Some(error), &e),
            };
            st.stats.completed += 1;
            st.stats.failed += 1;
            self.trace(TraceEvent::JobCompleted {
                job: id,
                ok: false,
                degraded: 0,
            });
            ClusterJobResult {
                id,
                name: req.name.clone(),
                node: "coordinator".into(),
                alg: req.alg.map_or("auto", |a| a.name()).to_string(),
                pairs: 0,
                checksum: 0,
                ok: false,
                requeues,
                latency: 0.0,
                resumed: false,
                error: Some(error),
            }
        });
    }

    /// Fail every pending job that no longer fits any live node — the
    /// admission re-plan after capacity shrinks.
    fn fail_unplaceable(&self, st: &mut CoState) {
        let mut keep = VecDeque::with_capacity(st.pending.len());
        while let Some(p) = st.pending.pop_front() {
            if Self::placeable(st, p.req.footprint()) {
                keep.push_back(p);
            } else {
                let err = format!(
                    "job footprint {} no longer fits any surviving node",
                    p.req.footprint()
                );
                self.fail_job(st, p.id, &p.req, p.requeues, err);
            }
        }
        st.pending = keep;
    }

    /// Declare node `idx` dead exactly once: emit `node_lost`, zero its
    /// reservation, and re-queue (or terminally fail) its in-flight
    /// jobs.
    fn declare_dead(&self, idx: usize, why: &str) {
        let mut st = self.lock();
        if st.nodes[idx].terminal {
            return;
        }
        let node = &mut st.nodes[idx];
        node.terminal = true;
        let was_registered = node.registered;
        node.alive = false;
        let name = node.display_name().to_string();
        let in_flight = std::mem::take(&mut node.in_flight);
        // Release-once: the re-queued jobs will re-reserve on whichever
        // node re-admits them; the completion path releases only when
        // it finds the in-flight entry, which we just took. Zeroing
        // here (rather than subtracting per job at completion) is what
        // keeps `budget_leak_bytes` at zero across a death.
        node.reserved = 0;
        if was_registered {
            st.stats.node_losses += 1;
            eprintln!("mmjoin-cluster: node {name} lost ({why})");
            self.trace(TraceEvent::NodeLost {
                node: name.clone(),
                in_flight: in_flight.len() as u64,
            });
        }
        let now = Instant::now();
        for (id, fl) in in_flight {
            let attempt = fl.requeues + 1;
            if attempt >= self.cfg.retry.max_attempts {
                let err = format!("lost with node {name} after {attempt} dispatch attempts");
                self.fail_job(&mut st, id, &fl.req, fl.requeues, err);
                continue;
            }
            if !Self::placeable(&st, fl.req.footprint()) {
                let err = format!(
                    "lost with node {name}; footprint {} fits no surviving node",
                    fl.req.footprint()
                );
                self.fail_job(&mut st, id, &fl.req, fl.requeues, err);
                continue;
            }
            st.stats.requeued += 1;
            self.trace(TraceEvent::JobRequeued {
                job: id,
                from: name.clone(),
                attempt,
            });
            st.pending.push_front(PendingJob {
                id,
                req: fl.req,
                requeues: attempt,
                ready_at: now + self.cfg.retry.backoff(attempt),
                submitted: fl.submitted,
            });
        }
        self.fail_unplaceable(&mut st);
        drop(st);
        self.done.notify_all();
    }

    /// Re-queue node `idx`'s in-flight jobs before a reconnect attempt
    /// after a transient connection drop. A `RunJob` written into the
    /// dropped connection may never have reached the node, and the node
    /// cannot report results while disconnected — without this, a lost
    /// dispatch frame would strand its job in `in_flight` forever on a
    /// node that stays healthy (heartbeats resume after reconnect, so
    /// `declare_dead` never fires, and `drain` never returns). The
    /// node-side dedup by job id makes the duplicate dispatch harmless:
    /// a job the node *did* receive re-sends its cached result instead
    /// of re-running. Because the resend is recovery, not failure, it
    /// does not count against the job's dispatch attempts.
    fn requeue_dropped(&self, idx: usize) {
        let mut st = self.lock();
        if st.nodes[idx].terminal {
            return;
        }
        let in_flight = std::mem::take(&mut st.nodes[idx].in_flight);
        // Release-once, exactly as in `declare_dead`: the re-dispatch
        // re-reserves on whichever node admits the job next.
        st.nodes[idx].reserved = 0;
        if in_flight.is_empty() {
            return;
        }
        let from = st.nodes[idx].display_name().to_string();
        let now = Instant::now();
        // Reverse so push_front leaves the jobs in ascending id order
        // at the head of the queue.
        for (id, fl) in in_flight.into_iter().rev() {
            st.stats.requeued += 1;
            self.trace(TraceEvent::JobRequeued {
                job: id,
                from: from.clone(),
                attempt: fl.requeues,
            });
            st.pending.push_front(PendingJob {
                id,
                req: fl.req,
                requeues: fl.requeues,
                ready_at: now,
                submitted: fl.submitted,
            });
        }
        drop(st);
        self.done.notify_all();
    }

    /// Register a node's `Hello` (first connect or reconnect).
    fn register(&self, idx: usize, name: &str, budget: u64, workers: u32) {
        let mut st = self.lock();
        let node = &mut st.nodes[idx];
        node.name = name.to_string();
        node.budget = budget;
        node.workers = workers.max(1);
        node.registered = true;
        node.alive = true;
        node.last_heard = Some(Instant::now());
        node.reader_end = None;
        st.stats.node_joins += 1;
        self.trace(TraceEvent::NodeJoined {
            node: name.to_string(),
            budget,
            workers,
        });
        drop(st);
        self.done.notify_all();
    }

    /// Claim the first ready pending job that fits node `idx`'s free
    /// budget and worker slots, and reserve its footprint there.
    fn claim(&self, st: &mut CoState, idx: usize) -> Option<(u64, String)> {
        let node = &st.nodes[idx];
        if !node.alive || node.in_flight.len() >= node.workers as usize {
            return None;
        }
        let free = node.budget.saturating_sub(node.reserved);
        // A completion can land while its job still sits in pending
        // (a node replaying its result cache ahead of re-dispatch);
        // never hand out a job that already has a terminal result.
        st.pending.retain(|p| !self.log.is_published(p.id));
        let now = Instant::now();
        let pos = st
            .pending
            .iter()
            .position(|p| p.ready_at <= now && p.req.footprint() <= free)?;
        let p = st.pending.remove(pos).expect("position just found");
        let line = p.req.to_line();
        let footprint = p.req.footprint();
        st.nodes[idx].reserved += footprint;
        st.stats.peak_reserved_bytes = st
            .stats
            .peak_reserved_bytes
            .max(st.nodes.iter().map(|n| n.reserved).sum());
        st.nodes[idx].in_flight.insert(
            p.id,
            InFlight {
                req: p.req,
                requeues: p.requeues,
                submitted: p.submitted,
            },
        );
        Some((p.id, line))
    }

    /// Absorb one `JobDone` from node `idx`: release the reservation if
    /// this node holds the in-flight entry, then publish the result. An
    /// id already published (the at-least-once resend path: a previous
    /// connection, or a re-run after re-queue) only counts a duplicate.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &self,
        idx: usize,
        job: u64,
        alg: String,
        pairs: u64,
        checksum: u64,
        ok: bool,
        error: String,
    ) {
        let mut st = self.lock();
        st.nodes[idx].last_heard = Some(Instant::now());
        // Take-the-entry-or-do-nothing keeps the release single-shot.
        let owned = st.nodes[idx].in_flight.remove(&job);
        if let Some(fl) = &owned {
            let footprint = fl.req.footprint();
            let node = &mut st.nodes[idx];
            debug_assert!(node.reserved >= footprint, "reservation underflow");
            node.reserved = node.reserved.saturating_sub(footprint);
        }
        let node = st.nodes[idx].display_name().to_string();
        let completed = JournalRecord::JobCompleted {
            job,
            pairs,
            checksum,
            ok,
        };
        let published = self.log.publish(job, Some(completed), |committed| {
            let (name, requeues, submitted) = match owned {
                Some(fl) => (fl.req.name, fl.requeues, Some(fl.submitted)),
                // A completion for a job this node no longer owns — it
                // was re-queued off this node after a connection drop
                // and is either still pending or already re-dispatched
                // elsewhere. Still a valid result; settle the queued
                // copy so it is not dispatched again.
                None => {
                    if let Some(pos) = st.pending.iter().position(|p| p.id == job) {
                        let p = st.pending.remove(pos).expect("position just found");
                        (p.req.name, p.requeues, Some(p.submitted))
                    } else if let Some(fl) = st.nodes.iter().find_map(|n| n.in_flight.get(&job)) {
                        // In flight on another node: that node's own
                        // completion (a duplicate by then) releases its
                        // reservation.
                        (fl.req.name.clone(), fl.requeues, Some(fl.submitted))
                    } else {
                        (String::new(), 0, None)
                    }
                }
            };
            let error = (!error.is_empty()).then_some(error);
            let (ok, error) = match committed {
                Ok(()) => (ok, error),
                Err(e) => (false, Some(refused_completion(error, &e))),
            };
            st.stats.completed += 1;
            if !ok {
                st.stats.failed += 1;
            }
            let latency = submitted.map_or(0.0, |t| t.elapsed().as_secs_f64());
            st.stats.latency.record(latency);
            self.trace(TraceEvent::JobCompleted {
                job,
                ok,
                degraded: 0,
            });
            ClusterJobResult {
                id: job,
                name,
                node,
                alg,
                pairs,
                checksum,
                ok,
                requeues,
                latency,
                resumed: false,
                error,
            }
        });
        if !published {
            st.stats.duplicate_completions += 1;
        }
        drop(st);
        self.done.notify_all();
    }

    /// True when finish was requested and node `idx` has nothing left
    /// to do (no pending work anywhere, nothing in flight on it).
    fn ready_to_part(st: &CoState, idx: usize) -> bool {
        st.halt && st.pending.is_empty() && st.nodes[idx].in_flight.is_empty()
    }

    /// The live session's reader got a frame other than a `JobDone`.
    /// No notify: a dispatcher that wakes at a stale silence deadline
    /// just re-reads the stamp.
    fn heard(&self, idx: usize) {
        self.lock().nodes[idx].last_heard = Some(Instant::now());
    }

    /// Sleep out a reconnect backoff, returning early once the
    /// coordinator halts or the node is terminal.
    fn pause(&self, idx: usize, backoff: Duration) {
        let deadline = Instant::now() + backoff;
        let mut st = self.lock();
        while !st.halt && !st.nodes[idx].terminal {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            st = self.wait(st, left);
        }
    }

    fn wait<'a>(&self, st: MutexGuard<'a, CoState>, timeout: Duration) -> MutexGuard<'a, CoState> {
        self.done
            .wait_timeout(st, timeout)
            .unwrap_or_else(|e| e.into_inner())
            .0
    }

    /// Mark node `idx` cleanly departed (finish-time `Shutdown`).
    fn depart(&self, idx: usize) {
        let mut st = self.lock();
        st.nodes[idx].terminal = true;
        st.nodes[idx].alive = false;
        drop(st);
        self.done.notify_all();
    }
}

enum SessionEnd {
    /// Clean departure (`Shutdown` sent at finish).
    Parted,
    /// Declared dead (heartbeat timeout or protocol corruption).
    Dead(String),
    /// Connection dropped; reconnect may help.
    Dropped(io::Error),
}

impl SessionEnd {
    fn read_failed(e: io::Error) -> SessionEnd {
        if e.kind() == io::ErrorKind::InvalidData {
            SessionEnd::Dead(format!("protocol error: {e}"))
        } else {
            SessionEnd::Dropped(e)
        }
    }

    fn closed(what: &str) -> SessionEnd {
        SessionEnd::Dropped(io::Error::new(io::ErrorKind::UnexpectedEof, what))
    }
}

/// Registration: the node speaks first. The one bounded read of a
/// session — a node that connects and says nothing is dead after the
/// failure-detection timeout.
fn await_hello(shared: &CoShared, idx: usize, stream: &mut TcpStream) -> Result<(), SessionEnd> {
    let deadline = Instant::now() + shared.cfg.timeout;
    let mut reader = FrameReader::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(SessionEnd::Dead("no hello within timeout".into()));
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(SessionEnd::Dropped)?;
        match reader.read_msg(stream) {
            Ok(Some(Message::Hello {
                node,
                budget_bytes,
                workers,
            })) => {
                shared.register(idx, &node, budget_bytes, workers);
                return stream.set_read_timeout(None).map_err(SessionEnd::Dropped);
            }
            Ok(Some(_)) => {}
            Ok(None) => return Err(SessionEnd::closed("closed before hello")),
            // The deadline check at the top of the loop decides.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(SessionEnd::read_failed(e)),
        }
    }
}

/// The read half of a registered session: block on the socket, absorb
/// completions, stamp every frame as a sign of life, and on the way out
/// leave the reason for the dispatcher.
fn read_loop(shared: &CoShared, idx: usize, mut stream: TcpStream) {
    let mut reader = FrameReader::new();
    let end = loop {
        match reader.read_msg(&mut stream) {
            Ok(Some(Message::JobDone {
                job,
                alg,
                pairs,
                checksum,
                ok,
                error,
            })) => shared.complete(idx, job, alg, pairs, checksum, ok, error),
            Ok(Some(_)) => shared.heard(idx),
            Ok(None) => break SessionEnd::closed("node closed the connection"),
            Err(e) => break SessionEnd::read_failed(e),
        }
    };
    shared.lock().nodes[idx].reader_end = Some(end);
    shared.done.notify_all();
}

/// The write half of a registered session: dispatch what node `idx` can
/// take, ping on the heartbeat timer, and otherwise sleep on `done`
/// until something changes or the next timer is due — the heartbeat,
/// the silence deadline, or a re-queued job's `ready_at`.
fn dispatch(shared: &CoShared, idx: usize, stream: &mut TcpStream) -> SessionEnd {
    let mut next_ping = Instant::now() + shared.cfg.heartbeat;
    let mut seq = 0u64;
    let mut st = shared.lock();
    loop {
        // Dropped without `finish`: detach from the node silently — it
        // must keep serving (a restarted coordinator will reconnect),
        // so no `Shutdown` is sent.
        if st.halt && st.nodes[idx].terminal {
            return SessionEnd::Parted;
        }
        if let Some(end) = st.nodes[idx].reader_end.take() {
            return end;
        }
        let now = Instant::now();
        let heard = st.nodes[idx].last_heard.unwrap_or(now);
        let silent_at = heard + shared.cfg.timeout;
        let msg = if CoShared::ready_to_part(&st, idx) {
            Message::Shutdown
        } else if let Some((job, line)) = shared.claim(&mut st, idx) {
            Message::RunJob { job, line }
        } else if now >= silent_at {
            return SessionEnd::Dead(format!(
                "heartbeat timeout ({} ms unanswered)",
                (now - heard).as_millis()
            ));
        } else if now >= next_ping {
            seq += 1;
            next_ping = now + shared.cfg.heartbeat;
            Message::Ping { seq }
        } else {
            let ready_at = st.pending.iter().map(|p| p.ready_at).filter(|t| *t > now);
            let wake = ready_at.fold(next_ping.min(silent_at), Instant::min);
            st = shared.wait(st, wake - now);
            continue;
        };
        // Socket writes happen outside the lock; everything above is
        // re-checked once it is back.
        drop(st);
        let sent = write_msg(stream, &msg);
        if matches!(msg, Message::Shutdown) {
            shared.depart(idx);
            return SessionEnd::Parted;
        }
        if let Err(e) = sent {
            return SessionEnd::Dropped(e);
        }
        st = shared.lock();
    }
}

/// Run one session over `stream`: register, then a blocked reader and a
/// sleeping dispatcher share the socket until one of them ends it. The
/// socket-specific calls (options, `try_clone`, `shutdown`) all live
/// here and in [`await_hello`].
fn session(shared: &CoShared, idx: usize, mut stream: TcpStream) -> SessionEnd {
    if let Err(e) = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_write_timeout(Some(shared.cfg.timeout)))
    {
        return SessionEnd::Dropped(e);
    }
    if let Err(end) = await_hello(shared, idx, &mut stream) {
        return end;
    }
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return SessionEnd::Dropped(e),
    };
    std::thread::scope(|scope| {
        let reader = std::thread::Builder::new()
            .name(format!("cluster-node-{idx}-reader"))
            .spawn_scoped(scope, || read_loop(shared, idx, read_half));
        let end = match reader {
            Ok(_) => dispatch(shared, idx, &mut stream),
            Err(e) => SessionEnd::Dropped(e),
        };
        // Unblocks the reader, which the scope then joins: no reader
        // outlives its session.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        end
    })
}

/// The per-node owner thread: connect with backoff, run sessions, and
/// declare death when the retry budget is spent.
fn node_loop(shared: Arc<CoShared>, idx: usize) {
    let addr = shared.lock().nodes[idx].addr.clone();
    let mut attempt = 0u32;
    loop {
        {
            let st = shared.lock();
            if CoShared::ready_to_part(&st, idx) {
                drop(st);
                shared.depart(idx);
                return;
            }
            if st.nodes[idx].terminal {
                return;
            }
        }
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => {
                attempt = 0;
                s
            }
            Err(e) => {
                attempt += 1;
                let transient = EnvError::from(e).is_transient();
                if !transient || attempt >= shared.cfg.retry.max_attempts {
                    shared.declare_dead(idx, &format!("connect to {addr} failed"));
                    return;
                }
                shared.pause(idx, shared.cfg.retry.backoff(attempt));
                continue;
            }
        };
        match session(&shared, idx, stream) {
            SessionEnd::Parted => return,
            SessionEnd::Dead(why) => {
                shared.declare_dead(idx, &why);
                return;
            }
            SessionEnd::Dropped(e) => {
                attempt += 1;
                let transient = EnvError::from(e).is_transient();
                if !transient || attempt >= shared.cfg.retry.max_attempts {
                    shared.declare_dead(idx, &format!("connection to {addr} lost"));
                    return;
                }
                // A RunJob written into the dropped connection may be
                // lost: put this node's in-flight jobs back in the
                // queue before reconnecting (node-side dedup absorbs
                // the duplicates).
                shared.requeue_dropped(idx);
                shared.pause(idx, shared.cfg.retry.backoff(attempt));
            }
        }
    }
}

/// A running cluster coordinator.
pub struct Coordinator {
    shared: Arc<CoShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Coordinator {
    /// Connect to the configured nodes and start dispatching. With
    /// `resume`, the journal is replayed first: completed jobs are
    /// re-reported (marked `resumed`), in-flight and queued jobs are
    /// re-queued under their original ids.
    pub fn start(cfg: ClusterConfig) -> Result<Coordinator, String> {
        if cfg.nodes.is_empty() {
            return Err("no nodes configured".into());
        }
        let (journal, replayed) = match &cfg.journal_dir {
            Some(dir) => {
                let (j, replayed) =
                    open_journal(dir, JOURNAL_FILE, cfg.resume, Arc::clone(&cfg.trace))?;
                (Some(j), replayed)
            }
            None => (None, None),
        };
        let nodes: Vec<NodeState> = cfg
            .nodes
            .iter()
            .map(|addr| NodeState {
                addr: addr.clone(),
                ..NodeState::default()
            })
            .collect();
        let node_count = nodes.len() as u32;
        let shared = Arc::new(CoShared {
            state: Mutex::new(CoState {
                pending: VecDeque::new(),
                nodes,
                stats: ClusterStats {
                    nodes: node_count,
                    ..ClusterStats::default()
                },
                halt: false,
            }),
            done: Condvar::new(),
            start: Instant::now(),
            cfg,
            log: JobLog::new(journal, 1),
        });
        if let Some(replayed) = replayed {
            apply_resume(&shared, replayed)?;
        }
        let threads = (0..shared.lock().nodes.len())
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cluster-node-{idx}"))
                    .spawn(move || node_loop(shared, idx))
                    .map_err(|e| format!("spawn node thread: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Coordinator { shared, threads })
    }

    /// Enqueue one job. Rejected when its footprint exceeds every
    /// live node's budget (optimistically accepted while nodes are
    /// still registering).
    pub fn submit(&self, req: JobRequest) -> Result<u64, String> {
        let footprint = req.footprint();
        let mut st = self.shared.lock();
        if st.halt {
            return Err("coordinator is shutting down".into());
        }
        if st.nodes.iter().all(|n| n.terminal) {
            st.stats.rejected += 1;
            return Err("no live nodes".into());
        }
        let any_unregistered = st.nodes.iter().any(|n| !n.terminal && !n.registered);
        if !any_unregistered && !CoShared::placeable(&st, footprint) {
            st.stats.rejected += 1;
            return Err(format!(
                "job footprint {footprint} exceeds every node's budget"
            ));
        }
        let line = req.to_line();
        let id = self
            .shared
            .log
            .accept(
                |id| JournalRecord::JobSubmitted { job: id, line },
                Err,
                |id| {
                    st.stats.submitted += 1;
                    self.shared.trace(TraceEvent::JobSubmitted {
                        job: id,
                        footprint,
                        shard: 0,
                    });
                    st.pending.push_back(PendingJob {
                        id,
                        req,
                        requeues: 0,
                        ready_at: Instant::now(),
                        submitted: Instant::now(),
                    });
                },
            )
            .map_err(|e| format!("journal commit failed: {e}"))?;
        drop(st);
        // Wake the idle dispatchers: one of them can take this job now.
        self.shared.done.notify_all();
        Ok(id)
    }

    /// Parse and submit every job line of `text` (the job-file grammar
    /// of [`JobRequest::parse_line`]). A bad line fails the whole call.
    pub fn submit_script(&self, text: &str) -> Result<Vec<u64>, String> {
        let mut ids = Vec::new();
        for (no, line) in text.lines().enumerate() {
            match JobRequest::parse_line(line) {
                Ok(Some(req)) => ids.push(
                    self.submit(req)
                        .map_err(|e| format!("line {}: {e}", no + 1))?,
                ),
                Ok(None) => {}
                Err(e) => return Err(format!("line {}: {e}", no + 1)),
            }
        }
        Ok(ids)
    }

    /// Block until every accepted job has a terminal result. Jobs that
    /// can no longer run anywhere (every node dead) fail rather than
    /// wait forever.
    pub fn drain(&self) {
        let mut st = self.shared.lock();
        loop {
            st.pending.retain(|p| !self.shared.log.is_published(p.id));
            let in_flight: usize = st.nodes.iter().map(|n| n.in_flight.len()).sum();
            if st.pending.is_empty() && in_flight == 0 {
                return;
            }
            if st.nodes.iter().all(|n| n.terminal) {
                // Capacity is gone for good: fail whatever is left so
                // drain terminates with every job accounted for.
                while let Some(p) = st.pending.pop_front() {
                    self.shared
                        .fail_job(&mut st, p.id, &p.req, p.requeues, "no live nodes".into());
                }
                return;
            }
            st = self.shared.wait(st, Duration::from_millis(100));
        }
    }

    /// Terminal results so far, in completion order.
    pub fn results(&self) -> Vec<ClusterJobResult> {
        self.shared.log.results()
    }

    /// Counter snapshot: live aggregates (budget, reservations, leak
    /// check) are computed from the current node table.
    pub fn stats(&self) -> ClusterStats {
        let st = self.shared.lock();
        let mut stats = st.stats.clone();
        stats.nodes_alive = st.nodes.iter().filter(|n| n.alive).count() as u32;
        stats.budget_bytes = st.nodes.iter().filter(|n| n.alive).map(|n| n.budget).sum();
        stats.reserved_bytes = st.nodes.iter().map(|n| n.reserved).sum();
        // Any reserved byte not backed by an in-flight job is a leak:
        // this is the invariant the release-once discipline protects.
        stats.budget_leak_bytes = st
            .nodes
            .iter()
            .map(|n| {
                let backing: u64 = n.in_flight.values().map(|f| f.req.footprint()).sum();
                n.reserved.saturating_sub(backing)
            })
            .sum();
        stats.journal = self.shared.log.journal_stats();
        stats
    }

    /// Drain, send every surviving node a `Shutdown`, and return the
    /// final results and stats.
    pub fn finish(mut self) -> (Vec<ClusterJobResult>, ClusterStats) {
        self.drain();
        {
            let mut st = self.shared.lock();
            st.halt = true;
        }
        self.shared.done.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        let stats = self.stats();
        let results = self.shared.log.take_results();
        (results, stats)
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.halt = true;
            // An abandoned coordinator must not strand its threads in
            // ready_to_part (pending jobs would hold them): mark every
            // node terminal so the loops exit.
            for n in st.nodes.iter_mut() {
                n.terminal = true;
            }
        }
        self.shared.done.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Fold a replayed journal into the fresh coordinator state: re-report
/// completed jobs exactly once and re-queue everything else under its
/// original id ([`JobLog::resume`]).
fn apply_resume(shared: &CoShared, replayed: Replayed) -> Result<(), String> {
    let (jobs, top) = resume_jobs(&ReplayState::from_records(&replayed.records));
    let mut st = shared.lock();
    let mut pending = 0u64;
    let jobs = jobs.into_iter().map(|(id, req, done)| (id, (req, done)));
    shared.log.resume(
        Some(top),
        jobs,
        |id, (req, completed)| -> Result<_, String> {
            let Some((pairs, checksum, ok)) = completed else {
                pending += 1;
                st.stats.submitted += 1;
                st.pending.push_back(PendingJob {
                    id,
                    req,
                    requeues: 0,
                    ready_at: Instant::now(),
                    submitted: Instant::now(),
                });
                return Ok(None);
            };
            st.stats.completed += 1;
            st.stats.resumed_reported += 1;
            if !ok {
                st.stats.failed += 1;
            }
            Ok(Some(ClusterJobResult {
                id,
                name: req.name.clone(),
                node: "journal".into(),
                alg: req.alg.map_or("auto", |a| a.name()).to_string(),
                pairs,
                checksum,
                ok,
                requeues: 0,
                latency: 0.0,
                resumed: true,
                error: replayed_error(ok),
            }))
        },
    )?;
    st.stats.replayed_records = replayed.records.len() as u64;
    drop(st);
    shared.trace(TraceEvent::RecoveryReplayed {
        records: replayed.records.len() as u64,
        torn: replayed.torn_bytes,
        orphans_deleted: 0,
        resumed_jobs: pending,
    });
    Ok(())
}

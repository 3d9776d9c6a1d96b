//! A worker node: a TCP wrapper around one local
//! [`Service`](mmjoin_serve::Service).
//!
//! The node is a server socket. The coordinator connects *to* it; the
//! node answers with a [`Message::Hello`] carrying its name and the
//! budget its local admission controller plans against (each node is
//! expected to run with its own calibrated machine profile via
//! [`ServeConfig::with_machine`](mmjoin_serve::ServeConfig)). One
//! connection at a time is served — there is one coordinator — but the
//! accept loop survives disconnects, so a coordinator that restarts or
//! rides out a network blip simply reconnects.
//!
//! Nothing here polls. The accept loop blocks in `accept`, the
//! connection thread blocks in `read` (`RunJob`, `Ping`, `Shutdown`),
//! and completions are *pushed*: one pump thread per node blocks on the
//! local service for results it has not seen and writes each `JobDone`
//! to the live connection the moment it exists. Every writer — `Hello`,
//! `Pong`, the pump, a resend — holds the one connection mutex, so
//! frames never interleave. `kill`, `Shutdown` and drop end all three
//! through the `running` flag plus a socket reset, `kill` stops the
//! listening socket itself, which fails a blocked `accept` at once, and
//! both wake the pump through the service's sticky wake-up.
//!
//! # At-least-once dispatch, idempotent dedup
//!
//! Dispatch is at-least-once: the coordinator resends any `RunJob` it
//! is unsure about, and resends happen naturally after reconnects. The
//! node holds the dedup side of the contract:
//!
//! * a `RunJob` for a job currently *running* is ignored;
//! * a `RunJob` for a job already *finished* re-sends the cached
//!   [`Message::JobDone`] instead of re-executing;
//! * finished-job messages are resent on every fresh connection until
//!   the coordinator stops asking (the coordinator dedups by job id on
//!   its side), so a completion can be duplicated on the wire but never
//!   in either side's state.
//!
//! [`NodeServer::kill`] exists for chaos tests: it stops the listener
//! and resets the live connection without any goodbye, which is
//! indistinguishable over TCP from the process being SIGKILLed.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mmjoin_serve::{JobRequest, ServeConfig, Service};

use crate::wire::{write_msg, FrameReader, Message};

/// A stalled coordinator must not wedge a writer forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Dedup and result-cache state for one node.
#[derive(Default)]
struct NodeJobs {
    /// Cluster job id → local service id, for jobs in flight.
    running: BTreeMap<u64, u64>,
    /// Local service id → cluster job id (harvesting direction).
    local_to_cluster: BTreeMap<u64, u64>,
    /// Cluster job id → cached `JobDone`, kept forever (results are a
    /// few dozen bytes; a node's lifetime is one benchmark run).
    done: BTreeMap<u64, Message>,
}

/// The write half of the live connection. Every frame the node sends —
/// `Hello`, `Pong`, pushed and resent completions — is written under
/// the mutex that holds this, so frames never interleave.
struct Conn {
    stream: TcpStream,
    /// Completions sent on *this* connection; a reconnect starts empty,
    /// so every cached completion is resent (at-least-once).
    sent: BTreeSet<u64>,
}

struct NodeShared {
    name: String,
    budget_bytes: u64,
    workers: u32,
    svc: Service,
    /// Cleared by `Shutdown`, `kill`, or drop. The session ends with
    /// the socket (`kill` resets it); the accept loop and the pump
    /// check this flag when they wake.
    running: AtomicBool,
    /// The live connection. Lock order: `conn` before `jobs`.
    conn: Mutex<Option<Conn>>,
    jobs: Mutex<NodeJobs>,
}

impl NodeShared {
    fn conn(&self) -> MutexGuard<'_, Option<Conn>> {
        self.conn.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn jobs(&self) -> MutexGuard<'_, NodeJobs> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Write the cached completions of `ids` that `conn` has not sent
    /// yet, as one buffer (the cache is only borrowed to encode them).
    fn push_done(&self, conn: &mut Conn, ids: &[u64]) -> io::Result<()> {
        let mut frames = Vec::new();
        {
            let jobs = self.jobs();
            for id in ids {
                match jobs.done.get(id) {
                    Some(msg) if conn.sent.insert(*id) => {
                        frames.extend_from_slice(&msg.encode());
                    }
                    _ => {}
                }
            }
        }
        if frames.is_empty() {
            return Ok(());
        }
        conn.stream.write_all(&frames)
    }

    /// Run `write` on the live connection, if there is one. A failed
    /// write resets the connection, which also ends its blocked reader.
    fn send(&self, write: impl FnOnce(&mut Conn) -> io::Result<()>) {
        let mut slot = self.conn();
        if let Some(conn) = slot.as_mut() {
            if write(conn).is_err() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                *slot = None;
            }
        }
    }

    /// The completion pump: block on the local service for results it
    /// has not seen, fold them into the `done` cache, and push them to
    /// the coordinator on whatever connection is live. With none live
    /// they wait in the cache for the next `Hello`.
    ///
    /// The wait has no deadline that matters: only a completion or
    /// `kill`'s wake-up ends it.
    fn pump(&self) {
        let mut harvested = 0;
        while self.running.load(Ordering::SeqCst) {
            let forever = Instant::now() + Duration::from_secs(3600);
            let fresh = self.svc.wait_results(harvested, forever);
            if fresh.is_empty() {
                continue;
            }
            harvested += fresh.len();
            let mut finished = Vec::with_capacity(fresh.len());
            {
                let mut jobs = self.jobs();
                for r in fresh {
                    let Some(cluster) = jobs.local_to_cluster.remove(&r.id) else {
                        continue;
                    };
                    finished.push(cluster);
                    jobs.running.remove(&cluster);
                    jobs.done.insert(
                        cluster,
                        Message::JobDone {
                            job: cluster,
                            alg: r.alg.name().to_string(),
                            pairs: r.pairs,
                            checksum: r.checksum,
                            ok: r.verified,
                            error: r.error.unwrap_or_default(),
                        },
                    );
                }
            }
            self.send(|conn| self.push_done(conn, &finished));
        }
    }

    /// Handle one `RunJob`: dedup against running and finished jobs,
    /// else submit to the local service. Returns true when the cached
    /// completion should be resent (the coordinator asked about a job
    /// that already finished — it clearly never saw the result).
    fn accept_job(&self, job: u64, line: &str) -> bool {
        let mut jobs = self.jobs();
        if jobs.done.contains_key(&job) {
            return true;
        }
        if jobs.running.contains_key(&job) {
            return false;
        }
        let submitted = match JobRequest::parse_line(line) {
            Ok(Some(req)) => self.svc.submit(req),
            Ok(None) => Err("empty job line".to_string()),
            Err(e) => Err(e),
        };
        match submitted {
            Ok(local) => {
                jobs.running.insert(job, local);
                jobs.local_to_cluster.insert(local, job);
                false
            }
            Err(e) => {
                // A submit-time rejection is reported as a failed
                // completion, which the coordinator records as
                // *terminal* — it does not re-queue failed results onto
                // other nodes. That is sound here because the
                // coordinator only dispatches jobs that fit this node's
                // advertised budget, so a rejection means the request
                // itself is bad (unparsable line, service shutting
                // down), not a transient local condition.
                jobs.done.insert(
                    job,
                    Message::JobDone {
                        job,
                        alg: "auto".into(),
                        pairs: 0,
                        checksum: 0,
                        ok: false,
                        error: e,
                    },
                );
                true
            }
        }
    }

    /// Serve one coordinator connection: register, then block on the
    /// socket until it ends. The write half goes into `self.conn` for
    /// the pump, `kill`, and this thread's own replies.
    fn handle(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let mut read_half = stream.try_clone()?;
        {
            let mut slot = self.conn();
            // `kill` clears `running` before it takes this lock, so a
            // session that lost that race never installs a connection
            // nobody would reset.
            if !self.running.load(Ordering::SeqCst) {
                return Ok(());
            }
            let mut conn = Conn {
                stream,
                sent: BTreeSet::new(),
            };
            write_msg(
                &mut conn.stream,
                &Message::Hello {
                    node: self.name.clone(),
                    budget_bytes: self.budget_bytes,
                    workers: self.workers,
                },
            )?;
            // Everything finished so far goes out again: the
            // coordinator dedups what it already has.
            let cached: Vec<u64> = self.jobs().done.keys().copied().collect();
            self.push_done(&mut conn, &cached)?;
            *slot = Some(conn);
        }
        // Reads block with no timeout, yet a frame can still arrive in
        // pieces: the reader keeps the partial frame between `read`s.
        let mut reader = FrameReader::new();
        loop {
            match reader.read_msg(&mut read_half)? {
                Some(Message::RunJob { job, line }) => {
                    if self.accept_job(job, &line) {
                        self.send(|conn| {
                            conn.sent.remove(&job);
                            self.push_done(conn, &[job])
                        });
                    }
                }
                Some(Message::Ping { seq }) => {
                    self.send(|conn| write_msg(&mut conn.stream, &Message::Pong { seq }));
                }
                Some(Message::Shutdown) => {
                    self.running.store(false, Ordering::SeqCst);
                    self.svc.wake_waiters();
                    return Ok(());
                }
                Some(_) => {}
                None => return Ok(()),
            }
        }
    }
}

/// Stop `listener` listening, with no TCP round trip: on Linux,
/// `shutdown(2)` on a listening socket refuses further connects and
/// fails an `accept` blocked on it with `EINVAL` at once.
fn stop_listening(listener: &TcpListener) {
    extern "C" {
        fn shutdown(fd: i32, how: i32) -> i32;
    }
    const SHUT_RDWR: i32 = 2;
    // SAFETY: the descriptor stays open for the whole call (`listener`
    // owns it), and `shutdown` does not close it. An already stopped
    // socket only makes the call fail, which changes nothing.
    unsafe {
        shutdown(listener.as_raw_fd(), SHUT_RDWR);
    }
}

/// A running worker node. Dropping it stops the accept loop, the
/// completion pump, and the wrapped service's workers.
pub struct NodeServer {
    shared: Arc<NodeShared>,
    listener: Arc<TcpListener>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Bind `listen` (e.g. `127.0.0.1:0` for an ephemeral port), start
    /// the local service from `cfg`, and serve coordinator connections
    /// in a background thread.
    pub fn start(listen: &str, name: &str, cfg: ServeConfig) -> Result<NodeServer, String> {
        let budget_bytes = cfg.budget_bytes;
        let workers = cfg.workers as u32;
        let svc = Service::start(cfg)?;
        let listener =
            Arc::new(TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?);
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shared = Arc::new(NodeShared {
            name: name.to_string(),
            budget_bytes,
            workers,
            svc,
            running: AtomicBool::new(true),
            conn: Mutex::new(None),
            jobs: Mutex::new(NodeJobs::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_listener = Arc::clone(&listener);
        let accept = std::thread::Builder::new()
            .name(format!("node-{name}"))
            .spawn(move || {
                while accept_shared.running.load(Ordering::SeqCst) {
                    // Blocks; `kill` clears `running` and then stops the
                    // socket, which fails the `accept`.
                    let Ok((stream, _)) = accept_listener.accept() else {
                        break;
                    };
                    // Connections are served inline: one coordinator,
                    // one session at a time. An errored session just
                    // waits for the next connect.
                    let _ = accept_shared.handle(stream);
                    *accept_shared.conn() = None;
                }
                // After a `Shutdown` too, connects are refused from now on.
                stop_listening(&accept_listener);
            })
            .map_err(|e| format!("spawn accept loop: {e}"))?;
        let mut node = NodeServer {
            shared,
            listener,
            addr,
            accept: Some(accept),
            pump: None,
        };
        let pump_shared = Arc::clone(&node.shared);
        // On a failed spawn, dropping `node` stops the accept loop.
        node.pump = Some(
            std::thread::Builder::new()
                .name(format!("node-{name}-pump"))
                .spawn(move || pump_shared.pump())
                .map_err(|e| format!("spawn completion pump: {e}"))?,
        );
        Ok(node)
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's registered name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// True until `Shutdown` is received, `kill` is called, or the
    /// server is dropped.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Jobs this node has finished (cached completions).
    pub fn completed(&self) -> usize {
        self.shared.jobs().done.len()
    }

    /// Simulate the process being SIGKILLed: stop accepting, reset the
    /// live connection with no goodbye, and never send another byte.
    /// Over TCP this is indistinguishable from real process death.
    pub fn kill(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Some(conn) = self.shared.conn().take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        stop_listening(&self.listener);
        self.shared.svc.wake_waiters();
    }

    /// Block until the node stops (a coordinator `Shutdown`, or
    /// `kill` from another thread). Used by `mmjoin serve --node`.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.kill();
        for h in [self.accept.take(), self.pump.take()].into_iter().flatten() {
            let _ = h.join();
        }
    }
}

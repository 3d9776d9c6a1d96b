//! Cluster fault-tolerance acceptance tests: a coordinator over real
//! in-process [`NodeServer`]s (plus a few scripted fake nodes speaking
//! the wire protocol) must survive node loss with zero lost and zero
//! duplicated completions, keep budget accounting leak-free, and
//! resume from its journal exactly once.

use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmjoin::RetryPolicy;
use mmjoin_cluster::wire::{write_msg, FrameReader};
use mmjoin_cluster::{ClusterConfig, ClusterJobResult, Coordinator, Message, NodeServer};
use mmjoin_env::FaultSpec;
use mmjoin_serve::{JobRequest, ServeConfig, Service, PAGE};

/// Named jobs in the shared script grammar; names key the outcome-set
/// comparison against the single-node reference.
fn jobs(n: u64) -> Vec<JobRequest> {
    (0..n)
        .map(|i| {
            let mut req = JobRequest::new(600 + 40 * i, 32, 2, 8, i + 1);
            req.name = format!("j{i}");
            req
        })
        .collect()
}

/// The uninterrupted single-node reference: the same jobs through one
/// plain local service.
fn reference(reqs: &[JobRequest]) -> BTreeMap<String, (u64, u64, bool)> {
    let svc = Service::start(ServeConfig::sim(64 * PAGE, 2)).unwrap();
    for req in reqs {
        svc.submit(req.clone()).unwrap();
    }
    let (results, _) = svc.finish();
    results
        .into_iter()
        .map(|r| (r.name.clone(), (r.pairs, r.checksum, r.verified)))
        .collect()
}

fn outcomes(results: &[ClusterJobResult]) -> BTreeMap<String, (u64, u64, bool)> {
    results
        .iter()
        .map(|r| (r.name.clone(), (r.pairs, r.checksum, r.ok)))
        .collect()
}

/// How long `fast_cfg`'s coordinator waits on a silent node.
const TIMEOUT: Duration = Duration::from_millis(150);

fn fast_cfg(nodes: Vec<String>) -> ClusterConfig {
    ClusterConfig::new(nodes)
        .with_heartbeat(Duration::from_millis(10))
        .with_timeout(TIMEOUT)
}

#[test]
fn two_node_cluster_matches_single_node_reference() {
    let reqs = jobs(8);
    let want = reference(&reqs);

    let a = NodeServer::start("127.0.0.1:0", "alpha", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    let b = NodeServer::start("127.0.0.1:0", "beta", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    let co = Coordinator::start(fast_cfg(vec![
        a.local_addr().to_string(),
        b.local_addr().to_string(),
    ]))
    .unwrap();
    for req in &reqs {
        co.submit(req.clone()).unwrap();
    }
    let (results, stats) = co.finish();

    assert_eq!(outcomes(&results), want);
    assert!(results.iter().all(|r| r.ok), "{results:?}");
    assert_eq!(stats.node_joins, 2);
    assert_eq!(stats.node_losses, 0);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.duplicate_completions, 0);
    assert_eq!(stats.budget_leak_bytes, 0);
    // Both nodes participated (work actually spread across the wire).
    assert!(a.completed() + b.completed() >= 8);
}

/// A scripted fake node: registers with a generous budget, absorbs up
/// to `claim_before_silence` dispatches while answering heartbeats,
/// then goes completely silent — never completing a job, never
/// answering another ping. It also goes silent once it holds a job and
/// no further dispatch has come for [`TIMEOUT`], so its silence never
/// hangs on how many dispatches the coordinator happens to send it. The
/// coordinator must declare it dead and re-queue everything it
/// swallowed onto the survivor.
fn spawn_silent_node(claim_before_silence: usize) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let swallowed = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&swallowed);
    std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        write_msg(
            &mut stream,
            &Message::Hello {
                node: "black-hole".into(),
                budget_bytes: 1 << 30,
                workers: 4,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new();
        let mut last_claim: Option<Instant> = None;
        loop {
            if last_claim.is_some_and(|t| t.elapsed() >= TIMEOUT) {
                break;
            }
            match reader.read_msg(&mut stream) {
                Ok(Some(Message::RunJob { .. })) => {
                    last_claim = Some(Instant::now());
                    if count.fetch_add(1, Ordering::SeqCst) + 1 >= claim_before_silence {
                        break;
                    }
                }
                Ok(Some(Message::Ping { seq })) => {
                    let _ = write_msg(&mut stream, &Message::Pong { seq });
                }
                Ok(Some(_)) => {}
                Ok(None) => return,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
        // Silence: hold the socket open but never speak again —
        // heartbeats go unanswered.
        std::thread::sleep(Duration::from_secs(30));
    });
    (addr, swallowed)
}

#[test]
fn dead_node_jobs_requeue_onto_survivor_with_no_loss_or_leak() {
    let reqs = jobs(10);
    let want = reference(&reqs);

    let survivor =
        NodeServer::start("127.0.0.1:0", "survivor", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    let (black_hole, swallowed) = spawn_silent_node(1);
    let co = Coordinator::start(fast_cfg(vec![
        black_hole,
        survivor.local_addr().to_string(),
    ]))
    .unwrap();
    for req in &reqs {
        co.submit(req.clone()).unwrap();
    }
    let (results, stats) = co.finish();

    // Zero lost, zero duplicated: the outcome set equals the
    // uninterrupted single-node reference, and every job verified.
    assert_eq!(outcomes(&results), want);
    assert!(results.iter().all(|r| r.ok), "{results:?}");
    assert_eq!(stats.node_losses, 1, "black hole must be declared dead");
    assert!(
        swallowed.load(Ordering::SeqCst) >= 1,
        "the black hole should have swallowed at least one dispatch"
    );
    assert!(
        stats.requeued >= swallowed.load(Ordering::SeqCst) as u64,
        "swallowed jobs must be re-queued: {stats:?}"
    );
    assert!(
        results.iter().any(|r| r.requeues > 0),
        "at least one result should record its re-queue: {results:?}"
    );
    // Satellite regression: releasing a dead node's budget exactly once
    // means no reserved byte survives without an in-flight job backing
    // it.
    assert_eq!(stats.budget_leak_bytes, 0);
    assert_eq!(stats.reserved_bytes, 0);
}

/// A fake node that completes every job instantly — twice. The
/// duplicate delivery must be dropped by the coordinator's id dedup.
fn spawn_double_done_node() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        write_msg(
            &mut stream,
            &Message::Hello {
                node: "stutter".into(),
                budget_bytes: 1 << 30,
                workers: 4,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new();
        loop {
            match reader.read_msg(&mut stream) {
                Ok(Some(Message::RunJob { job, .. })) => {
                    let done = Message::JobDone {
                        job,
                        alg: "grace".into(),
                        pairs: job * 100,
                        checksum: job * 7,
                        ok: true,
                        error: String::new(),
                    };
                    let _ = write_msg(&mut stream, &done);
                    let _ = write_msg(&mut stream, &done);
                }
                Ok(Some(Message::Ping { seq })) => {
                    let _ = write_msg(&mut stream, &Message::Pong { seq });
                }
                Ok(Some(Message::Shutdown)) | Ok(None) => return,
                Ok(Some(_)) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
    });
    addr
}

/// A node whose first session swallows one dispatch and then drops the
/// connection without a word; every later session completes jobs
/// normally (idempotently, by formula, so redelivered dispatches are
/// harmless). Models a `RunJob` frame lost in transit on a healthy
/// node.
fn spawn_flaky_then_healthy_node() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut first = true;
        loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            stream
                .set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            if write_msg(
                &mut stream,
                &Message::Hello {
                    node: "flaky".into(),
                    budget_bytes: 1 << 30,
                    workers: 4,
                },
            )
            .is_err()
            {
                continue;
            }
            let mut reader = FrameReader::new();
            loop {
                match reader.read_msg(&mut stream) {
                    Ok(Some(Message::RunJob { job, .. })) => {
                        if first {
                            first = false;
                            // Swallow the dispatch and hang up abruptly.
                            break;
                        }
                        let _ = write_msg(
                            &mut stream,
                            &Message::JobDone {
                                job,
                                alg: "grace".into(),
                                pairs: job * 100,
                                checksum: job * 7,
                                ok: true,
                                error: String::new(),
                            },
                        );
                    }
                    Ok(Some(Message::Ping { seq })) => {
                        let _ = write_msg(&mut stream, &Message::Pong { seq });
                    }
                    Ok(Some(Message::Shutdown)) | Ok(None) => return,
                    Ok(Some(_)) => {}
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    }
                    Err(_) => break,
                }
            }
        }
    });
    addr
}

/// Regression: a dispatch swallowed by a dropped-but-reconnectable
/// connection must be re-queued on the drop. Before the fix it stayed
/// in the node's in-flight set forever — the reconnected node kept
/// answering heartbeats, so the node was never declared dead, no
/// re-queue ever fired, and `finish` hung.
#[test]
fn dropped_connection_requeues_in_flight_without_declaring_death() {
    let reqs = jobs(5);
    let co = Coordinator::start(fast_cfg(vec![spawn_flaky_then_healthy_node()])).unwrap();
    for req in &reqs {
        co.submit(req.clone()).unwrap();
    }
    let (results, stats) = co.finish();

    assert_eq!(results.len(), 5, "every job must complete: {results:?}");
    assert!(results.iter().all(|r| r.ok), "{results:?}");
    let ids: BTreeSet<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), 5, "each id exactly once");
    assert_eq!(
        stats.node_losses, 0,
        "a reconnectable drop is not a death: {stats:?}"
    );
    assert!(
        stats.requeued >= 1,
        "the swallowed dispatch must be re-queued: {stats:?}"
    );
    assert_eq!(stats.budget_leak_bytes, 0);
}

#[test]
fn duplicate_completions_are_dropped_by_id_dedup() {
    let reqs = jobs(6);
    let co = Coordinator::start(fast_cfg(vec![spawn_double_done_node()])).unwrap();
    for req in &reqs {
        co.submit(req.clone()).unwrap();
    }
    let (results, stats) = co.finish();

    assert_eq!(results.len(), 6, "exactly one result per job");
    let ids: BTreeSet<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), 6, "no id reported twice");
    // Every duplicate except possibly the last (drain can finish
    // before the final resend is read) must be counted.
    assert!(
        stats.duplicate_completions >= 5,
        "duplicate deliveries must be counted: {stats:?}"
    );
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.budget_leak_bytes, 0);
}

#[test]
fn footprint_too_big_for_survivors_fails_fast_not_forever() {
    // Only the black hole (1 GiB budget) can host a 64-page job; the
    // survivor has 16 pages. When the black hole dies, the big job must
    // fail as unplaceable instead of waiting for capacity that is gone.
    let survivor =
        NodeServer::start("127.0.0.1:0", "small", ServeConfig::sim(16 * PAGE, 2)).unwrap();
    let (black_hole, _swallowed) = spawn_silent_node(1);
    let co = Coordinator::start(fast_cfg(vec![
        black_hole,
        survivor.local_addr().to_string(),
    ]))
    .unwrap();
    let mut big = JobRequest::new(600, 32, 2, 32, 9);
    big.name = "big".into();
    let mut small = JobRequest::new(600, 32, 2, 4, 10);
    small.name = "small".into();
    co.submit(big).unwrap();
    co.submit(small).unwrap();
    let (results, stats) = co.finish();

    assert_eq!(results.len(), 2);
    let big = results.iter().find(|r| r.name == "big").unwrap();
    assert!(!big.ok, "the unplaceable job must fail: {big:?}");
    assert!(
        big.error.as_deref().unwrap_or("").contains("surviving"),
        "{big:?}"
    );
    let small = results.iter().find(|r| r.name == "small").unwrap();
    assert!(small.ok, "{small:?}");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.budget_leak_bytes, 0);
}

#[test]
fn coordinator_crash_restart_reports_each_job_exactly_once() {
    let dir = std::env::temp_dir().join(format!("mmjoin-cluster-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reqs = jobs(8);
    let want = reference(&reqs);

    // A single slow worker (each job stretched ≥50 ms by the fault
    // injector) so abandoning the coordinator after the first
    // completion deterministically strands most of the queue.
    let node_cfg = ServeConfig::sim(64 * PAGE, 1)
        .with_faults(FaultSpec::parse("delay:ms=1:count=50").unwrap());
    let node = NodeServer::start("127.0.0.1:0", "worker", node_cfg).unwrap();
    let addr = node.local_addr().to_string();

    // Life 1: journaling coordinator; abandon it (drop without finish —
    // the journal is all that survives) once at least one completion
    // has been journaled.
    let co = Coordinator::start(fast_cfg(vec![addr.clone()]).with_journal(dir.clone())).unwrap();
    for req in &reqs {
        co.submit(req.clone()).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while co.results().is_empty() {
        assert!(Instant::now() < deadline, "no completion before deadline");
        std::thread::sleep(Duration::from_millis(5));
    }
    let first_life = co.results().len();
    drop(co);

    // Life 2: --resume against the same journal and the same node (its
    // completion cache makes redelivery of finished work a duplicate,
    // not a re-run).
    let co =
        Coordinator::start(fast_cfg(vec![addr]).with_journal(dir.clone()).with_resume()).unwrap();
    let (results, stats) = co.finish();

    assert_eq!(outcomes(&results), want, "no lost and no duplicated jobs");
    let ids: BTreeSet<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), 8, "each id exactly once: {results:?}");
    let resumed = results.iter().filter(|r| r.resumed).count();
    assert!(
        resumed >= first_life,
        "every completion journaled before the crash is re-reported"
    );
    assert!(
        resumed < 8,
        "the stranded queue must actually be re-dispatched, not replayed"
    );
    assert_eq!(stats.resumed_reported, resumed as u64);
    assert!(stats.replayed_records > 0);
    assert_eq!(stats.budget_leak_bytes, 0);
    // The resumed jobs were submitted in life 1, so life 2 commits one
    // completion per job it re-dispatched and nothing else.
    let journal = stats.journal.expect("journal configured");
    assert_eq!(journal.commits, (8 - resumed) as u64, "{journal:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_journal_refuses_submissions_without_taking_ids_and_resumes_each_accepted_job_once() {
    let dir = std::env::temp_dir().join(format!("mmjoin-cluster-full-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = NodeServer::start("127.0.0.1:0", "worker", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    let addr = node.local_addr().to_string();
    // ~64 KiB a submission record: the 4 MiB journal holds about 64.
    let big = |i: u64| {
        let mut req = JobRequest::new(600, 32, 2, 8, i + 1);
        req.name = format!("j{i}-{}", "x".repeat(64 << 10));
        req
    };
    // Default timing: committing 64 KiB records under the state lock
    // must not read as a silent node in an unoptimized build.
    let cfg = || ClusterConfig::new(vec![addr.clone()]).with_journal(dir.clone());
    let co = Coordinator::start(cfg()).unwrap();
    let mut accepted = Vec::new();
    let mut refused = 0;
    for i in 0..80 {
        match co.submit(big(i)) {
            Ok(id) => accepted.push(id),
            Err(e) => {
                assert!(e.contains("journal full"), "{e}");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "the journal never filled");
    // A refusal takes no id: the accepted ids are dense.
    let n = accepted.len() as u64;
    assert_eq!(accepted, (1..=n).collect::<Vec<_>>());
    assert_eq!(co.stats().submitted, n);
    // "Crash" with jobs still queued: the resume re-dispatches those.
    drop(co);

    let co = Coordinator::start(cfg().with_resume()).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(co.finish());
    });
    let (results, _) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a resumed drain over a full journal must terminate");
    let mut ids: Vec<u64> = results.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids, accepted,
        "every accepted id exactly once, nothing else"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_on_fresh_journal_is_a_plain_start() {
    let dir = std::env::temp_dir().join(format!("mmjoin-cluster-fresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = NodeServer::start("127.0.0.1:0", "worker", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    let co = Coordinator::start(
        fast_cfg(vec![node.local_addr().to_string()])
            .with_journal(dir.clone())
            .with_resume(),
    )
    .unwrap();
    co.submit(JobRequest::new(600, 32, 2, 8, 1)).unwrap();
    let (results, stats) = co.finish();
    assert_eq!(results.len(), 1);
    assert!(results[0].ok);
    assert_eq!(stats.resumed_reported, 0);
    // A job costs two records and two commits: its submission and its
    // completion.
    let journal = stats.journal.expect("journal configured");
    assert_eq!((journal.appended_records, journal.commits), (2, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_script_round_trips_the_job_file_grammar() {
    let node = NodeServer::start("127.0.0.1:0", "worker", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    let co = Coordinator::start(fast_cfg(vec![node.local_addr().to_string()])).unwrap();
    let ids = co
        .submit_script(
            "# comment\n\
             name=a alg=grace objects=800 obj-size=32 d=2 mem-pages=8 seed=1\n\
             \n\
             name=b objects=600 obj-size=32 d=2 mem-pages=8 seed=2 dist=zipf:0.8\n",
        )
        .unwrap();
    assert_eq!(ids.len(), 2);
    let (results, _) = co.finish();
    let names: BTreeSet<String> = results.iter().map(|r| r.name.clone()).collect();
    assert_eq!(names, BTreeSet::from(["a".to_string(), "b".to_string()]));
    assert!(results.iter().all(|r| r.ok), "{results:?}");
}

#[test]
fn wire_rejects_oversized_and_corrupt_frames_without_killing_the_node() {
    // A garbage client must not take the node down for the real
    // coordinator that connects next.
    let node = NodeServer::start("127.0.0.1:0", "worker", ServeConfig::sim(64 * PAGE, 2)).unwrap();
    {
        let mut garbage = TcpStream::connect(node.local_addr()).unwrap();
        use std::io::Write as _;
        garbage.write_all(&[0xff; 64]).unwrap();
        // Give the node a moment to read the junk and drop the session.
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(node.is_running(), "garbage must not stop the accept loop");
    let co = Coordinator::start(fast_cfg(vec![node.local_addr().to_string()])).unwrap();
    co.submit(JobRequest::new(600, 32, 2, 8, 3)).unwrap();
    let (results, _) = co.finish();
    assert_eq!(results.len(), 1);
    assert!(results[0].ok);
}

/// Block until `co` has `n` registered live nodes.
fn await_nodes(co: &Coordinator, n: u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while co.stats().nodes_alive < n {
        assert!(Instant::now() < deadline, "nodes did not register in time");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The RPC path is event-driven: `submit` wakes an idle dispatcher and
/// the node pushes the completion, so a lone job's round trip is the
/// job plus a few hand-offs. With the heartbeat at 500 ms there is no
/// tick anywhere near that could be doing the waking instead.
#[test]
fn single_job_round_trip_does_not_wait_for_a_tick() {
    let node = NodeServer::start("127.0.0.1:0", "worker", ServeConfig::sim(64 * PAGE, 1)).unwrap();
    let co = Coordinator::start(
        ClusterConfig::new(vec![node.local_addr().to_string()])
            .with_heartbeat(Duration::from_millis(500))
            .with_timeout(Duration::from_secs(10)),
    )
    .unwrap();
    await_nodes(&co, 1);
    let mut trips: Vec<Duration> = (0..40)
        .map(|seed| {
            let t = Instant::now();
            co.submit(JobRequest::new(200, 32, 2, 4, seed)).unwrap();
            co.drain();
            t.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median round trip {median:?}; all: {trips:?}"
    );
    let (results, stats) = co.finish();
    assert_eq!(results.len(), 40);
    assert!(results.iter().all(|r| r.ok), "{results:?}");
    assert_eq!(stats.duplicate_completions, 0);
    assert_eq!(stats.budget_leak_bytes, 0);
}

/// A node whose connection thread sits in a blocking read (idle, but
/// connected) still stops at once: `kill` resets the socket under it.
#[test]
fn idle_connected_node_stops_promptly() {
    let node = NodeServer::start("127.0.0.1:0", "idle", ServeConfig::sim(64 * PAGE, 1)).unwrap();
    let co = Coordinator::start(
        ClusterConfig::new(vec![node.local_addr().to_string()])
            .with_heartbeat(Duration::from_millis(500))
            .with_timeout(Duration::from_secs(10)),
    )
    .unwrap();
    await_nodes(&co, 1);
    let t = Instant::now();
    node.kill();
    drop(node);
    let took = t.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "kill + drop took {took:?}"
    );
    drop(co);
}

/// So does a node nobody ever connected to: its accept loop blocks, and
/// `kill` has to wake it.
#[test]
fn unconnected_node_stops_promptly() {
    let node = NodeServer::start("127.0.0.1:0", "lonely", ServeConfig::sim(64 * PAGE, 1)).unwrap();
    let t = Instant::now();
    drop(node);
    let took = t.elapsed();
    assert!(took < Duration::from_millis(200), "drop took {took:?}");
}

/// A peer that registers and then says nothing is declared dead by the
/// heartbeat timer alone — no frame arrives to wake anything — and its
/// session ends completely: the coordinator resets the socket (which is
/// what unblocks the session's reader) and `finish` joins the threads.
#[test]
fn silent_peer_is_declared_dead_by_the_heartbeat_timer() {
    let heartbeat = Duration::from_millis(50);
    let timeout = Duration::from_millis(300);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        write_msg(
            &mut stream,
            &Message::Hello {
                node: "mute".into(),
                budget_bytes: 1 << 30,
                workers: 1,
            },
        )
        .unwrap();
        let said_hello = Instant::now();
        // Swallow pings without a word until the coordinator hangs up.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new();
        loop {
            match reader.read_msg(&mut stream) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => return said_hello.elapsed(),
            }
        }
    });
    let co = Coordinator::start(
        ClusterConfig::new(vec![addr])
            .with_heartbeat(heartbeat)
            .with_timeout(timeout)
            .with_retry(RetryPolicy::attempts(1)),
    )
    .unwrap();
    let hung_up_after = fake.join().unwrap();
    assert!(
        hung_up_after >= timeout,
        "declared dead early, after {hung_up_after:?}"
    );
    assert!(
        hung_up_after <= timeout + 2 * heartbeat,
        "declared dead late, after {hung_up_after:?}"
    );
    let t = Instant::now();
    let (_, stats) = co.finish();
    assert!(t.elapsed() < Duration::from_millis(200), "finish hung");
    assert_eq!(stats.node_losses, 1);
    assert_eq!(stats.nodes_alive, 0);
}

/// A reconnect backoff is a wait on the coordinator's condvar, not a
/// sleep: dropping the coordinator mid-backoff does not wait it out.
#[test]
fn dropped_coordinator_interrupts_a_reconnect_backoff() {
    // An address that refuses: bound, then closed.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let retry = RetryPolicy {
        base_backoff: Duration::from_secs(5),
        max_backoff: Duration::from_secs(5),
        ..RetryPolicy::attempts(6)
    };
    let co = Coordinator::start(fast_cfg(vec![addr]).with_retry(retry)).unwrap();
    // Let the node thread fail its first connect and start backing off.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(co.stats().node_losses, 0);
    let t = Instant::now();
    drop(co);
    let took = t.elapsed();
    assert!(took < Duration::from_millis(200), "drop took {took:?}");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Satellite: for arbitrary small job mixes, killing a node
        /// mid-run and re-queuing onto the survivor yields exactly the
        /// uninterrupted single-node outcome set (pairs + checksums),
        /// with zero lost and zero duplicated completions.
        #[test]
        fn requeue_after_kill_equals_uninterrupted_run(
            n_jobs in 3u64..8,
            seed in 0u64..1000,
            swallow in 1usize..3,
        ) {
            let reqs: Vec<JobRequest> = (0..n_jobs)
                .map(|i| {
                    let mut req =
                        JobRequest::new(500 + 37 * ((seed + i) % 9), 32, 2, 8, seed + i);
                    req.name = format!("p{i}");
                    req
                })
                .collect();
            let want = reference(&reqs);

            let survivor = NodeServer::start(
                "127.0.0.1:0",
                "survivor",
                ServeConfig::sim(64 * PAGE, 2),
            )
            .unwrap();
            let (black_hole, _swallowed) = spawn_silent_node(swallow);
            let co = Coordinator::start(
                fast_cfg(vec![black_hole, survivor.local_addr().to_string()])
                    .with_retry(RetryPolicy::attempts(6)),
            )
            .unwrap();
            for req in &reqs {
                co.submit(req.clone()).unwrap();
            }
            let (results, stats) = co.finish();

            prop_assert_eq!(outcomes(&results), want);
            prop_assert_eq!(results.len() as u64, n_jobs);
            prop_assert_eq!(stats.budget_leak_bytes, 0);
        }
    }
}

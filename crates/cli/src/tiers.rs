//! The job tiers: `serve` (one queue or `--shards N`), `serve --node`
//! (one worker of a cluster), `serve --stream` (a resident S probed by
//! micro-batches) and `coordinator` (a job script across `--nodes`).
//! They share the script intake, the reports and the SIGTERM drain.

use std::path::PathBuf;
use std::sync::Arc;

use mmjoin::RetryPolicy;
use mmjoin_env::trace::escape;
use mmjoin_env::{JsonlSink, Options};
use mmjoin_serve::{EnvKind, PAGE};
use mmjoin_vmsim::{SimConfig, SimEnv};

use crate::{env_from, fault_spec_from, flush_trace, machine_from, trace_sink, traced};

/// `--journal DIR` and `--resume`, which the job-running commands read
/// alike: resuming needs a journal to resume from.
fn journal_from(opts: &Options) -> Result<(Option<PathBuf>, bool), String> {
    let dir = opts.get("journal")?.map(PathBuf::from);
    let resume = opts.flag("resume")?;
    if resume && dir.is_none() {
        return Err("--resume requires --journal DIR".to_string());
    }
    Ok((dir, resume))
}

/// Where `--env mmap` keeps its store: next to the journal, so a
/// restarted run finds (and recovers or garbage-collects) the previous
/// life's files, else in a per-process temp dir.
fn store_root(journal_dir: &Option<PathBuf>, tier: &str) -> PathBuf {
    match journal_dir {
        Some(dir) => dir.join("store"),
        None => std::env::temp_dir().join(format!("mmjoin-{tier}-{}", std::process::id())),
    }
}

/// The script intake and the reports `serve`, `serve --stream` and
/// `coordinator` share: `--jobs FILE`, `--results-json FILE`,
/// `--stats-json FILE` and `--json`.
struct Reports<'a> {
    jobs: Option<&'a str>,
    results_json: Option<&'a str>,
    stats_json: Option<&'a str>,
    json: bool,
}

impl<'a> Reports<'a> {
    fn read(opts: &Options<'a>) -> Result<Reports<'a>, String> {
        Ok(Reports {
            jobs: opts.get("jobs")?,
            results_json: opts.get("results-json")?,
            stats_json: opts.get("stats-json")?,
            json: opts.flag("json")?,
        })
    }

    /// The script, a line at a time: the `--jobs` file, else stdin —
    /// or nothing when `journal_only` (a resumed serve or coordinator
    /// may run purely from its journal).
    fn intake(&self, journal_only: bool) -> Result<LineFeed, String> {
        match self.jobs {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read '{path}': {e}"))?;
                let lines: Vec<String> = text.lines().map(str::to_string).collect();
                Ok(LineFeed::Fixed(lines.into_iter()))
            }
            None if journal_only => Ok(LineFeed::Fixed(Vec::new().into_iter())),
            None => {
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    use std::io::BufRead as _;
                    for line in std::io::stdin().lock().lines() {
                        let Ok(line) = line else { break };
                        if tx.send(line).is_err() {
                            break;
                        }
                    }
                });
                Ok(LineFeed::Live(rx))
            }
        }
    }

    /// End a run: write `rows`, one JSON object per result, as the
    /// `--results-json` array; write the `stats` snapshot to
    /// `--stats-json FILE`, or print it with `--json`; flush the trace;
    /// and fail naming the count when `failed` of the run's `unit`s did.
    fn close(
        &self,
        rows: impl IntoIterator<Item = String>,
        stats: &str,
        sink: &Option<Arc<JsonlSink>>,
        failed: u64,
        unit: &str,
    ) -> Result<(), String> {
        if let Some(path) = self.results_json {
            let rows: Vec<String> = rows.into_iter().collect();
            let out = format!("[{}]\n", rows.join(","));
            std::fs::write(path, out).map_err(|e| format!("cannot write '{path}': {e}"))?;
            println!("results written to {path}");
        }
        if let Some(path) = self.stats_json {
            std::fs::write(path, stats).map_err(|e| format!("cannot write '{path}': {e}"))?;
            println!("stats written to {path}");
        } else if self.json {
            println!("{stats}");
        }
        flush_trace(sink)?;
        match failed {
            0 => Ok(()),
            n => Err(format!("{n} {unit} failed")),
        }
    }
}

/// The keys every `--results-json` row starts with, so outcome sets
/// from serve and coordinator runs compare directly. Unclosed: the
/// caller appends its own keys and the closing brace.
fn result_row(
    id: u64,
    name: &str,
    alg: &str,
    pairs: u64,
    checksum: u64,
    ok: bool,
    resumed: bool,
) -> String {
    format!(
        "{{\"id\":{id},\"name\":\"{}\",\"alg\":\"{}\",\"pairs\":{pairs},\"checksum\":{checksum},\
         \"ok\":{ok},\"resumed\":{resumed}",
        escape(name),
        escape(alg),
    )
}

/// The status column of a results table.
fn status(error: &Option<String>, resumed: bool) -> String {
    let mut status = match error {
        None => "ok".to_string(),
        Some(e) => format!("FAILED: {e}"),
    };
    if resumed {
        status.push_str(" (resumed)");
    }
    status
}

/// A results table's name column: `-` for an unnamed job or op.
fn label(name: &str) -> &str {
    if name.is_empty() {
        "-"
    } else {
        name
    }
}

pub(crate) fn cmd_serve(opts: &Options) -> Result<(), String> {
    if opts.flag("stream")? {
        // The streaming tier shares the serve front door but has its
        // own session machinery (resident S, micro-batch ops).
        return cmd_stream(opts);
    }
    use mmjoin_serve::{AdmissionPolicy, JoinService, PlacementKind, ServeConfig, ShardedService};

    let node = opts.flag("node")?;
    let budget_pages: u64 = opts.parse_or("budget-pages", 256)?;
    let workers: usize = opts.parse_or("workers", 4)?;
    let policy = AdmissionPolicy::from_name(opts.get("policy")?.unwrap_or("fifo"))
        .ok_or_else(|| "unknown policy (fifo | spf)".to_string())?;
    let fault_spec = fault_spec_from(opts)?;
    let retries: u32 = opts.parse_or("retries", 3)?;
    let (journal_dir, resume) = journal_from(opts)?;
    let env = env_from(opts, store_root(&journal_dir, "serve"))?;
    let trace = opts.get("trace")?;
    let profile = opts.get("machine-profile")?;
    // A cluster node takes jobs from its coordinator, never a script.
    let (listen, node_name, shards, reports) = if node {
        let listen = opts.get("listen")?.unwrap_or("127.0.0.1:0");
        let name = opts.get("node-name")?.map(str::to_string);
        (listen, name, 1, None)
    } else {
        let shards: u32 = opts.parse_or("shards", 1)?;
        ("", None, shards.max(1), Some(Reports::read(opts)?))
    };
    opts.finish(if node { "serve --node" } else { "serve" })?;

    let sink = trace_sink(trace)?;
    // Only an explicit profile becomes a config override; without one
    // the service keeps its own process-wide calibrated default.
    let machine = mmjoin_calibrate::machine_override(profile)?.map(Arc::new);
    let cfg = ServeConfig {
        budget_bytes: budget_pages * PAGE,
        workers,
        policy,
        env,
        fault_spec,
        retries: retries.max(1),
        trace: traced(&sink),
        machine,
        journal_dir,
        resume,
    };
    let Some(reports) = reports else {
        let name = node_name.unwrap_or_else(|| format!("node-{}", std::process::id()));
        let node = mmjoin_cluster::NodeServer::start(listen, &name, cfg)?;
        // The chaos harness and CI smoke parse this line for the
        // resolved ephemeral port; keep its shape stable.
        println!(
            "node {} listening on {} (budget {budget_pages} pages, {workers} worker(s))",
            node.name(),
            node.local_addr()
        );
        node.wait();
        println!("node stopped");
        return flush_trace(&sink);
    };
    let script = reports.intake(resume)?.text();
    let svc = ShardedService::start(cfg, shards, PlacementKind::default().build())?;
    let ids = svc.submit_script(&script)?;
    let layout = if shards > 1 {
        format!(" over {shards} shard(s), {workers} worker(s)/shard")
    } else {
        format!(", {workers} worker(s)")
    };
    println!(
        "serving {} job(s): budget {budget_pages} pages{layout}, policy {}",
        ids.len(),
        policy.name()
    );
    svc.drain();
    let mut results = svc.results();
    let stats = svc.stats();
    results.sort_by_key(|r| r.id);
    println!(
        "{:>4} {:>5}  {:<12} {:<14} {:>10} {:>9} {:>9} {:>9}  status",
        "id", "shard", "name", "algorithm", "pairs", "pred(s)", "wait(s)", "exec(s)"
    );
    for r in &results {
        println!(
            "{:>4} {:>5}  {:<12} {:<14} {:>10} {:>9.2} {:>9.3} {:>9.3}  {}",
            r.id,
            r.shard,
            label(&r.name),
            r.alg.name(),
            r.pairs,
            r.predicted_seconds,
            r.queue_wait,
            r.exec_wall,
            status(&r.error, r.resumed)
        );
    }
    println!(
        "completed {} / failed {} — peak budget {} of {} pages",
        stats.completed,
        stats.failed,
        stats.peak_budget_bytes / PAGE,
        budget_pages
    );
    if shards > 1 {
        for (i, s) in svc.shard_stats().iter().enumerate() {
            println!(
                "  shard {i}: {} done, peak {} of {} pages",
                s.completed,
                s.peak_budget_bytes / PAGE,
                s.budget_bytes / PAGE
            );
        }
    }
    if stats.faults_injected > 0 {
        println!(
            "recovery: {} fault(s) injected, {} retried, {} degraded, \
             {} orphan file(s) cleaned",
            stats.faults_injected, stats.retries, stats.degraded, stats.cleaned_files
        );
    }
    if stats.journal_appended_records + stats.journal_replayed_records > 0 {
        println!(
            "journal: {} record(s) appended in {} commit(s); replay saw {} record(s) \
             ({} torn byte(s)), deleted {} orphaned area(s), resumed {} job(s)",
            stats.journal_appended_records,
            stats.journal_commits,
            stats.journal_replayed_records,
            stats.journal_torn_bytes,
            stats.journal_orphans_deleted,
            stats.journal_resumed_jobs
        );
    }
    let rows = results.iter().map(|r| {
        let (alg, ok) = (r.alg.name(), r.error.is_none() && r.verified);
        result_row(r.id, &r.name, alg, r.pairs, r.checksum, ok, r.resumed) + "}"
    });
    reports.close(rows, &stats.to_json(), &sink, stats.failed, "job(s)")
}

/// Set by the SIGTERM handler; polled by the stream intake loop.
static TERM_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: libc::c_int) {
    // Only an atomic store: anything else is not async-signal-safe.
    TERM_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Install the graceful-shutdown handler (stream mode only; everywhere
/// else SIGTERM keeps its default immediate-kill disposition).
fn install_sigterm() {
    unsafe {
        libc::signal(libc::SIGTERM, on_sigterm as *const () as libc::sighandler_t);
    }
}

fn term_requested() -> bool {
    TERM_REQUESTED.load(std::sync::atomic::Ordering::SeqCst)
}

/// Where a script's lines come from: a finite `--jobs` file, or live
/// stdin via a reader thread. Both stop yielding once SIGTERM is
/// requested — the channel indirection exists precisely so an idle
/// stream blocked "between lines" still notices the signal within one
/// poll interval instead of sitting in an uninterruptible read.
enum LineFeed {
    Fixed(std::vec::IntoIter<String>),
    Live(std::sync::mpsc::Receiver<String>),
}

impl LineFeed {
    fn next(&mut self) -> Option<String> {
        use std::sync::mpsc::RecvTimeoutError;
        loop {
            if term_requested() {
                return None;
            }
            match self {
                LineFeed::Fixed(it) => return it.next(),
                LineFeed::Live(rx) => match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                    Ok(line) => return Some(line),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return None,
                },
            }
        }
    }

    /// Every remaining line, as one script (serve and coordinator read
    /// the whole script before submitting it).
    fn text(mut self) -> String {
        std::iter::from_fn(|| self.next())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// `serve --stream`: the streaming join tier. The inner relation S is
/// loaded once (the *resident set*); an unbounded sequence
/// of R micro-batches probes it, with `append=` / `delete=` lines
/// maintaining S incrementally. The script's first meaningful line is
/// the `resident=` header; every following line is one op. With
/// `--jobs FILE` the script is finite; without it, ops stream in on
/// stdin until EOF or SIGTERM. SIGTERM stops intake and drains every
/// accepted op before exiting, so a supervisor's `kill -TERM` never
/// loses a batch the stream already acknowledged.
fn cmd_stream(opts: &Options) -> Result<(), String> {
    use mmjoin_stream::{StreamConfig, StreamHeader};

    let queue_bound: usize = opts.parse_or("queue-bound", 64)?;
    let (journal_dir, resume) = journal_from(opts)?;
    let env = env_from(opts, store_root(&journal_dir, "stream"))?;
    let trace = opts.get("trace")?;
    let profile = opts.get("machine-profile")?;
    let reports = Reports::read(opts)?;
    opts.finish("serve --stream")?;
    install_sigterm();
    let machine = machine_from(profile)?;
    let sink = trace_sink(trace)?;

    // The first meaningful line is the resident= header, so even a
    // resumed stream reads its script: give it a header-only script
    // (resume refuses a mismatched header) and no ops.
    let mut feed = reports.intake(false)?;
    let header = loop {
        let Some(line) = feed.next() else {
            return Err("stream script ended before a 'resident=' header line".to_string());
        };
        match StreamHeader::parse_line(&line).map_err(|e| format!("header: {e}"))? {
            Some(h) => break h,
            None => continue,
        }
    };
    let cfg = StreamConfig {
        queue_bound,
        machine: machine.clone(),
        journal_dir,
        resume,
    };
    match env {
        EnvKind::Sim => {
            let pages = header.mem_pages as usize;
            let env = SimEnv::new(SimConfig::granted(header.d, machine, pages, pages))
                .map_err(|e| e.to_string())?;
            env.set_trace_sink(traced(&sink));
            println!("environment: simulator (virtual 1996-like machine)");
            run_stream(Arc::new(env), header, cfg, feed, &reports, &sink)
        }
        EnvKind::Mmap { root } => {
            let mm_cfg = mmjoin_mmstore::MmapEnvConfig {
                root: root.clone(),
                num_disks: header.d,
                page_size: 4096,
            };
            let env = if resume {
                mmjoin_mmstore::MmapEnv::recover(mm_cfg)
                    .map_err(|e| e.to_string())?
                    .0
            } else {
                let _ = std::fs::remove_dir_all(&root);
                mmjoin_mmstore::MmapEnv::new(mm_cfg).map_err(|e| e.to_string())?
            };
            env.set_trace_sink(traced(&sink));
            println!("environment: real memory-mapped store ({})", root.display());
            run_stream(Arc::new(env), header, cfg, feed, &reports, &sink)
        }
    }
}

/// Drive an open stream session: submit ops from `feed`, report each
/// completion on stdout as it lands, drain, and summarize.
fn run_stream<E: mmjoin_env::Env + 'static>(
    env: Arc<E>,
    header: mmjoin_stream::StreamHeader,
    cfg: mmjoin_stream::StreamConfig,
    mut feed: LineFeed,
    reports: &Reports,
    sink: &Option<Arc<JsonlSink>>,
) -> Result<(), String> {
    use mmjoin_stream::{StreamOp, StreamSession};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let budget_pages = header.mem_pages;
    let sess = Arc::new(StreamSession::open(env, header.clone(), cfg).map_err(|e| e.to_string())?);
    println!(
        "stream {}: |S| = {} x {} B resident over D = {}, \
         budget {budget_pages} pages, {} journaled op(s) re-reported",
        header.name,
        header.s_objects,
        header.s_size,
        header.d,
        sess.results().len()
    );

    // Per-op progress lines go out as results land, not at the end: a
    // supervisor tailing stdout sees exactly which ops are durable
    // (the line prints only after the journal commit), which is what
    // the kill/resume smoke counts before delivering its SIGKILL. The
    // printer sleeps on the session until a result lands; its wait is
    // bounded only so it notices the end of the run. Live stdin is
    // reported as it arrives; a finite `--jobs` script is accepted
    // whole first, so by the first progress line every op is journaled
    // and a header-only `--resume` recovers all of them.
    let done = Arc::new(AtomicBool::new(false));
    let report = || {
        let sess = Arc::clone(&sess);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut printed = 0usize;
            loop {
                // Order matters: read the flag *before* the results so
                // the post-drain sweep cannot miss a late completion.
                let finishing = done.load(Ordering::SeqCst);
                let wait = if finishing {
                    Duration::ZERO
                } else {
                    Duration::from_millis(50)
                };
                let fresh = sess.wait_results(printed, Instant::now() + wait);
                for r in &fresh {
                    println!(
                        "done seq={} kind={} name={} rows={} pairs={} misses={} ok={}{}",
                        r.seq,
                        r.kind,
                        label(&r.name),
                        r.rows,
                        r.pairs,
                        r.misses,
                        r.ok,
                        if r.resumed { " resumed" } else { "" }
                    );
                }
                printed += fresh.len();
                if finishing {
                    break;
                }
            }
        })
    };
    let live = matches!(feed, LineFeed::Live(_));
    let reporter = live.then(report);

    let mut intake_error = None;
    while let Some(line) = feed.next() {
        match StreamOp::parse_line(&line) {
            Ok(Some(op)) => {
                if let Err(e) = sess.submit(op) {
                    intake_error = Some(format!("submit: {e}"));
                    break;
                }
            }
            Ok(None) => {}
            Err(e) => {
                intake_error = Some(format!("op line {line:?}: {e}"));
                break;
            }
        }
    }
    let terminated = term_requested();
    if terminated {
        println!("SIGTERM: stopping intake, draining accepted op(s)");
    }
    let reporter = reporter.unwrap_or_else(report);
    sess.drain();
    done.store(true, Ordering::SeqCst);
    let _ = reporter.join();
    if let Some(e) = intake_error {
        return Err(e);
    }

    let results = sess.results();
    let stats = sess.stats();
    if terminated {
        println!(
            "drained cleanly after SIGTERM: {} op(s) completed, {} failed",
            stats.completed + stats.mutations,
            stats.failed
        );
    }
    println!(
        "{:>4} {:<10} {:<7} {:>8} {:>10} {:>8} {:>9} {:>9} {:>9}  status",
        "seq", "name", "kind", "rows", "pairs", "misses", "pred(s)", "wait(s)", "exec(s)"
    );
    for r in &results {
        println!(
            "{:>4} {:<10} {:<7} {:>8} {:>10} {:>8} {:>9.2} {:>9.3} {:>9.3}  {}",
            r.seq,
            label(&r.name),
            r.kind,
            r.rows,
            r.pairs,
            r.misses,
            r.predicted_seconds,
            r.queue_wait,
            r.exec_wall,
            status(&r.error, r.resumed)
        );
    }
    println!(
        "completed {} batch(es) + {} mutation(s) / failed {} — resident {} live of {} \
         object(s), {} build(s), {} patched, {} backpressure stall(s)",
        stats.completed,
        stats.mutations,
        stats.failed,
        stats.live_objects,
        stats.resident_objects,
        stats.resident_builds,
        stats.patched_objects,
        stats.backpressure
    );
    if stats.journal_appended_records + stats.journal_replayed_records > 0 {
        println!(
            "journal: {} record(s) appended in {} commit(s); replay saw {} record(s) \
             ({} torn byte(s)), resumed {} op(s)",
            stats.journal_appended_records,
            stats.journal_commits,
            stats.journal_replayed_records,
            stats.journal_torn_bytes,
            stats.resumed_batches
        );
    }
    // Streaming runs report through the same ServiceStats JSON as the
    // batch service, so dashboards and the schema goldens see one
    // shape: the stream section carries the tier's counters.
    let svc = mmjoin_serve::ServiceStats {
        submitted: stats.submitted,
        completed: stats.completed + stats.mutations,
        failed: stats.failed,
        budget_bytes: header.budget_bytes(),
        peak_budget_bytes: header.budget_bytes(),
        queue_wait_seconds: results.iter().map(|r| r.queue_wait).sum(),
        exec_wall_seconds: stats.exec_seconds,
        env_elapsed_seconds: results.iter().map(|r| r.env_elapsed).sum(),
        journal_appended_records: stats.journal_appended_records,
        journal_commits: stats.journal_commits,
        journal_replayed_records: stats.journal_replayed_records,
        journal_torn_bytes: stats.journal_torn_bytes,
        journal_resumed_jobs: stats.resumed_batches,
        stream_batches: stats.completed,
        stream_mutations: stats.mutations,
        stream_misses: stats.misses,
        stream_backpressure: stats.backpressure,
        stream_resumed: stats.resumed_batches,
        latency_hist: stats.batch_hist.clone(),
        batch_hist: stats.batch_hist.clone(),
        queue_hist: stats.queue_hist.clone(),
        ..Default::default()
    };
    let rows = results.iter().map(|r| r.to_json());
    reports.close(rows, &svc.to_json(), sink, stats.failed, "op(s)")
}

pub(crate) fn cmd_coordinator(opts: &Options) -> Result<(), String> {
    use mmjoin_cluster::{ClusterConfig, Coordinator};

    let nodes: Vec<String> = opts
        .get("nodes")?
        .ok_or("--nodes HOST:PORT[,HOST:PORT...] is required")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if nodes.is_empty() {
        return Err("--nodes lists no addresses".to_string());
    }
    let heartbeat_ms: u64 = opts.parse_or("heartbeat-ms", 100)?;
    let timeout_ms: u64 = opts.parse_or("timeout-ms", 1500)?;
    let max_requeues: u32 = opts.parse_or("max-requeues", 3)?;
    let (journal_dir, resume) = journal_from(opts)?;
    let trace = opts.get("trace")?;
    let reports = Reports::read(opts)?;
    opts.finish("coordinator")?;
    let sink = trace_sink(trace)?;

    let mut cfg = ClusterConfig::new(nodes.clone())
        .with_heartbeat(std::time::Duration::from_millis(heartbeat_ms.max(1)))
        .with_timeout(std::time::Duration::from_millis(timeout_ms.max(1)))
        // N re-queues = N+1 dispatch attempts, mirroring the join
        // retry layer's attempt accounting.
        .with_retry(RetryPolicy::attempts(max_requeues + 1))
        .with_trace(traced(&sink));
    if let Some(dir) = journal_dir {
        cfg = cfg.with_journal(dir);
    }
    if resume {
        cfg = cfg.with_resume();
    }

    let script = reports.intake(resume)?.text();
    let co = Coordinator::start(cfg)?;
    let ids = co.submit_script(&script)?;
    println!(
        "coordinating {} job(s) across {} node(s): {}",
        ids.len(),
        nodes.len(),
        nodes.join(", ")
    );
    let (mut results, stats) = co.finish();
    results.sort_by_key(|r| r.id);

    println!(
        "{:>4}  {:<12} {:<14} {:<14} {:>10} {:>8} {:>9}  status",
        "id", "name", "node", "algorithm", "pairs", "requeues", "exec(s)"
    );
    for r in &results {
        println!(
            "{:>4}  {:<12} {:<14} {:<14} {:>10} {:>8} {:>9.3}  {}",
            r.id,
            label(&r.name),
            r.node,
            r.alg,
            r.pairs,
            r.requeues,
            r.latency,
            status(&r.error, r.resumed)
        );
    }
    println!(
        "completed {} / failed {} — {} requeue(s), {} node(s) joined, {} lost, \
         {} duplicate completion(s) dropped",
        stats.completed,
        stats.failed,
        stats.requeued,
        stats.node_joins,
        stats.node_losses,
        stats.duplicate_completions
    );
    if stats.resumed_reported > 0 {
        println!(
            "resumed {} job(s) from the journal ({} record(s) replayed)",
            stats.resumed_reported, stats.replayed_records
        );
    }
    if let Some(j) = &stats.journal {
        println!(
            "journal: {} record(s) appended in {} commit(s); replay saw {} record(s) \
             ({} torn byte(s))",
            j.appended_records, j.commits, j.replayed_records, j.torn_bytes
        );
    }
    let rows = results.iter().map(|r| {
        let row = result_row(r.id, &r.name, &r.alg, r.pairs, r.checksum, r.ok, r.resumed);
        format!(
            "{row},\"node\":\"{}\",\"requeues\":{}}}",
            escape(&r.node),
            r.requeues
        )
    });
    reports.close(rows, &stats.to_json(), &sink, stats.failed, "job(s)")
}

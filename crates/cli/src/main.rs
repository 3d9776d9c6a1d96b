//! `mmjoin` — command-line driver for the reproduction (`mmjoin help`
//! prints every command's options).
//!
//! `join` runs one parallel pointer-based join and verifies it against
//! the workload oracle; `plan` queries the analytical model the way a
//! query optimizer would; `serve` runs many jobs concurrently under the
//! admission-controlled service (`serve --node` exposes that service
//! over TCP as one worker node of a cluster); `coordinator` dispatches
//! a job script across `--nodes` worker processes with heartbeats,
//! dead-node re-queue, and an optional crash-recovery journal;
//! `calibrate` measures the paper's §3
//! machine parameters on this host and persists them as a versioned
//! JSON machine profile; `validate-model` runs the paper's three
//! algorithms on the real memory-mapped store and prints per-pass
//! measured-vs-predicted times, then re-runs every algorithm under the
//! modern kernels to record their unmodelled constant-factor win.
//! Every planning/simulating command accepts `--machine-profile FILE`
//! to use a calibrated profile in place of the built-in waterloo96
//! preset; `join --modern` (and `mode=modern` on a job line) selects
//! the cache-conscious kernel path with bitwise-identical join output.
//!
//! Every command reads its options through [`Options`], the reader job
//! and stream lines use too: a `join` command line is a job line, a
//! repeated option is an error, and every command rejects an option it
//! does not read, so a misspelt or retired option fails instead of
//! running with defaults.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use mmjoin::{
    choose, choose_auto, explain, join_with_retry, verify, Algo, ExecMode, JoinSpec, RetryPolicy,
    SampleSummary, HISTOGRAM_BUCKETS, SAMPLE_CAP,
};
use mmjoin_calibrate::{calibrate_host, machine_override, CalibrateOptions};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::trace::escape;
use mmjoin_env::{FaultSpec, FaultyEnv, JsonlSink, Options, TraceSink};
use mmjoin_relstore::{build, sample_relation, sample_spec_pointers, WorkloadSpec};
use mmjoin_serve::{service_machine, JobRequest, PAGE};
use mmjoin_vmsim::{SimConfig, SimEnv};

fn parse_alg(s: &str) -> Result<Algo, String> {
    Algo::from_name(s).ok_or_else(|| {
        let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
        format!("unknown algorithm '{s}' (one of: {})", names.join(", "))
    })
}

/// A `join`/`plan`/`validate-model` command line read as the job line
/// it is: the job grammar's workload keys (`--objects`, `--obj-size`,
/// `--d`, `--mem-pages`, `--seed`, `--dist`) under the CLI's defaults.
fn job_from(opts: &Options) -> Result<JobRequest, String> {
    let mut req = JobRequest::new(40_000, 128, 4, 160, 1996);
    req.read_workload(opts)?;
    Ok(req)
}

/// The machine a command should plan/simulate against: the profile
/// named by `--machine-profile`, else the shared default
/// [`service_machine`].
fn machine_from(profile: Option<&str>) -> Result<MachineParams, String> {
    machine_override(profile)?.map_or_else(|| service_machine().cloned(), Ok)
}

/// The pointer budget requested with `--sample`: bare `--sample` means
/// the planner's default cap, `--sample N` draws exactly `N`, absent
/// means no sampling.
fn sample_cap_from(opts: &Options) -> Result<Option<usize>, String> {
    match opts.lookup("sample") {
        None => Ok(None),
        Some(None) => Ok(Some(SAMPLE_CAP)),
        Some(Some(_)) => match opts.parse("sample")? {
            Some(0) => Err("--sample: must draw at least one pointer".to_string()),
            cap => Ok(cap),
        },
    }
}

/// Sample `cap` pointers from the workload's distribution and fold
/// them into the planner's histogram summary — the same path `serve`
/// takes for `plan=auto` job lines.
fn summarize_spec(w: &WorkloadSpec, cap: usize) -> SampleSummary {
    let pointers = sample_spec_pointers(w, cap);
    SampleSummary::from_pointers(
        &pointers,
        w.rel.r_objects,
        w.rel.s_objects,
        w.rel.d,
        HISTOGRAM_BUCKETS,
    )
}

/// Open the JSONL trace sink requested with `--trace`, if any.
fn trace_sink(path: Option<&str>) -> Result<Option<Arc<JsonlSink>>, String> {
    match path {
        None => Ok(None),
        Some(path) => JsonlSink::create(path)
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("--trace: cannot create '{path}': {e}")),
    }
}

/// Flush the `--trace` sink, if any, before the command returns.
fn flush_trace(sink: &Option<Arc<JsonlSink>>) -> Result<(), String> {
    match sink {
        Some(s) => s.flush().map_err(|e| format!("--trace: flush failed: {e}")),
        None => Ok(()),
    }
}

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

    /// Write `rows`, one JSON object per result, as the
    /// `--results-json` array.
    fn write_results(&self, rows: impl IntoIterator<Item = String>) -> Result<(), String> {
        let Some(path) = self.results_json else {
            return Ok(());
        };
        let rows: Vec<String> = rows.into_iter().collect();
        let out = format!("[{}]\n", rows.join(","));
        std::fs::write(path, out).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("results written to {path}");
        Ok(())
    }

    /// Write the stats snapshot to `--stats-json FILE`, or print it
    /// with `--json`.
    fn write_stats(&self, json: &str) -> Result<(), String> {
        if let Some(path) = self.stats_json {
            std::fs::write(path, json).map_err(|e| format!("cannot write '{path}': {e}"))?;
            println!("stats written to {path}");
        } else if self.json {
            println!("{json}");
        }
        Ok(())
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

/// A `join` command line as a job request: the workload keys, plus
/// `--alg A | --auto` (no algorithm: the planner picks) and
/// `--threads | --modern`.
fn join_request(opts: &Options) -> Result<JobRequest, String> {
    let mut req = job_from(opts)?;
    req.mode = match (opts.flag("threads")?, opts.flag("modern")?) {
        (true, true) => return Err("--threads and --modern are mutually exclusive".to_string()),
        (_, true) => ExecMode::Modern,
        (true, _) => ExecMode::Threaded,
        _ => ExecMode::Sequential,
    };
    req.alg = match (opts.flag("auto")?, opts.get("alg")?) {
        (true, Some(_)) => return Err("--alg and --auto are mutually exclusive".to_string()),
        (true, None) => None,
        (false, alg) => Some(parse_alg(alg.unwrap_or("grace"))?),
    };
    Ok(req)
}

fn cmd_join(opts: &Options) -> Result<(), String> {
    let req = join_request(opts)?;
    let sample_cap = sample_cap_from(opts)?;
    let fault_spec = FaultSpec::parse(opts.get("fault-spec")?.unwrap_or(""))
        .map_err(|e| format!("--fault-spec: {e}"))?;
    let policy = RetryPolicy::attempts(opts.parse_or("retries", 3)?);
    let env_kind = opts.get("env")?.unwrap_or("sim");
    let trace = opts.get("trace")?;
    let machine = machine_from(opts.get("machine-profile")?)?;
    opts.finish("join")?;

    let w = &req.workload;
    let mut pages = req.m_rproc / PAGE;
    // `--auto` hands algorithm and memory grant to the data-aware
    // planner: sample the workload's pointers, estimate skew from the
    // histogram, and take the plan — exactly what a `plan=auto` job
    // line gets under serve.
    let (alg, auto_plan) = match req.alg {
        Some(alg) => (alg, None),
        None => {
            let summary = summarize_spec(w, sample_cap.unwrap_or(SAMPLE_CAP));
            let auto = choose_auto(&machine, &req.planner_inputs(), Some(&summary));
            pages = (auto.m_rproc / PAGE).max(1);
            (Algo::from(auto.choice.algorithm), Some(auto))
        }
    };
    let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(req.mode);
    let sink = trace_sink(trace)?;

    let attach = |set: &dyn Fn(Arc<dyn TraceSink>)| {
        if let Some(s) = &sink {
            set(s.clone());
        }
    };
    let (out, report, faults) = match env_kind {
        "sim" => {
            let mut cfg = SimConfig::waterloo96(w.rel.d);
            cfg.machine = machine;
            cfg.rproc_pages = pages as usize;
            cfg.sproc_pages = pages as usize;
            let env = SimEnv::new(cfg).map_err(|e| e.to_string())?;
            let ran = join_on(
                env,
                |e| attach(&|s| e.set_trace_sink(s)),
                w,
                alg,
                &spec,
                &policy,
                &fault_spec,
            )?;
            println!("environment: simulator (virtual 1996-like machine)");
            ran
        }
        "mmap" => {
            let root = std::env::temp_dir().join(format!("mmjoin-cli-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let env = mmjoin_mmstore::MmapEnv::new(mmjoin_mmstore::MmapEnvConfig {
                root: root.clone(),
                num_disks: w.rel.d,
                page_size: 4096,
            })
            .map_err(|e| e.to_string())?;
            let ran = join_on(
                env,
                |e| attach(&|s| e.set_trace_sink(s)),
                w,
                alg,
                &spec,
                &policy,
                &fault_spec,
            )?;
            let _ = std::fs::remove_dir_all(&root);
            println!("environment: real memory-mapped store ({})", root.display());
            ran
        }
        other => return Err(format!("unknown env '{other}' (sim | mmap)")),
    };

    if !fault_spec.is_empty() {
        println!(
            "faults:      {} injected; {} attempt(s), {} transient error(s) \
             retried, {} orphan file(s) cleaned",
            faults.total(),
            report.attempts,
            report.transient_errors,
            report.cleaned_files
        );
    }
    println!("algorithm:   {}", alg.name());
    if let Some(auto) = &auto_plan {
        println!(
            "auto plan:   {} — predicted {:.1} s",
            auto.describe(),
            auto.predicted_seconds()
        );
    }
    println!(
        "workload:    |R| = |S| = {} x {} B over D = {}",
        w.rel.r_objects, w.rel.r_size, w.rel.d
    );
    println!("memory:      {pages} pages/process");
    println!("result:      {} pairs, checksum verified", out.pairs);
    println!("elapsed:     {:.3} s", out.elapsed);
    println!(
        "page faults: {} reads, {} write-backs",
        out.stats.total_read_faults(),
        out.stats.total_write_backs()
    );
    for (name, t) in &out.stage_times {
        println!("  stage {name:<16} done at {t:>9.3} s");
    }
    flush_trace(&sink)?;
    if let Some(path) = trace {
        println!("trace:       {path} (structured JSONL events)");
    }
    Ok(())
}

/// Build the workload on `env` itself (setup is not in the fault
/// domain), `attach` the trace sink so the trace covers the join rather
/// than relation generation, then join through a fault injector around
/// `env` and verify the output against the workload oracle.
fn join_on<E: mmjoin_env::Env>(
    env: E,
    attach: impl FnOnce(&E),
    w: &WorkloadSpec,
    alg: Algo,
    spec: &JoinSpec,
    policy: &RetryPolicy,
    faults: &FaultSpec,
) -> Result<
    (
        mmjoin::JoinOutput,
        mmjoin::RetryReport,
        mmjoin_env::FaultStats,
    ),
    String,
> {
    let env = FaultyEnv::new(env, faults.clone());
    let rels = build(env.inner(), w).map_err(|e| e.to_string())?;
    attach(env.inner());
    let (out, report) =
        join_with_retry(&env, &rels, alg, spec, policy).map_err(|e| e.to_string())?;
    verify(&out, &rels).map_err(|e| format!("verification failed: {e}"))?;
    Ok((out, report, env.fault_stats()))
}

fn cmd_plan(opts: &Options) -> Result<(), String> {
    let req = job_from(opts)?;
    let sample_cap = sample_cap_from(opts)?;
    let explain_alg = opts.get("explain")?;
    let machine = machine_from(opts.get("machine-profile")?)?;
    opts.finish("plan")?;
    let w = &req.workload;
    let pages = req.m_rproc / PAGE;
    // Plan from statistics alone — no data is generated — under the
    // paper's uniform assumption; `--sample` measures the real skew.
    let mut inputs = req.planner_inputs();
    inputs.skew = 1.0;
    let plan = choose(&machine, &inputs);
    println!(
        "plan for |R| = |S| = {} x {} B, D = {}, {} pages/proc, skew 1",
        w.rel.r_objects, w.rel.r_size, w.rel.d, pages
    );
    for (alg, t) in &plan.ranking {
        let marker = if *alg == plan.algorithm {
            "  <== pick"
        } else {
            ""
        };
        println!("  {:<14} {t:>10.1} s{marker}", alg.name());
    }
    if let Some(cap) = sample_cap {
        // The data-aware path: draw pointers, estimate skew from the
        // histogram, and re-rank at the planner's chosen grant.
        let summary = summarize_spec(w, cap);
        let auto = choose_auto(&machine, &inputs, Some(&summary));
        println!();
        println!(
            "sampled {} of {} pointers: histogram skew {:.2} \
             (worst-case bound {:.1}), duplication {:.2}",
            summary.sampled,
            summary.population,
            summary.estimated_skew(),
            w.rel.d as f64,
            summary.duplication
        );
        println!("auto plan: {}", auto.describe());
        for (alg, t) in &auto.choice.ranking {
            let marker = if *alg == auto.choice.algorithm {
                "  <== pick"
            } else {
                ""
            };
            println!("  {:<14} {t:>10.1} s{marker}", alg.name());
        }
    }
    if let Some(name) = explain_alg {
        let alg = mmjoin_model::Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown algorithm '{name}'"))?;
        println!("\nitemized prediction for {}:", alg.name());
        println!("{}", explain(&machine, &inputs, alg).table());
    }
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    if opts.flag("stream")? {
        // The streaming tier shares the serve front door but has its
        // own session machinery (resident S, micro-batch ops).
        return cmd_stream(opts);
    }
    use mmjoin_serve::{
        AdmissionPolicy, EnvKind, JoinService, PlacementKind, ServeConfig, ShardedService,
    };

    let node = opts.flag("node")?;
    let budget_pages: u64 = opts.parse_or("budget-pages", 256)?;
    let workers: usize = opts.parse_or("workers", 4)?;
    let policy = AdmissionPolicy::from_name(opts.get("policy")?.unwrap_or("fifo"))
        .ok_or_else(|| "unknown policy (fifo | spf)".to_string())?;
    let fault_spec = FaultSpec::parse(opts.get("fault-spec")?.unwrap_or(""))
        .map_err(|e| format!("--fault-spec: {e}"))?;
    let retries: u32 = opts.parse_or("retries", 3)?;
    let (journal_dir, resume) = journal_from(opts)?;
    let env_name = opts.get("env")?.unwrap_or("sim");
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

    let env = match env_name {
        "sim" => EnvKind::Sim,
        "mmap" => EnvKind::Mmap {
            root: store_root(&journal_dir, "serve"),
        },
        other => return Err(format!("unknown env '{other}' (sim | mmap)")),
    };
    let sink = trace_sink(trace)?;
    // Only an explicit profile becomes a config override; without one
    // the service keeps its own process-wide calibrated default.
    let machine = machine_override(profile)?.map(Arc::new);
    let cfg = ServeConfig {
        budget_bytes: budget_pages * PAGE,
        workers,
        policy,
        env,
        fault_spec,
        retries: retries.max(1),
        trace: match &sink {
            Some(s) => s.clone() as Arc<dyn TraceSink>,
            None => mmjoin_env::null_sink(),
        },
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
    reports.write_results(results.iter().map(|r| {
        let ok = r.error.is_none() && r.verified;
        let row = result_row(
            r.id,
            &r.name,
            r.alg.name(),
            r.pairs,
            r.checksum,
            ok,
            r.resumed,
        );
        row + "}"
    }))?;
    reports.write_stats(&stats.to_json())?;
    flush_trace(&sink)?;
    if stats.failed > 0 {
        return Err(format!("{} job(s) failed", stats.failed));
    }
    Ok(())
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
        match self {
            LineFeed::Fixed(it) => {
                if term_requested() {
                    return None;
                }
                it.next()
            }
            LineFeed::Live(rx) => loop {
                if term_requested() {
                    return None;
                }
                match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                    Ok(line) => return Some(line),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return None,
                }
            },
        }
    }

    /// Every remaining line, as one script (serve and coordinator read
    /// the whole script before submitting it).
    fn text(mut self) -> String {
        let mut lines = Vec::new();
        while let Some(line) = self.next() {
            lines.push(line);
        }
        lines.join("\n")
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
    let env_name = opts.get("env")?.unwrap_or("sim");
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
        journal_dir: journal_dir.clone(),
        resume,
    };
    match env_name {
        "sim" => {
            let mut sim = SimConfig::waterloo96(header.d);
            sim.machine = machine;
            sim.rproc_pages = header.mem_pages as usize;
            sim.sproc_pages = header.mem_pages as usize;
            let env = SimEnv::new(sim).map_err(|e| e.to_string())?;
            if let Some(s) = &sink {
                env.set_trace_sink(s.clone());
            }
            println!("environment: simulator (virtual 1996-like machine)");
            run_stream(Arc::new(env), header, cfg, feed, &reports, &sink)
        }
        "mmap" => {
            let root = store_root(&journal_dir, "stream");
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
            if let Some(s) = &sink {
                env.set_trace_sink(s.clone());
            }
            println!("environment: real memory-mapped store ({})", root.display());
            run_stream(Arc::new(env), header, cfg, feed, &reports, &sink)
        }
        other => Err(format!("unknown env '{other}' (sim | mmap)")),
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
    reports.write_results(results.iter().map(|r| r.to_json()))?;
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
    reports.write_stats(&svc.to_json())?;
    flush_trace(sink)?;
    if stats.failed > 0 {
        return Err(format!("{} op(s) failed", stats.failed));
    }
    Ok(())
}

fn cmd_coordinator(opts: &Options) -> Result<(), String> {
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
        .with_retry(RetryPolicy::attempts(max_requeues + 1));
    if let Some(dir) = journal_dir {
        cfg = cfg.with_journal(dir);
    }
    if resume {
        cfg = cfg.with_resume();
    }
    if let Some(s) = &sink {
        cfg = cfg.with_trace(s.clone() as Arc<dyn TraceSink>);
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
    reports.write_results(results.iter().map(|r| {
        let row = result_row(r.id, &r.name, &r.alg, r.pairs, r.checksum, r.ok, r.resumed);
        format!(
            "{row},\"node\":\"{}\",\"requeues\":{}}}",
            escape(&r.node),
            r.requeues
        )
    }))?;
    reports.write_stats(&stats.to_json())?;
    flush_trace(&sink)?;
    if stats.failed > 0 {
        return Err(format!("{} job(s) failed", stats.failed));
    }
    Ok(())
}

fn cmd_calibrate(opts: &Options) -> Result<(), String> {
    let quick = opts.flag("quick")?;
    let device = opts.get("device")?.map(PathBuf::from);
    let out = opts.get("out")?;
    let trace = opts.get("trace")?;
    opts.finish("calibrate")?;
    let sink = trace_sink(trace)?;
    let mut opts = if quick {
        CalibrateOptions::quick()
    } else {
        CalibrateOptions::full()
    };
    opts.device = device;
    if let Some(s) = &sink {
        opts.trace = s.clone() as Arc<dyn TraceSink>;
    }
    println!(
        "calibrating this host ({} probes, {} reps each){}",
        if opts.quick { "quick" } else { "full" },
        opts.spec.reps,
        match &opts.device {
            Some(d) => format!(", disk sweep on {}", d.display()),
            None => ", disk sweep on a temp scratch file".to_string(),
        }
    );
    let profile = calibrate_host(&opts).map_err(|e| e.to_string())?;

    let p = &profile.provenance;
    let m = &profile.machine;
    println!(
        "host {}  device {}  direct_io {}",
        p.host, p.device, p.direct_io
    );
    if !p.direct_io {
        println!("NOTE: O_DIRECT unavailable; dtt curves include the page cache");
    }
    println!(
        "{:>12} {:>14} {:>14}",
        "band (blks)", "dttr (ms/blk)", "dttw (ms/blk)"
    );
    for &(band, read) in m.dttr.points() {
        let write = m.dttw.eval(band);
        println!("{band:>12} {:>14.4} {:>14.4}", read * 1e3, write * 1e3);
    }
    println!(
        "map costs (s): new {:.6}+{:.2e}/blk  open {:.6}+{:.2e}/blk  delete {:.6}+{:.2e}/blk",
        m.map_cost.new_base,
        m.map_cost.new_per_block,
        m.map_cost.open_base,
        m.map_cost.open_per_block,
        m.map_cost.delete_base,
        m.map_cost.delete_per_block
    );
    println!(
        "fit residuals (s): new {:.2e}  open {:.2e}  delete {:.2e}",
        p.fit_residuals[0], p.fit_residuals[1], p.fit_residuals[2]
    );
    println!(
        "MT (ns/B): pp {:.3}  ps {:.3}  sp {:.3}  ss {:.3}",
        m.mt[0] * 1e9,
        m.mt[1] * 1e9,
        m.mt[2] * 1e9,
        m.mt[3] * 1e9
    );
    println!(
        "CPU (ns/op): map {:.1}  hash {:.1}  compare {:.1}  swap {:.1}  transfer {:.1}  fault {:.1}",
        m.cpu[0] * 1e9,
        m.cpu[1] * 1e9,
        m.cpu[2] * 1e9,
        m.cpu[3] * 1e9,
        m.cpu[4] * 1e9,
        m.cpu[5] * 1e9
    );
    println!("CS: {:.2} us", m.cs * 1e6);

    if let Some(path) = out {
        profile
            .save(std::path::Path::new(path))
            .map_err(|e| format!("--out: {e}"))?;
        println!("profile written to {path}");
    }
    flush_trace(&sink)
}

/// One row of the validate-model comparison: a named group of passes
/// with its measured and predicted seconds.
struct PassRow {
    group: &'static str,
    measured: f64,
    predicted: f64,
}

/// Fold executed stage durations and model pass predictions into
/// comparable groups: `setup`, `pass0` (combined into `setup+pass0`
/// for synchronized nested loops), the `pass1` phase sweep, and the
/// algorithm's final local pass (sort+merge+join / bucket-join).
fn pass_rows(
    stage_durations: &[(String, f64)],
    breakdown: &mmjoin_model::CostBreakdown,
) -> Vec<PassRow> {
    let measured_group = |name: &str| -> &'static str {
        match name {
            "setup" => "setup",
            "pass0" => "pass0",
            "setup+pass0" => "setup+pass0",
            n if n.starts_with("phase") => "pass1",
            _ => "local",
        }
    };
    let predicted_group = |pass: &str, combined: bool| -> &'static str {
        match pass {
            "setup" if combined => "setup+pass0",
            "pass0" if combined => "setup+pass0",
            "setup" => "setup",
            "pass0" => "pass0",
            "pass1" => "pass1",
            _ => "local",
        }
    };
    let combined = stage_durations.iter().any(|(n, _)| n == "setup+pass0");
    let mut rows: Vec<PassRow> = Vec::new();
    let mut add = |group: &'static str, measured: f64, predicted: f64| {
        if let Some(row) = rows.iter_mut().find(|r| r.group == group) {
            row.measured += measured;
            row.predicted += predicted;
        } else {
            rows.push(PassRow {
                group,
                measured,
                predicted,
            });
        }
    };
    for (name, dur) in stage_durations {
        add(measured_group(name), *dur, 0.0);
    }
    for pass in breakdown.passes() {
        add(
            predicted_group(pass, combined),
            0.0,
            breakdown.total_pass(pass),
        );
    }
    rows
}

/// The measured/predicted column of the validate-model tables.
fn ratio(measured: f64, predicted: f64) -> String {
    if predicted > 0.0 {
        format!("{:>9.3}", measured / predicted)
    } else {
        format!("{:>9}", "-")
    }
}

fn cmd_validate_model(opts: &Options) -> Result<(), String> {
    use mmjoin_env::{Env as _, ProcId};

    let req = job_from(opts)?;
    let machine = machine_from(opts.get("machine-profile")?)?;
    opts.finish("validate-model")?;
    let w = &req.workload;
    let pages = req.m_rproc / PAGE;

    let root = std::env::temp_dir().join(format!("mmjoin-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = mmjoin_mmstore::MmapEnv::new(mmjoin_mmstore::MmapEnvConfig {
        root: root.clone(),
        num_disks: w.rel.d,
        page_size: 4096,
    })
    .map_err(|e| e.to_string())?;
    let rels = build(&env, w).map_err(|e| e.to_string())?;

    // Predictions below are priced with the histogram skew estimated
    // from the *stored* relation — the same sampler serve's `plan=auto`
    // uses, but reading real pages instead of the spec's distribution.
    let pointers = sample_relation(&env, &rels, SAMPLE_CAP).map_err(|e| e.to_string())?;
    let summary = SampleSummary::from_pointers(
        &pointers,
        w.rel.r_objects,
        w.rel.s_objects,
        w.rel.d,
        HISTOGRAM_BUCKETS,
    );
    let mut inputs = req.planner_inputs();
    inputs.skew = summary.estimated_skew();

    println!(
        "model validation on the memory-mapped store: |R| = |S| = {} x {} B, \
         D = {}, {pages} pages/proc",
        w.rel.r_objects, w.rel.r_size, w.rel.d
    );
    println!(
        "sampled {} pointers from the store: histogram skew {:.2}, \
         duplication {:.2}",
        summary.sampled, inputs.skew, summary.duplication
    );
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>9}",
        "algorithm", "pass", "measured(s)", "predicted(s)", "ratio"
    );
    for model_alg in mmjoin_model::Algorithm::PAPER {
        let alg = Algo::from(model_alg);
        let mut spec =
            JoinSpec::new(pages * 4096, pages * 4096).with_tag(&format!("val-{}", alg.name()));
        // Synchronized phases give nested loops the same stage
        // boundaries the model prices.
        spec.sync_phases = true;
        let start = (0..w.rel.d).map(|i| env.now(ProcId(i))).fold(0.0, f64::max);
        let out = mmjoin::join(&env, &rels, alg, &spec).map_err(|e| e.to_string())?;
        verify(&out, &rels).map_err(|e| format!("{}: verification failed: {e}", alg.name()))?;

        // stage_times are cumulative max-over-procs boundary clocks;
        // successive differences are per-stage durations.
        let mut durations: Vec<(String, f64)> = Vec::new();
        let mut prev = start;
        for (name, t) in &out.stage_times {
            durations.push((name.clone(), (t - prev).max(0.0)));
            prev = *t;
        }
        let breakdown = explain(&machine, &inputs, model_alg);
        let mut measured_total = 0.0;
        let mut predicted_total = 0.0;
        for row in pass_rows(&durations, &breakdown) {
            measured_total += row.measured;
            predicted_total += row.predicted;
            println!(
                "{:<14} {:<12} {:>12.3} {:>12.3} {}",
                alg.name(),
                row.group,
                row.measured,
                row.predicted,
                ratio(row.measured, row.predicted)
            );
        }
        println!(
            "{:<14} {:<12} {:>12.3} {:>12.3} {}",
            alg.name(),
            "TOTAL",
            measured_total,
            predicted_total,
            ratio(measured_total, predicted_total)
        );
    }

    // The same comparison under --modern. The model prices the faithful
    // inner loops (with the modern exchange-batch size substituted via
    // `inputs_for`), so the ratio below is the honest record of the
    // kernels' unmodelled constant-factor win.
    println!();
    println!(
        "modern mode (cache-conscious kernels; ratio = kernel win the model \
         does not price):"
    );
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "algorithm", "measured(s)", "predicted(s)", "ratio"
    );
    for model_alg in mmjoin_model::Algorithm::ALL {
        let alg = Algo::from(model_alg);
        let spec = JoinSpec::new(pages * 4096, pages * 4096)
            .with_mode(ExecMode::Modern)
            .with_tag(&format!("valm-{}", alg.name()));
        let start = (0..w.rel.d).map(|i| env.now(ProcId(i))).fold(0.0, f64::max);
        let out = mmjoin::join(&env, &rels, alg, &spec).map_err(|e| e.to_string())?;
        verify(&out, &rels).map_err(|e| format!("{}: verification failed: {e}", alg.name()))?;
        let measured = out
            .stage_times
            .last()
            .map(|(_, t)| (t - start).max(0.0))
            .unwrap_or(out.elapsed);
        let predicted = explain(&machine, &mmjoin::inputs_for(&rels, &spec), model_alg).total();
        println!(
            "{:<14} {:>12.3} {:>12.3} {}",
            alg.name(),
            measured,
            predicted,
            ratio(measured, predicted)
        );
    }
    // What the skew term is worth: the uniform assumption, the
    // worst-case bound (every pointer of a partition landing on one
    // target partition, skew = D), and the histogram estimate the
    // tables above were priced with.
    println!();
    println!(
        "skew sensitivity (predicted total seconds; histogram = {:.2}, \
         worst-case bound = {:.1}):",
        inputs.skew, w.rel.d as f64
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "algorithm", "uniform", "histogram", "worst-case"
    );
    for alg in mmjoin_model::Algorithm::ALL {
        let at = |skew: f64| {
            let mut i = inputs;
            i.skew = skew;
            explain(&machine, &i, alg).total()
        };
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3}",
            alg.name(),
            at(1.0),
            at(inputs.skew),
            at(w.rel.d as f64)
        );
    }
    drop(env);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

fn usage() {
    println!("mmjoin — parallel pointer-based joins in memory-mapped environments");
    println!();
    println!("usage:");
    println!("  mmjoin join      [--alg A | --auto] [--objects N] [--d D] [--obj-size B]");
    println!("                   [--mem-pages P] [--seed S] [--dist uniform|zipf:T|cross]");
    println!("                   [--env sim|mmap] [--threads | --modern]");
    println!("                   [--fault-spec SPEC] [--retries N] [--trace FILE.jsonl]");
    println!("                   [--machine-profile FILE]");
    println!("  mmjoin plan      [--objects N] [--d D] [--obj-size B] [--mem-pages P]");
    println!("                   [--sample [N]] [--explain A]");
    println!("                   [--machine-profile FILE]");
    println!("  mmjoin serve     [--jobs FILE] [--budget-pages N] [--workers N]");
    println!("                   [--policy fifo|spf] [--shards N]");
    println!("                   [--env sim|mmap] [--json] [--stats-json FILE]");
    println!("                   [--fault-spec SPEC] [--retries N] [--trace FILE.jsonl]");
    println!("                   [--machine-profile FILE]");
    println!("                   [--journal DIR] [--resume] [--results-json FILE]");
    println!("                   (reads job lines from stdin");
    println!("                   without --jobs; one job per line, key=value tokens:");
    println!("                   name alg objects obj-size d mem-pages seed dist");
    println!("                   mode=seq|threads|modern plan=auto|fixed)");
    println!("  mmjoin serve --stream [--jobs FILE] [--queue-bound N]");
    println!("                   [--env sim|mmap] [--json] [--stats-json FILE]");
    println!("                   [--journal DIR] [--resume] [--results-json FILE]");
    println!("                   [--trace FILE.jsonl] [--machine-profile FILE]");
    println!("                   (script: first line 'resident=NAME objects=N");
    println!("                   obj-size=B d=D mem-pages=P seed=S [mode=modern]',");
    println!("                   then one op per line: batch=NAME objects=N seed=S,");
    println!("                   append=N seed=S, delete=N seed=S; stdin when no");
    println!("                   --jobs, until EOF or SIGTERM)");
    println!("  mmjoin serve --node [--listen ADDR] [--node-name NAME]");
    println!("                   [--budget-pages N] [--workers N] [--env sim|mmap]");
    println!("                   [--fault-spec SPEC] [--machine-profile FILE]");
    println!("                   [--trace FILE.jsonl]");
    println!("  mmjoin coordinator --nodes HOST:PORT[,HOST:PORT...] [--jobs FILE]");
    println!("                   [--heartbeat-ms MS] [--timeout-ms MS]");
    println!("                   [--max-requeues N] [--journal DIR] [--resume]");
    println!("                   [--results-json FILE] [--stats-json FILE] [--json]");
    println!("                   [--trace FILE.jsonl]");
    println!("  mmjoin calibrate [--out FILE] [--device PATH] [--quick]");
    println!("                   [--trace FILE.jsonl]");
    println!("  mmjoin validate-model [--machine-profile FILE] [--objects N] [--d D]");
    println!("                   [--obj-size B] [--mem-pages P] [--seed S]");
    println!();
    println!("--shards N > 1 partitions the budget across N shards, each with");
    println!("  its own queue and --workers threads; each job queues on the shard");
    println!("  with the least planner-predicted backlog and runs there");
    println!();
    println!("calibrate measures this host (O_DIRECT disk band sweep, map setup");
    println!("  costs, memcpy rates, context switches, CPU micro-ops) and writes");
    println!("  a versioned JSON machine profile with --out; --quick shrinks the");
    println!("  sweeps to CI scale, --device aims the disk sweep at a file or");
    println!("  block device (contents overwritten!)");
    println!();
    println!("--machine-profile FILE makes join/plan/serve/validate-model use a");
    println!("  calibrated profile instead of the built-in waterloo96 preset");
    println!();
    println!("data-aware planning: plan --sample [N] draws N pointers (default");
    println!("  4096) from the workload's distribution, folds them into an");
    println!("  equi-depth histogram, and prints the auto plan (algorithm,");
    println!("  memory grant, partition count, skew provenance) next to the");
    println!("  fixed-statistics ranking; join --auto runs that plan; serve job");
    println!("  lines opt in per job with plan=auto (admission then budgets the");
    println!("  chosen grant, not the submitted one)");
    println!();
    println!("--modern routes joins through the cache-conscious kernel path:");
    println!("  radix-partitioned scans, pre-sorted run exchange with one");
    println!("  sequential merge-scan per owner, and batched pointer probes;");
    println!("  the join output is bitwise-identical to the faithful loops");
    println!("  (join --modern runs one join; a serve job line opts in with");
    println!("  mode=modern)");
    println!();
    println!("serve --stream keeps the inner relation S resident: the header's");
    println!("  relation is loaded once into D mapped partitions, then every");
    println!("  batch= line probes it by S-pointer without re-partitioning;");
    println!("  append=/delete= patch S in place. Intake blocks");
    println!("  once --queue-bound ops are pending (backpressure). --journal");
    println!("  DIR logs every accepted op and its result; --resume re-reports");
    println!("  completed ops and re-runs the torn suffix exactly once (give");
    println!("  the resumed stream a header-only script). SIGTERM stops intake");
    println!("  and drains accepted ops before exiting");
    println!();
    println!("serve --node turns the service into one cluster worker: it listens");
    println!("  on --listen (default 127.0.0.1:0, the chosen port is printed),");
    println!("  registers its budget with the coordinator that connects, and runs");
    println!("  dispatched jobs until told to shut down; each node can carry its");
    println!("  own --machine-profile.  coordinator drives N such nodes: jobs are");
    println!("  dispatched to nodes with free budget, heartbeats every");
    println!("  --heartbeat-ms detect death after --timeout-ms of silence, a dead");
    println!("  node's jobs re-queue onto survivors (at most --max-requeues");
    println!("  times, with the retry layer's backoff), and --journal/--resume");
    println!("  give the coordinator the same crash-recovery story as serve:");
    println!("  finished jobs are re-reported, unfinished ones re-dispatched,");
    println!("  never double-run");
    println!();
    println!("--journal DIR gives serve a write-ahead journal (plus, under");
    println!("  --env mmap, a persistent store at DIR/store): each job's");
    println!("  submission and completion are logged with CRCs and flushed");
    println!("  before commit; --resume reopens DIR after a crash,");
    println!("  replays the journal, deletes orphaned areas, re-reports");
    println!("  completed jobs, and re-runs unfinished ones; --results-json");
    println!("  FILE writes the per-job outcome array for comparing runs");
    println!();
    println!("fault specs: ';'-separated rules 'kind:key=val:...' with kinds");
    println!("  read write create open delete sfetch diskfull delay");
    println!("  torn_write bit_corrupt crash and keys p count after disk file");
    println!("  ms frac hard, plus 'seed=N' (e.g.");
    println!("  'seed=7;read:p=0.05:count=3;delay:ms=5'); empty = no faults;");
    println!("  torn_write persists a 'frac' prefix of one write, bit_corrupt");
    println!("  flips a byte, crash aborts the process (hard=1) or errors");
    println!();
    println!("options: each given at most once, and every command refuses an");
    println!("  option it does not read; join/plan/validate-model name the");
    println!("  workload with a job line's keys (--objects N is objects=N)");
    println!();
    println!("--trace FILE.jsonl writes one structured trace event per line:");
    println!("  pass/phase boundaries, map setup/teardown, fault injections,");
    println!("  retries, and (under serve) job lifecycle events");
    let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
    println!();
    println!("algorithms: {}", names.join(", "));
}

/// Run one `mmjoin` command line (the arguments after the program
/// name).
fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("no command (try 'mmjoin help')")?;
    let opts = Options::argv(rest)?;
    match cmd.as_str() {
        "join" => cmd_join(&opts),
        "plan" => cmd_plan(&opts),
        "serve" => cmd_serve(&opts),
        "coordinator" => cmd_coordinator(&opts),
        "calibrate" => cmd_calibrate(&opts),
        "validate-model" => cmd_validate_model(&opts),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!(
            "unknown command '{other}' \
             (join | plan | serve | coordinator | calibrate | validate-model | help)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_calibrate::MachineProfile;
    use mmjoin_relstore::PointerDist;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Call `f` with the options of command-line arguments `v`.
    fn with_opts<T>(v: &[&str], f: impl FnOnce(&Options) -> T) -> T {
        let owned = argv(v);
        f(&Options::argv(&owned).expect("parse"))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let req = with_opts(
            &["--alg", "grace", "--threads", "--objects", "100"],
            join_request,
        )
        .unwrap();
        assert_eq!(req.alg, Some(Algo::Grace));
        assert_eq!(req.mode, ExecMode::Threaded);
        assert_eq!(req.workload.rel.r_objects, 100);
        assert_eq!(req.m_rproc, 160 * PAGE, "the CLI's default grant");
        let req = with_opts(&["--auto", "--modern"], join_request).unwrap();
        assert_eq!((req.alg, req.mode), (None, ExecMode::Modern));
    }

    #[test]
    fn rejects_duplicate_options_naming_the_flag() {
        for v in [
            ["join", "--alg", "grace", "--alg", "naive"].as_slice(),
            &["join", "--threads", "--threads"],
            &["join", "--alg", "grace", "--alg"],
        ] {
            let err = run(&argv(v)).unwrap_err();
            assert!(err.contains("given more than once"), "{err}");
            assert!(err.contains(v[1]), "error must name {}: {err}", v[1]);
        }
    }

    #[test]
    fn rejects_positional_and_bad_numbers() {
        let err = run(&argv(&["join", "oops"])).unwrap_err();
        assert!(err.contains("'oops'"), "{err}");
        let err = run(&argv(&["join", "--objects", "not-a-number"])).unwrap_err();
        assert!(err.contains("--objects not-a-number"), "{err}");
    }

    #[test]
    fn every_command_rejects_an_option_it_does_not_read() {
        for (v, unread) in [
            (["serve", "--placement", "rr"].as_slice(), "placement"),
            (
                &["serve", "--policy", "spf", "--placment", "rr"],
                "placment",
            ),
            (&["serve", "--modern"], "modern"),
            (&["serve", "--deadline-ms", "5"], "deadline-ms"),
            (&["serve", "--stream", "--shards", "2"], "shards"),
            (&["serve", "--stream", "--modern"], "modern"),
            (&["serve", "--node", "--shards", "2"], "shards"),
            (&["serve", "--node", "--jobs", "j.txt"], "jobs"),
            (
                &["coordinator", "--nodes", "a:1", "--shards", "2"],
                "shards",
            ),
            (&["join", "--objets", "10"], "objets"),
            (&["plan", "--mem-pages", "8", "--modern"], "modern"),
            (&["plan", "--skew", "4"], "skew"),
            (&["calibrate", "--quick", "--objects", "10"], "objects"),
            (&["calibrate", "--sim"], "sim"),
            (&["validate-model", "--env", "mmap"], "env"),
        ] {
            let err = run(&argv(v)).unwrap_err();
            assert!(
                err.contains(&format!("does not take --{unread}")),
                "{v:?}: {err}"
            );
        }
    }

    #[test]
    fn parses_every_algorithm_name() {
        for alg in Algo::ALL {
            assert_eq!(parse_alg(alg.name()).unwrap(), alg);
        }
        assert!(parse_alg("quantum").is_err());
    }

    #[test]
    fn parses_distributions() {
        let dist = |d: &str| with_opts(&["--dist", d], job_from).map(|r| r.workload.dist);
        assert_eq!(dist("uniform").unwrap(), PointerDist::Uniform);
        assert_eq!(dist("cross").unwrap(), PointerDist::CrossPartition);
        match dist("zipf:0.8").unwrap() {
            PointerDist::Zipf { theta } => assert!((theta - 0.8).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert!(dist("zipf:x").is_err());
        assert!(dist("normal").is_err());
    }

    #[test]
    fn sample_cap_is_flag_or_value() {
        assert_eq!(with_opts(&[], sample_cap_from).unwrap(), None);
        assert_eq!(
            with_opts(&["--sample"], sample_cap_from).unwrap(),
            Some(SAMPLE_CAP)
        );
        assert_eq!(
            with_opts(&["--sample", "128"], sample_cap_from).unwrap(),
            Some(128)
        );
        assert!(with_opts(&["--sample", "0"], sample_cap_from).is_err());
        assert!(with_opts(&["--sample", "lots"], sample_cap_from).is_err());
    }

    #[test]
    fn join_rejects_alg_combined_with_auto() {
        let err = run(&argv(&["join", "--auto", "--alg", "grace"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn workload_defaults_are_valid() {
        let req = with_opts(&[], job_from).unwrap();
        req.workload.rel.validate().unwrap();
        let req = with_opts(&["--d", "2", "--objects", "1000"], job_from).unwrap();
        assert_eq!(req.workload.rel.d, 2);
        assert_eq!(req.workload.rel.r_objects, 1000);
    }

    #[test]
    fn machine_from_without_profile_is_the_shared_default() {
        let m = machine_from(None).unwrap();
        assert_eq!(m, *service_machine().unwrap());
    }

    #[test]
    fn machine_from_rejects_missing_and_malformed_profiles() {
        let err = machine_from(Some("/no/such/profile.json")).unwrap_err();
        assert!(err.contains("machine-profile"), "{err}");
        let path = std::env::temp_dir().join(format!("mmjoin-cli-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{\"format\": \"bogus\"}").unwrap();
        let err = machine_from(path.to_str()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains("not a machine profile"), "{err}");
    }

    #[test]
    fn machine_from_round_trips_a_saved_profile() {
        let profile = MachineProfile {
            version: mmjoin_calibrate::PROFILE_VERSION,
            provenance: mmjoin_calibrate::Provenance {
                host: "cli-test".into(),
                device: "/dev/null".into(),
                created_unix: 0,
                direct_io: false,
                quick: true,
                reps: 1,
                warmup: 0,
                fit_residuals: [0.0; 3],
            },
            machine: MachineParams::waterloo96(),
        };
        let path =
            std::env::temp_dir().join(format!("mmjoin-cli-prof-{}.json", std::process::id()));
        profile.save(&path).unwrap();
        let m = machine_from(path.to_str()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(m, profile.machine);
    }

    #[test]
    fn pass_rows_group_stages_against_model_passes() {
        let machine = MachineParams::waterloo96();
        let inputs = mmjoin_model::JoinInputs {
            r_objects: 10_000,
            s_objects: 10_000,
            r_size: 128,
            s_size: 128,
            sptr_size: 8,
            d: 4,
            skew: 1.0,
            m_rproc: 160 * 4096,
            m_sproc: 160 * 4096,
            g_buffer: 4096,
        };
        // Sort-merge stage layout: distinct setup/pass0, phases fold
        // into pass1, the trailing local pass collects the rest.
        let b = explain(&machine, &inputs, mmjoin_model::Algorithm::SortMerge);
        let stages = vec![
            ("setup".to_string(), 1.0),
            ("pass0".to_string(), 2.0),
            ("phase1".to_string(), 0.5),
            ("phase2".to_string(), 0.5),
            ("phase3".to_string(), 0.5),
            ("sort+merge+join".to_string(), 4.0),
        ];
        let rows = pass_rows(&stages, &b);
        let groups: Vec<&str> = rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec!["setup", "pass0", "pass1", "local"]);
        let pass1 = rows.iter().find(|r| r.group == "pass1").unwrap();
        assert!((pass1.measured - 1.5).abs() < 1e-12);
        assert!((pass1.predicted - b.total_pass("pass1")).abs() < 1e-12);
        let total_pred: f64 = rows.iter().map(|r| r.predicted).sum();
        assert!((total_pred - b.total()).abs() < 1e-9);

        // Synchronized nested loops fold setup+pass0 into one stage on
        // both sides.
        let b = explain(&machine, &inputs, mmjoin_model::Algorithm::NestedLoops);
        let stages = vec![
            ("setup+pass0".to_string(), 3.0),
            ("phase1".to_string(), 1.0),
            ("phase2".to_string(), 1.0),
            ("phase3".to_string(), 1.0),
        ];
        let rows = pass_rows(&stages, &b);
        let combined = rows.iter().find(|r| r.group == "setup+pass0").unwrap();
        assert!((combined.predicted - b.total_pass("setup") - b.total_pass("pass0")).abs() < 1e-12);
        let total_pred: f64 = rows.iter().map(|r| r.predicted).sum();
        assert!((total_pred - b.total()).abs() < 1e-9);
    }
}

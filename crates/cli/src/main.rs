//! `mmjoin` — command-line driver for the reproduction.
//!
//! ```text
//! mmjoin join  [--alg A] [--objects N] [--d D] [--mem-pages P] [--seed S]
//!              [--dist uniform|zipf:T|cross] [--env sim|mmap]
//!              [--threads | --modern] [--machine-profile FILE]
//! mmjoin plan  [--objects N] [--d D] [--mem-pages P] [--skew X] [--explain A]
//!              [--machine-profile FILE]
//! mmjoin serve [--jobs FILE] [--budget-pages N] [--workers N] [--policy fifo|spf]
//!              [--shards N] [--modern] [--machine-profile FILE]
//! mmjoin serve --node [--listen ADDR] [--node-name NAME] [--budget-pages N]
//!              [--workers N] [--machine-profile FILE]
//! mmjoin coordinator --nodes A:P,B:P [--jobs FILE] [--heartbeat-ms MS]
//!              [--timeout-ms MS] [--max-requeues N] [--journal DIR] [--resume]
//! mmjoin calibrate      [--out FILE] [--device PATH] [--quick] [--sim]
//! mmjoin validate-model [--machine-profile FILE] [--objects N] [--d D]
//!                       [--mem-pages P]
//! mmjoin help
//! ```
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
//! JSON machine profile (or, with `--sim`, prints the simulated drive's
//! `dttr`/`dttw` curves); `validate-model` runs the paper's three
//! algorithms on the real memory-mapped store and prints per-pass
//! measured-vs-predicted times, then re-runs every algorithm under the
//! modern kernels to record their unmodelled constant-factor win.
//! Every planning/simulating command accepts `--machine-profile FILE`
//! to use a calibrated profile in place of the built-in waterloo96
//! preset; `join --modern` / `serve --modern` select the
//! cache-conscious kernel path with bitwise-identical join output.
//! Every command rejects an option it does not read, so a misspelt or
//! retired option fails instead of running with defaults.

use std::process::ExitCode;

use mmjoin::{
    choose, choose_auto, explain, join_with_retry, verify, Algo, ExecMode, JoinSpec, RetryPolicy,
    SampleSummary, HISTOGRAM_BUCKETS, SAMPLE_CAP,
};
use mmjoin_calibrate::{calibrate_host, CalibrateOptions, MachineProfile};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::trace::escape;
use mmjoin_env::{FaultSpec, FaultyEnv, JsonlSink, TraceSink};
use mmjoin_relstore::{
    build, sample_relation, sample_spec_pointers, PointerDist, RelConfig, WorkloadSpec,
};
use mmjoin_vmsim::{
    calibrated_params, measure_dtt, CalibrationSpec, DiskParams, SimConfig, SimEnv,
};

/// Minimal `--key value` / `--flag` parser (keeps the dependency set to
/// the workspace crates).
#[derive(Debug)]
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut flags: Vec<String> = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got '{a}'"))?;
            if pairs.iter().any(|(k, _)| k == name) || flags.iter().any(|f| f == name) {
                return Err(format!("--{name} given more than once"));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                pairs.push((name.to_string(), argv[i + 1].clone()));
                i += 2;
            } else {
                flags.push(name.to_string());
                i += 1;
            }
        }
        Ok(Args { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Refuse any option outside `known` (lists of space-separated
    /// option names), naming it.
    fn only(&self, cmd: &str, known: &[&str]) -> Result<(), String> {
        let names = known.iter().flat_map(|list| list.split_whitespace());
        let mut given = self.pairs.iter().map(|(k, _)| k).chain(&self.flags);
        match given.find(|k| !names.clone().any(|n| n == k.as_str())) {
            Some(k) => Err(format!("{cmd} does not take --{k}")),
            None => Ok(()),
        }
    }
}

/// The options [`workload_from`] reads.
const WORKLOAD: &str = "objects d obj-size seed dist";

/// The service options `serve` and `serve --node` both read.
const SERVICE: &str = "budget-pages workers policy env fault-spec retries deadline-ms journal \
                       resume trace machine-profile";

/// The report options of the commands that run a job script.
const REPORTS: &str = "jobs results-json stats-json json";

fn parse_alg(s: &str) -> Result<Algo, String> {
    Algo::ALL
        .into_iter()
        .find(|a| a.name() == s)
        .ok_or_else(|| {
            let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
            format!("unknown algorithm '{s}' (one of: {})", names.join(", "))
        })
}

fn parse_dist(s: &str) -> Result<PointerDist, String> {
    s.parse()
}

fn workload_from(args: &Args) -> Result<WorkloadSpec, String> {
    let objects: u64 = args.get_or("objects", 40_000)?;
    let d: u32 = args.get_or("d", 4)?;
    let obj_size: u32 = args.get_or("obj-size", 128)?;
    let seed: u64 = args.get_or("seed", 1996)?;
    let dist = parse_dist(args.get("dist").unwrap_or("uniform"))?;
    Ok(WorkloadSpec {
        rel: RelConfig {
            r_size: obj_size,
            s_size: obj_size,
            d,
            r_objects: objects,
            s_objects: objects,
        },
        dist,
        seed,
        prefix: String::new(),
    })
}

/// The default machine when no profile is supplied: the waterloo96
/// preset with its `dtt` curves re-measured from the simulated drive —
/// the single place the preset is named, so every command degrades to
/// the same machine.
fn default_machine() -> Result<MachineParams, String> {
    calibrated_params(&DiskParams::waterloo96()).map_err(|e| e.to_string())
}

/// The machine a command should plan/simulate against: the profile
/// named by `--machine-profile`, else [`default_machine`].
fn machine_from(args: &Args) -> Result<MachineParams, String> {
    match args.get("machine-profile") {
        None => default_machine(),
        Some(path) => {
            let profile = MachineProfile::load(std::path::Path::new(path))
                .map_err(|e| format!("--machine-profile: {e}"))?;
            let p = &profile.provenance;
            eprintln!(
                "machine profile: {path} (host {}, device {}, direct_io {}, reps {}{})",
                p.host,
                p.device,
                p.direct_io,
                p.reps,
                if p.quick { ", quick" } else { "" }
            );
            Ok(profile.machine)
        }
    }
}

/// The pointer budget requested with `--sample`: bare `--sample` means
/// the planner's default cap, `--sample N` draws exactly `N`, absent
/// means no sampling.
fn sample_cap_from(args: &Args) -> Result<Option<usize>, String> {
    if args.flag("sample") {
        return Ok(Some(SAMPLE_CAP));
    }
    match args.get("sample") {
        None => Ok(None),
        Some(v) => {
            let cap: usize = v
                .parse()
                .map_err(|_| format!("--sample: cannot parse '{v}'"))?;
            if cap == 0 {
                return Err("--sample: must draw at least one pointer".to_string());
            }
            Ok(Some(cap))
        }
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
fn trace_sink_from(args: &Args) -> Result<Option<std::sync::Arc<JsonlSink>>, String> {
    match args.get("trace") {
        None => Ok(None),
        Some(path) => JsonlSink::create(path)
            .map(|s| Some(std::sync::Arc::new(s)))
            .map_err(|e| format!("--trace: cannot create '{path}': {e}")),
    }
}

fn cmd_join(args: &Args) -> Result<(), String> {
    args.only(
        "join",
        &[
            WORKLOAD,
            "alg auto sample mem-pages threads modern env fault-spec retries trace machine-profile",
        ],
    )?;
    let w = workload_from(args)?;
    let mut pages: u64 = args.get_or("mem-pages", 160)?;
    let mode = match (args.flag("threads"), args.flag("modern")) {
        (true, true) => return Err("--threads and --modern are mutually exclusive".to_string()),
        (_, true) => ExecMode::Modern,
        (true, _) => ExecMode::Threaded,
        _ => ExecMode::Sequential,
    };
    let machine = machine_from(args)?;
    // `--auto` hands algorithm and memory grant to the data-aware
    // planner: sample the workload's pointers, estimate skew from the
    // histogram, and take the plan — exactly what a `plan=auto` job
    // line gets under serve.
    let (alg, auto_plan) = if args.flag("auto") {
        if args.get("alg").is_some() {
            return Err("--alg and --auto are mutually exclusive".to_string());
        }
        let inputs = mmjoin_model::JoinInputs {
            r_objects: w.rel.r_objects,
            s_objects: w.rel.s_objects,
            r_size: w.rel.r_size,
            s_size: w.rel.s_size,
            sptr_size: mmjoin_relstore::SPTR_SIZE,
            d: w.rel.d,
            skew: 1.0,
            m_rproc: pages * 4096,
            m_sproc: pages * 4096,
            g_buffer: 4096,
        };
        let summary = summarize_spec(&w, sample_cap_from(args)?.unwrap_or(SAMPLE_CAP));
        let auto = choose_auto(&machine, &inputs, Some(&summary));
        pages = (auto.m_rproc / 4096).max(1);
        (Algo::from(auto.choice.algorithm), Some(auto))
    } else {
        (parse_alg(args.get("alg").unwrap_or("grace"))?, None)
    };
    let fault_spec = FaultSpec::parse(args.get("fault-spec").unwrap_or(""))
        .map_err(|e| format!("--fault-spec: {e}"))?;
    let retries: u32 = args.get_or("retries", 3)?;
    let policy = RetryPolicy::attempts(retries);
    let spec = JoinSpec::new(pages * 4096, pages * 4096).with_mode(mode);
    let env_kind = args.get("env").unwrap_or("sim");
    let sink = trace_sink_from(args)?;

    // The workload is built on the inner env (setup is not in the fault
    // domain); the join runs through the injecting wrapper.
    let (out, report, faults) = match env_kind {
        "sim" => {
            let mut cfg = SimConfig::waterloo96(w.rel.d);
            cfg.machine = machine;
            cfg.rproc_pages = pages as usize;
            cfg.sproc_pages = pages as usize;
            let env = SimEnv::new(cfg).map_err(|e| e.to_string())?;
            let env = FaultyEnv::new(env, fault_spec.clone());
            let rels = build(env.inner(), &w).map_err(|e| e.to_string())?;
            if let Some(s) = &sink {
                // Attach after the workload build so the trace covers
                // the join itself, not relation generation.
                env.inner().set_trace_sink(s.clone());
            }
            let (out, report) =
                join_with_retry(&env, &rels, alg, &spec, &policy).map_err(|e| e.to_string())?;
            verify(&out, &rels).map_err(|e| format!("verification failed: {e}"))?;
            println!("environment: simulator (virtual 1996-like machine)");
            (out, report, env.fault_stats())
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
            let env = FaultyEnv::new(env, fault_spec.clone());
            let rels = build(env.inner(), &w).map_err(|e| e.to_string())?;
            if let Some(s) = &sink {
                env.inner().set_trace_sink(s.clone());
            }
            let (out, report) =
                join_with_retry(&env, &rels, alg, &spec, &policy).map_err(|e| e.to_string())?;
            verify(&out, &rels).map_err(|e| format!("verification failed: {e}"))?;
            let _ = std::fs::remove_dir_all(&root);
            println!("environment: real memory-mapped store ({})", root.display());
            (out, report, env.fault_stats())
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
    if let Some(s) = &sink {
        s.flush()
            .map_err(|e| format!("--trace: flush failed: {e}"))?;
        println!(
            "trace:       {} (structured JSONL events)",
            args.get("trace").unwrap_or("?")
        );
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    args.only(
        "plan",
        &[WORKLOAD, "mem-pages skew sample explain machine-profile"],
    )?;
    let w = workload_from(args)?;
    let pages: u64 = args.get_or("mem-pages", 160)?;
    let skew: f64 = args.get_or("skew", 1.0)?;
    let machine = machine_from(args)?;
    // Plan from statistics alone — no data is generated.
    let inputs = mmjoin_model::JoinInputs {
        r_objects: w.rel.r_objects,
        s_objects: w.rel.s_objects,
        r_size: w.rel.r_size,
        s_size: w.rel.s_size,
        sptr_size: mmjoin_relstore::SPTR_SIZE,
        d: w.rel.d,
        skew,
        m_rproc: pages * 4096,
        m_sproc: pages * 4096,
        g_buffer: 4096,
    };
    let plan = choose(&machine, &inputs);
    println!(
        "plan for |R| = |S| = {} x {} B, D = {}, {} pages/proc, skew {skew}",
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
    if let Some(cap) = sample_cap_from(args)? {
        // The data-aware path: draw pointers, estimate skew from the
        // histogram, and re-rank at the planner's chosen grant.
        let summary = summarize_spec(&w, cap);
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
    if let Some(name) = args.get("explain") {
        let alg = mmjoin_model::Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown algorithm '{name}'"))?;
        println!("\nitemized prediction for {}:", alg.name());
        println!("{}", explain(&machine, &inputs, alg).table());
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.flag("stream") {
        // The streaming tier shares the serve front door but has its
        // own session machinery (resident S, micro-batch ops).
        return cmd_stream(args);
    }
    use mmjoin_serve::{
        AdmissionPolicy, EnvKind, JoinService, PlacementKind, ServeConfig, ShardedService, PAGE,
    };

    if args.flag("node") {
        args.only("serve --node", &[SERVICE, "node listen node-name"])?;
    } else {
        args.only("serve", &[SERVICE, REPORTS, "shards modern"])?;
    }
    let budget_pages: u64 = args.get_or("budget-pages", 256)?;
    let workers: usize = args.get_or("workers", 4)?;
    let shards: u32 = args.get_or("shards", 1)?;
    let policy = AdmissionPolicy::from_name(args.get("policy").unwrap_or("fifo"))
        .ok_or_else(|| "unknown policy (fifo | spf)".to_string())?;
    let fault_spec = FaultSpec::parse(args.get("fault-spec").unwrap_or(""))
        .map_err(|e| format!("--fault-spec: {e}"))?;
    let retries: u32 = args.get_or("retries", 3)?;
    let deadline_ms: u64 = args.get_or("deadline-ms", 0)?;
    let journal_dir = args.get("journal").map(std::path::PathBuf::from);
    let resume = args.flag("resume");
    if resume && journal_dir.is_none() {
        return Err("--resume requires --journal DIR".to_string());
    }
    let env = match args.get("env").unwrap_or("sim") {
        "sim" => EnvKind::Sim,
        "mmap" => EnvKind::Mmap {
            root: match &journal_dir {
                // Pin the store next to the journal so a restarted serve
                // finds (and garbage-collects) the previous life's areas.
                Some(dir) => dir.join("store"),
                None => std::env::temp_dir().join(format!("mmjoin-serve-{}", std::process::id())),
            },
        },
        other => return Err(format!("unknown env '{other}' (sim | mmap)")),
    };

    // Job script: a file via --jobs, or stdin. A resumed serve may run
    // purely from the journal, so only fall back to stdin when fresh.
    // A cluster node takes jobs from its coordinator, never a script.
    let script = match args.get("jobs") {
        _ if args.flag("node") => String::new(),
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?
        }
        None if resume => String::new(),
        None => {
            use std::io::Read as _;
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            s
        }
    };

    // `serve --modern` makes the cache-conscious kernels the default:
    // every job line that does not pick a `mode=` itself runs modern.
    let script = if args.flag("modern") {
        script
            .lines()
            .map(|l| {
                let t = l.trim();
                if t.is_empty() || t.starts_with('#') || t.contains("mode=") {
                    l.to_string()
                } else {
                    format!("{l} mode=modern")
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    } else {
        script
    };

    let sink = trace_sink_from(args)?;
    // Only an explicit profile becomes a config override; without one
    // the service keeps its own process-wide calibrated default.
    let machine = match args.get("machine-profile") {
        Some(_) => Some(std::sync::Arc::new(machine_from(args)?)),
        None => None,
    };
    let mut cfg = ServeConfig {
        budget_bytes: budget_pages * PAGE,
        workers,
        policy,
        env,
        fault_spec,
        retries: retries.max(1),
        deadline: None,
        trace: match &sink {
            Some(s) => s.clone() as std::sync::Arc<dyn TraceSink>,
            None => mmjoin_env::null_sink(),
        },
        machine,
        journal_dir,
        resume,
    };
    if deadline_ms > 0 {
        cfg.deadline = Some(std::time::Duration::from_millis(deadline_ms));
    }
    if args.flag("node") {
        let listen = args.get("listen").unwrap_or("127.0.0.1:0");
        let default_name = format!("node-{}", std::process::id());
        let name = args.get("node-name").unwrap_or(&default_name);
        let node = mmjoin_cluster::NodeServer::start(listen, name, cfg)?;
        // The chaos harness and CI smoke parse this line for the
        // resolved ephemeral port; keep its shape stable.
        println!(
            "node {} listening on {} (budget {budget_pages} pages, {workers} worker(s))",
            node.name(),
            node.local_addr()
        );
        node.wait();
        println!("node stopped");
        if let Some(s) = &sink {
            s.flush()
                .map_err(|e| format!("--trace: flush failed: {e}"))?;
        }
        return Ok(());
    }
    let svc = ShardedService::start(cfg, shards.max(1), PlacementKind::default().build())?;
    let ids = svc.submit_script(&script)?;
    if shards > 1 {
        println!(
            "serving {} job(s): budget {budget_pages} pages over {shards} shard(s), \
             {workers} worker(s)/shard, policy {}",
            ids.len(),
            policy.name()
        );
    } else {
        println!(
            "serving {} job(s): budget {budget_pages} pages, {workers} worker(s), policy {}",
            ids.len(),
            policy.name()
        );
    }
    svc.drain();
    let mut results = svc.results();
    let stats = svc.stats();
    results.sort_by_key(|r| r.id);
    println!(
        "{:>4} {:>5}  {:<12} {:<14} {:>10} {:>9} {:>9} {:>9}  status",
        "id", "shard", "name", "algorithm", "pairs", "pred(s)", "wait(s)", "exec(s)"
    );
    for r in &results {
        let mut status = match &r.error {
            None => "ok".to_string(),
            Some(e) => format!("FAILED: {e}"),
        };
        if r.resumed {
            status.push_str(" (resumed)");
        }
        println!(
            "{:>4} {:>5}  {:<12} {:<14} {:>10} {:>9.2} {:>9.3} {:>9.3}  {status}",
            r.id,
            r.shard,
            if r.name.is_empty() { "-" } else { &r.name },
            r.alg.name(),
            r.pairs,
            r.predicted_seconds,
            r.queue_wait,
            r.exec_wall
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
             {} deadline(s) exceeded, {} orphan file(s) cleaned",
            stats.faults_injected,
            stats.retries,
            stats.degraded,
            stats.deadline_exceeded,
            stats.cleaned_files
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
    if let Some(path) = args.get("results-json") {
        let mut out = String::from("[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"alg\":\"{}\",\"pairs\":{},\"checksum\":{},\
                 \"ok\":{},\"resumed\":{}}}",
                r.id,
                escape(&r.name),
                escape(r.alg.name()),
                r.pairs,
                r.checksum,
                r.error.is_none() && r.verified,
                r.resumed
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("results written to {path}");
    }
    if let Some(path) = args.get("stats-json") {
        std::fs::write(path, stats.to_json()).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("stats written to {path}");
    } else if args.flag("json") {
        println!("{}", stats.to_json());
    }
    if let Some(s) = &sink {
        s.flush()
            .map_err(|e| format!("--trace: flush failed: {e}"))?;
    }
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

/// Where a stream's script lines come from: a finite `--jobs` file, or
/// live stdin via a reader thread. Both stop yielding once SIGTERM is
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
fn cmd_stream(args: &Args) -> Result<(), String> {
    use mmjoin_stream::{StreamConfig, StreamHeader};

    args.only(
        "serve --stream",
        &[
            REPORTS,
            "stream queue-bound env journal resume trace machine-profile",
        ],
    )?;
    install_sigterm();
    let queue_bound: usize = args.get_or("queue-bound", 64)?;
    let journal_dir = args.get("journal").map(std::path::PathBuf::from);
    let resume = args.flag("resume");
    if resume && journal_dir.is_none() {
        return Err("--resume requires --journal DIR".to_string());
    }
    let machine = machine_from(args)?;
    let sink = trace_sink_from(args)?;

    let mut feed = match args.get("jobs") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            LineFeed::Fixed(
                text.lines()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .into_iter(),
            )
        }
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
            LineFeed::Live(rx)
        }
    };

    // The first meaningful line is the resident= header. A resumed
    // stream may run purely from its journal: give it a header-only
    // script (resume refuses a mismatched header) and no ops.
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
    match args.get("env").unwrap_or("sim") {
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
            run_stream(std::sync::Arc::new(env), header, cfg, feed, args, &sink)
        }
        "mmap" => {
            let root = match &journal_dir {
                // Pin the store next to the journal so a restarted
                // stream recovers the previous life's segments.
                Some(dir) => dir.join("store"),
                None => std::env::temp_dir().join(format!("mmjoin-stream-{}", std::process::id())),
            };
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
            run_stream(std::sync::Arc::new(env), header, cfg, feed, args, &sink)
        }
        other => Err(format!("unknown env '{other}' (sim | mmap)")),
    }
}

/// Drive an open stream session: submit ops from `feed`, report each
/// completion on stdout as it lands, drain, and summarize.
fn run_stream<E: mmjoin_env::Env + 'static>(
    env: std::sync::Arc<E>,
    header: mmjoin_stream::StreamHeader,
    cfg: mmjoin_stream::StreamConfig,
    mut feed: LineFeed,
    args: &Args,
    sink: &Option<std::sync::Arc<JsonlSink>>,
) -> Result<(), String> {
    use mmjoin_stream::{StreamOp, StreamSession};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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
    // the kill/resume smoke counts before delivering its SIGKILL.
    let done = Arc::new(AtomicBool::new(false));
    let reporter = {
        let sess = Arc::clone(&sess);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut printed = 0usize;
            loop {
                // Order matters: read the flag *before* the results so
                // the post-drain sweep cannot miss a late completion.
                let finishing = done.load(Ordering::SeqCst);
                let results = sess.results();
                for r in &results[printed..] {
                    println!(
                        "done seq={} kind={} name={} rows={} pairs={} misses={} ok={}{}",
                        r.seq,
                        r.kind,
                        if r.name.is_empty() { "-" } else { &r.name },
                        r.rows,
                        r.pairs,
                        r.misses,
                        r.ok,
                        if r.resumed { " resumed" } else { "" }
                    );
                }
                printed = results.len();
                if finishing {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };

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
        let mut status = match &r.error {
            None => "ok".to_string(),
            Some(e) => format!("FAILED: {e}"),
        };
        if r.resumed {
            status.push_str(" (resumed)");
        }
        println!(
            "{:>4} {:<10} {:<7} {:>8} {:>10} {:>8} {:>9.2} {:>9.3} {:>9.3}  {status}",
            r.seq,
            if r.name.is_empty() { "-" } else { &r.name },
            r.kind,
            r.rows,
            r.pairs,
            r.misses,
            r.predicted_seconds,
            r.queue_wait,
            r.exec_wall
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
    if let Some(path) = args.get("results-json") {
        let mut out = String::from("[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("results written to {path}");
    }
    if args.get("stats-json").is_some() || args.flag("json") {
        // Streaming runs report through the same ServiceStats JSON as
        // the batch service, so dashboards and the schema goldens see
        // one shape: the stream section carries the tier's counters.
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
        if let Some(path) = args.get("stats-json") {
            std::fs::write(path, svc.to_json())
                .map_err(|e| format!("cannot write '{path}': {e}"))?;
            println!("stats written to {path}");
        } else {
            println!("{}", svc.to_json());
        }
    }
    if let Some(s) = sink {
        s.flush()
            .map_err(|e| format!("--trace: flush failed: {e}"))?;
    }
    if stats.failed > 0 {
        return Err(format!("{} op(s) failed", stats.failed));
    }
    Ok(())
}

fn cmd_coordinator(args: &Args) -> Result<(), String> {
    use mmjoin_cluster::{ClusterConfig, Coordinator};

    args.only(
        "coordinator",
        &[
            REPORTS,
            "nodes heartbeat-ms timeout-ms max-requeues journal resume trace",
        ],
    )?;
    let nodes: Vec<String> = args
        .get("nodes")
        .ok_or("--nodes HOST:PORT[,HOST:PORT...] is required")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if nodes.is_empty() {
        return Err("--nodes lists no addresses".to_string());
    }
    let heartbeat_ms: u64 = args.get_or("heartbeat-ms", 100)?;
    let timeout_ms: u64 = args.get_or("timeout-ms", 1500)?;
    let max_requeues: u32 = args.get_or("max-requeues", 3)?;
    let journal_dir = args.get("journal").map(std::path::PathBuf::from);
    let resume = args.flag("resume");
    if resume && journal_dir.is_none() {
        return Err("--resume requires --journal DIR".to_string());
    }
    let sink = trace_sink_from(args)?;

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
        cfg = cfg.with_trace(s.clone() as std::sync::Arc<dyn TraceSink>);
    }

    // Job script: a file via --jobs, or stdin; a resumed coordinator
    // may run purely from its journal.
    let script = match args.get("jobs") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?
        }
        None if resume => String::new(),
        None => {
            use std::io::Read as _;
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            s
        }
    };

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
        let mut status = match &r.error {
            None => "ok".to_string(),
            Some(e) => format!("FAILED: {e}"),
        };
        if r.resumed {
            status.push_str(" (resumed)");
        }
        println!(
            "{:>4}  {:<12} {:<14} {:<14} {:>10} {:>8} {:>9.3}  {status}",
            r.id,
            if r.name.is_empty() { "-" } else { &r.name },
            r.node,
            r.alg,
            r.pairs,
            r.requeues,
            r.latency
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

    if let Some(path) = args.get("results-json") {
        // Leading keys match serve's --results-json so outcome sets
        // from single-node and cluster runs compare directly.
        let mut out = String::from("[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"alg\":\"{}\",\"pairs\":{},\"checksum\":{},\
                 \"ok\":{},\"resumed\":{},\"node\":\"{}\",\"requeues\":{}}}",
                r.id,
                escape(&r.name),
                escape(&r.alg),
                r.pairs,
                r.checksum,
                r.ok,
                r.resumed,
                escape(&r.node),
                r.requeues
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("results written to {path}");
    }
    if let Some(path) = args.get("stats-json") {
        std::fs::write(path, stats.to_json()).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("stats written to {path}");
    } else if args.flag("json") {
        println!("{}", stats.to_json());
    }
    if let Some(s) = &sink {
        s.flush()
            .map_err(|e| format!("--trace: flush failed: {e}"))?;
    }
    if stats.failed > 0 {
        return Err(format!("{} job(s) failed", stats.failed));
    }
    Ok(())
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    if args.flag("sim") {
        args.only("calibrate --sim", &["sim"])?;
        // The original behaviour: the paper's Fig. 1a procedure against
        // the *simulated* waterloo96 drive.
        let disk = DiskParams::waterloo96();
        println!("measuring dtt curves from the simulated drive (Fig. 1a procedure)");
        println!(
            "{:>12} {:>14} {:>14}",
            "band (blks)", "dttr (ms/blk)", "dttw (ms/blk)"
        );
        for s in measure_dtt(&disk, &CalibrationSpec::default()) {
            println!(
                "{:>12} {:>14.2} {:>14.2}",
                s.band,
                s.read * 1e3,
                s.write * 1e3
            );
        }
        return Ok(());
    }

    args.only("calibrate", &["out device quick trace"])?;
    let sink = trace_sink_from(args)?;
    let mut opts = if args.flag("quick") {
        CalibrateOptions::quick()
    } else {
        CalibrateOptions::full()
    };
    opts.device = args.get("device").map(std::path::PathBuf::from);
    if let Some(s) = &sink {
        opts.trace = s.clone() as std::sync::Arc<dyn TraceSink>;
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

    if let Some(path) = args.get("out") {
        profile
            .save(std::path::Path::new(path))
            .map_err(|e| format!("--out: {e}"))?;
        println!("profile written to {path}");
    }
    if let Some(s) = &sink {
        s.flush()
            .map_err(|e| format!("--trace: flush failed: {e}"))?;
    }
    Ok(())
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

fn cmd_validate_model(args: &Args) -> Result<(), String> {
    use mmjoin_env::{Env as _, ProcId};

    args.only("validate-model", &[WORKLOAD, "mem-pages machine-profile"])?;
    let w = workload_from(args)?;
    let pages: u64 = args.get_or("mem-pages", 160)?;
    let machine = machine_from(args)?;

    let root = std::env::temp_dir().join(format!("mmjoin-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = mmjoin_mmstore::MmapEnv::new(mmjoin_mmstore::MmapEnvConfig {
        root: root.clone(),
        num_disks: w.rel.d,
        page_size: 4096,
    })
    .map_err(|e| e.to_string())?;
    let rels = build(&env, &w).map_err(|e| e.to_string())?;

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
    let inputs = mmjoin_model::JoinInputs {
        r_objects: w.rel.r_objects,
        s_objects: w.rel.s_objects,
        r_size: w.rel.r_size,
        s_size: w.rel.s_size,
        sptr_size: mmjoin_relstore::SPTR_SIZE,
        d: w.rel.d,
        skew: summary.estimated_skew(),
        m_rproc: pages * 4096,
        m_sproc: pages * 4096,
        g_buffer: 4096,
    };

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
    for (alg, model_alg) in [
        (Algo::NestedLoops, mmjoin_model::Algorithm::NestedLoops),
        (Algo::SortMerge, mmjoin_model::Algorithm::SortMerge),
        (Algo::Grace, mmjoin_model::Algorithm::Grace),
    ] {
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
            let ratio = if row.predicted > 0.0 {
                format!("{:>9.3}", row.measured / row.predicted)
            } else {
                format!("{:>9}", "-")
            };
            println!(
                "{:<14} {:<12} {:>12.3} {:>12.3} {ratio}",
                alg.name(),
                row.group,
                row.measured,
                row.predicted
            );
        }
        let ratio = if predicted_total > 0.0 {
            format!("{:>9.3}", measured_total / predicted_total)
        } else {
            format!("{:>9}", "-")
        };
        println!(
            "{:<14} {:<12} {:>12.3} {:>12.3} {ratio}",
            alg.name(),
            "TOTAL",
            measured_total,
            predicted_total
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
    for (alg, model_alg) in [
        (Algo::NestedLoops, mmjoin_model::Algorithm::NestedLoops),
        (Algo::SortMerge, mmjoin_model::Algorithm::SortMerge),
        (Algo::Grace, mmjoin_model::Algorithm::Grace),
        (Algo::HybridHash, mmjoin_model::Algorithm::HybridHash),
    ] {
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
        let ratio = if predicted > 0.0 {
            format!("{:>9.3}", measured / predicted)
        } else {
            format!("{:>9}", "-")
        };
        println!(
            "{:<14} {:>12.3} {:>12.3} {ratio}",
            alg.name(),
            measured,
            predicted
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
    println!("                   [--skew X] [--sample [N]] [--explain A]");
    println!("                   [--machine-profile FILE]");
    println!("  mmjoin serve     [--jobs FILE] [--budget-pages N] [--workers N]");
    println!("                   [--policy fifo|spf] [--shards N]");
    println!("                   [--env sim|mmap] [--modern] [--json] [--stats-json FILE]");
    println!("                   [--fault-spec SPEC] [--retries N]");
    println!("                   [--deadline-ms MS] [--trace FILE.jsonl]");
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
    println!("  mmjoin calibrate [--out FILE] [--device PATH] [--quick] [--sim]");
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
    println!("  block device (contents overwritten!), --sim instead prints the");
    println!("  simulated drive's dtt curves (the old behaviour)");
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
    println!("  (join --modern runs one join; serve --modern makes modern the");
    println!("  default mode for job lines that carry no mode= of their own)");
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
    println!("--trace FILE.jsonl writes one structured trace event per line:");
    println!("  pass/phase boundaries, map setup/teardown, fault injections,");
    println!("  retries, and (under serve) job lifecycle events");
    let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
    println!();
    println!("algorithms: {}", names.join(", "));
}

fn run(cmd: &str, args: &Args) -> Result<(), String> {
    match cmd {
        "join" => cmd_join(args),
        "plan" => cmd_plan(args),
        "serve" => cmd_serve(args),
        "coordinator" => cmd_coordinator(args),
        "calibrate" => cmd_calibrate(args),
        "validate-model" => cmd_validate_model(args),
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
    let Some(cmd) = argv.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let rest = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd, &rest) {
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

    fn args(v: &[&str]) -> Args {
        let owned: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Args::parse(&owned).expect("parse")
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args(&["--alg", "grace", "--threads", "--objects", "100"]);
        assert_eq!(a.get("alg"), Some("grace"));
        assert!(a.flag("threads"));
        assert_eq!(a.get_or("objects", 0u64).unwrap(), 100);
        assert_eq!(a.get_or("missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_duplicate_options_naming_the_flag() {
        for argv in [
            vec!["--alg", "grace", "--alg", "naive"],
            vec!["--threads", "--threads"],
            vec!["--alg", "grace", "--alg"],
        ] {
            let owned: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let err = Args::parse(&owned).unwrap_err();
            assert!(err.contains("given more than once"), "{err}");
            let flag = argv[0].trim_start_matches('-');
            assert!(err.contains(flag), "error must name --{flag}: {err}");
        }
    }

    #[test]
    fn rejects_positional_and_bad_numbers() {
        let owned: Vec<String> = vec!["oops".into()];
        assert!(Args::parse(&owned).is_err());
        let a = args(&["--objects", "not-a-number"]);
        assert!(a.get_or("objects", 0u64).is_err());
    }

    #[test]
    fn every_command_rejects_an_option_it_does_not_read() {
        for (cmd, argv, unread) in [
            ("serve", vec!["--placement", "rr"], "placement"),
            (
                "serve",
                vec!["--policy", "spf", "--placment", "rr"],
                "placment",
            ),
            ("serve", vec!["--stream", "--shards", "2"], "shards"),
            ("serve", vec!["--stream", "--modern"], "modern"),
            ("serve", vec!["--node", "--shards", "2"], "shards"),
            ("serve", vec!["--node", "--jobs", "j.txt"], "jobs"),
            (
                "coordinator",
                vec!["--nodes", "a:1", "--shards", "2"],
                "shards",
            ),
            ("join", vec!["--objets", "10"], "objets"),
            ("plan", vec!["--mem-pages", "8", "--modern"], "modern"),
            ("calibrate", vec!["--quick", "--objects", "10"], "objects"),
            ("calibrate", vec!["--sim", "--out", "p.json"], "out"),
            ("validate-model", vec!["--env", "mmap"], "env"),
        ] {
            let err = run(cmd, &args(&argv)).unwrap_err();
            assert!(
                err.contains(&format!("does not take --{unread}")),
                "{cmd} {argv:?}: {err}"
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
        assert_eq!(parse_dist("uniform").unwrap(), PointerDist::Uniform);
        assert_eq!(parse_dist("cross").unwrap(), PointerDist::CrossPartition);
        match parse_dist("zipf:0.8").unwrap() {
            PointerDist::Zipf { theta } => assert!((theta - 0.8).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert!(parse_dist("zipf:x").is_err());
        assert!(parse_dist("normal").is_err());
    }

    #[test]
    fn sample_cap_is_flag_or_value() {
        assert_eq!(sample_cap_from(&args(&[])).unwrap(), None);
        assert_eq!(
            sample_cap_from(&args(&["--sample"])).unwrap(),
            Some(SAMPLE_CAP)
        );
        assert_eq!(
            sample_cap_from(&args(&["--sample", "128"])).unwrap(),
            Some(128)
        );
        assert!(sample_cap_from(&args(&["--sample", "0"])).is_err());
        assert!(sample_cap_from(&args(&["--sample", "lots"])).is_err());
    }

    #[test]
    fn join_rejects_alg_combined_with_auto() {
        let err = cmd_join(&args(&["--auto", "--alg", "grace"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn workload_defaults_are_valid() {
        let w = workload_from(&args(&[])).unwrap();
        w.rel.validate().unwrap();
        let w = workload_from(&args(&["--d", "2", "--objects", "1000"])).unwrap();
        assert_eq!(w.rel.d, 2);
        assert_eq!(w.rel.r_objects, 1000);
    }

    #[test]
    fn machine_from_without_profile_is_the_shared_default() {
        let m = machine_from(&args(&[])).unwrap();
        assert_eq!(m, default_machine().unwrap());
    }

    #[test]
    fn machine_from_rejects_missing_and_malformed_profiles() {
        let err = machine_from(&args(&["--machine-profile", "/no/such/profile.json"])).unwrap_err();
        assert!(err.contains("machine-profile"), "{err}");
        let path = std::env::temp_dir().join(format!("mmjoin-cli-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{\"format\": \"bogus\"}").unwrap();
        let err = machine_from(&args(&["--machine-profile", path.to_str().unwrap()])).unwrap_err();
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
        let m = machine_from(&args(&["--machine-profile", path.to_str().unwrap()])).unwrap();
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

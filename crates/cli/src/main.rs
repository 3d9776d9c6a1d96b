//! `mmjoin` — command-line driver for the reproduction (`mmjoin help`
//! prints every command's options). [`run`] hands a command line to its
//! module: [`join`] (`join`, `plan`), [`tiers`] (`serve`, `serve --node`,
//! `serve --stream`, `coordinator`) and [`calibrate`] (`calibrate`,
//! `validate-model`); this file keeps the option helpers they share.
//!
//! Every command reads its options through [`Options`], the reader job
//! and stream lines use too: a `join` command line is a job line, a
//! repeated option is an error, and every command rejects an option it
//! does not read, so a misspelt or retired option fails instead of
//! running with defaults.

mod calibrate;
mod join;
mod tiers;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use mmjoin::Algo;
use mmjoin_calibrate::machine_override;
use mmjoin_env::machine::MachineParams;
use mmjoin_env::{null_sink, FaultSpec, JsonlSink, Options, TraceSink};
use mmjoin_serve::{service_machine, EnvKind, JobRequest};

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

/// `--env sim|mmap`: the simulator (the default), or the real
/// memory-mapped store under `root`.
fn env_from(opts: &Options, root: PathBuf) -> Result<EnvKind, String> {
    match opts.get("env")?.unwrap_or("sim") {
        "sim" => Ok(EnvKind::Sim),
        "mmap" => Ok(EnvKind::Mmap { root }),
        other => Err(format!("unknown env '{other}' (sim | mmap)")),
    }
}

/// `--fault-spec SPEC`: the faults injected into every join (none when
/// absent).
fn fault_spec_from(opts: &Options) -> Result<FaultSpec, String> {
    FaultSpec::parse(opts.get("fault-spec")?.unwrap_or(""))
        .map_err(|e| format!("--fault-spec: {e}"))
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

/// The sink to install: the `--trace` file, else the null sink.
fn traced(sink: &Option<Arc<JsonlSink>>) -> Arc<dyn TraceSink> {
    match sink {
        Some(s) => s.clone(),
        None => null_sink(),
    }
}

/// Flush the `--trace` sink, if any, before the command returns.
fn flush_trace(sink: &Option<Arc<JsonlSink>>) -> Result<(), String> {
    match sink {
        Some(s) => s.flush().map_err(|e| format!("--trace: flush failed: {e}")),
        None => Ok(()),
    }
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
    println!("  fixed-statistics ranking; serve job lines opt in per job with");
    println!("  plan=auto (admission then budgets the chosen grant, not the");
    println!("  submitted one); join --auto runs one such job");
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
    println!("  the resumed stream a header-only script); after a clean");
    println!("  shutdown it reopens the kept S files instead of reloading S.");
    println!("  SIGTERM stops intake and drains accepted ops before exiting");
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
        "join" => join::cmd_join(&opts),
        "plan" => join::cmd_plan(&opts),
        "serve" => tiers::cmd_serve(&opts),
        "coordinator" => tiers::cmd_coordinator(&opts),
        "calibrate" => calibrate::cmd_calibrate(&opts),
        "validate-model" => calibrate::cmd_validate_model(&opts),
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
    pub(crate) fn with_opts<T>(v: &[&str], f: impl FnOnce(&Options) -> T) -> T {
        let owned = argv(v);
        f(&Options::argv(&owned).expect("parse"))
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
            (&["join", "--auto", "--sample"], "sample"),
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
}

//! `perf` — the repository's one performance benchmark.
//!
//! ```text
//! perf --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--allow-tmpfs-wal]
//! perf compare OLD.json NEW.json
//! perf aa N [the flags above]
//! perf manifest
//! ```
//!
//! The first form measures one workload (or, with `all`, each in a child
//! process of its own so peak memory is per workload) and prints every
//! metric by name with its unit; the last line of standard output is the
//! one JSON object `BENCHMARK.json`'s contract asks for. See README.md.

mod compare;
mod gen;
mod metrics;
mod report;
mod scratch;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{RUN_SECONDS, WORKLOADS};
use report::{RunId, Samples};
use scratch::{Scratch, SCRATCH_BASE};

const USAGE: &str = "usage: perf --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--allow-tmpfs-wal]
       perf compare OLD.json NEW.json
       perf aa N [the flags above]
       perf manifest";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    /// Run a journaled workload even though its journal would be on
    /// tmpfs, where `msync` costs nothing; the run's record says so.
    allow_tmpfs_wal: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "all".to_string(),
        seed: 1996,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out: None,
        allow_tmpfs_wal: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => run.workload = value("a name")?,
            "--seed" => {
                run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                run.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => run.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => run.smoke = true,
            "--allow-tmpfs-wal" => run.allow_tmpfs_wal = true,
            "--trace" => {
                run.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if run.workload != "all" && metrics::workload(&run.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{}' (one of: {}, all)",
            run.workload,
            names.join(", ")
        ));
    }
    Ok(run)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Whether `workload` would journal onto tmpfs, where `msync` costs
/// nothing and the journal would drop out of every number: refused
/// unless `allowed`, in which case the run's record is marked.
fn tmpfs_wal(workload: &str, scratch_fs: &str, allowed: bool) -> Result<bool, String> {
    let on_tmpfs =
        scratch_fs == "tmpfs" && metrics::workload(workload).is_some_and(|w| w.journaled);
    if on_tmpfs && !allowed {
        return Err(format!(
            "{workload} writes a journal, and {SCRATCH_BASE}/ is on tmpfs, where msync costs \
             nothing: its numbers would leave the journal out. Run from a checkout on a \
             disk-backed filesystem, or pass --allow-tmpfs-wal to run anyway (the record is marked)"
        ));
    }
    Ok(on_tmpfs)
}

/// Measure one workload in this process.
fn run_here(args: &RunArgs) -> Result<bool, String> {
    let scratch = Scratch::new(Path::new(SCRATCH_BASE), &args.workload)
        .map_err(|e| format!("scratch: {e}"))?;
    let scratch_fs = scratch::fs_type(scratch.root());
    let tmpfs_wal = tmpfs_wal(&args.workload, &scratch_fs, args.allow_tmpfs_wal)?;
    let header = [
        ("commit", scratch::git_commit()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("scratch_fs", scratch_fs),
        ("tmpfs_wal", tmpfs_wal.to_string()),
    ];
    let (mut out, tracer) = workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        &scratch,
    )?;
    out.readings.put("peak_rss_mb", scratch::peak_rss_mb());
    report::settle(&mut out.readings, args.traced)?;
    let id = RunId {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    };
    print!("{}", report::table(&id, &out));
    if let Some(path) = &args.out {
        append_line(path, &report::record(&id, &header, &out))?;
        if args.traced {
            let trace = path.with_file_name(format!("perf_trace_{}.jsonl", args.workload));
            std::fs::write(&trace, spans::to_jsonl(&tracer.spans()))
                .map_err(|e| format!("{}: {e}", trace.display()))?;
        }
    }
    println!("{}", report::driver_line(&out, args.traced));
    Ok(out.failed == 0)
}

/// Run `workload` in a child process; returns the last line it printed
/// (the driver line) and whether it exited cleanly.
fn run_child(
    args: &RunArgs,
    workload: &str,
    seed: u64,
    echo: bool,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.allow_tmpfs_wal {
        cmd.arg("--allow-tmpfs-wal");
    }
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
    let output = child
        .wait_with_output()
        .map_err(|e| format!("wait {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or("").to_string();
    Ok((last, output.status.success()))
}

fn run(args: &RunArgs) -> Result<bool, String> {
    if args.workload != "all" {
        return run_here(args);
    }
    let mut all_ok = true;
    for w in WORKLOADS {
        all_ok &= run_child(args, w.name, args.seed, true)?.1;
    }
    Ok(all_ok)
}

/// `perf aa N`: the suite N times on this build, a new seed each time,
/// then each end-to-end metric's spread against its bound.
fn aa(args: &[String]) -> Result<bool, String> {
    let n: u64 = args
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 2)
        .ok_or_else(|| format!("aa needs a run count of at least 2\n{USAGE}"))?;
    let run = parse_run(&args[1..]).map_err(|e| format!("{e}\n{USAGE}"))?;
    let mut samples = Samples::new();
    for k in 0..n {
        for w in WORKLOADS
            .iter()
            .filter(|w| run.workload == "all" || run.workload == w.name)
        {
            let (line, ok) = run_child(&run, w.name, run.seed + k, false)?;
            if !ok {
                return Err(format!("{} seed {} failed: {line}", w.name, run.seed + k));
            }
            eprintln!("aa {}/{n} {}: {line}", k + 1, w.name);
            report::read_samples(&line, w.name, &mut samples)?;
        }
    }
    let (text, ok) = compare::aa_report(&samples);
    print!("{text}");
    Ok(ok)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [old, new] = args else {
        return Err(format!("compare needs OLD.json NEW.json\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Samples, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut samples = Samples::new();
        report::read_samples(&text, "unknown", &mut samples)?;
        Ok(samples)
    };
    let (text, regressed) = compare::compare(&load(old)?, &load(new)?);
    print!("{text}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("aa") => aa(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        // The driver appends its flags straight after the command.
        Some(_) => parse_run(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_journal_on_tmpfs_is_refused_unless_allowed() {
        assert!(tmpfs_wal("stream-durable", "tmpfs", false)
            .unwrap_err()
            .contains("--allow-tmpfs-wal"));
        assert_eq!(tmpfs_wal("stream-durable", "tmpfs", true), Ok(true));
        assert_eq!(tmpfs_wal("stream-durable", "ext4", false), Ok(false));
        // No journal, nothing to hide.
        assert_eq!(tmpfs_wal("stream-probe", "tmpfs", false), Ok(false));
    }

    #[test]
    fn the_run_is_spelled_one_way() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let run = parse_run(&args("--workload serve-mix --seed 3 --seconds 2 --trace 1")).unwrap();
        assert!(run.traced && run.seed == 3 && run.seconds == 2.0 && !run.allow_tmpfs_wal);
        assert!(parse_run(&args("--workload serve-mix --trace")).is_err());
        assert!(parse_run(&args("run --workload serve-mix")).is_err());
        assert!(parse_run(&args("--workload no-such")).is_err());
    }
}

//! `mmjoin-bench`: every experiment of the reproduction in one binary.
//!
//! ```sh
//! mmjoin-bench NAME [options]   # run one experiment; its table goes to stdout
//! mmjoin-bench all [--json]     # rewrite every results/<name>.txt (and .json)
//! mmjoin-bench check            # rerun every golden row, compare byte for byte
//! ```
//!
//! `all` and `check` run each row as a child of this binary and read
//! `results/` from the working directory (the repository root).

mod experiments {
    pub mod chaos;
    pub mod extensions;
    pub mod figures;
    pub mod simrate;
    pub mod skew_planner;
}

use std::process::{Command, ExitCode, Stdio};

use experiments::{chaos, extensions as ext, figures as fig, simrate, skew_planner};
use mmjoin_bench::write_json;
use mmjoin_env::Options;
use Entry::{Json, Plain};
use Kind::{Golden, Tool, WallClock};

/// How an experiment's stdout is held.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// Repeats byte for byte: `check` compares it with `results/<name>.txt`.
    Golden,
    /// Threaded or host-timed: `all` rewrites its `.txt`, nothing compares it.
    WallClock,
    /// A gate with its own options and no `.txt` file.
    Tool,
}

/// How an experiment reads its command line. Each refuses an option it
/// does not read, by name, before the experiment starts.
enum Entry {
    /// Takes no options.
    Plain(fn()),
    /// Prints its table and returns its JSON documents by file stem;
    /// `--json`, its only option, writes each to `results/<stem>.json`.
    Json(fn() -> Vec<(&'static str, String)>),
    /// Reads its own options and refuses the rest ([`Options::finish`]).
    Options(fn(&Options) -> Result<(), String>),
}

struct Experiment {
    name: &'static str,
    kind: Kind,
    entry: Entry,
}

const fn row(name: &'static str, kind: Kind, entry: Entry) -> Experiment {
    Experiment { name, kind, entry }
}

/// Every experiment, once: the paper's figures and §5.1 claim, the
/// extensions E1–E12, the simulator's own rate, and two tools.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    row("fig1a",                Golden,    Plain(fig::fig1a)),
    row("fig1b",                WallClock, Plain(fig::fig1b)),
    row("fig5a",                Golden,    Json(fig::fig5a)),
    row("fig5b",                Golden,    Json(fig::fig5b)),
    row("fig5c",                Golden,    Json(fig::fig5c)),
    row("sync_ablation",        WallClock, Plain(fig::sync_ablation)),
    row("speedup",              Golden,    Plain(ext::speedup)),
    row("scaleup",              Golden,    Plain(ext::scaleup)),
    row("skew",                 Golden,    Plain(ext::skew)),
    row("crossover",            Golden,    Plain(ext::crossover)),
    row("replacement_ablation", Golden,    Plain(ext::replacement_ablation)),
    row("hybrid",               Golden,    Json(ext::hybrid)),
    row("model_ablation",       Golden,    Plain(ext::model_ablation)),
    row("trace_stats",          Golden,    Plain(ext::trace_stats)),
    row("contention",           WallClock, Plain(ext::contention)),
    row("ssd",                  Golden,    Plain(ext::ssd)),
    row("msproc",               Golden,    Plain(ext::msproc)),
    row("gbuffer",              Golden,    Plain(ext::gbuffer)),
    row("simrate",              WallClock, Entry::Options(simrate::run)),
    row("chaos",                Tool,      Entry::Options(chaos::run)),
    row("skew_planner",         Tool,      Entry::Options(skew_planner::run)),
];

/// Exit 0 on success; 1 when a row fails, a golden drifts or a tool's gate
/// breaks; 2 on a bad command line.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().map_or(("", &[][..]), |(c, r)| (c, r));
    let failed = match cmd {
        "all" => all(rest),
        "check" => check(rest),
        _ => match EXPERIMENTS.iter().find(|e| e.name == cmd) {
            Some(e) => run(e, rest).map(|()| 0),
            None => Err(format!("unknown experiment '{cmd}'; one of\n{}", table())),
        },
    };
    match failed {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The experiment table, one `name kind` line per row.
fn table() -> String {
    let line = |e: &Experiment| format!("  {:<22} {:?}\n", e.name, e.kind);
    EXPERIMENTS.iter().map(line).collect()
}

/// Run one experiment in this process.
fn run(e: &Experiment, args: &[String]) -> Result<(), String> {
    let opts = Options::argv(args)?;
    match e.entry {
        Plain(f) => opts.finish(e.name).map(|()| f()),
        Json(f) => {
            let json = opts.flag("json")?;
            opts.finish(e.name)?;
            f().iter()
                .filter(|_| json)
                .try_for_each(|(stem, doc)| write_json(stem, doc))
        }
        Entry::Options(f) => f(&opts),
    }
}

/// Run `e` as a child of this binary (stderr passed through) and return
/// its stdout.
fn capture(e: &Experiment, json: bool) -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find own binary: {err}"))?;
    let out = Command::new(exe)
        .arg(e.name)
        .args(json.then_some("--json"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot launch {}: {err}", e.name))?;
    let status = out.status;
    status
        .success()
        .then_some(out.stdout)
        .ok_or(format!("{} failed ({status})", e.name))
}

fn txt(e: &Experiment) -> String {
    format!("results/{}.txt", e.name)
}

/// Rewrite `results/<name>.txt` for every row that has one (`--json`: and
/// each `Json` row's `.json`); returns how many rows failed.
fn all(args: &[String]) -> Result<usize, String> {
    let opts = Options::argv(args)?;
    let json = opts.flag("json")?;
    opts.finish("all")?;
    let mut failed = 0;
    for e in EXPERIMENTS.iter().filter(|e| e.kind != Tool) {
        let written = capture(e, json && matches!(e.entry, Json(_)))
            .and_then(|out| std::fs::write(txt(e), out).map_err(|err| err.to_string()));
        match written {
            Ok(()) => println!("wrote {}", txt(e)),
            Err(err) => {
                failed += 1;
                println!("FAILED {}: {err}", txt(e));
            }
        }
    }
    Ok(failed)
}

/// Rerun every golden row, compare its stdout with `results/<name>.txt`
/// byte for byte, and name each file that drifted; returns how many did.
fn check(args: &[String]) -> Result<usize, String> {
    Options::argv(args)?.finish("check")?;
    let mut drifted = 0;
    for e in EXPERIMENTS.iter().filter(|e| e.kind == Golden) {
        let golden = std::fs::read(txt(e)).map_err(|err| format!("{}: {err}", txt(e)))?;
        match capture(e, false) {
            Ok(out) if out == golden => println!("golden OK: {}", e.name),
            outcome => {
                drifted += 1;
                let why = outcome.err().unwrap_or_else(|| {
                    format!("`mmjoin-bench {} | diff -u {} -` shows how", e.name, txt(e))
                });
                println!("{} is stale: {why}", txt(e));
            }
        }
    }
    Ok(drifted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_unique_and_own_exactly_the_committed_txt_files() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "a row name repeats");

        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut committed: Vec<String> = std::fs::read_dir(&results)
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        committed.sort_unstable();
        let mut with_txt: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.kind != Tool)
            .map(|e| e.name)
            .collect();
        with_txt.sort_unstable();
        assert_eq!(committed, with_txt);
        for e in EXPERIMENTS.iter().filter(|e| e.kind == Golden) {
            assert!(
                results.join(format!("{}.txt", e.name)).is_file(),
                "{}",
                e.name
            );
        }
    }

    #[test]
    fn every_row_refuses_an_unread_option_by_name_before_it_runs() {
        let argv = ["--jsno".to_string()];
        for e in EXPERIMENTS {
            let err = run(e, &argv).unwrap_err();
            assert_eq!(err, format!("{} does not take --jsno", e.name));
        }
        // fig5c reads `--json` and nothing else, and refuses the
        // misspelling before its sweep starts.
        let fig5c = EXPERIMENTS.iter().find(|e| e.name == "fig5c").unwrap();
        assert!(matches!(fig5c.entry, Json(_)));
        assert!(run(fig5c, &argv).unwrap_err().contains("jsno"));
    }
}

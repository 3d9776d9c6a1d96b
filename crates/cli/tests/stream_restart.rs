//! Kill -9 a journaled `serve --stream` mid-run, `--resume` it, and
//! check exactly-once delivery: the union of re-reported and
//! re-executed ops equals — as a set of (identity, outcome) tuples —
//! what one uninterrupted run produces. No lost batch, no double
//! batch, identical pairs/checksums/live counts.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const HEADER: &str = "resident=hot objects=1024 obj-size=64 d=2 mem-pages=64 seed=21\n";

/// The full op script: batches interleaved with maintenance (deletes
/// free slots; the append reuses them). 12 ops total.
fn script() -> String {
    let mut s = String::from(HEADER);
    for i in 0..5 {
        s.push_str(&format!("batch=b{i} objects=128 seed={}\n", 100 + i));
    }
    s.push_str("delete=64 seed=200\n");
    s.push_str("append=32 seed=201\n");
    for i in 5..10 {
        s.push_str(&format!("batch=b{i} objects=128 seed={}\n", 100 + i));
    }
    s
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmjoin-stream-rst-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Reduce a `--results-json` array to its deterministic identity: the
/// fields before the timing block, plus the live count. Timings and
/// the `resumed` marker legitimately differ between runs.
fn outcome_set(json: &str) -> BTreeSet<String> {
    let body = json.trim().trim_matches(|c| c == '[' || c == ']');
    body.split("},{")
        .map(|o| {
            let o = o.trim_matches(|c| c == '{' || c == '}');
            let head = o.split(",\"predicted_seconds\"").next().unwrap();
            let live = o
                .split("\"live_after\":")
                .nth(1)
                .map(|t| t.trim_end_matches(|c: char| !c.is_ascii_digit()))
                .unwrap_or("");
            format!("{head} live={live}")
        })
        .collect()
}

fn run_to_completion(jobs: &Path, journal: Option<&Path>, results: &Path) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmjoin"));
    cmd.args(["serve", "--stream", "--jobs"])
        .arg(jobs)
        .arg("--results-json")
        .arg(results);
    if let Some(dir) = journal {
        cmd.arg("--journal").arg(dir);
    }
    let out = cmd.output().expect("run stream");
    assert!(
        out.status.success(),
        "stream failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn kill9_then_resume_is_exactly_once() {
    let dir = tmp("wal");
    let jobs = dir.join("jobs.txt");
    std::fs::write(&jobs, script()).expect("write jobs");
    // The resume run's script is the header alone: the journal already
    // holds every accepted op, and re-submitting the originals would
    // be the duplicate delivery this test exists to rule out.
    let header_only = dir.join("header.txt");
    std::fs::write(&header_only, HEADER).expect("write header");

    // Uninterrupted reference.
    let ref_json = dir.join("reference.json");
    run_to_completion(&jobs, None, &ref_json);
    let reference = outcome_set(&std::fs::read_to_string(&ref_json).expect("read reference"));
    assert_eq!(reference.len(), 12, "reference covers every op");

    // Crash run: journaled, SIGKILLed after at least 3 acknowledged
    // completions (each `done` line prints only after its journal
    // commit, so the kill provably lands with work still pending or
    // just barely finished — both must resume to the same answer).
    let wal = dir.join("journal");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmjoin"))
        .args(["serve", "--stream", "--jobs"])
        .arg(&jobs)
        .arg("--journal")
        .arg(&wal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crash run");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout"));
    let mut seen = 0;
    let mut line = String::new();
    while seen < 3 {
        line.clear();
        if lines.read_line(&mut line).expect("read stdout") == 0 {
            break; // the run won the race and finished; still fine
        }
        if line.starts_with("done seq=") {
            seen += 1;
        }
    }
    assert!(seen >= 3, "crash run died before 3 completions");
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Resume: replays completions from the journal, re-executes the
    // torn suffix, and reports the union.
    let resumed_json = dir.join("resumed.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmjoin"));
    cmd.args(["serve", "--stream", "--resume", "--jobs"])
        .arg(&header_only)
        .arg("--journal")
        .arg(&wal)
        .arg("--results-json")
        .arg(&resumed_json);
    let out = cmd.output().expect("resume");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "resume failed:\n{stdout}");
    let resumed_text = std::fs::read_to_string(&resumed_json).expect("read resumed");
    let resumed = outcome_set(&resumed_text);
    assert_eq!(resumed.len(), 12, "resume reports every op exactly once");
    assert_eq!(resumed, reference, "resumed outcomes match uninterrupted");
    assert!(
        resumed_text.contains("\"resumed\":true"),
        "at least one op was re-reported from the journal"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean journaled run on the real store, then two header-only
/// resumes: each reopens the resident set the previous clean shutdown
/// checkpointed (no rebuild) and reports the clean run's outcome set,
/// live counts included.
#[test]
fn resumes_after_a_clean_shutdown_reopen_the_resident_set() {
    let dir = tmp("reopen");
    let jobs = dir.join("jobs.txt");
    std::fs::write(&jobs, script()).expect("write jobs");
    let header_only = dir.join("header.txt");
    std::fs::write(&header_only, HEADER).expect("write header");
    let wal = dir.join("journal");
    let run = |script: &Path, resume: bool, results: &Path| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmjoin"));
        cmd.args(["serve", "--stream", "--env", "mmap", "--jobs"])
            .arg(script)
            .arg("--journal")
            .arg(&wal)
            .arg("--results-json")
            .arg(results);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("run stream");
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(out.status.success(), "stream failed:\n{stdout}");
        let outcomes = outcome_set(&std::fs::read_to_string(results).expect("read results"));
        (outcomes, stdout)
    };

    let (clean, stdout) = run(&jobs, false, &dir.join("clean.json"));
    assert_eq!(clean.len(), 12, "the clean run covers every op");
    assert!(stdout.contains("1 build(s), 0 reopen(s)"), "{stdout}");
    for n in 0..2 {
        let (resumed, stdout) = run(&header_only, true, &dir.join(format!("resume{n}.json")));
        assert_eq!(resumed, clean, "resume {n} diverged from the clean run");
        assert!(
            stdout.contains("0 build(s), 1 reopen(s)"),
            "resume {n} rebuilt the resident set:\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

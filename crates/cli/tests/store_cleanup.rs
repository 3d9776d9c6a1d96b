//! An `--env mmap` command without `--journal DIR` keeps its store in a
//! per-process temp dir and removes it on the way out: the temp
//! directory it was given is left as empty as it was found, whether the
//! command failed or succeeded.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Run `mmjoin ARGS` (whitespace-separated) with `stdin` on its standard
/// input and `TMPDIR` set to a fresh directory named after `case`;
/// return its output and what it left in that directory.
fn run_in_fresh_tmp(case: &str, args: &str, stdin: &str) -> (Output, Vec<PathBuf>) {
    let tmp = std::env::temp_dir().join(format!("mmjoin-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmjoin"))
        .args(args.split_whitespace())
        .env("TMPDIR", &tmp)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    std::fs::remove_dir_all(&tmp).unwrap();
    (out, left)
}

#[test]
fn a_failed_mmap_join_leaves_no_store_behind() {
    // Every read fails and is not retried: the join exits nonzero.
    let (out, left) = run_in_fresh_tmp(
        "store-cleanup-join",
        "join --env mmap --objects 4000 --d 2 --mem-pages 16 \
         --fault-spec read:p=1 --retries 1",
        "",
    );
    assert!(!out.status.success(), "the join should have failed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("injected"), "{err}");
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn an_unjournaled_mmap_serve_leaves_no_store_root_behind() {
    let (out, left) = run_in_fresh_tmp(
        "store-cleanup-serve",
        "serve --env mmap --workers 1",
        "name=a alg=grace objects=2000 d=2 mem-pages=16 seed=1\n",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn an_unjournaled_mmap_stream_leaves_no_store_root_behind() {
    let (out, left) = run_in_fresh_tmp(
        "store-cleanup-stream",
        "serve --stream --env mmap",
        "resident=v objects=1024 obj-size=64 d=2 mem-pages=64 seed=7\n\
         batch=b0 objects=128 seed=1\n",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(left.is_empty(), "left behind: {left:?}");
}

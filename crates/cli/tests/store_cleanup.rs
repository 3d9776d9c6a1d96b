//! A failed `mmjoin join --env mmap` removes its store: a join whose
//! every read fails (and is not retried) exits nonzero and leaves the
//! temp directory it was given as empty as it found it.

use std::process::Command;

#[test]
fn a_failed_mmap_join_leaves_no_store_behind() {
    let tmp = std::env::temp_dir().join(format!("mmjoin-store-cleanup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mmjoin"))
        .args(["join", "--env", "mmap"])
        .args(["--objects", "4000", "--d", "2", "--mem-pages", "16"])
        .args(["--fault-spec", "read:p=1", "--retries", "1"])
        .env("TMPDIR", &tmp)
        .output()
        .unwrap();
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    std::fs::remove_dir_all(&tmp).unwrap();
    assert!(!out.status.success(), "the join should have failed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("injected"), "{err}");
    assert!(left.is_empty(), "left behind: {left:?}");
}

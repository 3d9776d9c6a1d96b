//! Exactly-once resume: a stream interrupted after journaling some
//! completions and some bare submissions must, on `--resume`,
//! re-report every completed op from the journal (no re-execution),
//! re-apply mutations to rebuild the resident state, re-execute only
//! the incomplete suffix, and then continue producing byte-identical
//! results to an uninterrupted reference run of the same op sequence.

use std::path::PathBuf;
use std::sync::Arc;

use mmjoin_env::machine::MachineParams;
use mmjoin_env::ProcId;
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_recovery::{Journal, JournalRecord};
use mmjoin_stream::{BatchResult, StreamConfig, StreamHeader, StreamOp, StreamSession};
use mmjoin_vmsim::{SimConfig, SimEnv};

fn sim() -> Arc<SimEnv> {
    let mut cfg = SimConfig::waterloo96(2);
    cfg.rproc_pages = 64;
    cfg.sproc_pages = 64;
    Arc::new(SimEnv::new(cfg).unwrap())
}

fn header() -> StreamHeader {
    StreamHeader {
        name: "res".into(),
        s_objects: 256,
        s_size: 64,
        d: 2,
        mem_pages: 64,
        seed: 5,
        modern: false,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmjoin-stream-res-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &std::path::Path, resume: bool) -> StreamConfig {
    StreamConfig {
        queue_bound: 64,
        machine: MachineParams::waterloo96(),
        journal_dir: Some(dir.to_path_buf()),
        resume,
    }
}

fn ops() -> Vec<StreamOp> {
    vec![
        StreamOp::Batch {
            name: "b0".into(),
            objects: 64,
            seed: 1,
        },
        StreamOp::Delete { count: 32, seed: 2 },
        StreamOp::Batch {
            name: "b1".into(),
            objects: 64,
            seed: 3,
        },
        StreamOp::Append { count: 8, seed: 0 },
        StreamOp::Batch {
            name: "b2".into(),
            objects: 64,
            seed: 4,
        },
        StreamOp::Batch {
            name: "b3".into(),
            objects: 64,
            seed: 5,
        },
    ]
}

fn outputs(results: &[BatchResult]) -> Vec<(u64, String, u64, u64, u64, bool)> {
    results
        .iter()
        .map(|r| (r.seq, r.name.clone(), r.pairs, r.checksum, r.misses, r.ok))
        .collect()
}

/// Reference: the whole op list in one uninterrupted session.
fn reference(dir: &std::path::Path) -> Vec<(u64, String, u64, u64, u64, bool)> {
    let sess = StreamSession::open(sim(), header(), cfg(dir, false)).unwrap();
    for op in ops() {
        sess.submit(op).unwrap();
    }
    sess.drain();
    let out = outputs(&sess.results());
    sess.shutdown();
    out
}

#[test]
fn resume_after_clean_stop_re_reports_and_continues_identically() {
    let ref_dir = tmp("ref");
    let want = reference(&ref_dir);

    // Interrupted run: first four ops complete, then the process goes
    // away (drop drains and stops; the journal survives on disk).
    let dir = tmp("clean");
    {
        let sess = StreamSession::open(sim(), header(), cfg(&dir, false)).unwrap();
        for op in ops().into_iter().take(4) {
            sess.submit(op).unwrap();
        }
        sess.drain();
    }

    // Resume in a fresh process-equivalent: new SimEnv, same journal.
    let sess = StreamSession::open(sim(), header(), cfg(&dir, true)).unwrap();
    let replayed = sess.results();
    assert_eq!(replayed.len(), 4, "all four completions re-reported");
    assert!(replayed.iter().all(|r| r.resumed && r.ok));
    for op in ops().into_iter().skip(4) {
        sess.submit(op).unwrap();
    }
    sess.drain();
    let got = outputs(&sess.results());
    assert_eq!(got, want, "resumed stream ≡ uninterrupted stream");
    let stats = sess.stats();
    assert_eq!(stats.resumed_batches, 4);
    assert!(
        stats.journal_replayed_records >= 9,
        "1 open + 4 submits + 4 completions"
    );
    sess.shutdown();

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_torn_run_re_executes_only_the_incomplete_suffix() {
    // Craft the journal a crashed process would leave: op 0 completed,
    // ops 1 and 2 submitted but never completed.
    let all = ops();
    let dir = tmp("torn");
    {
        let jenv = MmapEnv::new(MmapEnvConfig {
            root: dir.clone(),
            num_disks: 1,
            page_size: 4096,
        })
        .unwrap();
        let mut j = Journal::create(jenv, "stream.wal", 4 << 20, ProcId(0)).unwrap();
        j.append_commit(&JournalRecord::StreamOpened {
            line: header().to_line(),
        })
        .unwrap();
        j.append_commit(&JournalRecord::BatchSubmitted {
            batch: 0,
            line: all[0].to_line(),
        })
        .unwrap();
        // The completed batch's journaled output: taken from a scratch
        // run so the numbers are the true ones.
        let scratch_dir = tmp("torn-scratch");
        let scratch = StreamSession::open(sim(), header(), cfg(&scratch_dir, false)).unwrap();
        scratch.submit(all[0].clone()).unwrap();
        scratch.drain();
        let r0 = scratch.results()[0].clone();
        scratch.shutdown();
        let _ = std::fs::remove_dir_all(&scratch_dir);
        j.append_commit(&JournalRecord::BatchCompleted {
            batch: 0,
            pairs: r0.pairs,
            checksum: r0.checksum,
            misses: r0.misses,
        })
        .unwrap();
        j.append_commit(&JournalRecord::BatchSubmitted {
            batch: 1,
            line: all[1].to_line(),
        })
        .unwrap();
        j.append_commit(&JournalRecord::BatchSubmitted {
            batch: 2,
            line: all[2].to_line(),
        })
        .unwrap();
    }

    let ref_dir = tmp("torn-ref");
    let want: Vec<_> = reference(&ref_dir).into_iter().take(3).collect();

    let sess = StreamSession::open(sim(), header(), cfg(&dir, true)).unwrap();
    sess.drain();
    let results = sess.results();
    assert_eq!(results.len(), 3);
    assert!(results[0].resumed, "completed op re-reported, not re-run");
    assert!(
        !results[1].resumed && !results[2].resumed,
        "suffix re-executed"
    );
    assert_eq!(outputs(&results), want);
    assert_eq!(sess.stats().resumed_batches, 1);
    sess.shutdown();

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --stream --env mmap --journal DIR` keeps its store in
/// `DIR/store`, beside the journal: a fresh open may clear only the
/// journal's own file, and a resumed one must not adopt the store.
#[test]
fn a_store_kept_beside_the_journal_survives_fresh_and_resumed_opens() {
    let dir = tmp("beside");
    let store_cfg = MmapEnvConfig {
        root: dir.join("store"),
        num_disks: 2,
        page_size: 4096,
    };
    let store = Arc::new(MmapEnv::new(store_cfg.clone()).unwrap());
    let marker = dir.join("store").join("disk0").join("other.bin");
    std::fs::write(&marker, b"not the journal's").unwrap();

    let want = {
        let sess = StreamSession::open(store, header(), cfg(&dir, false)).unwrap();
        for op in ops() {
            sess.submit(op).unwrap();
        }
        sess.drain();
        let results = sess.results();
        assert!(results.iter().all(|r| r.ok), "{results:?}");
        outputs(&results)
    };
    assert!(marker.exists(), "a fresh open removed the store");

    let (store, _) = MmapEnv::recover(store_cfg).unwrap();
    let sess = StreamSession::open(Arc::new(store), header(), cfg(&dir, true)).unwrap();
    let results = sess.results();
    assert!(results.iter().all(|r| r.resumed), "{results:?}");
    assert_eq!(outputs(&results), want);
    sess.shutdown();
    assert!(marker.exists(), "a resumed open removed the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_mismatched_header() {
    let dir = tmp("mismatch");
    {
        let sess = StreamSession::open(sim(), header(), cfg(&dir, false)).unwrap();
        sess.submit(ops()[0].clone()).unwrap();
        sess.drain();
    }
    let mut other = header();
    other.s_objects = 512;
    let err = StreamSession::open(sim(), other, cfg(&dir, true));
    assert!(
        err.is_err(),
        "a resumed stream must match the journaled shape"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_completion_the_full_journal_cannot_commit_is_reported_failed_and_never_resumes_clean() {
    let dir = tmp("full");
    let big = |n: u64, rows: u64| StreamOp::BatchRows {
        name: format!("big{n}"),
        rows: (0..rows).map(|k| (n << 32 | k, (n + k) % 256)).collect(),
    };
    // One op at a time, 4096 rows (~70 KB a record) until the 4 MiB
    // journal stops taking both of an op's records, then ever smaller
    // ops into what room is left, until a completion does not fit.
    let mut journaled = Vec::new();
    let failed = {
        let sess = StreamSession::open(sim(), header(), cfg(&dir, false)).unwrap();
        let mut rows = 4096;
        let failed = loop {
            let before = sess.stats().journal_appended_records;
            let seq = sess.submit(big(journaled.len() as u64, rows)).unwrap();
            sess.drain();
            let r = sess.results().pop().unwrap();
            assert_eq!(r.seq, seq);
            if !r.ok {
                break r;
            }
            if sess.stats().journal_appended_records == before + 2 {
                journaled.push(r);
            } else {
                rows = (rows / 2).max(1);
            }
            assert!(seq < 2000, "the journal never filled");
        };
        let error = failed.error.as_deref().unwrap();
        assert!(
            error.contains("journal commit failed") && error.contains("journal full"),
            "{error}"
        );
        sess.shutdown();
        failed
    };
    assert!(journaled.len() > 40, "{}", journaled.len());

    let sess = StreamSession::open(sim(), header(), cfg(&dir, true)).unwrap();
    sess.drain();
    let results = sess.results();
    for want in &journaled {
        let got: Vec<&BatchResult> = results.iter().filter(|r| r.seq == want.seq).collect();
        assert_eq!(got.len(), 1, "seq {} exactly once", want.seq);
        assert!(got[0].ok && got[0].resumed, "seq {}", want.seq);
        assert_eq!(
            (got[0].pairs, got[0].checksum, got[0].misses),
            (want.pairs, want.checksum, want.misses)
        );
    }
    assert!(
        !results.iter().any(|r| r.seq == failed.seq && r.ok),
        "an op whose completion never committed must not resume as clean"
    );
    sess.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An op whose journaled line no longer parses is dropped on resume but
/// keeps its seq: an op submitted after the resume must not take it, or
/// the dropped op's completion would later stand in for its result.
#[test]
fn an_unusable_op_line_is_dropped_but_keeps_its_seq() {
    let dir = tmp("dropped");
    {
        let jenv = MmapEnv::new(MmapEnvConfig {
            root: dir.clone(),
            num_disks: 1,
            page_size: 4096,
        })
        .unwrap();
        let mut j = Journal::create(jenv, "stream.wal", 4 << 20, ProcId(0)).unwrap();
        for rec in [
            JournalRecord::StreamOpened {
                line: header().to_line(),
            },
            JournalRecord::BatchSubmitted {
                batch: 0,
                line: ops()[0].to_line(),
            },
            JournalRecord::BatchSubmitted {
                batch: 1,
                line: "batch=b9 objects=nine".into(),
            },
            JournalRecord::BatchCompleted {
                batch: 1,
                pairs: 9,
                checksum: 9,
                misses: 0,
            },
        ] {
            j.append_commit(&rec).unwrap();
        }
    }
    // A batch whose row points past |S| fails, so its completion is
    // never committed: what a crash before it completed leaves.
    let failing = StreamOp::BatchRows {
        name: "past".into(),
        rows: vec![(1, 9999)],
    };
    let seqs = |results: &[BatchResult]| results.iter().map(|r| r.seq).collect::<Vec<_>>();
    {
        let sess = StreamSession::open(sim(), header(), cfg(&dir, true)).unwrap();
        assert_eq!(sess.submit(failing).unwrap(), 2);
        sess.drain();
        let results = sess.results();
        assert_eq!(seqs(&results), [0, 2]);
        assert!(!results[1].ok, "{:?}", results[1]);
        sess.shutdown();
    }
    // The second resume runs op 2 again rather than re-reporting the
    // dropped op's journaled result under its seq.
    let sess = StreamSession::open(sim(), header(), cfg(&dir, true)).unwrap();
    sess.drain();
    let results = sess.results();
    assert_eq!(seqs(&results), [0, 2]);
    let r = &results[1];
    assert_eq!(r.name, "past");
    assert!(!r.resumed && !r.ok, "{r:?}");
    sess.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Reopen after a clean shutdown, on the real store: a journaled
//! session's clean shutdown keeps the `S_j` files and a checkpoint, and
//! `--resume` reopens them instead of regenerating S. The reopened set
//! must equal a regenerated one and an uninterrupted reference (keys,
//! live slots, `next_key`, the S bytes, every re-reported result), and
//! every checkpoint state a crash can leave must regenerate with
//! identical results.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mmjoin_env::machine::MachineParams;
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_stream::{
    checkpoint_file, BatchResult, Checkpoint, ResidentSet, StreamConfig, StreamHeader, StreamOp,
    StreamSession, StreamStats,
};

const D: u32 = 2;

fn header() -> StreamHeader {
    StreamHeader {
        name: "ro".into(),
        s_objects: 1024,
        s_size: 64,
        d: D,
        mem_pages: 64,
        seed: 9,
        modern: false,
    }
}

fn batch(name: &str, seed: u64) -> StreamOp {
    StreamOp::Batch {
        name: name.into(),
        objects: 128,
        seed,
    }
}

/// The ops the first session runs before its clean shutdown.
fn first() -> Vec<StreamOp> {
    vec![
        batch("b0", 1),
        StreamOp::Delete { count: 64, seed: 2 },
        batch("b1", 3),
        StreamOp::Append { count: 32, seed: 0 },
        batch("b2", 4),
    ]
}

/// Mutations that leave the live count where they found it: only the
/// mutation seq tells their checkpoint from the one before them.
fn second() -> Vec<StreamOp> {
    vec![
        StreamOp::Delete { count: 16, seed: 5 },
        StreamOp::Append { count: 16, seed: 0 },
        batch("b3", 6),
    ]
}

fn third() -> Vec<StreamOp> {
    vec![
        batch("b4", 7),
        StreamOp::Delete { count: 8, seed: 8 },
        batch("b5", 9),
    ]
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmjoin-reopen-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_cfg(dir: &Path) -> MmapEnvConfig {
    MmapEnvConfig {
        root: dir.join("store"),
        num_disks: D,
        page_size: 4096,
    }
}

/// The store a restarted process finds: every file adopted.
fn recovered(dir: &Path) -> Arc<MmapEnv> {
    Arc::new(MmapEnv::recover(store_cfg(dir)).unwrap().0)
}

fn cfg(dir: &Path, resume: bool) -> StreamConfig {
    StreamConfig {
        journal_dir: Some(dir.join("wal")),
        resume,
        ..StreamConfig::ephemeral(MachineParams::waterloo96())
    }
}

type Outcome = (u64, String, &'static str, u64, u64, u64, u64, bool, u64);

fn outcomes(results: &[BatchResult]) -> Vec<Outcome> {
    results
        .iter()
        .map(|r| {
            (
                r.seq,
                r.name.clone(),
                r.kind,
                r.rows,
                r.pairs,
                r.checksum,
                r.misses,
                r.ok,
                r.live_after,
            )
        })
        .collect()
}

/// Open (fresh or resumed) on the store in `dir`, run `ops`, shut
/// down cleanly. Returns every result and the stats at the end.
fn session(dir: &Path, resume: bool, ops: Vec<StreamOp>) -> (Vec<BatchResult>, StreamStats) {
    let env = if resume {
        recovered(dir)
    } else {
        Arc::new(MmapEnv::new(store_cfg(dir)).unwrap())
    };
    let sess = StreamSession::open(env, header(), cfg(dir, resume)).unwrap();
    for op in ops {
        sess.submit(op).unwrap();
    }
    sess.drain();
    let (results, stats) = (sess.results(), sess.stats());
    sess.shutdown();
    assert!(results.iter().all(|r| r.ok), "{results:?}");
    (results, stats)
}

fn file(dir: &Path, disk: u32, name: &str) -> PathBuf {
    dir.join("store").join(format!("disk{disk}")).join(name)
}

fn ckpt_path(dir: &Path) -> PathBuf {
    file(dir, 0, &checkpoint_file("ro"))
}

/// What a clean shutdown left in the store: the S bytes, the
/// checkpoint, and the reopened set's keys, live slots (as the batches
/// they draw) and `next_key`.
#[derive(Debug, PartialEq)]
struct Stored {
    s_bytes: Vec<Vec<u8>>,
    ckpt: Checkpoint,
    keys: Vec<u64>,
    live: u64,
    next_key: u64,
    draws: Vec<Vec<(u64, u64)>>,
}

/// `live`: the live count the last result reported.
fn stored(dir: &Path, live: u64) -> Stored {
    let s_bytes = (0..D)
        .map(|j| std::fs::read(file(dir, j, &format!("ro.S_{j}"))).unwrap())
        .collect();
    let ckpt = Checkpoint::decode(&std::fs::read(ckpt_path(dir)).unwrap()).expect("a checkpoint");
    let set = ResidentSet::reopen(recovered(dir), &header(), ckpt.mutation_seq, live)
        .unwrap()
        .expect("the checkpoint reopens");
    let draws = (0..4).map(|seed| set.gen_batch(64, seed)).collect();
    let out = Stored {
        s_bytes,
        keys: set.keys().to_vec(),
        live: set.live_count(),
        next_key: set.next_key(),
        draws,
        ckpt: ckpt.clone(),
    };
    set.checkpoint(&header(), ckpt.mutation_seq).unwrap();
    out
}

/// The uninterrupted reference: every op in one journaled session
/// (`name` keeps concurrent tests' stores apart).
fn reference(name: &str) -> (Vec<Outcome>, Stored) {
    let dir = tmp(name);
    let ops = first().into_iter().chain(second()).chain(third()).collect();
    let (results, stats) = session(&dir, false, ops);
    assert_eq!((stats.resident_builds, stats.resident_reopens), (1, 0));
    let want = outcomes(&results);
    let out = (want.clone(), stored(&dir, want.last().unwrap().8));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Resume on `dir` (whose journal holds `before`, all completed), check
/// the re-report and which path it took, run `ops`, and return every
/// outcome.
fn resume(dir: &Path, before: &[Outcome], ops: Vec<StreamOp>, reopens: bool) -> Vec<Outcome> {
    let (results, stats) = session(dir, true, ops);
    assert_eq!(
        (stats.resident_builds, stats.resident_reopens),
        if reopens { (0, 1) } else { (1, 0) },
        "reopened: {reopens}"
    );
    let again: Vec<BatchResult> = results.iter().filter(|r| r.resumed).cloned().collect();
    assert_eq!(outcomes(&again), before, "re-reported, live_after included");
    outcomes(&results)
}

#[test]
fn a_reopened_set_equals_a_regenerated_one_and_the_reference() {
    let (want, want_stored) = reference("ref-paths");
    for reopens in [true, false] {
        let dir = tmp(if reopens { "reopen" } else { "regen" });
        let (before, _) = session(&dir, false, first());
        let before = outcomes(&before);
        if !reopens {
            std::fs::remove_file(ckpt_path(&dir)).unwrap();
        }
        let mid = resume(&dir, &before, second(), reopens);
        let got = resume(&dir, &mid, third(), true);
        assert_eq!(got, want, "reopened: {reopens}");
        assert_eq!(
            stored(&dir, got.last().unwrap().8),
            want_stored,
            "reopened: {reopens}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every file of the store, by path, to compare or put back later.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = (0..D)
        .flat_map(|j| std::fs::read_dir(dir.join("store").join(format!("disk{j}"))).unwrap())
        .map(|e| {
            let path = e.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_checkpoint_state_a_crash_leaves_regenerates_identically() {
    let (want, want_stored) = reference("ref-states");
    type Damage = fn(&Path, &[Outcome]);
    let states: [(&str, Damage); 6] = [
        ("missing", |dir, _| {
            std::fs::remove_file(ckpt_path(dir)).unwrap();
        }),
        ("torn", |dir, _| {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(ckpt_path(dir))
                .unwrap();
            let len = f.metadata().unwrap().len();
            f.set_len(len / 2).unwrap();
        }),
        ("bad-crc", |dir, _| {
            let mut bytes = std::fs::read(ckpt_path(dir)).unwrap();
            bytes[6] ^= 1;
            std::fs::write(ckpt_path(dir), bytes).unwrap();
        }),
        ("other-header", |dir, _| {
            let mut c = Checkpoint::decode(&std::fs::read(ckpt_path(dir)).unwrap()).unwrap();
            c.line = StreamHeader {
                s_objects: 2048,
                ..header()
            }
            .to_line();
            std::fs::write(ckpt_path(dir), c.encode()).unwrap();
        }),
        ("stale-seq", |dir, before| {
            // The store as the first session left it, checkpoint
            // included, under a journal that completed later mutations.
            let old = snapshot(dir);
            resume(dir, before, second(), true);
            for (path, bytes) in old {
                std::fs::write(path, bytes).unwrap();
            }
        }),
        ("patched-then-killed", |dir, before| {
            // A reopened process invalidates the checkpoint and patches
            // slots, then dies before the mutations' completions commit:
            // storage is ahead of the journal. A delete and an append
            // leave the live count as it was, so only the invalidation
            // tells this store from the clean one.
            let live = before.last().unwrap().8;
            let seq = before.iter().rev().find(|o| o.2 != "batch").map(|o| o.0);
            let mut set = ResidentSet::reopen(recovered(dir), &header(), seq, live)
                .unwrap()
                .expect("the clean checkpoint reopens");
            set.delete(4, 77).unwrap();
            set.append(4).unwrap();
            drop(set);
        }),
    ];
    for (state, damage) in states {
        let dir = tmp(state);
        let (before, _) = session(&dir, false, first());
        let before = outcomes(&before);
        damage(&dir, &before);
        let (journaled, rest) = if state == "stale-seq" {
            (want[..first().len() + second().len()].to_vec(), third())
        } else {
            (before, second().into_iter().chain(third()).collect())
        };
        let got = resume(&dir, &journaled, rest, false);
        assert_eq!(got, want, "{state}");
        assert_eq!(stored(&dir, got.last().unwrap().8), want_stored, "{state}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resumes_leave_the_journal_byte_identical() {
    let dir = tmp("hygiene");
    let (before, stats) = session(&dir, false, first());
    let ops = first().len() as u64;
    assert_eq!(stats.journal_commits, 1 + 2 * ops);
    let before = outcomes(&before);
    let wal = dir.join("wal").join("disk0").join("stream.wal");
    let journal = std::fs::read(&wal).unwrap();
    let store = snapshot(&dir);
    for _ in 0..5 {
        let (results, stats) = session(&dir, true, Vec::new());
        assert_eq!((stats.resident_builds, stats.resident_reopens), (0, 1));
        assert_eq!(stats.journal_appended_records, 0);
        assert_eq!(outcomes(&results), before);
        assert!(
            std::fs::read(&wal).unwrap() == journal,
            "a resume wrote the journal"
        );
    }
    assert!(
        snapshot(&dir) == store,
        "a resume that patched nothing rewrote the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

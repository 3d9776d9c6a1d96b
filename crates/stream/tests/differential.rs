//! The streaming tier's ground truth: a sequence of micro-batches with
//! interleaved `append=`/`delete=` mutations must produce exactly the
//! pairs and checksum a one-shot [`mmjoin::join`] produces over the
//! equivalent final inputs — on the simulator and the real mmap store,
//! through the faithful kernels and the modern ones.
//!
//! The bridge is [`mmjoin_relstore::build_explicit`]: after the stream
//! finishes, the final S image (mutated keys, tombstone sentinels) and
//! the subset of probed rows whose target survived unmutated form a
//! one-shot workload whose oracle checksum is, by construction, the sum
//! of those rows' streamed digests. Running the real join over that
//! workload and verifying it closes the loop storage-to-storage: the
//! streamed results came from fetched S bytes, the one-shot results
//! from the same bytes rebuilt into a fresh workload.

use std::path::PathBuf;
use std::sync::Arc;

use mmjoin::{join, Algo, ExecMode, JoinSpec};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::Env;
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build_explicit, pair_digest, RelConfig};
use mmjoin_stream::{ResidentSet, StreamHeader, DEAD_BIT};
use mmjoin_vmsim::{SimConfig, SimEnv};
use proptest::{collection::vec, proptest, ProptestConfig};

const D: u32 = 2;
const S_OBJECTS: u64 = 64;

/// One scheduled op, drawn by the property.
#[derive(Clone, Debug)]
enum TOp {
    Batch { objects: u64, seed: u64 },
    Append { count: u64 },
    Delete { count: u64, seed: u64 },
}

fn decode_ops(raw: &[(u32, u64, u64)]) -> Vec<TOp> {
    raw.iter()
        .map(|&(sel, count, seed)| match sel % 4 {
            0 | 1 => TOp::Batch {
                objects: count.clamp(1, 48),
                seed,
            },
            2 => TOp::Delete {
                count: count.clamp(1, 16),
                seed,
            },
            _ => TOp::Append {
                count: count.clamp(1, 16),
            },
        })
        .collect()
}

fn header(modern: bool) -> StreamHeader {
    StreamHeader {
        name: "diff".into(),
        s_objects: S_OBJECTS,
        s_size: 64,
        d: D,
        mem_pages: 64,
        seed: 11,
        modern,
    }
}

/// Drive the op schedule through a resident set on `stream_env`, then
/// check the surviving rows against a one-shot join on `oneshot_env`.
fn drive<ES: Env + 'static, EJ: Env>(
    stream_env: Arc<ES>,
    oneshot_env: &EJ,
    ops: &[TOp],
    modern: bool,
) {
    let machine = MachineParams::waterloo96();
    let h = header(modern);
    let mut set = ResidentSet::build(Arc::clone(&stream_env), &h, &machine).unwrap();

    // (r_key, slot, key at probe time, hit).
    let mut probed: Vec<(u64, u64, u64, bool)> = Vec::new();
    let mut streamed_pairs = 0u64;
    let mut streamed_checksum = 0u64;
    for op in ops {
        match op {
            TOp::Batch { objects, seed } => {
                let rows = set.gen_batch(*objects, *seed);
                let expected = set.expected(&rows);
                let got = set.probe(&rows).unwrap();
                assert_eq!(
                    got, expected,
                    "probe output must match the key-table oracle"
                );
                streamed_pairs += got.pairs;
                streamed_checksum = streamed_checksum.wrapping_add(got.checksum);
                for (r_key, slot) in rows {
                    let key = set.keys()[slot as usize];
                    probed.push((r_key, slot, key, key & DEAD_BIT == 0));
                }
            }
            TOp::Delete { count, seed } => {
                // Keep at least one slot live so later batches have
                // targets (and the one-shot padding has a home).
                let count = (*count).min(set.live_count().saturating_sub(1));
                if count > 0 {
                    set.delete(count, *seed).unwrap();
                }
            }
            TOp::Append { count } => {
                let dead = S_OBJECTS - set.live_count();
                let count = (*count).min(dead);
                if count > 0 {
                    set.append(count).unwrap();
                }
            }
        }
    }

    // Generated batches only target live slots, so every probe hits.
    assert_eq!(streamed_pairs, probed.len() as u64);

    // Whatever the schedule did, the stream's store holds exactly the
    // D S partitions: no file is written that nothing reads.
    let mut files = stream_env.list_files();
    files.sort();
    assert_eq!(files, ["diff.S_0", "diff.S_1"]);

    // Rows whose target survived to the end unchanged are exactly the
    // rows a one-shot join over the final S image reproduces.
    let final_keys = set.keys().to_vec();
    let included: Vec<(u64, u64, u64)> = probed
        .iter()
        .filter(|&&(_, slot, key, hit)| hit && final_keys[slot as usize] == key)
        .map(|&(r_key, slot, key, _)| (r_key, slot, key))
        .collect();
    let pad_slot = (0..S_OBJECTS)
        .find(|&s| final_keys[s as usize] & DEAD_BIT == 0)
        .expect("at least one live slot");

    let mut rows: Vec<(u64, u64)> = included.iter().map(|&(k, s, _)| (k, s)).collect();
    let mut pad_checksum = 0u64;
    while rows.is_empty() || rows.len() as u64 % D as u64 != 0 {
        let pad_key = 0x7000_0000_0000_0000 + rows.len() as u64;
        pad_checksum =
            pad_checksum.wrapping_add(pair_digest(pad_key, final_keys[pad_slot as usize]));
        rows.push((pad_key, pad_slot));
    }
    let rel = RelConfig {
        r_size: 32,
        s_size: 64,
        d: D,
        r_objects: rows.len() as u64,
        s_objects: S_OBJECTS,
    };
    let rels = build_explicit(oneshot_env, rel, "one", &final_keys, &rows).unwrap();

    // The one-shot oracle checksum must be the included rows' streamed
    // digests plus the padding — the digest of a streamed pair and of
    // the same pair in a one-shot workload is the same function of the
    // same stored bytes.
    let included_checksum = included.iter().fold(0u64, |acc, &(k, _, key)| {
        acc.wrapping_add(pair_digest(k, key))
    });
    assert_eq!(
        rels.expected_checksum,
        included_checksum.wrapping_add(pad_checksum)
    );
    assert_eq!(rels.expected_pairs, rows.len() as u64);

    // And the executable join over that workload agrees with its
    // oracle, faithful or modern.
    let mode = if modern {
        ExecMode::Modern
    } else {
        ExecMode::Sequential
    };
    let spec = JoinSpec::new(64 * 4096, 64 * 4096).with_mode(mode);
    let out = join(oneshot_env, &rels, Algo::Grace, &spec).unwrap();
    assert_eq!(out.pairs, rels.expected_pairs);
    assert_eq!(out.checksum, rels.expected_checksum);

    set.teardown().unwrap();
    assert!(stream_env.list_files().is_empty());
}

fn sim() -> Arc<SimEnv> {
    let mut cfg = SimConfig::waterloo96(D);
    cfg.rproc_pages = 64;
    cfg.sproc_pages = 64;
    Arc::new(SimEnv::new(cfg).unwrap())
}

/// A store root under the temp dir, removed when the guard drops, so a
/// case cleans up after itself whether it passes or panics.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        let root =
            std::env::temp_dir().join(format!("mmjoin-stream-diff-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        TempRoot(root)
    }

    /// A fresh mmap store in this root (drop it before the guard).
    fn mmap(&self) -> Arc<MmapEnv> {
        Arc::new(
            MmapEnv::new(MmapEnvConfig {
                root: self.0.clone(),
                num_disks: D,
                page_size: 4096,
            })
            .unwrap(),
        )
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn streamed_batches_equal_a_oneshot_join_on_simenv(
        raw in vec((0u32..4, 1u64..48, 0u64..1_000_000), 1..8)
    ) {
        let ops = decode_ops(&raw);
        for modern in [false, true] {
            drive(sim(), sim().as_ref(), &ops, modern);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn streamed_batches_equal_a_oneshot_join_on_mmapenv(
        raw in vec((0u32..4, 1u64..48, 0u64..1_000_000), 1..6)
    ) {
        let ops = decode_ops(&raw);
        for (i, modern) in [false, true].into_iter().enumerate() {
            let stream_root = TempRoot::new(&format!("s{i}-{}", raw.len()));
            let oneshot_root = TempRoot::new(&format!("o{i}-{}", raw.len()));
            let oneshot_env = oneshot_root.mmap();
            drive(stream_root.mmap(), oneshot_env.as_ref(), &ops, modern);
        }
    }
}

//! # mmjoin-stream — the streaming join tier
//!
//! The paper's joins are one-shot: build both relations, run the three
//! passes, report. This crate adds the *continuous* variant the same
//! machinery supports naturally once `S` is memory-resident: load the
//! inner relation once into `D` mapped partitions, then serve an
//! unbounded sequence of R micro-batches — each a short probe-only job
//! priced by [`mmjoin::probe_cost`] — plus incremental
//! `append=`/`delete=` maintenance that patches the stored S-objects in
//! place. The joins are pointer-based, so a probe dereferences the
//! row's S-pointer through the Sproc exchange; there is no index.
//!
//! The module split:
//!
//! * [`grammar`] — the `resident=`/`batch=`/`append=`/`delete=` line
//!   grammar (`mmjoin serve --stream` scripts and the journal's wire
//!   lines);
//! * [`resident`] — the resident set: build (the stream's only O(|S|)
//!   cost) or reopen from a clean shutdown's checkpoint, probe through
//!   the Sproc shared-buffer exchange, in-place patch, and the
//!   rank/select live-slot index that makes each mutation or generated
//!   row O(log |S|);
//! * [`session`] — the ordered worker, backpressure, write-ahead
//!   journaling, and exactly-once `--resume`.
//!
//! The invariants the tests in `tests/` enforce:
//!
//! * **differential** — streamed batches with interleaved mutations
//!   produce exactly the pairs/checksum a one-shot [`mmjoin::join`]
//!   produces over the equivalent final inputs, on `SimEnv` and
//!   `MmapEnv`, faithful and modern;
//! * **steady state** — after warmup no `pass=0` event appears in the
//!   trace, and a micro-batch is far cheaper than an independent full
//!   join of the same rows;
//! * **exactly-once** — a killed session resumed from its journal
//!   re-reports completed batches without re-executing them and
//!   continues the suffix;
//! * **reopen** — a resume after a clean shutdown reopens the
//!   checkpointed partitions and matches a regenerating resume, and
//!   every checkpoint state a crash can leave regenerates.

pub mod grammar;
pub mod resident;
pub mod session;

pub use grammar::{StreamHeader, StreamOp, PAGE};
pub use resident::{checkpoint_file, BatchOutput, Checkpoint, ResidentSet, DEAD_BIT, PROBE_BATCH};
pub use session::{BatchResult, StreamConfig, StreamSession, StreamStats};

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_env::machine::MachineParams;
    use mmjoin_env::Env;
    use mmjoin_vmsim::{SimConfig, SimEnv};
    use std::sync::Arc;

    fn header(d: u32, objects: u64) -> StreamHeader {
        StreamHeader {
            name: "t".into(),
            s_objects: objects,
            s_size: 64,
            d,
            mem_pages: 64,
            seed: 7,
            modern: false,
        }
    }

    fn sim(d: u32) -> Arc<SimEnv> {
        let mut cfg = SimConfig::waterloo96(d);
        cfg.rproc_pages = 64;
        cfg.sproc_pages = 64;
        Arc::new(SimEnv::new(cfg).unwrap())
    }

    fn machine() -> MachineParams {
        MachineParams::waterloo96()
    }

    #[test]
    fn resident_probe_matches_the_oracle() {
        let env = sim(2);
        let h = header(2, 512);
        let set = ResidentSet::build(Arc::clone(&env), &h, &machine()).unwrap();
        let rows = set.gen_batch(200, 3);
        let expected = set.expected(&rows);
        let got = set.probe(&rows).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.pairs, 200, "all slots live at build time");
        assert_eq!(got.misses, 0);
        assert!(got.checksum != 0);
    }

    #[test]
    fn mutations_patch_storage_and_probes_see_them() {
        let env = sim(2);
        let h = header(2, 128);
        let mut set = ResidentSet::build(Arc::clone(&env), &h, &machine()).unwrap();
        let deleted = set.delete(32, 9).unwrap();
        assert_eq!(deleted.len(), 32);
        assert_eq!(set.live_count(), 96);
        // A probe that targets only deleted slots misses everywhere —
        // and discovers that from the *stored* tombstone bytes.
        let rows: Vec<(u64, u64)> = deleted.iter().map(|&s| (1000 + s, s)).collect();
        let got = set.probe(&rows).unwrap();
        assert_eq!(got.pairs, 0);
        assert_eq!(got.misses, 32);
        // Refill: fresh keys (monotone counter, never reused) go into
        // the lowest tombstoned slots.
        let appended = set.append(8).unwrap();
        assert_eq!(appended.len(), 8);
        assert_eq!(set.live_count(), 104);
        let rows: Vec<(u64, u64)> = appended.iter().map(|&s| (2000 + s, s)).collect();
        let got = set.probe(&rows).unwrap();
        assert_eq!(got.pairs, 8);
        assert_eq!(got, set.expected(&rows));
        for &s in &appended {
            assert!(set.keys()[s as usize] >= 128, "fresh key, not a reuse");
        }
        // Over-deleting and over-appending are refused.
        assert!(set.delete(4096, 1).is_err());
        assert!(set.append(1000).is_err());
    }

    #[test]
    fn batch_generation_is_deterministic_and_respects_liveness() {
        let env = sim(2);
        let h = header(2, 256);
        let mut set = ResidentSet::build(Arc::clone(&env), &h, &machine()).unwrap();
        let a = set.gen_batch(100, 42);
        let b = set.gen_batch(100, 42);
        assert_eq!(a, b, "same seed, same state, same batch");
        assert_ne!(a, set.gen_batch(100, 43));
        set.delete(64, 5).unwrap();
        let dead: std::collections::BTreeSet<u64> = (0..256)
            .filter(|&s| set.keys()[s as usize] & DEAD_BIT != 0)
            .collect();
        for &(_, slot) in &set.gen_batch(500, 42) {
            assert!(!dead.contains(&slot), "generated batches target live slots");
        }
    }

    #[test]
    fn session_runs_a_script_in_order_and_verifies_every_batch() {
        let env = sim(2);
        let h = header(2, 512);
        let sess =
            StreamSession::open(Arc::clone(&env), h, StreamConfig::ephemeral(machine())).unwrap();
        let script = "\
batch=b0 objects=128 seed=1
delete=64 seed=2
batch=b1 objects=128 seed=3
append=16 seed=4
batch=b2 objects=128 seed=5
";
        let seqs = sess.submit_script(script).unwrap();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        sess.drain();
        let results = sess.results();
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| r.ok), "{results:?}");
        assert_eq!(results[0].pairs, 128, "pre-delete batch sees all slots");
        assert_eq!(results[1].rows, 64);
        assert_eq!(results[1].live_after, 448);
        assert_eq!(results[2].pairs, 128, "batches draw over live slots only");
        assert_eq!(results[3].live_after, 464);
        let stats = sess.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.mutations, 2);
        assert_eq!(stats.pairs, 3 * 128);
        assert_eq!(stats.live_objects, 464);
        assert_eq!(stats.batch_hist.count(), 3);
        assert!(stats.predicted_seconds > 0.0);
        assert_eq!(stats.submitted, 5);
        sess.shutdown();
    }

    #[test]
    fn batch_results_serialize_to_well_formed_json() {
        let env = sim(2);
        let sess = StreamSession::open(
            Arc::clone(&env),
            header(2, 128),
            StreamConfig::ephemeral(machine()),
        )
        .unwrap();
        sess.submit(StreamOp::Batch {
            name: "j\"x".into(),
            objects: 16,
            seed: 1,
        })
        .unwrap();
        sess.drain();
        let j = sess.results()[0].to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\":\"batch\""));
        assert!(j.contains("\"name\":\"j\\\"x\""), "quote escaped: {j}");
        assert!(j.contains("\"resumed\":false"));
    }

    #[test]
    fn backpressure_blocks_submitters_at_the_bound() {
        let env = sim(2);
        let h = header(2, 128);
        let mut cfg = StreamConfig::ephemeral(machine());
        cfg.queue_bound = 2;
        let sess = Arc::new(StreamSession::open(Arc::clone(&env), h, cfg).unwrap());
        // Flood from a second thread; the bound forces it to block at
        // least once while the single worker drains.
        let flood = {
            let sess = Arc::clone(&sess);
            std::thread::spawn(move || {
                for i in 0..64 {
                    sess.submit(StreamOp::Batch {
                        name: format!("b{i}"),
                        objects: 64,
                        seed: i,
                    })
                    .unwrap();
                }
            })
        };
        flood.join().unwrap();
        sess.drain();
        let stats = sess.stats();
        assert_eq!(stats.completed, 64);
        assert!(
            stats.backpressure > 0,
            "a 64-op flood against bound 2 must block at least once"
        );
    }

    #[test]
    fn wait_results_returns_the_suffix_blocks_for_a_completion_and_times_out() {
        use std::time::{Duration, Instant};
        let far = || Instant::now() + Duration::from_secs(30);
        let sess = Arc::new(
            StreamSession::open(sim(2), header(2, 128), StreamConfig::ephemeral(machine()))
                .unwrap(),
        );
        let batch = |seed| StreamOp::Batch {
            name: format!("b{seed}"),
            objects: 16,
            seed,
        };

        // Nothing submitted: empty at the deadline, and not before it.
        let t = Instant::now();
        assert!(sess
            .wait_results(0, t + Duration::from_millis(30))
            .is_empty());
        assert!(t.elapsed() >= Duration::from_millis(30));

        // Blocks until an op completes, far short of the deadline: the
        // op is submitted no sooner than 50 ms after `t`.
        let t = Instant::now();
        let late = {
            let sess = Arc::clone(&sess);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                sess.submit(batch(1)).unwrap()
            })
        };
        let got = sess.wait_results(0, far());
        let first = late.join().unwrap();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), [first]);
        assert!(t.elapsed() >= Duration::from_millis(50), "returned early");
        assert!(t.elapsed() < Duration::from_secs(10));

        // Suffix semantics: `from` skips what the caller already holds.
        let second = sess.submit(batch(2)).unwrap();
        let got = sess.wait_results(1, far());
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), [second]);
        assert_eq!(sess.wait_results(0, far()).len(), 2);
        // Past the end waits out the deadline.
        assert!(sess.wait_results(2, Instant::now()).is_empty());
    }

    #[test]
    fn wake_waiters_ends_a_blocked_wait_and_every_later_one() {
        use std::time::{Duration, Instant};
        let sess = Arc::new(
            StreamSession::open(sim(2), header(2, 128), StreamConfig::ephemeral(machine()))
                .unwrap(),
        );
        let waiter = {
            let sess = Arc::clone(&sess);
            std::thread::spawn(move || {
                let got = sess.wait_results(0, Instant::now() + Duration::from_secs(60));
                (got.len(), Instant::now())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let woken = Instant::now();
        sess.wake_waiters();
        let (got, returned) = waiter.join().unwrap();
        assert_eq!(got, 0, "an idle session has no results");
        assert!(returned >= woken, "returned before the wake-up");
        assert!(returned - woken < Duration::from_secs(10));
        // The wake-up is sticky: a later wait returns at once.
        let t = Instant::now();
        assert!(sess.wait_results(0, t + Duration::from_secs(60)).is_empty());
        assert!(t.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn explicit_rows_probe_exact_targets() {
        let env = sim(2);
        let sess = StreamSession::open(
            Arc::clone(&env),
            header(2, 128),
            StreamConfig::ephemeral(machine()),
        )
        .unwrap();
        sess.submit(StreamOp::Delete { count: 1, seed: 0 }).unwrap();
        sess.drain();
        let dead_probe = StreamOp::BatchRows {
            name: "x".into(),
            rows: vec![(5, 0), (6, 1), (7, 2)],
        };
        sess.submit(dead_probe).unwrap();
        sess.drain();
        let r = &sess.results()[1];
        assert!(r.ok);
        assert_eq!(r.pairs + r.misses, 3);
        sess.shutdown();
    }

    #[test]
    fn env_file_table_is_clean_after_teardown() {
        let env = sim(2);
        let h = header(2, 128);
        let set = ResidentSet::build(Arc::clone(&env), &h, &machine()).unwrap();
        assert_eq!(env.list_files().len(), 2, "the 2 S partitions");
        set.teardown().unwrap();
        assert!(env.list_files().is_empty());
    }
}

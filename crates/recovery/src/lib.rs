//! # mmjoin-recovery — crash consistency for memory-mapped joins
//!
//! A memory-mapped store makes writes durable *lazily*: dirty pages
//! reach disk when the pager evicts them or when `msync` forces them.
//! A crash therefore leaves the store in an arbitrary page-granular
//! mixture of old and new bytes — the classic torn-write problem. This
//! crate provides the machinery the join service uses to survive that:
//!
//! * [`crc::crc32`] — the CRC32 (IEEE) checksum guarding every record;
//! * [`JournalRecord`] — the record vocabulary (job submission and
//!   completion, stream header, op submission and completion) with a
//!   framed, checksummed, total-decode wire format;
//! * [`Journal`] — an append-only write-ahead log over one [`Env`]
//!   file, committing with the flush-before-commit ordering
//!   (data `sync` → header write, which the next `sync` makes durable);
//! * [`JobLog`] — the job lifecycle every tier shares: the journal,
//!   id assignment, commit-then-publish, exactly-once results, `drain`
//!   and `wait_results`, and resume numbering;
//! * [`ReplayState`] — folding a replayed record prefix into the jobs
//!   and stream ops it describes.
//!
//! Each tier journals only what its resume reads. A join that did not
//! complete re-runs from scratch, so a job costs two records, its
//! submission and its completion, committed as [`JobLog`] describes.
//! Every tier opens its journal with [`Journal::open_or_create`]; a
//! refused record is erased before the error returns, so it never
//! replays.
//!
//! [`Env`]: mmjoin_env::Env

pub mod crc;
pub mod journal;
pub mod lifecycle;
pub mod record;
pub mod replay;

pub use crc::crc32;
pub use journal::{Journal, JournalStats, Replayed, HEADER_SIZE, JOURNAL_CAPACITY};
pub use lifecycle::JobLog;
pub use record::JournalRecord;
pub use replay::{BatchState, JobState, ReplayState};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::record::JournalRecord;
    use crate::replay::ReplayState;

    /// Arbitrary record, decoded from a flat tuple (the shim has no
    /// `prop_oneof!`/`any::<T>()`; a selector field plays that role).
    fn record_from((sel, a, b, c, flag): (u32, u64, u64, u64, bool)) -> JournalRecord {
        match sel {
            0 => JournalRecord::JobSubmitted {
                job: a,
                line: format!(
                    "name=j{} objects={} d={} seed={}",
                    a % 50,
                    b % 100_000,
                    b % 8,
                    c
                ),
            },
            1 => JournalRecord::JobCompleted {
                job: a,
                pairs: b,
                checksum: c,
                ok: flag,
            },
            2 => JournalRecord::StreamOpened {
                line: format!(
                    "resident=s{} objects={} d={} seed={}",
                    a % 9,
                    b % 100_000,
                    b % 8,
                    c
                ),
            },
            3 => JournalRecord::BatchSubmitted {
                batch: a,
                line: format!("batch=b{} objects={} seed={}", a % 50, b % 10_000, c),
            },
            _ => JournalRecord::BatchCompleted {
                batch: a,
                pairs: b,
                checksum: c,
                misses: b % 7,
            },
        }
    }

    fn arb_record() -> impl Strategy<Value = JournalRecord> {
        (
            0u32..5,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            proptest::bool::ANY,
        )
            .prop_map(record_from)
    }

    proptest! {
        /// Satellite: journal encode/decode round-trips bitwise for
        /// arbitrary records.
        #[test]
        fn encode_decode_round_trips_bitwise(rec in arb_record()) {
            let wire = rec.encode();
            let (back, used) = JournalRecord::decode(&wire).expect("own encoding decodes");
            prop_assert_eq!(used, wire.len());
            let back = back.expect("a live record type");
            prop_assert_eq!(&back, &rec);
            prop_assert_eq!(back.encode(), wire);
        }

        /// Satellite: any prefix-truncated journal image (a torn tail)
        /// replays to a consistent prefix state — exactly the records
        /// wholly before the cut, never a phantom or corrupted record.
        #[test]
        fn torn_tail_replays_to_consistent_prefix(
            recs in proptest::collection::vec(arb_record(), 1..8),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut image = Vec::new();
            let mut ends = Vec::new();
            for rec in &recs {
                image.extend_from_slice(&rec.encode());
                ends.push(image.len());
            }
            let cut = ((image.len() as f64) * cut_frac) as usize;
            let torn = &image[..cut];

            // Scan exactly as Journal::open does.
            let mut got = Vec::new();
            let mut off = 0;
            while let Some((rec, used)) = JournalRecord::decode(&torn[off..]) {
                got.extend(rec);
                off += used;
            }

            // The accepted records are precisely the whole ones.
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(got.len(), whole);
            prop_assert_eq!(&got[..], &recs[..whole]);

            // And the fold over them is a state the full history passed
            // through (prefix-fold equality).
            let st = ReplayState::from_records(&got);
            let expect = ReplayState::from_records(&recs[..whole]);
            prop_assert_eq!(st.jobs, expect.jobs);
            prop_assert_eq!(st.batches, expect.batches);
        }
    }
}

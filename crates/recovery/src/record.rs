//! Journal record vocabulary and its checksummed binary encoding.
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [type: u8] [payload ...] [crc: u32 LE]
//! ```
//!
//! where `len` counts the type byte plus the payload (not the frame
//! fields), and `crc` is the CRC32 of exactly those `len` bytes. A
//! record is only accepted if the frame is complete *and* the checksum
//! matches; anything else — a torn tail, a flipped bit, trailing zeroes
//! from a pre-sized journal file — terminates the scan. Decoding is
//! total: no input can panic it.
//!
//! Strings are encoded as `u32 LE` length + UTF-8 bytes; integers are
//! little-endian fixed width. The encoding is deliberately
//! byte-deterministic so the encode/decode proptest can assert bitwise
//! round-trips.

use crate::crc::crc32;

/// Record type tags (the `type` byte).
const T_AREA_CREATED: u8 = 1;
const T_AREA_DELETED: u8 = 2;
const T_JOB_SUBMITTED: u8 = 3;
const T_CHECKPOINT: u8 = 4;
const T_JOB_COMPLETED: u8 = 5;
const T_JOB_DISPATCHED: u8 = 6;
const T_NODE_LOST: u8 = 7;
const T_STREAM_OPENED: u8 = 8;
const T_BATCH_SUBMITTED: u8 = 9;
const T_BATCH_COMPLETED: u8 = 10;

/// One durable journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A storage area (temporary or otherwise) was created.
    AreaCreated {
        /// Env file name.
        name: String,
        /// Disk holding the area.
        disk: u32,
        /// Logical size in bytes.
        bytes: u64,
    },
    /// A storage area was deleted.
    AreaDeleted {
        /// Env file name.
        name: String,
    },
    /// A job was admitted into the service with this id; `line` is the
    /// job request re-encoded in the job-file grammar, so replay can
    /// re-submit it verbatim.
    JobSubmitted {
        /// Service job id.
        job: u64,
        /// `key=value` job line reproducing the request.
        line: String,
    },
    /// A pass boundary completed for a job (the paper's staged per-disk
    /// passes are the natural checkpoint points).
    Checkpoint {
        /// Service job id.
        job: u64,
        /// Completed pass (0 scan, 1 staggered phases, 2 local join).
        pass: u32,
    },
    /// A job finished; its result is durable in this record, so a
    /// resumed service reports it without re-running the join.
    JobCompleted {
        /// Service job id.
        job: u64,
        /// Joined pairs produced.
        pairs: u64,
        /// Order-independent join checksum.
        checksum: u64,
        /// Whether the result verified against the workload oracle.
        ok: bool,
    },
    /// The cluster coordinator sent a job to a worker node. Dispatch is
    /// at-least-once, so this record can repeat for one job (each
    /// re-queue re-dispatches); the last one wins in replay.
    JobDispatched {
        /// Cluster job id.
        job: u64,
        /// Node the job was sent to.
        node: String,
    },
    /// The coordinator declared a worker node dead. Jobs dispatched to
    /// it and not completed revert to pending in replay.
    NodeLost {
        /// Node name.
        node: String,
    },
    /// A streaming session opened against a resident relation; `line`
    /// is the `resident=` header re-encoded in the stream grammar, so
    /// replay can rebuild the identical resident set.
    StreamOpened {
        /// `key=value` header line reproducing the resident spec.
        line: String,
    },
    /// A stream operation (batch / append / delete) was accepted with
    /// this sequence number; `line` is the op re-encoded in the stream
    /// grammar. Mutations replay by re-applying the line; batches
    /// without a matching completion re-execute.
    BatchSubmitted {
        /// Monotonic stream sequence number.
        batch: u64,
        /// `key=value` op line reproducing the operation.
        line: String,
    },
    /// A stream batch finished; its result is durable here, so a
    /// resumed stream re-reports it exactly once instead of re-probing.
    BatchCompleted {
        /// Monotonic stream sequence number.
        batch: u64,
        /// Joined pairs produced by the batch.
        pairs: u64,
        /// Order-independent join checksum contribution.
        checksum: u64,
        /// Rows whose target was not live at probe time.
        misses: u64,
    },
}

impl JournalRecord {
    /// Stable snake_case kind tag (mirrors trace-event naming).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::AreaCreated { .. } => "area_created",
            JournalRecord::AreaDeleted { .. } => "area_deleted",
            JournalRecord::JobSubmitted { .. } => "job_submitted",
            JournalRecord::Checkpoint { .. } => "checkpoint",
            JournalRecord::JobCompleted { .. } => "job_completed",
            JournalRecord::JobDispatched { .. } => "job_dispatched",
            JournalRecord::NodeLost { .. } => "node_lost",
            JournalRecord::StreamOpened { .. } => "stream_opened",
            JournalRecord::BatchSubmitted { .. } => "batch_submitted",
            JournalRecord::BatchCompleted { .. } => "batch_completed",
        }
    }

    /// Encode into the framed, checksummed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        match self {
            JournalRecord::AreaCreated { name, disk, bytes } => {
                body.push(T_AREA_CREATED);
                put_str(&mut body, name);
                body.extend_from_slice(&disk.to_le_bytes());
                body.extend_from_slice(&bytes.to_le_bytes());
            }
            JournalRecord::AreaDeleted { name } => {
                body.push(T_AREA_DELETED);
                put_str(&mut body, name);
            }
            JournalRecord::JobSubmitted { job, line } => {
                body.push(T_JOB_SUBMITTED);
                body.extend_from_slice(&job.to_le_bytes());
                put_str(&mut body, line);
            }
            JournalRecord::Checkpoint { job, pass } => {
                body.push(T_CHECKPOINT);
                body.extend_from_slice(&job.to_le_bytes());
                body.extend_from_slice(&pass.to_le_bytes());
            }
            JournalRecord::JobCompleted {
                job,
                pairs,
                checksum,
                ok,
            } => {
                body.push(T_JOB_COMPLETED);
                body.extend_from_slice(&job.to_le_bytes());
                body.extend_from_slice(&pairs.to_le_bytes());
                body.extend_from_slice(&checksum.to_le_bytes());
                body.push(*ok as u8);
            }
            JournalRecord::JobDispatched { job, node } => {
                body.push(T_JOB_DISPATCHED);
                body.extend_from_slice(&job.to_le_bytes());
                put_str(&mut body, node);
            }
            JournalRecord::NodeLost { node } => {
                body.push(T_NODE_LOST);
                put_str(&mut body, node);
            }
            JournalRecord::StreamOpened { line } => {
                body.push(T_STREAM_OPENED);
                put_str(&mut body, line);
            }
            JournalRecord::BatchSubmitted { batch, line } => {
                body.push(T_BATCH_SUBMITTED);
                body.extend_from_slice(&batch.to_le_bytes());
                put_str(&mut body, line);
            }
            JournalRecord::BatchCompleted {
                batch,
                pairs,
                checksum,
                misses,
            } => {
                body.push(T_BATCH_COMPLETED);
                body.extend_from_slice(&batch.to_le_bytes());
                body.extend_from_slice(&pairs.to_le_bytes());
                body.extend_from_slice(&checksum.to_le_bytes());
                body.extend_from_slice(&misses.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Decode one record from the front of `buf`. Returns the record
    /// and the total frame bytes consumed, or `None` for anything that
    /// is not a complete, checksum-valid record.
    pub fn decode(buf: &[u8]) -> Option<(JournalRecord, usize)> {
        let len = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?) as usize;
        // A zero body cannot hold a type byte; this also rejects the
        // zero-filled unused tail of a pre-sized journal file.
        if len == 0 {
            return None;
        }
        let body = buf.get(4..4 + len)?;
        let crc = u32::from_le_bytes(buf.get(4 + len..8 + len)?.try_into().ok()?);
        if crc32(body) != crc {
            return None;
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        let rec = match cur.u8()? {
            T_AREA_CREATED => JournalRecord::AreaCreated {
                name: cur.string()?,
                disk: cur.u32()?,
                bytes: cur.u64()?,
            },
            T_AREA_DELETED => JournalRecord::AreaDeleted {
                name: cur.string()?,
            },
            T_JOB_SUBMITTED => JournalRecord::JobSubmitted {
                job: cur.u64()?,
                line: cur.string()?,
            },
            T_CHECKPOINT => JournalRecord::Checkpoint {
                job: cur.u64()?,
                pass: cur.u32()?,
            },
            T_JOB_COMPLETED => JournalRecord::JobCompleted {
                job: cur.u64()?,
                pairs: cur.u64()?,
                checksum: cur.u64()?,
                ok: cur.u8()? != 0,
            },
            T_JOB_DISPATCHED => JournalRecord::JobDispatched {
                job: cur.u64()?,
                node: cur.string()?,
            },
            T_NODE_LOST => JournalRecord::NodeLost {
                node: cur.string()?,
            },
            T_STREAM_OPENED => JournalRecord::StreamOpened {
                line: cur.string()?,
            },
            T_BATCH_SUBMITTED => JournalRecord::BatchSubmitted {
                batch: cur.u64()?,
                line: cur.string()?,
            },
            T_BATCH_COMPLETED => JournalRecord::BatchCompleted {
                batch: cur.u64()?,
                pairs: cur.u64()?,
                checksum: cur.u64()?,
                misses: cur.u64()?,
            },
            _ => return None,
        };
        // The payload must be exactly consumed: a valid checksum over a
        // malformed body (e.g. from a future record version) is not
        // accepted.
        if cur.pos != body.len() {
            return None;
        }
        Some((rec, 8 + len))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::AreaCreated {
                name: "w.RP_0#t3".into(),
                disk: 0,
                bytes: 65_536,
            },
            JournalRecord::AreaDeleted {
                name: "RS_2".into(),
            },
            JournalRecord::JobSubmitted {
                job: 7,
                line: "name=q1 objects=2000 d=2 seed=9".into(),
            },
            JournalRecord::Checkpoint { job: 7, pass: 1 },
            JournalRecord::JobCompleted {
                job: 7,
                pairs: 2000,
                checksum: 0xDEAD_BEEF_CAFE,
                ok: true,
            },
            JournalRecord::JobDispatched {
                job: 7,
                node: "node-1".into(),
            },
            JournalRecord::NodeLost {
                node: "node-1".into(),
            },
            JournalRecord::StreamOpened {
                line: "resident=s0 objects=4000 d=2 seed=5".into(),
            },
            JournalRecord::BatchSubmitted {
                batch: 12,
                line: "batch=b12 objects=256 seed=12".into(),
            },
            JournalRecord::BatchCompleted {
                batch: 12,
                pairs: 250,
                checksum: 0xFEED_F00D,
                misses: 6,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for rec in samples() {
            let wire = rec.encode();
            let (back, used) = JournalRecord::decode(&wire).unwrap();
            assert_eq!(back, rec);
            assert_eq!(used, wire.len());
            // Re-encoding is bitwise identical.
            assert_eq!(back.encode(), wire);
        }
    }

    #[test]
    fn any_truncation_is_rejected() {
        for rec in samples() {
            let wire = rec.encode();
            for cut in 0..wire.len() {
                assert!(
                    JournalRecord::decode(&wire[..cut]).is_none(),
                    "{}: truncation to {cut} accepted",
                    rec.kind()
                );
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let rec = JournalRecord::JobSubmitted {
            job: 3,
            line: "objects=1000".into(),
        };
        let wire = rec.encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                match JournalRecord::decode(&bad) {
                    None => {}
                    // A flip in the length prefix may still frame a
                    // valid-looking record only if the checksum agrees —
                    // which CRC32 makes impossible for a 1-bit change.
                    Some((got, _)) => assert_eq!(got, rec, "flip at {byte}.{bit} misdecoded"),
                }
            }
        }
    }

    #[test]
    fn zero_fill_terminates() {
        assert!(JournalRecord::decode(&[0u8; 64]).is_none());
        assert!(JournalRecord::decode(&[]).is_none());
    }
}

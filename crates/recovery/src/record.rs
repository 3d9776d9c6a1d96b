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
//!
//! Each tier journals only what its resume reads: serve and the cluster
//! coordinator a submission and a completion per job, the stream tier
//! its header plus a submission and a completion per op. Older journals
//! also hold frames of five retired types (area lifecycle, per-pass
//! checkpoints, cluster dispatch and node loss). Those still decode as
//! CRC-checked frames of their old layout, which the scan steps over;
//! their tags stay reserved and are never reused.

use crate::crc::crc32;

/// Record type tags (the `type` byte). Tags 1, 2, 4, 6 and 7 belong to
/// the retired types and are reserved.
const T_RETIRED_AREA_CREATED: u8 = 1;
const T_RETIRED_AREA_DELETED: u8 = 2;
const T_JOB_SUBMITTED: u8 = 3;
const T_RETIRED_CHECKPOINT: u8 = 4;
const T_JOB_COMPLETED: u8 = 5;
const T_RETIRED_JOB_DISPATCHED: u8 = 6;
const T_RETIRED_NODE_LOST: u8 = 7;
const T_STREAM_OPENED: u8 = 8;
const T_BATCH_SUBMITTED: u8 = 9;
const T_BATCH_COMPLETED: u8 = 10;

/// One durable journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A job was admitted into the service with this id; `line` is the
    /// job request re-encoded in the job-file grammar, so replay can
    /// re-submit it verbatim.
    JobSubmitted {
        /// Service job id.
        job: u64,
        /// `key=value` job line reproducing the request.
        line: String,
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
            JournalRecord::JobSubmitted { .. } => "job_submitted",
            JournalRecord::JobCompleted { .. } => "job_completed",
            JournalRecord::StreamOpened { .. } => "stream_opened",
            JournalRecord::BatchSubmitted { .. } => "batch_submitted",
            JournalRecord::BatchCompleted { .. } => "batch_completed",
        }
    }

    /// Encode into the framed, checksummed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        match self {
            JournalRecord::JobSubmitted { job, line } => {
                body.push(T_JOB_SUBMITTED);
                body.extend_from_slice(&job.to_le_bytes());
                put_str(&mut body, line);
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
        frame(&body)
    }

    /// Decode one frame from the front of `buf`. Returns the record
    /// (`None` for a frame of a retired type, which the scan steps over)
    /// and the total frame bytes consumed, or `None` for anything that
    /// is not a complete, checksum-valid frame.
    pub fn decode(buf: &[u8]) -> Option<(Option<JournalRecord>, usize)> {
        let (body, used) = unframe(buf)?;
        let mut cur = Cursor::new(body);
        let rec = match cur.u8()? {
            T_JOB_SUBMITTED => Some(JournalRecord::JobSubmitted {
                job: cur.u64()?,
                line: cur.string()?,
            }),
            T_JOB_COMPLETED => Some(JournalRecord::JobCompleted {
                job: cur.u64()?,
                pairs: cur.u64()?,
                checksum: cur.u64()?,
                ok: cur.u8()? != 0,
            }),
            T_STREAM_OPENED => Some(JournalRecord::StreamOpened {
                line: cur.string()?,
            }),
            T_BATCH_SUBMITTED => Some(JournalRecord::BatchSubmitted {
                batch: cur.u64()?,
                line: cur.string()?,
            }),
            T_BATCH_COMPLETED => Some(JournalRecord::BatchCompleted {
                batch: cur.u64()?,
                pairs: cur.u64()?,
                checksum: cur.u64()?,
                misses: cur.u64()?,
            }),
            // Retired types: check the old payload layout, keep nothing.
            T_RETIRED_AREA_CREATED => {
                cur.string()?;
                cur.u32()?;
                cur.u64()?;
                None
            }
            T_RETIRED_AREA_DELETED | T_RETIRED_NODE_LOST => {
                cur.string()?;
                None
            }
            T_RETIRED_CHECKPOINT => {
                cur.u64()?;
                cur.u32()?;
                None
            }
            T_RETIRED_JOB_DISPATCHED => {
                cur.u64()?;
                cur.string()?;
                None
            }
            _ => return None,
        };
        // The payload must be exactly consumed: a valid checksum over a
        // malformed body (e.g. from a future record version) is not
        // accepted.
        if !cur.at_end() {
            return None;
        }
        Some((rec, used))
    }
}

/// Frame `body` (type byte plus payload) with its length and CRC. The
/// cluster wire protocol frames its messages with this too.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// The body of the frame [`frame`] wrote at the front of `buf`, and
/// the frame's total bytes; `None` unless the frame is complete, its
/// CRC matches and its body is not empty. A zero-length body holds no
/// type byte or field; rejecting it also stops a scan at the
/// zero-filled unused tail of a pre-sized journal file.
pub fn unframe(buf: &[u8]) -> Option<(&[u8], usize)> {
    let len = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?) as usize;
    if len == 0 {
        return None;
    }
    let body = buf.get(4..4 + len)?;
    let crc = u32::from_le_bytes(buf.get(4 + len..8 + len)?.try_into().ok()?);
    (crc32(body) == crc).then_some((body, 8 + len))
}

/// Append `s` as a `u32 LE` length plus its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A total reader over a frame body: every accessor returns `None`
/// instead of reading past the end.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Whether every byte has been read: a body must be consumed
    /// exactly to be accepted.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A `u32 LE`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A `u64 LE`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A string written by [`put_str`]; `None` if it is not UTF-8.
    pub fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Hand-built frames of the retired types in their old layout, as
/// an older binary wrote them; `short` drops each payload's last field.
#[cfg(test)]
pub(crate) fn retired_frames(short: bool) -> Vec<Vec<u8>> {
    let layouts: [(u8, &[&[u8]]); 5] = [
        // AreaCreated { name, disk: u32, bytes: u64 }
        (
            T_RETIRED_AREA_CREATED,
            &[
                b"\x0b\0\0\0job3/w.RP_0",
                &[1, 0, 0, 0],
                &[0, 0, 1, 0, 0, 0, 0, 0],
            ],
        ),
        // AreaDeleted { name }
        (T_RETIRED_AREA_DELETED, &[b"\x04\0\0\0RS_2"]),
        // Checkpoint { job: u64, pass: u32 }
        (
            T_RETIRED_CHECKPOINT,
            &[&[3, 0, 0, 0, 0, 0, 0, 0], &[1, 0, 0, 0]],
        ),
        // JobDispatched { job: u64, node }
        (
            T_RETIRED_JOB_DISPATCHED,
            &[&[3, 0, 0, 0, 0, 0, 0, 0], b"\x06\0\0\0node-1"],
        ),
        // NodeLost { node }
        (T_RETIRED_NODE_LOST, &[b"\x06\0\0\0node-1"]),
    ];
    layouts
        .iter()
        .map(|(tag, fields)| {
            let mut body = vec![*tag];
            for field in &fields[..fields.len() - usize::from(short)] {
                body.extend_from_slice(field);
            }
            frame(&body)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobSubmitted {
                job: 7,
                line: "name=q1 objects=2000 d=2 seed=9".into(),
            },
            JournalRecord::JobCompleted {
                job: 7,
                pairs: 2000,
                checksum: 0xDEAD_BEEF_CAFE,
                ok: true,
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
            let back = back.expect("a live record type");
            assert_eq!(back, rec);
            assert_eq!(used, wire.len());
            // Re-encoding is bitwise identical.
            assert_eq!(back.encode(), wire);
        }
    }

    #[test]
    fn any_truncation_is_rejected() {
        // Frames of the retired types too: the scan steps over one only
        // when it is whole.
        let wires = samples()
            .iter()
            .map(JournalRecord::encode)
            .collect::<Vec<_>>();
        for wire in wires.into_iter().chain(retired_frames(false)) {
            for cut in 0..wire.len() {
                assert!(
                    JournalRecord::decode(&wire[..cut]).is_none(),
                    "{wire:?}: truncation to {cut} accepted"
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
                    Some((got, _)) => {
                        assert_eq!(got, Some(rec.clone()), "flip at {byte}.{bit} misdecoded")
                    }
                }
            }
        }
    }

    #[test]
    fn zero_fill_terminates() {
        assert!(JournalRecord::decode(&[0u8; 64]).is_none());
        assert!(JournalRecord::decode(&[]).is_none());
    }

    #[test]
    fn unframe_returns_the_body_and_refuses_an_empty_one() {
        let body = b"\x03payload";
        let mut wire = frame(body);
        let used = wire.len();
        // Bytes past the frame are not part of it.
        wire.extend_from_slice(&[0xAA; 5]);
        assert_eq!(unframe(&wire), Some((&body[..], used)));
        // An empty body is refused although its CRC matches.
        let empty = frame(&[]);
        assert_eq!(empty[4..], crc32(&[]).to_le_bytes());
        assert_eq!(unframe(&empty), None);
    }
}

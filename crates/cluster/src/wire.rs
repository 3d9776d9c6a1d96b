//! The coordinator ⇄ node RPC message vocabulary and its framed,
//! checksummed binary encoding over TCP.
//!
//! The build environment has no serde, so the protocol is hand-rolled
//! on the journal record's framing ([`mmjoin_recovery::record`]):
//!
//! ```text
//! [len: u32 LE] [type: u8] [payload ...] [crc: u32 LE]
//! ```
//!
//! where `len` counts the type byte plus the payload and `crc` is the
//! CRC32 of exactly those bytes. Strings are `u32 LE` length + UTF-8;
//! integers are little-endian fixed width. Decoding is total: a frame
//! that is short, oversized, checksum-invalid, or carries trailing
//! payload bytes is rejected as `InvalidData`, never panicked on.
//!
//! I/O errors surface as `std::io::Error` so the caller can route them
//! through [`EnvError::is_transient`](mmjoin_env::EnvError::is_transient)
//! — connection drops are transient there, which is what lets the
//! coordinator's reconnect/re-queue logic reuse the retry layer's
//! classification instead of growing its own.

use std::io::{self, Read, Write};

use mmjoin_recovery::crc32;
use mmjoin_recovery::record::{frame, put_str, Cursor};

/// Upper bound on one frame's body (type byte + payload). Job lines and
/// node names are short; anything larger is a corrupt length prefix.
pub const MAX_FRAME: usize = 1 << 20;

const T_HELLO: u8 = 1;
const T_RUN_JOB: u8 = 2;
const T_PING: u8 = 3;
const T_PONG: u8 = 4;
const T_JOB_DONE: u8 = 5;
const T_SHUTDOWN: u8 = 6;

/// One RPC message. The coordinator sends `RunJob`/`Ping`/`Shutdown`;
/// a node sends `Hello` (once, on connect) and `Pong`/`JobDone`.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A node's registration, sent immediately after the coordinator
    /// connects: its name and the capacity admission control plans
    /// against.
    Hello {
        /// Node name (unique per cluster).
        node: String,
        /// Budget bytes the node's local service admits against.
        budget_bytes: u64,
        /// Worker threads the node runs.
        workers: u32,
    },
    /// Dispatch one job. At-least-once: the coordinator may resend a
    /// `RunJob` it is unsure about, and the node dedups by `job` id.
    RunJob {
        /// Cluster job id.
        job: u64,
        /// The request in the job-file grammar
        /// ([`JobRequest::to_line`](mmjoin_serve::JobRequest::to_line)).
        line: String,
    },
    /// Heartbeat probe.
    Ping {
        /// Echo-matched sequence number.
        seq: u64,
    },
    /// Heartbeat reply.
    Pong {
        /// The probed sequence number.
        seq: u64,
    },
    /// A job finished on the node. Resent verbatim on reconnect until
    /// the coordinator has durably recorded it (dedup by `job` id makes
    /// the resend harmless).
    JobDone {
        /// Cluster job id.
        job: u64,
        /// Algorithm that actually ran (planner-chosen on the node).
        alg: String,
        /// Joined pairs produced.
        pairs: u64,
        /// Order-independent join checksum.
        checksum: u64,
        /// Whether the result verified against the workload oracle.
        ok: bool,
        /// Failure message; empty means none.
        error: String,
    },
    /// Orderly stop: the node exits its serve loop.
    Shutdown,
}

impl Message {
    /// Stable snake_case tag (log/debug labelling).
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::RunJob { .. } => "run_job",
            Message::Ping { .. } => "ping",
            Message::Pong { .. } => "pong",
            Message::JobDone { .. } => "job_done",
            Message::Shutdown => "shutdown",
        }
    }

    /// Encode into the framed, checksummed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(48);
        match self {
            Message::Hello {
                node,
                budget_bytes,
                workers,
            } => {
                body.push(T_HELLO);
                put_str(&mut body, node);
                body.extend_from_slice(&budget_bytes.to_le_bytes());
                body.extend_from_slice(&workers.to_le_bytes());
            }
            Message::RunJob { job, line } => {
                body.push(T_RUN_JOB);
                body.extend_from_slice(&job.to_le_bytes());
                put_str(&mut body, line);
            }
            Message::Ping { seq } => {
                body.push(T_PING);
                body.extend_from_slice(&seq.to_le_bytes());
            }
            Message::Pong { seq } => {
                body.push(T_PONG);
                body.extend_from_slice(&seq.to_le_bytes());
            }
            Message::JobDone {
                job,
                alg,
                pairs,
                checksum,
                ok,
                error,
            } => {
                body.push(T_JOB_DONE);
                body.extend_from_slice(&job.to_le_bytes());
                put_str(&mut body, alg);
                body.extend_from_slice(&pairs.to_le_bytes());
                body.extend_from_slice(&checksum.to_le_bytes());
                body.push(*ok as u8);
                put_str(&mut body, error);
            }
            Message::Shutdown => body.push(T_SHUTDOWN),
        }
        frame(&body)
    }

    /// Decode one message from a complete frame body (the bytes `len`
    /// counted, checksum already verified). Total: malformed input
    /// yields `None`.
    fn decode_body(body: &[u8]) -> Option<Message> {
        let mut cur = Cursor::new(body);
        let msg = match cur.u8()? {
            T_HELLO => Message::Hello {
                node: cur.string()?,
                budget_bytes: cur.u64()?,
                workers: cur.u32()?,
            },
            T_RUN_JOB => Message::RunJob {
                job: cur.u64()?,
                line: cur.string()?,
            },
            T_PING => Message::Ping { seq: cur.u64()? },
            T_PONG => Message::Pong { seq: cur.u64()? },
            T_JOB_DONE => Message::JobDone {
                job: cur.u64()?,
                alg: cur.string()?,
                pairs: cur.u64()?,
                checksum: cur.u64()?,
                ok: cur.u8()? != 0,
                error: cur.string()?,
            },
            T_SHUTDOWN => Message::Shutdown,
            _ => return None,
        };
        // The payload must be exactly consumed; a valid checksum over a
        // longer body (a future protocol version) is not accepted.
        if !cur.at_end() {
            return None;
        }
        Some(msg)
    }
}

/// Write one message to `w` (unbuffered; messages are small and the
/// protocol is latency- not throughput-bound).
pub fn write_msg<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    w.write_all(&msg.encode())?;
    w.flush()
}

/// Incremental frame reader: one per connection, holding partial-frame
/// state across calls.
///
/// The coordinator and node block on their sockets with no read
/// timeout, but a frame can still arrive split across TCP segments, so
/// one `read` may return only part of it. Bytes read so far are kept
/// here until the frame is whole. The state also outlives a failed
/// call: where a read *is* bounded (the coordinator's wait for `Hello`,
/// a test peer with a timeout), `WouldBlock`/`TimedOut` can land after
/// part of a frame has been consumed, and the next
/// [`FrameReader::read_msg`] call resumes where it cut in. Without
/// that, a resumed read would parse from mid-frame and a healthy
/// stream would look corrupt (checksum mismatch → the peer declared
/// dead).
#[derive(Default)]
pub struct FrameReader {
    /// Bytes of the in-progress frame, length prefix included.
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with no partial frame.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read one message from `r`, resuming any partial frame left by a
    /// previous call. Returns `Ok(None)` on a clean EOF at a frame
    /// boundary (the peer closed the connection); EOF mid-frame is
    /// `UnexpectedEof`, a bad checksum or malformed payload
    /// `InvalidData`. `WouldBlock`/`TimedOut` surface to the caller
    /// with the partial frame preserved for the next call.
    pub fn read_msg<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Message>> {
        loop {
            let need = match self.frame_len()? {
                Some(total) if self.buf.len() >= total => {
                    let msg = parse_frame(&self.buf[4..]);
                    self.buf.clear();
                    return msg.map(Some);
                }
                Some(total) => total - self.buf.len(),
                None => 4 - self.buf.len(),
            };
            let start = self.buf.len();
            self.buf.resize(start + need, 0);
            match r.read(&mut self.buf[start..]) {
                Ok(0) => {
                    self.buf.truncate(start);
                    return if start == 0 {
                        // A clean close before any byte of the next
                        // frame is a normal end of stream.
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => self.buf.truncate(start + n),
                Err(e) => {
                    self.buf.truncate(start);
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Total frame size (prefix + body + crc) once the length prefix is
    /// complete, `None` while still inside it. A corrupt length fails
    /// here, before any body allocation.
    fn frame_len(&self) -> io::Result<Option<usize>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4-byte prefix")) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        Ok(Some(4 + len + 4))
    }
}

/// Verify and decode one complete frame (body + trailing crc).
fn parse_frame(rest: &[u8]) -> io::Result<Message> {
    let (body, crc_bytes) = rest.split_at(rest.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
    if crc32(body) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    match Message::decode_body(body) {
        Some(msg) => Ok(msg),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed frame payload",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                node: "node-a".into(),
                budget_bytes: 1 << 24,
                workers: 4,
            },
            Message::RunJob {
                job: 9,
                line: "name=q1 alg=grace objects=2000 d=2 mem-pages=16 seed=7".into(),
            },
            Message::Ping { seq: 42 },
            Message::Pong { seq: 42 },
            Message::JobDone {
                job: 9,
                alg: "grace".into(),
                pairs: 2000,
                checksum: 0xC0FFEE,
                ok: true,
                error: String::new(),
            },
            Message::JobDone {
                job: 10,
                alg: "auto".into(),
                pairs: 0,
                checksum: 0,
                ok: false,
                error: "deadline exceeded".into(),
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn round_trips_through_a_stream() {
        let mut buf = Vec::new();
        for msg in samples() {
            write_msg(&mut buf, &msg).unwrap();
        }
        let mut r = IoCursor::new(buf);
        let mut reader = FrameReader::new();
        for want in samples() {
            let got = reader.read_msg(&mut r).unwrap().expect("message present");
            assert_eq!(got, want);
        }
        assert!(
            reader.read_msg(&mut r).unwrap().is_none(),
            "clean EOF at the end"
        );
    }

    #[test]
    fn truncation_mid_frame_is_unexpected_eof() {
        let wire = Message::RunJob {
            job: 1,
            line: "objects=1000".into(),
        }
        .encode();
        for cut in 1..wire.len() {
            let mut r = IoCursor::new(wire[..cut].to_vec());
            let err = FrameReader::new().read_msg(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    /// Delivers one byte per read, with a `WouldBlock` between every
    /// pair — the worst case of a frame split across TCP segments under
    /// a poll-style read timeout.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        starve: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if self.starve {
                self.starve = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "starved"));
            }
            self.starve = true;
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_byte_by_byte_delivery_with_timeouts() {
        let mut wire = Vec::new();
        for msg in samples() {
            write_msg(&mut wire, &msg).unwrap();
        }
        let mut r = Trickle {
            data: wire,
            pos: 0,
            starve: false,
        };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.read_msg(&mut r) {
                Ok(Some(msg)) => got.push(msg),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, samples(), "partial frames must reassemble exactly");
    }

    #[test]
    fn corruption_is_invalid_data() {
        let wire = Message::Ping { seq: 7 }.encode();
        // Flip a payload bit: checksum mismatch.
        let mut bad = wire.clone();
        bad[6] ^= 1;
        let err = FrameReader::new()
            .read_msg(&mut IoCursor::new(bad))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Zero and oversized lengths are rejected before allocation.
        for len in [0u32, (MAX_FRAME as u32) + 1] {
            let mut framed = len.to_le_bytes().to_vec();
            framed.extend_from_slice(&[0u8; 16]);
            let err = FrameReader::new()
                .read_msg(&mut IoCursor::new(framed))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
        }
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_rejected() {
        // Hand-build a frame with an unknown type byte but valid CRC.
        let body = [200u8, 1, 2, 3];
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = FrameReader::new()
            .read_msg(&mut IoCursor::new(wire))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A valid message with a trailing payload byte: also rejected.
        let mut body = Message::Ping { seq: 1 }.encode()[4..13].to_vec();
        body.push(0xAB);
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = FrameReader::new()
            .read_msg(&mut IoCursor::new(wire))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn connection_errors_classify_as_transient() {
        // The contract the reconnect logic relies on: wire-level
        // connection failures route into the retry layer as transient.
        let e = io::Error::new(io::ErrorKind::ConnectionReset, "peer died");
        assert!(mmjoin_env::EnvError::from(e).is_transient());
        let e = io::Error::new(io::ErrorKind::UnexpectedEof, "mid-frame close");
        assert!(mmjoin_env::EnvError::from(e).is_transient());
        // Corruption is not: retrying a malformed frame cannot help.
        let e = io::Error::new(io::ErrorKind::InvalidData, "crc");
        assert!(!mmjoin_env::EnvError::from(e).is_transient());
    }
}

//! The write-ahead journal: an append-only, checksummed record log on
//! one [`Env`] file, with an explicit flush-before-commit ordering.
//!
//! # Layout
//!
//! ```text
//! offset 0           HEADER_SIZE                       capacity
//! | header page ... | record | record | ... | zero fill ...   |
//! ```
//!
//! The header holds `magic`, `version`, a `committed` watermark (bytes
//! of record area durably committed) and a CRC32 over those fields.
//! Records are framed and checksummed individually
//! ([`JournalRecord::encode`]).
//!
//! # Flush-before-commit
//!
//! [`Journal::commit`] performs, in order:
//!
//! 1. `file.sync()` — every appended record is durable;
//! 2. header rewrite with the new `committed` watermark, *not* synced:
//!    it becomes durable with the next commit's sync (or any later one).
//!
//! One sync per commit. The header is only ever written after the
//! records it vouches for are durable, so a crash never yields a
//! durable watermark pointing at data that did not land (the exemplar
//! ordering of pmem logs: flush/drain the data, then the commit
//! record); at worst the durable watermark lags one commit behind
//! records the scan adopts anyway. Torn or corrupted *records* are
//! still possible — the per-record CRC32 catches them, and
//! [`Journal::open`] stops its scan at the first invalid record, so any
//! prefix-truncated journal replays to a consistent prefix state. The
//! scan reads the record area [`SCAN_BLOCK`] bytes at a time and stops
//! reading where it stops decoding, so an open costs the journal's used
//! bytes, not its capacity.
//!
//! What the lag costs: [`JournalStats::torn_bytes`] measures damage
//! only up to the *durable* watermark, so a record of the newest commit
//! that is damaged on disk while the header still lags looks like a
//! clean end of the log rather than a torn committed region.
//!
//! Records *beyond* the committed watermark that scan as CRC-valid are
//! adopted too: they were fully written but the crash preceded their
//! commit, and every record type is idempotent under replay (see
//! `replay.rs`), so adopting them only recovers more truth. Frames of a
//! retired record type are checked like any other and then skipped.
//!
//! A refused [`Journal::append_commit`] is undone before it returns:
//! the tail rolls back to the watermark and the refused bytes are
//! zeroed and synced, so neither the next commit nor a reopen's scan
//! adopts the record. If that erase fails too, the journal closes.

use mmjoin_env::{DiskId, Env, EnvError, FileOps, ProcId, Result, TraceEvent};

use crate::crc::crc32;
use crate::record::JournalRecord;

const MAGIC: u64 = 0x6D6D_6A6F_696E_574C; // "mmjoinWL"
const VERSION: u32 = 1;

/// Bytes reserved for the header at the head of the journal file (one
/// page keeps the record area page-aligned).
pub const HEADER_SIZE: u64 = 4096;

/// Capacity every tier creates its journal with: room for thousands
/// of jobs' or tens of thousands of stream ops' records.
pub const JOURNAL_CAPACITY: u64 = 4 << 20;

/// Bytes of record area an open's replay scan reads at a time.
pub const SCAN_BLOCK: u64 = 64 << 10;

/// Counters describing a journal's lifetime and its last replay,
/// surfaced in the service stats JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended in this process.
    pub appended_records: u64,
    /// Frame bytes appended in this process.
    pub appended_bytes: u64,
    /// Commits performed: each made every record appended before it
    /// durable.
    pub commits: u64,
    /// `sync` calls issued: one per create and per commit, plus one per
    /// rollback and per torn-tail re-commit.
    pub syncs: u64,
    /// CRC-valid records adopted by the last open-replay.
    pub replayed_records: u64,
    /// Bytes between the scan stop and the durable committed watermark
    /// — a torn or corrupted committed region (0 in a clean shutdown;
    /// blind to the newest commit while its header lags, see the
    /// module docs).
    pub torn_bytes: u64,
}

/// What [`Journal::open`] recovered.
#[derive(Default)]
pub struct Replayed {
    /// Every CRC-valid record of a live type, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of committed region lost to a torn/corrupt tail.
    pub torn_bytes: u64,
}

/// A write-ahead journal over one environment file.
pub struct Journal<E: Env> {
    env: E,
    file: E::File,
    proc: ProcId,
    /// Next append offset.
    tail: u64,
    /// Durable watermark from the last commit.
    committed: u64,
    /// End of the furthest write attempted past `committed`: what a
    /// refused commit must erase.
    dirty: u64,
    /// Why the journal closed, if a refused commit could not be erased.
    closed: Option<String>,
    capacity: u64,
    stats: JournalStats,
}

impl<E: Env> Journal<E> {
    /// Create a fresh journal file named `name` on disk 0 of `env`,
    /// sized to `capacity` bytes, and commit its empty header.
    pub fn create(env: E, name: &str, capacity: u64, proc: ProcId) -> Result<Journal<E>> {
        if capacity < HEADER_SIZE * 2 {
            return Err(EnvError::InvalidConfig(format!(
                "journal capacity {capacity} below minimum {}",
                HEADER_SIZE * 2
            )));
        }
        let file = env.create_file(proc, name, DiskId(0), capacity)?;
        let mut j = Journal {
            env,
            file,
            proc,
            tail: HEADER_SIZE,
            committed: HEADER_SIZE,
            dirty: HEADER_SIZE,
            closed: None,
            capacity,
            stats: JournalStats::default(),
        };
        j.write_header(HEADER_SIZE)?;
        j.sync()?;
        Ok(j)
    }

    /// Open a tier's journal `name` in `env`: when `resume` finds the
    /// file, open and replay it (the replay is `Some`); otherwise delete
    /// any stale file of that name and create a fresh one of
    /// [`JOURNAL_CAPACITY`] bytes. The tier only builds `env`.
    pub fn open_or_create(
        env: E,
        name: &str,
        resume: bool,
        proc: ProcId,
    ) -> Result<(Journal<E>, Option<Replayed>)> {
        let found = env.list_files().iter().any(|n| n == name);
        if resume && found {
            let (journal, replayed) = Self::open(env, name, proc)?;
            return Ok((journal, Some(replayed)));
        }
        if found {
            env.delete_file(proc, name)?;
        }
        Ok((Self::create(env, name, JOURNAL_CAPACITY, proc)?, None))
    }

    /// Open an existing journal and replay it: validate the header,
    /// scan CRC-valid records from the head of the record area, stop at
    /// the first invalid frame, reading only up to there (plus at most
    /// one [`SCAN_BLOCK`]). Appends resume after the last valid record.
    pub fn open(env: E, name: &str, proc: ProcId) -> Result<(Journal<E>, Replayed)> {
        let file = env.open_file(proc, name)?;
        let capacity = file.len();
        if capacity < HEADER_SIZE * 2 {
            return Err(EnvError::InvalidConfig(format!(
                "{name}: journal file too small ({capacity} bytes)"
            )));
        }
        let mut header = [0u8; 24];
        file.read_at(proc, 0, &mut header)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let committed = u64::from_le_bytes(header[12..20].try_into().unwrap());
        let crc = u32::from_le_bytes(header[20..24].try_into().unwrap());
        if magic != MAGIC {
            return Err(EnvError::InvalidConfig(format!(
                "{name} is not a journal file"
            )));
        }
        if version != VERSION {
            return Err(EnvError::InvalidConfig(format!(
                "{name}: journal version {version} unsupported"
            )));
        }
        if crc32(&header[0..20]) != crc || committed < HEADER_SIZE || committed > capacity {
            // The header write itself was torn. The committed watermark
            // is untrustworthy; fall back to scanning from the start of
            // the record area (record CRCs are the ground truth).
            return Self::scan_from(env, file, proc, capacity, HEADER_SIZE);
        }
        Self::scan_from(env, file, proc, capacity, committed)
    }

    fn scan_from(
        env: E,
        file: E::File,
        proc: ProcId,
        capacity: u64,
        committed: u64,
    ) -> Result<(Journal<E>, Replayed)> {
        let (records, tail) = scan_area(&file, proc, capacity - HEADER_SIZE, SCAN_BLOCK)?;
        let tail = HEADER_SIZE + tail;
        let torn_bytes = committed.saturating_sub(tail);
        let stats = JournalStats {
            replayed_records: records.len() as u64,
            torn_bytes,
            ..JournalStats::default()
        };
        // Records adopted past the watermark have been replayed, so they
        // count as committed: a refused commit must not erase them.
        let mut j = Journal {
            env,
            file,
            proc,
            tail,
            committed: tail,
            dirty: tail,
            closed: None,
            capacity,
            stats,
        };
        // Re-commit at the scan stop so the watermark no longer points
        // into the discarded torn region.
        if torn_bytes > 0 {
            j.write_header(tail)?;
            j.sync()?;
        }
        Ok((
            j,
            Replayed {
                records,
                torn_bytes,
            },
        ))
    }

    fn write_header(&self, committed: u64) -> Result<()> {
        self.file.write_at(self.proc, 0, &encode_header(committed))
    }

    /// Make every prior write durable, counted in [`JournalStats::syncs`].
    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        self.file.sync(self.proc)
    }

    /// Append one record (not yet durable — call [`Journal::commit`]).
    /// Emits a `journal_append` trace event through the environment.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<()> {
        if let Some(why) = &self.closed {
            return Err(EnvError::InvalidConfig(format!(
                "journal closed: a refused commit could not be erased ({why})"
            )));
        }
        let wire = rec.encode();
        let end = self.tail + wire.len() as u64;
        if end > self.capacity {
            return Err(EnvError::InvalidConfig(format!(
                "journal full: {} of {} bytes used, record needs {}",
                self.tail,
                self.capacity,
                wire.len()
            )));
        }
        // A failed write may still land some bytes.
        self.dirty = self.dirty.max(end);
        self.file.write_at(self.proc, self.tail, &wire)?;
        self.tail = end;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += wire.len() as u64;
        self.env.trace(
            self.proc,
            TraceEvent::JournalAppend {
                kind: rec.kind().to_string(),
                bytes: wire.len() as u64,
            },
        );
        Ok(())
    }

    /// Make every appended record durable, then advance the committed
    /// watermark — the flush-before-commit ordering (see module docs).
    /// One sync: the new watermark rides the next one.
    pub fn commit(&mut self) -> Result<()> {
        if self.tail == self.committed {
            return Ok(());
        }
        // 1. Data durable first.
        self.sync()?;
        // 2. Then the watermark, which vouches only for synced records.
        self.write_header(self.tail)?;
        self.committed = self.tail;
        self.dirty = self.tail;
        self.stats.commits += 1;
        Ok(())
    }

    /// Append and immediately commit; the one commit every tier makes.
    /// On `Err` the refused record is erased (or, if that fails, the
    /// journal closes), so it never replays.
    pub fn append_commit(&mut self, rec: &JournalRecord) -> Result<()> {
        let result = self.append(rec).and_then(|()| self.commit());
        if result.is_err() && self.dirty > self.committed {
            self.roll_back();
        }
        result
    }

    /// Undo a refused commit: zero every byte written past the
    /// watermark, re-write the watermark, and sync, so that neither the
    /// next commit nor a reopen's scan adopts the refused record. If
    /// the erase fails as well, close the journal.
    fn roll_back(&mut self) {
        let zeros = vec![0u8; (self.dirty - self.committed) as usize];
        let erased = self
            .file
            .write_at(self.proc, self.committed, &zeros)
            .and_then(|()| self.write_header(self.committed))
            .and_then(|()| self.sync());
        self.tail = self.committed;
        match erased {
            Ok(()) => self.dirty = self.committed,
            Err(e) => self.closed = Some(e.to_string()),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JournalStats {
        self.stats.clone()
    }

    /// Bytes of record area in use.
    pub fn used_bytes(&self) -> u64 {
        self.tail - HEADER_SIZE
    }
}

/// The header naming `committed` as the durable watermark.
fn encode_header(committed: u64) -> [u8; 24] {
    let mut header = [0u8; 24];
    header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&committed.to_le_bytes());
    let crc = crc32(&header[0..20]);
    header[20..24].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Decode the frames at the head of a record area of `area` bytes,
/// reading it `block` bytes at a time. The next block is read only
/// when the frame at the stop point runs past what has been read: its
/// length prefix, or the `8 + len` bytes it declares. The scan stops
/// at a frame that is complete but does not decode, at a frame that
/// would end past the area, and at the end of the area, which are
/// exactly the places a decode loop over the whole area stops. So it
/// returns the same records and stop offset, having read the used
/// prefix of the area plus at most one block (or as far as a corrupt
/// length prefix at the stop point declares, within the area).
fn scan_area<F: FileOps>(
    file: &F,
    proc: ProcId,
    area: u64,
    block: u64,
) -> Result<(Vec<JournalRecord>, u64)> {
    let mut records = Vec::new();
    // Record-area bytes `base..base + buf.len()`; the scan is at `off`.
    let (mut buf, mut base, mut off) = (Vec::new(), 0u64, 0usize);
    loop {
        let rest = &buf[off..];
        if let Some((rec, used)) = JournalRecord::decode(rest) {
            records.extend(rec);
            off += used;
            continue;
        }
        let need = match *rest {
            // No frame has an empty body: this is the zero fill past
            // the last record.
            [0, 0, 0, 0, ..] => break,
            [a, b, c, d, ..] => 8 + u64::from(u32::from_le_bytes([a, b, c, d])),
            _ => 4,
        };
        let at = base + off as u64;
        if rest.len() as u64 >= need || at + need > area {
            break;
        }
        // Keep only the incomplete frame, then read whole blocks up to
        // its end.
        buf.drain(..off);
        (base, off) = (at, 0);
        let have = buf.len();
        let end = (at + need).next_multiple_of(block).min(area);
        buf.resize((end - base) as usize, 0);
        file.read_at(proc, HEADER_SIZE + base + have as u64, &mut buf[have..])?;
    }
    Ok((records, base + off as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::retired_frames;
    use crate::replay::ReplayState;
    use mmjoin_env::{FaultSpec, FaultyEnv};

    fn sim() -> mmjoin_vmsim::SimEnv {
        mmjoin_vmsim::SimEnv::new(mmjoin_vmsim::SimConfig::waterloo96(1)).unwrap()
    }

    const P: ProcId = ProcId(0);

    fn done(job: u64, pairs: u64) -> JournalRecord {
        JournalRecord::JobCompleted {
            job,
            pairs,
            checksum: 0,
            ok: true,
        }
    }

    #[test]
    fn create_append_commit_reopen() {
        let env = sim();
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        j.append_commit(&JournalRecord::JobSubmitted {
            job: 1,
            line: "objects=1000".into(),
        })
        .unwrap();
        j.append_commit(&done(1, 0)).unwrap();
        assert_eq!(j.stats().appended_records, 2);
        assert_eq!(j.stats().commits, 2);
        drop(j);
        let (j2, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            replay.records[0],
            JournalRecord::JobSubmitted {
                job: 1,
                line: "objects=1000".into()
            }
        );
        assert_eq!(j2.stats().replayed_records, 2);
    }

    #[test]
    fn uncommitted_but_fully_written_records_are_adopted() {
        let env = sim();
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        j.append_commit(&done(1, 0)).unwrap();
        // Appended, synced by the simulator's immediate durability, but
        // never committed: the crash happened before the watermark moved.
        j.append(&done(2, 0)).unwrap();
        drop(j);
        let (_, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(
            replay.records.len(),
            2,
            "valid past-watermark record adopted"
        );
    }

    #[test]
    fn torn_write_in_tail_is_detected_and_cut() {
        // Inject a torn write into the *second* record's append; the
        // journal survives with the first record intact.
        let base = sim();
        let spec = FaultSpec::parse("torn_write:after=3:frac=0.3:file=wal").unwrap();
        let env = mmjoin_env::FaultyEnv::new(base.clone(), spec);
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        j.append_commit(&done(9, 0)).unwrap();
        j.append_commit(&JournalRecord::JobSubmitted {
            job: 9,
            line: "name=torn objects=4000".into(),
        })
        .unwrap();
        drop(j);
        let (j2, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(replay.records.len(), 1, "torn second record discarded");
        assert_eq!(replay.records[0], done(9, 0));
        assert!(replay.torn_bytes > 0, "torn bytes reported");
        assert!(j2.stats().torn_bytes > 0);
    }

    #[test]
    fn bit_corruption_is_detected() {
        let base = sim();
        // Corrupt the second record append (header write is op 1,
        // record appends are the write ops after it).
        let spec = FaultSpec::parse("seed=4;bit_corrupt:after=3:file=wal").unwrap();
        let env = mmjoin_env::FaultyEnv::new(base, spec);
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        for pairs in 0..3 {
            j.append_commit(&done(2, pairs)).unwrap();
        }
        drop(j);
        let (_, replay) = Journal::open(env, "wal", P).unwrap();
        // The scan stops at the corrupted record; the clean prefix
        // survives. (Everything after the flip is discarded even if
        // intact — the consistent-prefix contract.)
        assert!(replay.records.len() < 3);
        assert_eq!(replay.records[0], done(2, 0));
    }

    /// Open a journal whose record area holds exactly `image`, written
    /// past an empty committed watermark as a crashed writer leaves it.
    fn open_image(image: &[u8]) -> Replayed {
        reopen_at(HEADER_SIZE, image).2
    }

    /// Write `bytes` at `offset` of a fresh empty 64 KiB journal, then
    /// reopen it; the environment comes back for a further reopen.
    fn reopen_at(
        offset: u64,
        bytes: &[u8],
    ) -> (
        mmjoin_vmsim::SimEnv,
        Journal<mmjoin_vmsim::SimEnv>,
        Replayed,
    ) {
        reopen_in(1 << 16, offset, bytes)
    }

    /// [`reopen_at`] on a journal of `capacity` bytes.
    fn reopen_in(
        capacity: u64,
        offset: u64,
        bytes: &[u8],
    ) -> (
        mmjoin_vmsim::SimEnv,
        Journal<mmjoin_vmsim::SimEnv>,
        Replayed,
    ) {
        let env = sim();
        drop(Journal::create(env.clone(), "wal", capacity, P).unwrap());
        let file = env.open_file(P, "wal").unwrap();
        file.write_at(P, offset, bytes).unwrap();
        let (j, replayed) = Journal::open(env.clone(), "wal", P).unwrap();
        (env, j, replayed)
    }

    #[test]
    fn each_commit_syncs_once_after_the_create() {
        let env = sim();
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        assert_eq!(j.stats().syncs, 1, "the create's header");
        for k in 1..=5 {
            j.append_commit(&done(k, k)).unwrap();
            assert_eq!((j.stats().commits, j.stats().syncs), (k, 1 + k));
        }
        // Nothing appended: nothing to make durable.
        j.commit().unwrap();
        assert_eq!(j.stats().syncs, 6);
        drop(j);
        let (j, _) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(j.stats().syncs, 0, "a clean reopen re-commits nothing");
    }

    /// A crash keeps only what was synced. After commit k the records
    /// 1..k are durable, the header's watermark may still be the one of
    /// commit k-1, and any prefix of record k+1 (appended, not yet
    /// synced) may have landed. Every such image must replay 1..k, plus
    /// k+1 when it landed whole, with no torn bytes; and the next commit
    /// after the reopen must neither lose nor duplicate a record.
    #[test]
    fn every_image_a_crash_can_leave_replays_the_synced_records() {
        let records = [
            JournalRecord::StreamOpened {
                line: "resident=v objects=1024".into(),
            },
            JournalRecord::JobSubmitted {
                job: 1,
                line: "name=a objects=800 seed=1".into(),
            },
            JournalRecord::BatchSubmitted {
                batch: 2,
                line: "batch=b0 objects=128".into(),
            },
            done(1, 800),
            JournalRecord::BatchCompleted {
                batch: 2,
                pairs: 128,
                checksum: 7,
                misses: 3,
            },
            JournalRecord::JobSubmitted {
                job: 3,
                line: "x".repeat(300),
            },
        ];
        // The whole file after the create and after each commit.
        let env = sim();
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        let peek = || {
            let mut image = vec![0u8; 1 << 16];
            env.peek("wal", 0, &mut image).unwrap();
            image
        };
        let mut images = vec![peek()];
        let mut ends = vec![HEADER_SIZE as usize];
        for rec in &records {
            j.append_commit(rec).unwrap();
            images.push(peek());
            ends.push(HEADER_SIZE as usize + j.used_bytes() as usize);
        }
        let after = done(99, 0);
        for k in 1..records.len() {
            let (end, next_end) = (ends[k], ends[k + 1]);
            let next = &images[k + 1][end..next_end];
            // None, every torn prefix, or all of record k+1's bytes.
            for landed in 0..=next.len() {
                for header in [&images[k - 1], &images[k]] {
                    let mut image = images[k][..next_end].to_vec();
                    image[..HEADER_SIZE as usize].copy_from_slice(&header[..HEADER_SIZE as usize]);
                    image[end..next_end].fill(0);
                    image[end..end + landed].copy_from_slice(&next[..landed]);
                    let (env, mut j, replayed) = reopen_at(0, &image);
                    let whole = landed == next.len();
                    let want = &records[..k + usize::from(whole)];
                    let case = format!("commit {k}, {landed} byte(s) of the next record");
                    assert_eq!(replayed.records, want, "{case}");
                    assert_eq!(replayed.torn_bytes, 0, "{case}");
                    j.append_commit(&after).unwrap();
                    drop(j);
                    let (_, again) = Journal::open(env, "wal", P).unwrap();
                    let mut want = want.to_vec();
                    want.push(after.clone());
                    assert_eq!(again.records, want, "{case}, then one more commit");
                }
            }
        }
    }

    #[test]
    fn retired_frames_in_an_older_journal_resume_to_the_same_jobs() {
        let live = [
            JournalRecord::JobSubmitted {
                job: 3,
                line: "name=a objects=800".into(),
            },
            JournalRecord::JobSubmitted {
                job: 4,
                line: "name=b objects=900".into(),
            },
            done(3, 800),
        ];
        let encode = |recs: &[JournalRecord]| recs.iter().flat_map(|r| r.encode()).collect();
        let plain: Vec<u8> = encode(&live);
        // What an older binary wrote: the same records, with one frame
        // of every retired type between job 3's submission and its
        // completion.
        let mut older: Vec<u8> = encode(&live[..2]);
        older.extend(retired_frames(false).concat());
        older.extend(live[2].encode());
        let (new, old) = (open_image(&plain), open_image(&older));
        assert_eq!(old.records, live);
        assert_eq!(old.torn_bytes, 0);
        let (new, old) = (
            ReplayState::from_records(&new.records),
            ReplayState::from_records(&old.records),
        );
        assert_eq!(old.jobs, new.jobs);
        let ids = |jobs: Vec<(u64, _)>| jobs.into_iter().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(old.completed_jobs()), [3]);
        assert_eq!(ids(old.pending_jobs()), [4]);
        assert_eq!(old.max_job_id(), Some(4));

        // A retired frame whose payload is a field short stops the scan
        // there, as any malformed frame does.
        for short in retired_frames(true) {
            let mut image: Vec<u8> = encode(&live[..2]);
            image.extend(short);
            image.extend(live[2].encode());
            assert_eq!(open_image(&image).records, live[..2]);
        }
    }

    #[test]
    fn a_refused_commit_after_a_reopen_keeps_the_adopted_records() {
        let env = sim();
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        j.append_commit(&done(1, 0)).unwrap();
        j.append(&done(2, 0)).unwrap();
        drop(j);
        // Record 2 is adopted past the watermark and replayed: already
        // visible, so the rollback of a refused commit must keep it.
        let (mut j, replay) = Journal::open(env.clone(), "wal", P).unwrap();
        assert_eq!(replay.records, [done(1, 0), done(2, 0)]);
        let too_big = JournalRecord::JobSubmitted {
            job: 3,
            line: "x".repeat(1 << 16),
        };
        assert!(j.append_commit(&too_big).is_err(), "journal full");
        drop(j);
        let (_, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(replay.records, [done(1, 0), done(2, 0)]);
    }

    /// A journal whose second `append_commit` was refused at its header
    /// write, after its record had landed: a `write` fault on the
    /// `after`+1-th write (the create's header, then a record and a
    /// header per commit), `count` times in a row.
    fn refused_second_commit(
        count: u32,
    ) -> (
        FaultyEnv<mmjoin_vmsim::SimEnv>,
        Journal<FaultyEnv<mmjoin_vmsim::SimEnv>>,
    ) {
        let spec = FaultSpec::parse(&format!("write:file=wal:after=4:count={count}")).unwrap();
        let env = FaultyEnv::new(sim(), spec);
        let mut j = Journal::create(env.clone(), "wal", 1 << 16, P).unwrap();
        j.append_commit(&done(1, 0)).unwrap();
        assert!(
            j.append_commit(&done(2, 0)).is_err(),
            "header write refused"
        );
        (env, j)
    }

    #[test]
    fn a_refused_commit_is_not_carried_by_the_next_one() {
        let (env, mut j) = refused_second_commit(1);
        j.append_commit(&done(3, 0)).unwrap();
        drop(j);
        let (_, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(replay.records, [done(1, 0), done(3, 0)]);
    }

    #[test]
    fn a_refused_commit_does_not_replay_after_a_reopen() {
        let (env, j) = refused_second_commit(1);
        drop(j);
        let (_, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(replay.records, [done(1, 0)]);
    }

    #[test]
    fn a_refused_commit_that_cannot_be_erased_closes_the_journal() {
        // The erase's zero write is refused too.
        let (env, mut j) = refused_second_commit(2);
        let err = j.append_commit(&done(3, 0)).unwrap_err();
        assert!(err.to_string().contains("journal closed"), "{err}");
        drop(j);
        let (_, replay) = Journal::open(env, "wal", P).unwrap();
        assert_eq!(replay.records[0], done(1, 0));
        assert!(!replay.records.contains(&done(3, 0)));
    }

    #[test]
    fn journal_full_is_reported() {
        let env = sim();
        let mut j = Journal::create(env, "wal", HEADER_SIZE * 2, P).unwrap();
        let rec = JournalRecord::JobSubmitted {
            job: 0,
            line: "x".repeat(600),
        };
        let mut appended = 0;
        loop {
            match j.append(&rec) {
                Ok(()) => appended += 1,
                Err(e) => {
                    assert!(e.to_string().contains("journal full"), "{e}");
                    break;
                }
            }
        }
        assert!(appended >= 6, "page of records fit first: {appended}");
    }

    #[test]
    fn capacity_floor_enforced() {
        assert!(Journal::create(sim(), "wal", 100, P).is_err());
    }

    #[test]
    fn an_open_reads_the_used_pages_and_at_most_one_block_more() {
        let env = sim();
        let mut j = Journal::create(env.clone(), "wal", JOURNAL_CAPACITY, P).unwrap();
        for batch in 0.. {
            if j.used_bytes() >= 20 << 10 {
                break;
            }
            let line = format!("batch=b{batch} objects=16 seed={batch}");
            j.append_commit(&JournalRecord::BatchSubmitted { batch, line })
                .unwrap();
        }
        let (used, records) = (j.used_bytes(), j.stats().appended_records);
        drop(j);
        // Put the unused area on disk, as a real file's is, so that a
        // read of it faults and counts rather than zero-filling.
        let rest = JOURNAL_CAPACITY - HEADER_SIZE - used;
        env.preload("wal", HEADER_SIZE + used, &vec![0u8; rest as usize])
            .unwrap();
        env.reset_stats();
        let (j, replayed) = Journal::open(env.clone(), "wal", P).unwrap();
        assert_eq!(replayed.records.len() as u64, records);
        assert_eq!(j.used_bytes(), used);
        let st = &env.stats().procs[P.0 as usize];
        let page = env.page_size();
        let bound = (HEADER_SIZE + used).div_ceil(page) + SCAN_BLOCK / page;
        let touched = st.page_hits + st.fault_read_blocks;
        assert!(touched <= bound, "{touched} pages touched, bound {bound}");
    }

    /// A record-area image of exactly `n` bytes of valid frames (`n` is
    /// 0 or at least [`MIN_FRAME`]) and the records it holds.
    fn frames(n: usize, first_job: u64) -> (Vec<JournalRecord>, Vec<u8>) {
        let (mut recs, mut image) = (Vec::new(), Vec::new());
        let mut left = n;
        while left > 0 {
            // Every piece, and what it leaves, is a whole frame.
            let take = match left {
                l if l > 8000 => 4000,
                l if l > 4000 => l / 2,
                l => l,
            };
            let rec = JournalRecord::JobSubmitted {
                job: first_job + recs.len() as u64,
                line: "x".repeat(take - MIN_FRAME),
            };
            image.extend(rec.encode());
            recs.push(rec);
            left -= take;
        }
        assert_eq!(image.len(), n);
        (recs, image)
    }

    /// Frame bytes of a `JobSubmitted` with an empty line.
    const MIN_FRAME: usize = 21;

    /// The scan the block-wise one must equal: decode frames from the
    /// whole record area until one does not decode.
    fn whole_area_scan(area: &[u8]) -> (Vec<JournalRecord>, u64) {
        let (mut records, mut off) = (Vec::new(), 0);
        while let Some((rec, used)) = JournalRecord::decode(&area[off..]) {
            records.extend(rec);
            off += used;
        }
        (records, off as u64)
    }

    /// Capacity of the journals the scan property opens: three blocks
    /// of record area, so frames straddle two block boundaries.
    const SCAN_CAP: u64 = HEADER_SIZE + 3 * SCAN_BLOCK;

    /// A record-area image: valid frames up to `start`, then one more
    /// valid frame of `len` bytes (so that it straddles whatever
    /// boundary lies inside it), then what `tail` selects.
    fn scan_image(start: usize, len: usize, tail: u32, junk: u64) -> Vec<u8> {
        let area = (SCAN_CAP - HEADER_SIZE) as usize;
        let (_, mut image) = frames(start, 0);
        let (_, last) = frames(len, 1 << 20);
        image.extend(&last);
        let mut rng = junk;
        let mut junk = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    (rng >> 56) as u8 ^ (rng >> 17) as u8
                })
                .collect()
        };
        let at = image.len();
        let length = |len: u64| (len as u32).to_le_bytes();
        match tail {
            // A clean end: the zero fill.
            0 => {}
            // A torn last frame: a cut copy of the frame before it.
            1 => image.extend(&last[..junk(1)[0] as usize % last.len()]),
            // Corrupt length prefixes: far past the area, ending just
            // past it, and ending exactly at it over a body that fails
            // its CRC.
            2 => image.extend(u32::MAX.to_le_bytes()),
            3 => image.extend(length((area + 1 - at - 8) as u64)),
            4 => image.extend(length((area - at - 8) as u64)),
            // A plausible length over arbitrary bytes.
            5 => {
                let len = 1 + junk(2).iter().map(|&b| b as u64).sum::<u64>() * 8;
                image.extend(length(len));
                image.extend(junk(len as usize + 4));
            }
            // Arbitrary bytes.
            6 => image.extend(junk(300)),
            // Valid frames filling the area exactly.
            _ => image.extend(frames(area - at, 2 << 20).1),
        }
        image.truncate(area);
        image
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The block-wise scan adopts the records, stops at the offset
        /// and reports the torn bytes of a decode loop over the whole
        /// record area, and re-commits a torn tail as that would.
        #[test]
        fn the_block_wise_scan_equals_the_whole_area_scan(
            boundary in 1u64..3,
            back in 1u64..40,
            len in MIN_FRAME..400,
            tail in 0u32..8,
            junk in 0u64..u64::MAX,
            watermark in 0u64..4,
        ) {
            // The straddling frame starts `back` bytes before a block
            // boundary: inside its length prefix for `back` < 4.
            let start = (boundary * SCAN_BLOCK - back) as usize;
            let image = scan_image(start, len, tail, junk);
            let mut area = image.clone();
            area.resize((SCAN_CAP - HEADER_SIZE) as usize, 0);
            let (want, stop) = whole_area_scan(&area);
            // Header: an empty watermark, one at the stop, one past it
            // (a torn committed region), or one past it that fails its
            // CRC, which the scan must ignore.
            let committed = match watermark {
                0 => HEADER_SIZE,
                1 => HEADER_SIZE + stop,
                _ => (HEADER_SIZE + stop + 1 + junk % (SCAN_CAP - HEADER_SIZE)).min(SCAN_CAP),
            };
            let mut header = encode_header(committed);
            if watermark == 3 {
                header[20] ^= 1;
            }
            let torn = if watermark == 3 { 0 } else { committed.saturating_sub(HEADER_SIZE + stop) };
            let mut file = header.to_vec();
            file.resize(HEADER_SIZE as usize, 0);
            file.extend(&image);
            let (env, j, replayed) = reopen_in(SCAN_CAP, 0, &file);
            proptest::prop_assert_eq!(&replayed.records, &want);
            proptest::prop_assert_eq!(j.used_bytes(), stop);
            proptest::prop_assert_eq!(replayed.torn_bytes, torn);
            proptest::prop_assert_eq!(j.stats().torn_bytes, torn);
            proptest::prop_assert_eq!(j.stats().syncs, u64::from(torn > 0));
            let mut on_disk = [0u8; 24];
            env.peek("wal", 0, &mut on_disk).unwrap();
            let rewritten = if torn > 0 { encode_header(HEADER_SIZE + stop) } else { header };
            proptest::prop_assert_eq!(on_disk, rewritten);
            // Blocks smaller than a frame read it in several pieces.
            let file = env.open_file(P, "wal").unwrap();
            for block in [1, 7, 4096] {
                let (got, got_stop) = scan_area(&file, P, SCAN_CAP - HEADER_SIZE, block).unwrap();
                proptest::prop_assert_eq!((&got, got_stop), (&want, stop), "block {}", block);
            }
        }
    }
}

//! The resident inner relation: `S` loaded once into `D` partitioned
//! store files, then probed by an unbounded sequence of R micro-batches
//! and patched in place by `append=`/`delete=` maintenance ops.
//!
//! Faithful to the paper's split of labor: the resident set *is* the
//! Sproc side — S partitions live one per disk and every probe goes
//! through [`Env::s_fetch_batch`]'s shared-buffer exchange. The joins
//! are pointer-based: a batch row carries the virtual pointer of its
//! S-object, so a probe is `MAP(sptr)` plus the exchange and needs no
//! key index; there is none. Steady-state probes charge only pass-2-style
//! work (map + hash per row plus the buffer exchanges); the
//! differential and trace tests in this crate hold that line.
//!
//! Storage is authoritative: a tombstoned slot's bytes carry a key with
//! [`DEAD_BIT`] set, so a probe discovers liveness from the fetched
//! S-object itself, not from session-local bookkeeping. The in-memory
//! key table and live-slot index exist to *generate* batches over the
//! live set and to price the per-batch verification oracle.
//!
//! The live-slot index (`resident/live.rs`) is a rank/select bitmap:
//! one bit per slot plus a Fenwick tree over per-64-slot popcounts.
//! `delete=` draws and `batch=` rows pick the `k`-th live slot and
//! `append=` the lowest tombstoned ones, each in O(log |S|). So a
//! mutation of `count` slots costs O(count · log |S|) plus its `count`
//! in-place patches, a generated batch O(rows · log |S|), and the
//! index's share of the build O(|S| / 64).
//!
//! A journaled session's clean shutdown keeps the partitions for the
//! next process: [`ResidentSet::checkpoint`] syncs them, then writes
//! and syncs `NAME.ckpt`, a CRC-framed [`Checkpoint`] that vouches for
//! them. [`ResidentSet::reopen`] maps them again (the paper's
//! `openMap`) and rebuilds the key table and live-slot index from one
//! scan that reads each stored object's key word and nothing else,
//! when the checkpoint is intact and names the same header and last
//! mutation as the journal. The first patch after a reopen invalidates
//! the checkpoint durably before it writes.

use std::sync::Arc;

use mmjoin_env::machine::MachineParams;
use mmjoin_env::{CpuOp, DiskId, Env, FileOps, ProcId, Result, SCatalog, SPtr, TraceEvent};
use mmjoin_model::JoinInputs;
use mmjoin_recovery::record::{frame, put_str, unframe, Cursor};
use mmjoin_relstore::{
    encode_s, names, pair_digest, preload_objects, s_key, splitmix64, RelConfig, KEY_OFF, SPTR_SIZE,
};

use crate::grammar::StreamHeader;

mod live;
use live::LiveSlots;

/// High bit marking a tombstoned slot's stored key. Live keys (slot
/// indices at build time, a monotone counter afterwards) never reach it.
pub const DEAD_BIT: u64 = 1 << 63;

/// S-objects requested per shared-buffer exchange while probing: the
/// modern kernels' probe batch.
pub use mmjoin::modern::PROBE_BATCH;

/// What one probe micro-batch produced.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutput {
    /// Join pairs (rows whose target slot was live).
    pub pairs: u64,
    /// Order-independent checksum over the produced pairs.
    pub checksum: u64,
    /// Rows whose target slot was tombstoned at probe time.
    pub misses: u64,
}

/// What a clean shutdown records beside the partitions it keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The stream's header line.
    pub line: String,
    /// Seq of the last mutation applied to the partitions; `None` when
    /// none was.
    pub mutation_seq: Option<u64>,
    /// Next fresh key `append=` hands out.
    pub next_key: u64,
}

impl Checkpoint {
    /// The line, the seq plus one (0: no mutation) and `next_key`,
    /// framed with their length and CRC like a journal record.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_str(&mut body, &self.line);
        body.extend_from_slice(&self.mutation_seq.map_or(0, |s| s + 1).to_le_bytes());
        body.extend_from_slice(&self.next_key.to_le_bytes());
        frame(&body)
    }

    /// The checkpoint `buf` starts with; `None` if it is torn, fails
    /// its CRC or does not parse (an invalidated, all-zero file).
    pub fn decode(buf: &[u8]) -> Option<Checkpoint> {
        let (body, _) = unframe(buf)?;
        let mut c = Cursor::new(body);
        let (line, seq, next_key) = (c.string()?, c.u64()?, c.u64()?);
        c.at_end().then(|| Checkpoint {
            line,
            mutation_seq: seq.checked_sub(1),
            next_key,
        })
    }
}

/// The checkpoint file of stream `name`.
pub fn checkpoint_file(name: &str) -> String {
    names::scoped(name, "ckpt")
}

/// Durably invalidate the checkpoint file `name`: zero it, then sync.
fn invalidate_checkpoint<E: Env>(env: &E, name: &str) -> Result<()> {
    let proc = ProcId(0);
    let f = env.open_file(proc, name)?;
    f.write_at(proc, 0, &vec![0u8; f.len() as usize])?;
    f.sync(proc)
}

/// Delete `files` of stream `name` from the store, its checkpoint
/// first and invalidated durably: a checkpoint whose deletion a power
/// loss undid would vouch for partitions written after it.
pub(crate) fn delete_files<E: Env>(env: &E, name: &str, files: &[String]) -> Result<()> {
    let ckpt = checkpoint_file(name);
    if env.list_files().contains(&ckpt) {
        invalidate_checkpoint(env, &ckpt)?;
        env.delete_file(ProcId(0), &ckpt)?;
    }
    for f in files.iter().filter(|f| **f != ckpt) {
        env.delete_file(ProcId(0), f)?;
    }
    Ok(())
}

/// The resident S relation: `D` mapped partitions plus the in-memory
/// key and liveness tables.
pub struct ResidentSet<E: Env> {
    env: Arc<E>,
    /// The stream's name (the store files' prefix).
    name: String,
    rel: RelConfig,
    /// Current key of every slot; `DEAD_BIT` marks tombstones.
    keys: Vec<u64>,
    /// Which slots are live, with ascending-order rank/select for
    /// deterministic draws.
    live: LiveSlots,
    /// Next fresh key handed to `append=`.
    next_key: u64,
    s_files: Vec<String>,
    /// A checkpoint on disk vouches for the partitions as they are: set
    /// by a reopen, cleared by invalidating it before the first patch.
    checkpointed: bool,
    /// A patch failed part-way: storage may disagree with the tables.
    torn: bool,
}

impl<E: Env> ResidentSet<E> {
    /// Load S (slot `k` starts with key `k`, matching
    /// `mmjoin_relstore::build`) and register it for probes. The
    /// partitions are pre-existing data, loaded outside measurement
    /// (the paper's relations exist before a join begins).
    ///
    /// `_machine` selects nothing: the parameter stays until the
    /// benchmark harness, which passes it, can be edited (ROADMAP).
    pub fn build(env: Arc<E>, header: &StreamHeader, _machine: &MachineParams) -> Result<Self> {
        let rel = header.rel();
        rel.validate()?;
        let d = rel.d;

        let proc = ProcId(0);
        let mut s_files = Vec::with_capacity(d as usize);
        for j in 0..d {
            let s_name = names::scoped(&header.name, &names::s_part(j));
            env.create_file(proc, &s_name, DiskId(j), rel.s_part_bytes())?;
            let first = j as u64 * rel.s_per_part();
            preload_objects(&*env, &s_name, rel.s_size, rel.s_per_part(), |k, obj| {
                encode_s(obj, first + k)
            })?;
            s_files.push(s_name);
        }

        env.register_s(SCatalog {
            part_files: s_files.clone(),
            part_bytes: rel.s_part_bytes(),
            s_obj_size: rel.s_size,
        })?;
        env.trace(
            proc,
            TraceEvent::ResidentBuilt {
                parts: d,
                objects: rel.s_objects,
            },
        );

        Ok(ResidentSet {
            env,
            name: header.name.clone(),
            rel,
            keys: (0..rel.s_objects).collect(),
            live: LiveSlots::full(rel.s_objects),
            next_key: rel.s_objects,
            s_files,
            checkpointed: false,
            torn: false,
        })
    }

    /// Reopen the partitions a clean shutdown kept, if its checkpoint
    /// is intact and names `header`'s line and `mutation_seq`, the seq
    /// of the last mutation the journal completed. The key table and
    /// live-slot index come from one scan of the stored key words
    /// (tombstones carry [`DEAD_BIT`]), and the scan must find `live`
    /// live slots. `Ok(None)` when any of that fails: the caller builds
    /// afresh.
    pub fn reopen(
        env: Arc<E>,
        header: &StreamHeader,
        mutation_seq: Option<u64>,
        live: u64,
    ) -> Result<Option<Self>> {
        let rel = header.rel();
        rel.validate()?;
        let proc = ProcId(0);
        let ckpt = checkpoint_file(&header.name);
        let s_files: Vec<String> = (0..rel.d)
            .map(|j| names::scoped(&header.name, &names::s_part(j)))
            .collect();
        let present = env.list_files();
        if !s_files.iter().chain([&ckpt]).all(|f| present.contains(f)) {
            return Ok(None);
        }
        let f = env.open_file(proc, &ckpt)?;
        let mut buf = vec![0u8; f.len() as usize];
        f.read_at(proc, 0, &mut buf)?;
        let Some(c) = Checkpoint::decode(&buf) else {
            return Ok(None);
        };
        if c.line != header.to_line() || c.mutation_seq != mutation_seq {
            return Ok(None);
        }

        // One read of the key word per object: the scan needs nothing
        // else of S.
        let mut keys = Vec::with_capacity(rel.s_objects as usize);
        let mut words = vec![0u64; rel.s_objects.div_ceil(64) as usize];
        let mut word = [0u8; 8];
        for name in &s_files {
            let f = env.open_file(proc, name)?;
            if f.len() != rel.s_part_bytes() {
                return Ok(None);
            }
            for local in 0..rel.s_per_part() {
                f.read_at(proc, local * rel.s_size as u64 + KEY_OFF as u64, &mut word)?;
                let (slot, key) = (keys.len(), u64::from_le_bytes(word));
                if key & DEAD_BIT == 0 {
                    words[slot / 64] |= 1 << (slot % 64);
                }
                keys.push(key);
            }
        }
        let live_slots = LiveSlots::from_words(words, rel.s_objects);
        if live_slots.len() != live {
            return Ok(None);
        }

        env.register_s(SCatalog {
            part_files: s_files.clone(),
            part_bytes: rel.s_part_bytes(),
            s_obj_size: rel.s_size,
        })?;
        env.trace(
            proc,
            TraceEvent::ResidentReopened {
                parts: rel.d,
                objects: rel.s_objects,
                live,
            },
        );
        Ok(Some(ResidentSet {
            env,
            name: header.name.clone(),
            rel,
            keys,
            live: live_slots,
            next_key: c.next_key,
            s_files,
            checkpointed: true,
            torn: false,
        }))
    }

    /// Live (non-tombstoned) slots.
    pub fn live_count(&self) -> u64 {
        self.live.len()
    }

    /// Current key of every slot (`DEAD_BIT` set on tombstones).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Next fresh key `append=` hands out.
    pub fn next_key(&self) -> u64 {
        self.next_key
    }

    /// Relation shape of the resident set.
    pub fn rel(&self) -> &RelConfig {
        &self.rel
    }

    /// Planner inputs for a probe-only batch of `rows` rows against the
    /// current live set under the header's budgets.
    pub fn batch_inputs(&self, header: &StreamHeader, rows: u64) -> JoinInputs {
        let rel = &self.rel;
        JoinInputs {
            r_objects: rows.max(1),
            s_objects: self.live_count().max(1),
            r_size: rel.r_size,
            s_size: rel.s_size,
            sptr_size: SPTR_SIZE,
            d: rel.d,
            skew: 1.0,
            m_rproc: header.budget_bytes(),
            m_sproc: header.budget_bytes(),
            g_buffer: PROBE_BATCH as u64 * (rel.r_size + SPTR_SIZE + rel.s_size) as u64,
        }
    }

    /// Deterministically draw a `objects`-row micro-batch over the
    /// *current* live slots: row keys and targets are pure functions of
    /// `seed` and the live set, so a resumed session that replays the
    /// op sequence regenerates byte-identical batches. Panics when
    /// `objects > 0` and no slot is live.
    pub fn gen_batch(&self, objects: u64, seed: u64) -> Vec<(u64, u64)> {
        let live = self.live.len();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut rows = Vec::with_capacity(objects as usize);
        for n in 0..objects {
            state = splitmix64(state.wrapping_add(n));
            let slot = self.live.select(state % live);
            state = splitmix64(state);
            // Row keys stay clear of DEAD_BIT so digests can't collide
            // with tombstone sentinels in tests.
            rows.push((state & !DEAD_BIT, slot));
        }
        rows
    }

    /// What a probe of `rows` *should* produce, priced from the
    /// in-memory key table — the per-batch verification oracle.
    pub fn expected(&self, rows: &[(u64, u64)]) -> BatchOutput {
        let mut out = BatchOutput::default();
        for &(r_key, slot) in rows {
            let key = self.keys[slot as usize];
            if key & DEAD_BIT != 0 {
                out.misses += 1;
            } else {
                out.pairs += 1;
                out.checksum = out.checksum.wrapping_add(pair_digest(r_key, key));
            }
        }
        out
    }

    /// Probe one micro-batch through the Sproc shared-buffer exchange.
    /// Liveness comes from the fetched bytes (tombstones carry
    /// [`DEAD_BIT`]), so storage — not session state — is authoritative.
    /// A row whose slot is past |S| fails the whole probe.
    pub fn probe(&self, rows: &[(u64, u64)]) -> Result<BatchOutput> {
        let d = self.rel.d as usize;
        // Group rows by target partition, preserving per-row keys.
        let mut parts: Vec<(Vec<SPtr>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); d];
        for &(r_key, slot) in rows {
            let j = (slot / self.rel.s_per_part()) as usize;
            let Some((ptrs, keys)) = parts.get_mut(j) else {
                return Err(mmjoin_env::EnvError::InvalidConfig(format!(
                    "row targets slot {slot} but |S| = {}",
                    self.rel.s_objects
                )));
            };
            ptrs.push(self.rel.sptr_of(slot));
            keys.push(r_key);
        }
        let req_bytes = (self.rel.r_size + SPTR_SIZE) as u64;
        let mut out = BatchOutput::default();
        let mut fetched = Vec::new();
        for (j, (ptrs, keys)) in parts.iter().enumerate() {
            let proc = ProcId(j as u32);
            self.env.cpu(proc, CpuOp::Map, ptrs.len() as u64);
            self.env.cpu(proc, CpuOp::Hash, ptrs.len() as u64);
            for (chunk, kchunk) in ptrs.chunks(PROBE_BATCH).zip(keys.chunks(PROBE_BATCH)) {
                fetched.clear();
                self.env
                    .s_fetch_batch(proc, j as u32, chunk, req_bytes, &mut fetched)?;
                for (n, obj) in fetched.chunks(self.rel.s_size as usize).enumerate() {
                    let key = s_key(obj);
                    if key & DEAD_BIT != 0 {
                        out.misses += 1;
                    } else {
                        out.pairs += 1;
                        out.checksum = out.checksum.wrapping_add(pair_digest(kchunk[n], key));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Tombstone `count` live slots drawn deterministically with
    /// `seed`. Returns the patched slots.
    pub fn delete(&mut self, count: u64, seed: u64) -> Result<Vec<u64>> {
        if count > self.live.len() {
            return Err(mmjoin_env::EnvError::InvalidConfig(format!(
                "delete={count} but only {} slots live",
                self.live.len()
            )));
        }
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        let mut slots = Vec::with_capacity(count as usize);
        for _ in 0..count {
            state = splitmix64(state);
            let slot = self.live.select(state % self.live.len());
            self.live.remove(slot);
            self.keys[slot as usize] = DEAD_BIT | slot;
            slots.push(slot);
        }
        self.patch_slots(&slots, "delete")?;
        Ok(slots)
    }

    /// Refill the `count` lowest tombstoned slots with fresh keys from
    /// the monotone counter. Returns the patched slots.
    pub fn append(&mut self, count: u64) -> Result<Vec<u64>> {
        if count > self.live.dead() {
            return Err(mmjoin_env::EnvError::InvalidConfig(format!(
                "append={count} but only {} slots free",
                self.live.dead()
            )));
        }
        let dead: Vec<u64> = (0..count).map(|k| self.live.select0(k)).collect();
        for &slot in &dead {
            self.keys[slot as usize] = self.next_key;
            self.next_key += 1;
            self.live.insert(slot);
        }
        self.patch_slots(&dead, "append")?;
        Ok(dead)
    }

    /// Write the current key of each patched slot into its S partition
    /// — an in-place patch, never a rebuild. Each touched partition is
    /// opened once per call. The writes go through charged `write_at`,
    /// so maintenance cost is measured, and the trace records the patch
    /// for the steady-state ("no pass 0 after warmup") check. A failure
    /// marks the set torn, so its shutdown keeps nothing.
    fn patch_slots(&mut self, slots: &[u64], op: &str) -> Result<()> {
        let written = self.write_slots(slots);
        self.torn |= written.is_err();
        written?;
        self.env.trace(
            ProcId(0),
            TraceEvent::ResidentPatched {
                op: op.to_string(),
                objects: slots.len() as u64,
                live: self.live_count(),
            },
        );
        Ok(())
    }

    /// [`ResidentSet::patch_slots`]'s writes, after invalidating the
    /// checkpoint a reopen found, if this is the first patch since.
    fn write_slots(&mut self, slots: &[u64]) -> Result<()> {
        let proc = ProcId(0);
        if self.checkpointed {
            invalidate_checkpoint(&*self.env, &checkpoint_file(&self.name))?;
            self.checkpointed = false;
        }
        let mut obj = vec![0u8; self.rel.s_size as usize];
        let mut opened: Vec<Option<E::File>> = self.s_files.iter().map(|_| None).collect();
        for &slot in slots {
            let j = (slot / self.rel.s_per_part()) as usize;
            let local = slot % self.rel.s_per_part();
            let key = self.keys[slot as usize];
            encode_s(&mut obj, key);
            let s = match &mut opened[j] {
                Some(s) => s,
                closed => closed.insert(self.env.open_file(proc, &self.s_files[j])?),
            };
            s.write_at(proc, local * self.rel.s_size as u64, &obj)?;
            self.env.cpu(proc, CpuOp::Hash, 1);
        }
        Ok(())
    }

    /// Release the registered S and keep the partitions for
    /// [`ResidentSet::reopen`]: sync them, then write and sync the
    /// [`Checkpoint`] that vouches for them, so the data is durable
    /// before the record that names it. `mutation_seq` is the seq of
    /// the last mutation applied. A reopened set no patch has touched
    /// keeps the checkpoint it was opened from; a torn one is torn
    /// down instead.
    pub fn checkpoint(self, header: &StreamHeader, mutation_seq: Option<u64>) -> Result<()> {
        if self.torn {
            return self.teardown();
        }
        self.env.shutdown_s();
        if self.checkpointed {
            return Ok(());
        }
        let proc = ProcId(0);
        for name in &self.s_files {
            self.env.open_file(proc, name)?.sync(proc)?;
        }
        let ckpt = checkpoint_file(&self.name);
        if self.env.list_files().contains(&ckpt) {
            self.env.delete_file(proc, &ckpt)?;
        }
        let bytes = Checkpoint {
            line: header.to_line(),
            mutation_seq,
            next_key: self.next_key,
        }
        .encode();
        let f = self
            .env
            .create_file(proc, &ckpt, DiskId(0), bytes.len() as u64)?;
        f.write_at(proc, 0, &bytes)?;
        f.sync(proc)
    }

    /// Release the registered S and delete the resident files (a
    /// checkpoint included).
    pub fn teardown(self) -> Result<()> {
        self.env.shutdown_s();
        delete_files(&*self.env, &self.name, &self.s_files)
    }
}

#[cfg(test)]
mod tests {
    use super::{frame, Checkpoint};
    use proptest::{collection::vec, proptest, ProptestConfig};

    fn checkpoint(seq: u64, next_key: u64, line_len: usize) -> Checkpoint {
        Checkpoint {
            line: "resident=v objects=1024 ".repeat(line_len),
            mutation_seq: seq.checked_sub(1),
            next_key,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoding is total: arbitrary bytes give `None` or a value,
        /// never a panic, whether or not they are framed with a valid
        /// length and CRC.
        #[test]
        fn decoding_arbitrary_bytes_never_panics(bytes in vec(0u8..=255, 0..96)) {
            let _ = Checkpoint::decode(&bytes);
            let _ = Checkpoint::decode(&frame(&bytes));
        }

        /// A valid encoding decodes to itself; every cut of it, and the
        /// same encoding with one byte changed, decodes to `None` or a
        /// value without panicking.
        #[test]
        fn damaged_encodings_never_panic(
            seq in 0u64..4,
            next_key in 0u64..u64::MAX,
            line_len in 0usize..3,
            at in 0usize..256,
            flip in 1u32..256,
        ) {
            let c = checkpoint(seq, next_key, line_len);
            let bytes = c.encode();
            assert_eq!(Checkpoint::decode(&bytes), Some(c));
            let _ = Checkpoint::decode(&bytes[..at % bytes.len()]);
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= flip as u8;
            let _ = Checkpoint::decode(&flipped);
        }
    }
}

//! The `--modern` execution path: post-1996 cache-conscious kernels for
//! every join algorithm, selected with [`ExecMode::Modern`].
//!
//! The faithful modules (`nested_loops`, `sort_merge`, `grace`,
//! `hybrid`) reproduce the paper's 1996 inner loops: object-at-a-time
//! scans, per-tuple cost declarations, mutex-guarded chunked temp files,
//! and ~30-object shared-buffer exchanges. This module keeps the paper's
//! *schedule* — pass 0 scan/split, staggered pass-1 phases, a local
//! join pass, every disk owned by one proc per phase — but replaces the
//! inner loops wholesale:
//!
//! * **Bulk block scans**: `R_i` is read in [`BLOCK_BYTES`] chunks with
//!   one `read_at` per block instead of one per object.
//! * **Software-managed radix partitioning** (pass 0): per block, a
//!   histogram over owner partitions sizes the scatter targets, then a
//!   second sweep scatters fixed-width `(ptr, key)` pairs — no hash
//!   maps, no per-tuple allocation ([`TraceEvent::KernelRadix`]).
//! * **MPSM-style sort-merge** (Albutiu/Kemper/Neumann): each worker
//!   sorts its *private* runs, publishes them through shared slots, and
//!   the owning worker sequentially merge-scans the `D` remote runs
//!   ([`TraceEvent::KernelMerge`]) — the repartitioning pass ships
//!   sorted in-memory runs instead of chunked temp files.
//! * **Batched probes**: S-objects are fetched [`PROBE_BATCH`] pointers
//!   per `Sproc` exchange with a 16-byte `(key, ptr)` request record
//!   ([`PROBE_REQ_BYTES`]) instead of whole R-objects, in ascending
//!   pointer order so each `S` page is touched once while hot
//!   ([`TraceEvent::KernelProbe`]).
//! * **Radix-sorted runs**: runs sort by an LSD radix sort over the
//!   pointer bits that vary across the run ([`DIGIT_BITS`]-bit digits),
//!   sorted runs merge pairwise with a branch-free two-way merge, and
//!   the owner side of Grace/hybrid sorts its gathered runs once and
//!   finds the range-bucket boundaries by binary search.
//! * **Reusable scratch arenas**: every worker owns an `Arena` of
//!   buffers reused across blocks and batches; arenas are constructed
//!   fresh per join attempt, so a retried join can never observe stale
//!   kernel state.
//!
//! Cost declarations are batched the same way: kernels tally
//! [`KernelOps`] while running and charge the environment once per
//! kernel invocation, pricing the *same* six `CpuOp`s and four
//! `MoveKind`s the analytical model knows.
//!
//! Output is bitwise-identical to the faithful modes: the same join
//! pair set and order-independent checksum (`tests/modern_equiv.rs`
//! proves it differentially across algorithms, environments, and skew).
//!
//! [`ExecMode::Modern`]: crate::ExecMode::Modern

use std::sync::Arc;

use mmjoin_env::{CpuOp, Env, FileOps, KernelOps, MoveKind, ProcId, Result, SPtr, TraceEvent};
use mmjoin_relstore::{s_key, Relations};

use crate::exec::{
    finish, phase_partner, run_stages, stage_summary, JoinAcc, JoinOutput, JoinSpec, SharedSlots,
};
use crate::repartition::Pass;
use crate::{grace, hybrid, Algo};

/// Bytes read per bulk scan block (rounded down to whole R-objects).
pub const BLOCK_BYTES: u64 = 256 * 1024;

/// Pointers per batched `Sproc` exchange.
pub const PROBE_BATCH: usize = 2048;

/// R-side bytes accompanying each probe pointer: the 8-byte join key
/// plus the 8-byte pointer — not the whole R-object the faithful
/// batcher ships.
pub const PROBE_REQ_BYTES: u64 = 16;

/// Runs shorter than this sort with `sort_unstable`; from here on the
/// radix sort's histogram sweep pays for itself.
const RADIX_CUTOFF: usize = 256;

/// Widest radix digit: 2048 counters, which stay in L1.
const DIGIT_BITS: u32 = 11;

/// A sorted (or to-be-sorted) private run of `(ptr, key)` pairs,
/// published through [`SharedSlots`] for its owning partition.
type Run = Arc<Vec<(u64, u64)>>;

/// A `(ptr, key)` pair list before it is frozen into a shared [`Run`].
type PairVec = Vec<(u64, u64)>;

/// Per-worker scratch: every buffer the kernels need, allocated once per
/// join attempt and reused across blocks, buckets, and batches.
struct Arena {
    /// Bulk scan buffer (one block of raw R-objects).
    block: Vec<u8>,
    /// Radix scatter targets: `(ptr, key)` pairs per owner partition.
    parts: Vec<Vec<(u64, u64)>>,
    /// Histogram scratch for the radix kernels.
    hist: Vec<u64>,
    /// Merged/concatenated pairs awaiting the probe kernel.
    gathered: Vec<(u64, u64)>,
    /// Pointer batch under construction for `s_fetch_batch`.
    ptrs: Vec<SPtr>,
    /// Fetched S-objects for the current batch.
    fetch: Vec<u8>,
    /// Radix-sort scratch.
    radix: RadixScratch,
    /// Batched cost declarations.
    ops: KernelOps,
}

/// The radix sort's ping-pong buffer and digit histograms.
#[derive(Default)]
struct RadixScratch {
    tmp: PairVec,
    counts: Vec<usize>,
}

impl Arena {
    fn new(d: u32) -> Self {
        Arena {
            block: Vec::new(),
            parts: (0..d).map(|_| Vec::new()).collect(),
            hist: vec![0; d as usize],
            gathered: Vec::new(),
            ptrs: Vec::with_capacity(PROBE_BATCH),
            fetch: Vec::new(),
            radix: RadixScratch::default(),
            ops: KernelOps::new(),
        }
    }
}

/// Per-worker join state threaded through [`run_stages`].
struct MState {
    acc: JoinAcc,
    arena: Arena,
}

/// Fixed-width little-endian read; the compiler turns this into one
/// unaligned load.
#[inline]
fn le64(buf: &[u8], off: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(w)
}

/// Pass-0 kernel: bulk-scan `R_i` block by block, radix-partitioning
/// `(ptr, key)` pairs by owner partition (histogram + scatter per
/// block). Returns the number of objects scanned.
fn scan_radix<E: Env>(env: &E, rels: &Relations, i: u32, arena: &mut Arena) -> Result<u64> {
    let proc = ProcId::rproc(i);
    let rf = env.open_file(proc, &rels.r_files[i as usize])?;
    let r_size = rels.rel.r_size as usize;
    let part_bytes = rels.rel.s_part_bytes();
    let n = rels.rel.r_per_part();
    let d = rels.rel.d as usize;

    let block_objs = (BLOCK_BYTES as usize / r_size).max(1);
    arena.block.resize(block_objs * r_size, 0);
    for p in arena.parts.iter_mut() {
        p.clear();
    }

    let mut done = 0u64;
    while done < n {
        let take = block_objs.min((n - done) as usize);
        let bytes = take * r_size;
        rf.read_at(proc, done * r_size as u64, &mut arena.block[..bytes])?;
        // Histogram sweep: size the scatter targets before touching them.
        arena.hist.iter_mut().for_each(|h| *h = 0);
        for k in 0..take {
            let ptr = SPtr(le64(&arena.block, k * r_size + 8));
            arena.hist[ptr.partition(part_bytes) as usize] += 1;
        }
        for (part, &count) in arena.parts.iter_mut().zip(arena.hist.iter()) {
            part.reserve(count as usize);
        }
        // Scatter sweep: fixed-width pairs, no per-tuple allocation.
        for k in 0..take {
            let base = k * r_size;
            let key = le64(&arena.block, base);
            let ptr = le64(&arena.block, base + 8);
            let owner = SPtr(ptr).partition(part_bytes) as usize;
            arena.parts[owner].push((ptr, key));
        }
        done += take as u64;
    }
    // Two sweeps of MAP(ptr), one radix placement, and a 16-byte
    // private move per pair — declared once for the whole scan.
    arena.ops.op(CpuOp::Map, 2 * n);
    arena.ops.op(CpuOp::Hash, n);
    arena.ops.moved(MoveKind::PP, 16 * n);
    arena.ops.charge(env, proc);
    env.trace(
        proc,
        TraceEvent::KernelRadix {
            proc: i,
            area: format!("R_{i}"),
            buckets: d as u32,
            objects: n,
        },
    );
    Ok(n)
}

/// Declare the `n·log n` comparison/swap estimate of sorting `n` pairs.
fn declare_sort(n: u64, ops: &mut KernelOps) {
    if n > 1 {
        let logn = (64 - (n - 1).leading_zeros()) as u64;
        ops.op(CpuOp::Compare, n * logn);
        ops.op(CpuOp::Swap, n * logn / 2);
    }
}

/// Sort a run of `(ptr, key)` pairs in place (pointer order == `S`
/// storage order), declaring an `n·log n` comparison/swap estimate.
fn sort_pairs(run: &mut [(u64, u64)], scratch: &mut RadixScratch, ops: &mut KernelOps) {
    sort_by_ptr(run, scratch);
    declare_sort(run.len() as u64, ops);
}

/// Sort `run` ascending by pointer: an LSD radix sort over the pointer
/// bits that vary across the run, in at most [`DIGIT_BITS`]-bit digits
/// (a run inside one 64 MiB partition of 128-byte objects varies in 19
/// bits: two passes). Equal pointers keep no particular order. Runs
/// under [`RADIX_CUTOFF`] fall back to `sort_unstable`.
fn sort_by_ptr(run: &mut [(u64, u64)], scratch: &mut RadixScratch) {
    let n = run.len();
    if n < RADIX_CUTOFF {
        run.sort_unstable();
        return;
    }
    let first = run[0].0;
    let varying = run.iter().fold(0, |acc, &(p, _)| acc | (p ^ first));
    if varying == 0 {
        return;
    }
    let lo = varying.trailing_zeros();
    let bits = 64 - varying.leading_zeros() - lo;
    let passes = bits.div_ceil(DIGIT_BITS) as usize;
    let width = bits.div_ceil(passes as u32);
    let radix = 1usize << width;
    let mask = radix as u64 - 1;
    // One read sweep builds every pass's histogram.
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(passes * radix, 0);
    for &(p, _) in run.iter() {
        let v = p >> lo;
        for (q, hist) in counts.chunks_exact_mut(radix).enumerate() {
            hist[((v >> (q as u32 * width)) & mask) as usize] += 1;
        }
    }
    if scratch.tmp.len() < n {
        scratch.tmp.resize(n, (0, 0));
    }
    let tmp = &mut scratch.tmp[..n];
    for (q, offsets) in counts.chunks_exact_mut(radix).enumerate() {
        let mut sum = 0;
        for c in offsets.iter_mut() {
            sum += std::mem::replace(c, sum);
        }
        let shift = lo + q as u32 * width;
        if q % 2 == 0 {
            radix_scatter(run, tmp, shift, mask, offsets);
        } else {
            radix_scatter(tmp, run, shift, mask, offsets);
        }
    }
    if passes % 2 == 1 {
        run.copy_from_slice(tmp);
    }
}

/// One stable LSD pass: move each pair of `src` to its digit's next
/// slot in `dst`.
fn radix_scatter(
    src: &[(u64, u64)],
    dst: &mut [(u64, u64)],
    shift: u32,
    mask: u64,
    offsets: &mut [usize],
) {
    for &pair in src {
        let slot = &mut offsets[((pair.0 >> shift) & mask) as usize];
        dst[*slot] = pair;
        *slot += 1;
    }
}

/// Sequential merge-scan of sorted runs (MPSM), output fully sorted by
/// pointer: runs merge pairwise, two at a time, with a branch-free
/// two-way merge.
fn merge_runs(runs: &[Run], out: &mut Vec<(u64, u64)>, ops: &mut KernelOps) {
    out.clear();
    let slices: Vec<&[(u64, u64)]> = runs.iter().map(|r| r.as_slice()).collect();
    merge_tree(&slices, out);
    let total = out.len() as u64;
    ops.op(CpuOp::Compare, total * runs.len().max(1) as u64);
    ops.op(CpuOp::HeapTransfer, total);
}

/// Append the merge of `runs` to `out`: split in halves, merge each
/// half, then merge the two.
fn merge_tree(runs: &[&[(u64, u64)]], out: &mut Vec<(u64, u64)>) {
    match runs {
        [] => {}
        [a] => out.extend_from_slice(a),
        [a, b] => merge2(a, b, out),
        _ => {
            let (left, right) = runs.split_at(runs.len() / 2);
            let (mut l, mut r) = (Vec::new(), Vec::new());
            merge2(merged_half(left, &mut l), merged_half(right, &mut r), out);
        }
    }
}

/// One half of a [`merge_tree`] split: a lone run as it is, or more
/// runs merged into `buf`.
fn merged_half<'a>(runs: &[&'a [(u64, u64)]], buf: &'a mut Vec<(u64, u64)>) -> &'a [(u64, u64)] {
    if let [one] = runs {
        return one;
    }
    buf.reserve(runs.iter().map(|r| r.len()).sum());
    merge_tree(runs, buf);
    buf
}

/// Branch-free two-way merge of the pointer-sorted `a` and `b`,
/// appended to `out`: each step selects one head and advances one
/// cursor by the comparison's outcome.
fn merge2(a: &[(u64, u64)], b: &[(u64, u64)], out: &mut Vec<(u64, u64)>) {
    let start = out.len();
    out.resize(start + a.len() + b.len(), (0, 0));
    let dst = &mut out[start..];
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let take_b = b[j].0 < a[i].0;
        dst[k] = if take_b { b[j] } else { a[i] };
        j += take_b as usize;
        i += !take_b as usize;
        k += 1;
    }
    let rest = if i < a.len() { &a[i..] } else { &b[j..] };
    dst[k..].copy_from_slice(rest);
}

/// Batched probe kernel: fetch S-objects [`PROBE_BATCH`] pointers at a
/// time and join each against its R key. `pairs` must all point into
/// partition `spart`.
fn probe<E: Env>(
    env: &E,
    i: u32,
    spart: u32,
    rels: &Relations,
    pairs: &[(u64, u64)],
    arena: &mut Arena,
    acc: &mut JoinAcc,
) -> Result<()> {
    if pairs.is_empty() {
        return Ok(());
    }
    let proc = ProcId::rproc(i);
    let s_size = rels.rel.s_size as usize;
    let mut batches = 0u64;
    for chunk in pairs.chunks(PROBE_BATCH) {
        arena.ptrs.clear();
        arena.ptrs.extend(chunk.iter().map(|&(p, _)| SPtr(p)));
        arena.fetch.clear();
        env.s_fetch_batch(proc, spart, &arena.ptrs, PROBE_REQ_BYTES, &mut arena.fetch)?;
        for (k, &(_, r_key)) in chunk.iter().enumerate() {
            acc.add(r_key, s_key(&arena.fetch[k * s_size..(k + 1) * s_size]));
        }
        batches += 1;
    }
    // The environment prices the exchange itself (context switches +
    // shared-buffer moves); the kernel adds only its key compares.
    arena.ops.op(CpuOp::Compare, pairs.len() as u64);
    arena.ops.charge(env, proc);
    env.trace(
        proc,
        TraceEvent::KernelProbe {
            proc: i,
            spart,
            batches,
            objects: pairs.len() as u64,
        },
    );
    Ok(())
}

/// Dispatch one modern-mode join.
pub fn run<E: Env>(env: &E, rels: &Relations, alg: Algo, spec: &JoinSpec) -> Result<JoinOutput> {
    match alg {
        Algo::NestedLoops | Algo::NaiveNestedLoops => run_nested(env, rels, spec),
        Algo::SortMerge => run_sort_merge(env, rels, spec),
        Algo::Grace => run_grace(env, rels, spec),
        Algo::HybridHash => run_hybrid(env, rels, spec),
    }
}

/// Run `stage_fn` over `stages` barrier-separated stages with a fresh
/// [`MState`] per worker, and assemble the output.
fn run_modern<E: Env>(
    env: &E,
    rels: &Relations,
    spec: &JoinSpec,
    stage_names: &[&str],
    stage_fn: impl Fn(usize, u32, &mut MState) -> Result<()> + Sync,
) -> Result<JoinOutput> {
    let d = rels.rel.d;
    let (states, times) = run_stages(
        env,
        d,
        spec.mode,
        stage_names.len(),
        |_| MState {
            acc: JoinAcc::default(),
            arena: Arena::new(d),
        },
        stage_fn,
    )?;
    let summary = stage_summary(stage_names, &times);
    Ok(finish(
        env,
        d,
        states.into_iter().map(|s| s.acc),
        summary,
        &times,
    ))
}

/// Modern nested loops: scan + radix, probe the home partition inside
/// the pass-0 window, then probe each partner partition in staggered
/// phase order. No repartitioning files — the radix output *is* the
/// probe input.
fn run_nested<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    let d = rels.rel.d;
    let r_size = rels.rel.r_size as u64;
    run_modern(env, rels, spec, &["join"], |_stage, i, state| {
        let arena = &mut state.arena;
        let pass = Pass::scan(i);
        pass.start(env);
        let n = scan_radix(env, rels, i, arena)?;
        let mut own = std::mem::take(&mut arena.parts[i as usize]);
        sort_pairs(&mut own, &mut arena.radix, &mut arena.ops);
        probe(env, i, i, rels, &own, arena, &mut state.acc)?;
        pass.end(env, n, r_size);
        for t in 1..d {
            let j = phase_partner(i, t, d);
            let mut rn = std::mem::take(&mut arena.parts[j as usize]);
            let pass = Pass::phase(i, t, j);
            pass.start(env);
            sort_pairs(&mut rn, &mut arena.radix, &mut arena.ops);
            probe(env, i, j, rels, &rn, arena, &mut state.acc)?;
            pass.end(env, rn.len() as u64, r_size);
        }
        Ok(())
    })
}

/// The phase skeleton modern sort-merge, Grace and hybrid share (MPSM
/// presents its variants the same way: one skeleton, one step swapped).
///
/// Stage 0 scans and radix-partitions `R_i`, then ships one run per
/// owner partition through the `D×D` slot grid — the home run inside the
/// pass-0 window, partner runs in staggered phase order. `prepare(i, j,
/// run, ..)` is the algorithm's step on the run bound for owner `j`
/// before it is published. Stage 1 collects the `D` runs bound for
/// `S_i`; `gather(i, runs, out, ..)` orders them ascending by pointer
/// into `out`, which is probed against `S_i` in one stream.
fn run_exchange<E: Env>(
    env: &E,
    rels: &Relations,
    spec: &JoinSpec,
    stage_names: [&str; 2],
    prepare: impl Fn(u32, u32, PairVec, &mut Arena, &mut JoinAcc) -> Result<PairVec> + Sync,
    gather: impl Fn(u32, &[Run], &mut PairVec, &mut Arena) + Sync,
) -> Result<JoinOutput> {
    let d = rels.rel.d;
    let r_size = rels.rel.r_size as u64;
    let slots: Arc<SharedSlots<Run>> = SharedSlots::new(d * d);
    run_modern(env, rels, spec, &stage_names, |stage, i, state| {
        let proc = ProcId::rproc(i);
        let MState { acc, arena } = state;
        if stage == 0 {
            let pass = Pass::scan(i);
            pass.start(env);
            let n = scan_radix(env, rels, i, arena)?;
            let own = std::mem::take(&mut arena.parts[i as usize]);
            let own = prepare(i, i, own, arena, acc)?;
            slots.publish(i * d + i, Arc::new(own));
            pass.end(env, n, r_size);
            for t in 1..d {
                let j = phase_partner(i, t, d);
                let rn = std::mem::take(&mut arena.parts[j as usize]);
                let pass = Pass::phase(i, t, j);
                pass.start(env);
                let len = rn.len() as u64;
                let rn = prepare(i, j, rn, arena, acc)?;
                // Private→shared hand-off of the run.
                arena.ops.moved(MoveKind::PS, rn.len() as u64 * 16);
                arena.ops.charge(env, proc);
                slots.publish(i * d + j, Arc::new(rn));
                pass.end(env, len, r_size);
            }
        } else {
            let pass = Pass::local(i);
            pass.start(env);
            let runs: Vec<Run> = (0..d)
                .map(|j| slots.try_get(j * d + i))
                .collect::<Result<_>>()?;
            let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
            let mut merged = std::mem::take(&mut arena.gathered);
            gather(i, &runs, &mut merged, arena);
            // Nothing sorts after the gather: free the radix scratch
            // rather than keep it resident beside the S pages the
            // probe faults in.
            arena.radix = RadixScratch::default();
            probe(env, i, i, rels, &merged, arena, acc)?;
            arena.gathered = merged;
            pass.end(env, total, r_size);
        }
        Ok(())
    })
}

/// Modern sort-merge (MPSM): each private run is sorted before it is
/// shipped; the owner merge-scans the `D` sorted runs.
fn run_sort_merge<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    run_exchange(
        env,
        rels,
        spec,
        ["scan+sort", "merge+join"],
        |i, _j, mut run, arena, _acc| {
            sort_pairs(&mut run, &mut arena.radix, &mut arena.ops);
            arena.ops.charge(env, ProcId::rproc(i));
            Ok(run)
        },
        |i, runs, merged, arena| {
            let proc = ProcId::rproc(i);
            merge_runs(runs, merged, &mut arena.ops);
            arena.ops.moved(MoveKind::SP, merged.len() as u64 * 16);
            arena.ops.charge(env, proc);
            env.trace(
                proc,
                TraceEvent::KernelMerge {
                    proc: i,
                    area: format!("RS_{i}"),
                    runs: runs.len() as u32,
                    objects: merged.len() as u64,
                },
            );
        },
    )
}

/// Second-level radix shared by modern Grace and hybrid: order the
/// gathered runs into `merged` fully ascending, declaring the work of
/// Grace's `k` range buckets (see [`sort_into_buckets`]).
fn radix_gather<E: Env>(
    env: &E,
    i: u32,
    runs: &[Run],
    k: usize,
    bucket_of: impl Fn(SPtr) -> usize,
    merged: &mut PairVec,
    arena: &mut Arena,
) {
    let proc = ProcId::rproc(i);
    sort_into_buckets(runs, k, bucket_of, merged, &mut arena.radix, &mut arena.ops);
    env.trace(
        proc,
        TraceEvent::KernelRadix {
            proc: i,
            area: format!("RS_{i}"),
            buckets: k as u32,
            objects: merged.len() as u64,
        },
    );
    arena.ops.charge(env, proc);
}

/// Concatenate `runs` into `merged` and sort it once. The runs all
/// point into one partition, where `bucket_of` is monotone in the
/// pointer, so the sorted pairs fall into the `k` range buckets in
/// order and each boundary is one binary search. The
/// declared work is the bucket-then-sort kernel's: a histogram and a
/// scatter sweep of `bucket_of`, a 16-byte move per pair, and an
/// `n·log n` sort of each bucket.
fn sort_into_buckets(
    runs: &[Run],
    k: usize,
    bucket_of: impl Fn(SPtr) -> usize,
    merged: &mut PairVec,
    scratch: &mut RadixScratch,
    ops: &mut KernelOps,
) {
    merged.clear();
    merged.reserve(runs.iter().map(|r| r.len()).sum());
    for run in runs {
        merged.extend_from_slice(run);
    }
    sort_by_ptr(merged, scratch);
    let total = merged.len() as u64;
    ops.op(CpuOp::Hash, 2 * total);
    ops.moved(MoveKind::SP, total * 16);
    let mut start = 0;
    for b in 0..k {
        let len = merged[start..].partition_point(|&(p, _)| bucket_of(SPtr(p)) <= b);
        declare_sort(len as u64, ops);
        start += len;
    }
}

/// Modern Grace: runs ship *unsorted*; the owner radix-partitions them
/// into Grace's `K` range buckets.
fn run_grace<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    let k = grace::k_for(rels, spec).max(1);
    let hash = hybrid::HybridHashFn::new(rels.rel.s_part_bytes(), &hybrid::HybridPlan::grace(k));
    run_exchange(
        env,
        rels,
        spec,
        ["scan+radix", "bucket-join"],
        |_i, _j, run, _arena, _acc| Ok(run),
        |i, runs, merged, arena| {
            let bucket_of = |p| hash.route(p).unwrap_or(0) as usize;
            radix_gather(env, i, runs, k as usize, bucket_of, merged, arena)
        },
    )
}

/// Modern hybrid hash: bucket-0 (`f₀`-range) pairs are probed
/// immediately — home partition inside the pass-0 window, partner
/// partitions in staggered phase order — while spill pairs ship through
/// shared runs and take Grace's second-level radix in stage 1.
fn run_hybrid<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    let plan = hybrid::plan_for(rels, spec);
    let hash = hybrid::HybridHashFn::new(rels.rel.s_part_bytes(), &plan);
    let k = plan.k.max(1) as usize;
    run_exchange(
        env,
        rels,
        spec,
        ["scan+f0-join", "spill-join"],
        |i, j, run, arena, acc| {
            let (mut f0, spill) = split_f0(&hash, run, &mut arena.ops);
            sort_pairs(&mut f0, &mut arena.radix, &mut arena.ops);
            probe(env, i, j, rels, &f0, arena, acc)?;
            Ok(spill)
        },
        |i, runs, merged, arena| {
            let bucket_of = |p| hash.route(p).unwrap_or(0) as usize;
            radix_gather(env, i, runs, k, bucket_of, merged, arena)
        },
    )
}

/// Split a run into (bucket-0, spill) halves per the hybrid router:
/// count the bucket-0 pairs, then fill two exact-size vectors.
fn split_f0(hash: &hybrid::HybridHashFn, run: PairVec, ops: &mut KernelOps) -> (PairVec, PairVec) {
    ops.op(CpuOp::Hash, run.len() as u64);
    let f0_len = run.iter().filter(|&&(p, _)| hash.in_f0(SPtr(p))).count();
    let mut f0 = Vec::with_capacity(f0_len);
    let mut spill = Vec::with_capacity(run.len() - f0_len);
    for pair in run {
        if hash.in_f0(SPtr(pair.0)) {
            f0.push(pair);
        } else {
            spill.push(pair);
        }
    }
    (f0, spill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 64 MiB partitions, as in a 1 M × 128 B join over `D = 2`.
    const PART: u64 = 64 << 20;

    /// Deterministic pair generator: `n` pairs whose pointers follow
    /// `shape` — 0 full-range `u64`s, 1 a handful of duplicated
    /// pointers, 2 128-byte objects over four partitions, 3 objects of
    /// one partition — keyed by position.
    fn pairs(n: usize, shape: usize, seed: u64) -> PairVec {
        let mut x = seed;
        (0..n as u64)
            .map(|k| {
                // splitmix64
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let r = z ^ (z >> 31);
                let ptr = match shape {
                    0 => r,
                    1 => PART + r % 7 * 128,
                    2 => r % 4 * PART + (r >> 2) % (PART / 128) * 128,
                    _ => 3 * PART + r % (PART / 128) * 128,
                };
                (ptr, k)
            })
            .collect()
    }

    fn ptrs_of(run: &[(u64, u64)]) -> Vec<u64> {
        run.iter().map(|&(p, _)| p).collect()
    }

    fn sorted(mut run: PairVec) -> PairVec {
        run.sort_unstable();
        run
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The radix sort orders pointers exactly as `sort_unstable`
        /// does and keeps the same pair multiset, across the cutoff,
        /// with duplicates, several partitions, and full-range pointers
        /// (one to six passes, odd and even).
        #[test]
        fn radix_sort_matches_sort_unstable(
            size in 0usize..3,
            len in 0usize..4_000,
            shape in 0usize..4,
            seed in 0u64..=u64::MAX,
        ) {
            let n = match size {
                0 => RADIX_CUTOFF - 3 + len % 6,
                1 => len % RADIX_CUTOFF,
                _ => len,
            };
            let mut scratch = RadixScratch::default();
            let reference = sorted(pairs(n, shape, seed));
            let mut run = pairs(n, shape, seed);
            // A dirty, too-short scratch from an earlier run must not leak.
            scratch.tmp = vec![(7, 7); n / 2];
            sort_by_ptr(&mut run, &mut scratch);
            prop_assert_eq!(ptrs_of(&run), ptrs_of(&reference));
            prop_assert_eq!(sorted(run), reference);
        }

        /// The pairwise branch-free merge of `D` = 1..5 sorted runs is
        /// the sorted union, and declares the linear merge's work.
        #[test]
        fn merge_runs_is_the_sorted_union(
            d in 1usize..=5,
            len in 0usize..700,
            shape in 1usize..4,
            seed in 0u64..=u64::MAX,
        ) {
            let runs: Vec<Run> = (0..d)
                .map(|r| {
                    let n = (len * (r + 1) / d) % 700;
                    Arc::new(sorted(pairs(n, shape, seed ^ r as u64)))
                })
                .collect();
            let union: PairVec = runs.iter().flat_map(|r| r.iter().copied()).collect();
            let total = union.len() as u64;
            let reference = sorted(union);
            let mut out = vec![(1, 1)];
            let mut ops = KernelOps::new();
            merge_runs(&runs, &mut out, &mut ops);
            prop_assert_eq!(ptrs_of(&out), ptrs_of(&reference));
            prop_assert_eq!(sorted(out), reference);
            prop_assert_eq!(ops.cpu[CpuOp::Compare.index()], total * d as u64);
            prop_assert_eq!(ops.cpu[CpuOp::HeapTransfer.index()], total);
        }

        /// One sort plus binary-searched bucket boundaries hands the
        /// probe the pointer sequence of the bucket-then-sort kernel
        /// and declares exactly its `KernelOps`, for Grace's router and
        /// a hybrid spill router.
        #[test]
        fn sort_into_buckets_tallies_the_bucket_then_sort_kernel(
            d in 1usize..=4,
            len in 0usize..1_500,
            k in 1u64..40,
            f0_quarters in 0u64..3,
            seed in 0u64..=u64::MAX,
        ) {
            let plan = hybrid::HybridPlan {
                f0_bytes: f0_quarters * (PART / 4),
                f0: 0.0,
                k,
            };
            let hash = hybrid::HybridHashFn::new(PART, &plan);
            // The owner's runs: partition 3 only, spill pairs only.
            let runs: Vec<Run> = (0..d)
                .map(|r| {
                    let run = pairs(len * (r + 1) / d, 3, seed ^ r as u64);
                    Arc::new(run.into_iter().filter(|&(p, _)| !hash.in_f0(SPtr(p))).collect())
                })
                .collect();
            let bucket_of = |p| hash.route(p).unwrap_or(0) as usize;

            // The bucket-then-sort kernel this replaces.
            let mut want_ops = KernelOps::new();
            let mut buckets: Vec<PairVec> = vec![Vec::new(); k as usize];
            for run in &runs {
                for &(p, key) in run.iter() {
                    buckets[bucket_of(SPtr(p))].push((p, key));
                }
            }
            let total: u64 = buckets.iter().map(|b| b.len() as u64).sum();
            want_ops.op(CpuOp::Hash, 2 * total);
            want_ops.moved(MoveKind::SP, total * 16);
            let mut want = Vec::new();
            for mut bucket in buckets {
                let n = bucket.len() as u64;
                bucket.sort_unstable();
                if n > 1 {
                    let logn = (64 - (n - 1).leading_zeros()) as u64;
                    want_ops.op(CpuOp::Compare, n * logn);
                    want_ops.op(CpuOp::Swap, n * logn / 2);
                }
                want.extend(bucket);
            }

            let mut got = Vec::new();
            let mut ops = KernelOps::new();
            let mut scratch = RadixScratch::default();
            sort_into_buckets(&runs, k as usize, bucket_of, &mut got, &mut scratch, &mut ops);
            prop_assert_eq!(ops, want_ops);
            prop_assert_eq!(ptrs_of(&got), ptrs_of(&want));
            prop_assert_eq!(sorted(got), want);
        }
    }

    #[test]
    fn split_f0_routes_like_the_router() {
        let plan = hybrid::HybridPlan {
            f0_bytes: PART / 2,
            f0: 0.5,
            k: 3,
        };
        let hash = hybrid::HybridHashFn::new(PART, &plan);
        let run = pairs(1_000, 2, 5);
        let mut ops = KernelOps::new();
        let (f0, spill) = split_f0(&hash, run.clone(), &mut ops);
        let (want_f0, want_spill): (PairVec, PairVec) = run
            .into_iter()
            .partition(|&(p, _)| hash.route(SPtr(p)).is_none());
        assert_eq!((f0, spill), (want_f0, want_spill));
        assert_eq!(ops.cpu[CpuOp::Hash.index()], 1_000);
    }

    #[test]
    fn merge_runs_produces_sorted_union() {
        let runs: Vec<Run> = vec![
            Arc::new(vec![(1, 10), (5, 50), (9, 90)]),
            Arc::new(vec![(2, 20), (5, 51)]),
            Arc::new(vec![]),
            Arc::new(vec![(0, 0), (7, 70)]),
        ];
        let mut out = Vec::new();
        let mut ops = KernelOps::new();
        merge_runs(&runs, &mut out, &mut ops);
        assert_eq!(out.len(), 7);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.contains(&(5, 50)) && out.contains(&(5, 51)));
        assert!(!ops.is_empty());
    }

    #[test]
    fn sort_pairs_charges_nothing_for_singletons() {
        let mut ops = KernelOps::new();
        let mut scratch = RadixScratch::default();
        sort_pairs(&mut [(3, 3)], &mut scratch, &mut ops);
        assert!(ops.is_empty());
        let mut run = [(9u64, 1u64), (2, 2), (7, 3)];
        sort_pairs(&mut run, &mut scratch, &mut ops);
        assert_eq!(run[0].0, 2);
        assert!(!ops.is_empty());
    }

    #[test]
    fn le64_reads_little_endian() {
        let mut buf = vec![0u8; 24];
        buf[8..16].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(le64(&buf, 8), 0xDEAD_BEEF);
        assert_eq!(le64(&buf, 0), 0);
    }
}

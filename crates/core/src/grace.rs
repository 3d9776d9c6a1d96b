//! Parallel pointer-based Grace join (paper §7).
//!
//! Placement rule for the shared prologue ([`crate::repartition`]): each
//! R-object is *hashed* into one of `K` buckets of its target `RS_j`.
//! The hash is a **range partition of the virtual pointer**, so "each
//! hash bucket contains monotonically increasing locations in S_i" (§7)
//! — which is what lets the per-bucket join passes read `S_i`
//! (near-)sequentially with no hashing of `S` at all. It is
//! [`hybrid::HybridHashFn`] with an empty in-memory range.
//!
//! Pass `1+j` loads bucket `j` into an in-memory hash table of `TSIZE`
//! chains whose second-level hash is also range-based, then walks the
//! table in slot order: pointers come out ascending, common references
//! share a chain (so each S-object is fetched while its page is hot),
//! and the joins flow through the shared buffer.

use mmjoin_env::{CpuOp, Env, ProcId, Result, SPtr};
use mmjoin_model::{choose_k, choose_tsize};
use mmjoin_relstore::{r_key, r_sptr, ChunkedFile, Relations};

use crate::exec::{JoinAcc, JoinOutput, JoinSpec, SBatcher};
use crate::hybrid::{self, HybridPlan};
use crate::repartition::{rs_objects, Pass};

/// The `K` the implementation (and the model) uses for this spec.
pub fn k_for(rels: &Relations, spec: &JoinSpec) -> u64 {
    let worst_rs = (0..rels.rel.d)
        .map(|i| rs_objects(rels, i))
        .max()
        .unwrap_or(1);
    choose_k(worst_rs, rels.rel.r_size, spec.m_rproc)
}

/// Execute the join (S catalog must be registered): the hybrid router
/// with no in-memory range.
pub fn run<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    let plan = HybridPlan::grace(k_for(rels, spec));
    hybrid::run_plan(env, rels, spec, &plan, "bucket-join")
}

/// Pass `1+j` for every bucket of `RS_i`: build the `TSIZE`-chain table
/// (`chain(ptr, tsize)` is the second-level hash), walk it in order,
/// join through `Sproc_i`.
pub(crate) fn bucket_join<E: Env>(
    env: &E,
    rels: &Relations,
    spec: &JoinSpec,
    i: u32,
    rs: &ChunkedFile<E::File>,
    acc: &mut JoinAcc,
    chain: impl Fn(SPtr, u64) -> u32,
) -> Result<()> {
    let proc = ProcId::rproc(i);
    let pass = Pass::local(i);
    pass.start(env);
    let mut batcher = SBatcher::new(env, proc, i, rels, spec.g_buffer);
    let mut obj = vec![0u8; rels.rel.r_size as usize];
    let mut objects = 0u64;
    // One chain table reused across every bucket: `clear()` keeps each
    // chain's capacity, so the steady state allocates nothing per
    // bucket (`choose_tsize` varies, so the table only ever grows).
    let mut table: Vec<Vec<(SPtr, u64)>> = Vec::new();
    for bucket in 0..rs.num_streams() {
        let len = rs.stream_len(bucket);
        if len == 0 {
            continue;
        }
        objects += len;
        let tsize = choose_tsize(len);
        if table.len() < tsize as usize {
            table.resize_with(tsize as usize, Vec::new);
        }
        let mut reader = rs.stream_reader(bucket);
        while reader.next_into(proc, &mut obj)? {
            env.cpu(proc, CpuOp::Hash, 1);
            let ptr = r_sptr(&obj);
            table[chain(ptr, tsize) as usize].push((ptr, r_key(&obj)));
        }
        // Process the table in order: slot ranges are disjoint and
        // ascending; sorting within a chain keeps common references
        // adjacent so each S-object is fetched while its page is hot.
        for chain in &mut table[..tsize as usize] {
            if chain.is_empty() {
                continue;
            }
            chain.sort_unstable_by_key(|&(ptr, _)| ptr);
            for &(ptr, r_key) in chain.iter() {
                batcher.add(r_key, ptr, acc)?;
            }
            chain.clear();
        }
    }
    batcher.flush(acc)?;
    pass.end(env, objects, rels.rel.r_size as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridHashFn;

    /// Grace's two-level range hash: `K` buckets over `part_bytes`.
    fn grace_hash(part_bytes: u64, k: u64) -> HybridHashFn {
        HybridHashFn::new(part_bytes, &HybridPlan::grace(k))
    }

    fn bucket(h: &HybridHashFn, ptr: SPtr) -> u32 {
        h.route(ptr).expect("Grace spills every pointer")
    }

    #[test]
    fn range_hash_buckets_are_monotone_in_pointer() {
        let h = grace_hash(1 << 20, 16);
        let mut prev_bucket = 0;
        for step in 0..200u64 {
            let ptr = SPtr(step * ((1 << 20) / 200));
            let b = bucket(&h, ptr);
            assert!(b >= prev_bucket, "bucket order broke at {ptr}");
            assert!(b < 16);
            prev_bucket = b;
        }
    }

    #[test]
    fn range_hash_chain_is_monotone_within_bucket() {
        let h = grace_hash(1 << 20, 16);
        // Walk pointers inside bucket 3.
        let span = (1u64 << 20) / 16;
        let mut prev_chain = 0;
        for step in 0..100u64 {
            let ptr = SPtr(3 * span + step * span / 100);
            assert_eq!(bucket(&h, ptr), 3);
            let c = h.chain(ptr, 64);
            assert!(c >= prev_chain, "chain order broke at {ptr}");
            assert!(c < 64);
            prev_chain = c;
        }
    }

    #[test]
    fn range_hash_last_byte_stays_in_range() {
        let h = grace_hash(4096, 4);
        let ptr = SPtr(4095);
        assert_eq!(bucket(&h, ptr), 3);
        assert!(h.chain(ptr, 8) < 8);
    }
}

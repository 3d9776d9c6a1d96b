//! Parallel pointer-based **hybrid-hash** join — the paper's named
//! future work (§7: "Modelling of other more modern hash-based join
//! algorithms will be done in future work"), built from Shekita &
//! Carey's single-site hybrid hash \[33\] the way the paper built its
//! Grace variant.
//!
//! Hybrid hash improves Grace by holding the first bucket *in memory*:
//! objects hashing into bucket 0 never take the disk round-trip through
//! `RS`. In the pointer-based setting the "in-memory bucket" is a
//! *range of `S`*: bucket 0 covers the first `f₀` fraction of each `S`
//! partition — sized so that range fits comfortably in the owning
//! `Sproc`'s buffer — and R-objects pointing into it are joined
//! immediately through the shared buffer during passes 0 and 1, while
//! their page of `S` stays hot. Only the remaining `K` buckets are
//! written to `RS_i` and joined bucket-by-bucket with Grace's
//! `bucket_join`.
//!
//! That is this file's whole contribution to the shared prologue
//! ([`crate::repartition`]): the `f₀`/`K` plan and the router that
//! turns a pointer into "join now" or "spill bucket `b`". The phase
//! staggering keeps the immediate joins contention-free: in any phase,
//! `S_j` (bucket-0 range included) is touched by exactly one Rproc.

use mmjoin_env::{CpuOp, Env, Result, SPtr};
use mmjoin_model::choose_k;
use mmjoin_relstore::Relations;

use crate::exec::{JoinOutput, JoinSpec};
use crate::grace::bucket_join;
use crate::repartition::{self, rs_objects, Place, RsArea};

/// The memory-resident fraction `f₀` of each `S` partition and the
/// on-disk bucket layout for the rest.
#[derive(Clone, Copy, Debug)]
pub struct HybridPlan {
    /// Bytes of each `S` partition covered by the in-memory bucket.
    pub f0_bytes: u64,
    /// Fraction of the partition held in memory.
    pub f0: f64,
    /// Grace buckets over the remaining range.
    pub k: u64,
}

/// Choose `f₀` and `K` (§7.2 style): bucket 0 covers as much of `S` as
/// half the `Sproc` buffer can cache; the rest gets Grace's `K`.
pub fn plan_for(rels: &Relations, spec: &JoinSpec) -> HybridPlan {
    let part_bytes = rels.rel.s_part_bytes();
    let budget = spec.m_sproc / 2;
    let f0_bytes = budget.min(part_bytes);
    let f0 = f0_bytes as f64 / part_bytes as f64;
    // Worst-case spill objects: |RS_i| · (1 − f0).
    let worst_rs = (0..rels.rel.d)
        .map(|i| rs_objects(rels, i))
        .max()
        .unwrap_or(1);
    let spill = ((worst_rs as f64) * (1.0 - f0)).ceil().max(1.0) as u64;
    HybridPlan {
        f0_bytes,
        f0,
        k: choose_k(spill, rels.rel.r_size, spec.m_rproc),
    }
}

/// Two-level routing: in-memory range or spill bucket.
#[derive(Clone, Copy, Debug)]
pub struct HybridHashFn {
    part_bytes: u64,
    f0_bytes: u64,
    k: u64,
}

impl HybridHashFn {
    /// Build the router for the given plan.
    pub fn new(part_bytes: u64, plan: &HybridPlan) -> Self {
        HybridHashFn {
            part_bytes,
            f0_bytes: plan.f0_bytes,
            k: plan.k,
        }
    }

    /// `None` = bucket 0 (join immediately); `Some(b)` = spill bucket.
    /// Spill buckets, like Grace's, hold monotonically increasing `S`
    /// locations.
    pub fn route(&self, ptr: SPtr) -> Option<u32> {
        let off = ptr.offset(self.part_bytes);
        if off < self.f0_bytes {
            return None;
        }
        let span = self.part_bytes - self.f0_bytes;
        let within = (off - self.f0_bytes) as u128;
        Some(((within * self.k as u128) / span as u128).min(self.k as u128 - 1) as u32)
    }

    /// Second-level hash over the spill range: which chain of a
    /// `tsize`-slot table a pointer lands in, monotone *within its
    /// spill bucket* (so the table is processed in ascending `S`
    /// order, like Grace's).
    pub fn chain(&self, ptr: SPtr, tsize: u64) -> u32 {
        let span = (self.part_bytes - self.f0_bytes).max(1);
        let off = ptr.offset(self.part_bytes).saturating_sub(self.f0_bytes) as u128;
        let within_bucket = (off * self.k as u128) % span as u128;
        ((within_bucket * tsize as u128) / span as u128).min(tsize as u128 - 1) as u32
    }
}

/// Execute the join (S catalog must be registered).
pub fn run<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    let plan = plan_for(rels, spec);
    let hash = HybridHashFn::new(rels.rel.s_part_bytes(), &plan);
    let area = RsArea {
        buckets: plan.k as u32,
        scratch: None,
        local_stage: "spill-join",
        // Grace's per-bucket join, over the spilled buckets only.
        local_join: &|i, rs, acc| {
            bucket_join(env, rels, spec, i, rs, acc, |ptr, tsize| {
                hash.chain(ptr, tsize)
            })
        },
    };
    repartition::run(env, rels, spec, Some(area), |proc, ptr| {
        env.cpu(proc, CpuOp::Hash, 1);
        hash.route(ptr).map_or(Place::JoinNow, Place::Rs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_splits_at_f0_and_is_monotone() {
        let plan = HybridPlan {
            f0_bytes: 1000,
            f0: 0.25,
            k: 4,
        };
        let h = HybridHashFn::new(4000, &plan);
        assert_eq!(h.route(SPtr(0)), None);
        assert_eq!(h.route(SPtr(999)), None);
        let mut prev = -1i64;
        for off in (1000..4000).step_by(100) {
            let b = h.route(SPtr(off)).expect("spill range") as i64;
            assert!(b >= prev, "monotone buckets");
            assert!(b < 4);
            prev = b;
        }
        assert_eq!(h.route(SPtr(3999)), Some(3));
    }

    #[test]
    fn chain_is_monotone_within_a_spill_bucket() {
        let plan = HybridPlan {
            f0_bytes: 1000,
            f0: 0.25,
            k: 3,
        };
        let h = HybridHashFn::new(4000, &plan);
        // Walk pointers inside one spill bucket; chain indices must be
        // non-decreasing.
        let mut prev_chain = 0u32;
        let mut bucket = None;
        for off in (1000..2000).step_by(10) {
            let ptr = SPtr(off);
            let b = h.route(ptr).expect("spill");
            if bucket != Some(b) {
                bucket = Some(b);
                prev_chain = 0;
            }
            let c = h.chain(ptr, 16);
            assert!(c >= prev_chain, "chain order broke at off {off}");
            assert!(c < 16);
            prev_chain = c;
        }
    }

    #[test]
    fn zero_f0_degenerates_to_grace_routing() {
        let plan = HybridPlan {
            f0_bytes: 0,
            f0: 0.0,
            k: 8,
        };
        let h = HybridHashFn::new(4096, &plan);
        assert_eq!(h.route(SPtr(0)), Some(0));
        assert_eq!(h.route(SPtr(4095)), Some(7));
    }
}

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
//! turns a pointer into "join now" or "spill bucket `b`". With an empty
//! `f₀` range the router is Grace's two-level range hash, and
//! [`crate::grace::run`] is this join with that plan. The phase
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

impl HybridPlan {
    /// No in-memory range: every pointer spills into one of `k` range
    /// buckets, which makes [`HybridHashFn`] Grace's hash.
    pub(crate) fn grace(k: u64) -> Self {
        HybridPlan {
            f0_bytes: 0,
            f0: 0.0,
            k,
        }
    }
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

    /// Whether `ptr` lands in bucket 0 (`route` would say `None`).
    pub fn in_f0(&self, ptr: SPtr) -> bool {
        ptr.offset(self.part_bytes) < self.f0_bytes
    }

    /// `None` = bucket 0 (join immediately); `Some(b)` = spill bucket.
    /// Spill buckets, like Grace's, hold monotonically increasing `S`
    /// locations.
    pub fn route(&self, ptr: SPtr) -> Option<u32> {
        if self.in_f0(ptr) {
            return None;
        }
        let off = ptr.offset(self.part_bytes);
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
    run_plan(env, rels, spec, &plan_for(rels, spec), "spill-join")
}

/// Route every R-object with `plan`'s [`HybridHashFn`]: bucket 0 joins
/// on sight, the `K` spill buckets join in the stage named
/// `local_stage`.
pub(crate) fn run_plan<E: Env>(
    env: &E,
    rels: &Relations,
    spec: &JoinSpec,
    plan: &HybridPlan,
    local_stage: &str,
) -> Result<JoinOutput> {
    let hash = HybridHashFn::new(rels.rel.s_part_bytes(), plan);
    let area = RsArea {
        buckets: plan.k as u32,
        scratch: None,
        local_stage,
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

    fn plan(f0_bytes: u64, k: u64) -> HybridPlan {
        HybridPlan {
            f0_bytes,
            f0: 0.0,
            k,
        }
    }

    #[test]
    fn route_splits_at_f0_and_is_monotone() {
        // (part_bytes, f0_bytes, k); `f0_bytes = 0` is Grace's hash.
        for (part_bytes, f0_bytes, k) in [(4000u64, 1000, 4u64), (1 << 20, 0, 16)] {
            let h = HybridHashFn::new(part_bytes, &plan(f0_bytes, k));
            if f0_bytes > 0 {
                assert_eq!(h.route(SPtr(0)), None);
                assert_eq!(h.route(SPtr(f0_bytes - 1)), None);
            }
            let mut prev = 0;
            for step in 0..200 {
                let off = f0_bytes + step * ((part_bytes - f0_bytes) / 200);
                let b = h.route(SPtr(off)).expect("spill range");
                assert!(b >= prev, "bucket order broke at off {off}");
                assert!(b < k as u32);
                prev = b;
            }
            assert_eq!(h.route(SPtr(part_bytes - 1)), Some(k as u32 - 1));
        }
    }

    #[test]
    fn chain_is_monotone_within_a_spill_bucket() {
        // (part_bytes, f0_bytes, k, tsize, walked offsets): the second
        // case walks Grace's bucket 3 of 16.
        let span = (1u64 << 20) / 16;
        let cases = [
            (4000u64, 1000, 3u64, 16u64, 1000..2000, 10),
            (1 << 20, 0, 16, 64, 3 * span..4 * span, span / 100),
        ];
        for (part_bytes, f0_bytes, k, tsize, offs, step) in cases {
            let h = HybridHashFn::new(part_bytes, &plan(f0_bytes, k));
            let mut prev_chain = 0u32;
            let mut bucket = None;
            for off in offs.step_by(step as usize) {
                let ptr = SPtr(off);
                let b = h.route(ptr).expect("spill");
                if bucket != Some(b) {
                    bucket = Some(b);
                    prev_chain = 0;
                }
                let c = h.chain(ptr, tsize);
                assert!(c >= prev_chain, "chain order broke at off {off}");
                assert!(c < tsize as u32);
                prev_chain = c;
            }
        }
    }

    #[test]
    fn zero_f0_degenerates_to_grace_routing() {
        // (part_bytes, k, tsize): the first byte opens bucket 0, the
        // last byte lands in the last bucket and in a valid chain.
        for (part_bytes, k, tsize) in [(4096u64, 8u64, 16u64), (4096, 4, 8)] {
            let h = HybridHashFn::new(part_bytes, &HybridPlan::grace(k));
            assert_eq!(h.route(SPtr(0)), Some(0));
            assert_eq!(h.route(SPtr(part_bytes - 1)), Some(k as u32 - 1));
            assert!(h.chain(SPtr(part_bytes - 1), tsize) < tsize as u32);
        }
    }
}

//! # mmjoin — parallel pointer-based joins for memory-mapped environments
//!
//! A production-quality reproduction of *Buhr, Goel, Nishimura, Ragde:
//! "Parallel Pointer-Based Join Algorithms in Memory Mapped
//! Environments"* (ICDE 1996): three parallel join algorithms whose join
//! attribute is a **virtual pointer** into the inner relation, written
//! once against the [`mmjoin_env::Env`] abstraction and executable on
//!
//! * `mmjoin_vmsim::SimEnv` — an execution-driven simulator charging
//!   measured machine parameters (the paper's "Experiment" lines), and
//! * `mmjoin_mmstore::MmapEnv` — a real µDatabase-style memory-mapped
//!   store.
//!
//! The sibling crate `mmjoin-model` carries the paper's quantitative
//! analytical model; [`planner`] combines the two into the
//! query-optimizer use case the paper motivates.
//!
//! ## Quick start
//!
//! ```
//! use mmjoin::{join, Algo, ExecMode, JoinSpec};
//! use mmjoin_relstore::{build, RelConfig, PointerDist, WorkloadSpec};
//! use mmjoin_vmsim::{SimConfig, SimEnv};
//!
//! // A small machine: 2 disks, 64-page process budgets.
//! let mut cfg = SimConfig::waterloo96(2);
//! cfg.rproc_pages = 64;
//! cfg.sproc_pages = 64;
//! let env = SimEnv::new(cfg).unwrap();
//!
//! // A small workload: 2 000 × 2 000 objects of 64 bytes.
//! let spec = WorkloadSpec {
//!     rel: RelConfig { r_size: 64, s_size: 64, d: 2, r_objects: 2_000, s_objects: 2_000 },
//!     dist: PointerDist::Uniform,
//!     seed: 42,
//!     prefix: String::new(),
//! };
//! let rels = build(&env, &spec).unwrap();
//!
//! // Join with Grace; verify against the workload oracle.
//! let jspec = JoinSpec::new(64 * 4096, 64 * 4096).with_mode(ExecMode::Sequential);
//! let out = join(&env, &rels, Algo::Grace, &jspec).unwrap();
//! assert_eq!(out.pairs, rels.expected_pairs);
//! assert_eq!(out.checksum, rels.expected_checksum);
//! assert!(out.elapsed > 0.0); // simulated seconds
//! ```

pub mod exec;
pub mod grace;
pub mod hybrid;
pub mod modern;
pub mod naive;
pub mod nested_loops;
pub mod pheap;
pub mod planner;
pub mod repartition;
pub mod retry;
pub mod sort_merge;
pub mod stats;

pub use exec::{
    finish, run_stages, stage_summary, ExecMode, JoinAcc, JoinOutput, JoinSpec, SBatcher,
    SharedSlots,
};
pub use planner::{
    choose, choose_auto, explain, inputs_for, probe_cost, AutoPlan, PlanChoice, SkewSource,
};
pub use retry::{
    join_with_retry, join_with_retry_report, new_files_since, new_files_since_tagged, RetryPolicy,
    RetryReport,
};
pub use stats::{Reservoir, SampleSummary, HISTOGRAM_BUCKETS, SAMPLE_CAP};

use mmjoin_env::{Env, Result};
use mmjoin_relstore::Relations;

/// An executable join algorithm: the paper's three, plus the naive
/// baseline its §5 argues against.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Algo {
    /// Parallel pointer-based nested loops (§5).
    NestedLoops,
    /// Parallel pointer-based sort-merge (§6).
    SortMerge,
    /// Parallel pointer-based Grace (§7).
    Grace,
    /// Parallel pointer-based hybrid hash (extension: Grace with a
    /// memory-resident first bucket).
    HybridHash,
    /// Naive parallel nested loops: no re-partitioning, no staggering.
    NaiveNestedLoops,
}

impl Algo {
    /// All executable algorithms.
    pub const ALL: [Algo; 5] = [
        Algo::NestedLoops,
        Algo::SortMerge,
        Algo::Grace,
        Algo::HybridHash,
        Algo::NaiveNestedLoops,
    ];

    /// Parse a display name back into an algorithm.
    pub fn from_name(s: &str) -> Option<Algo> {
        Algo::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::NestedLoops => "nested-loops",
            Algo::SortMerge => "sort-merge",
            Algo::Grace => "grace",
            Algo::HybridHash => "hybrid-hash",
            Algo::NaiveNestedLoops => "naive",
        }
    }

    /// The analytical model's counterpart, if it has one.
    pub fn modelled(self) -> Option<mmjoin_model::Algorithm> {
        match self {
            Algo::NestedLoops => Some(mmjoin_model::Algorithm::NestedLoops),
            Algo::SortMerge => Some(mmjoin_model::Algorithm::SortMerge),
            Algo::Grace => Some(mmjoin_model::Algorithm::Grace),
            Algo::HybridHash => Some(mmjoin_model::Algorithm::HybridHash),
            Algo::NaiveNestedLoops => None,
        }
    }
}

impl From<mmjoin_model::Algorithm> for Algo {
    fn from(a: mmjoin_model::Algorithm) -> Self {
        match a {
            mmjoin_model::Algorithm::NestedLoops => Algo::NestedLoops,
            mmjoin_model::Algorithm::SortMerge => Algo::SortMerge,
            mmjoin_model::Algorithm::Grace => Algo::Grace,
            mmjoin_model::Algorithm::HybridHash => Algo::HybridHash,
        }
    }
}

/// Run one join end to end: registers the S catalog, executes the `D`
/// Rprocs, releases the S catalog, and returns the verifiable output.
///
/// [`ExecMode::Modern`] routes every algorithm through the
/// cache-conscious kernels in [`modern`]; the faithful 1996 inner loops
/// run otherwise. Both produce the identical join pair set and
/// checksum.
pub fn join<E: Env>(env: &E, rels: &Relations, alg: Algo, spec: &JoinSpec) -> Result<JoinOutput> {
    env.register_s(rels.catalog.clone())?;
    let result = if spec.mode == ExecMode::Modern {
        modern::run(env, rels, alg, spec)
    } else {
        match alg {
            Algo::NestedLoops => nested_loops::run(env, rels, spec),
            Algo::SortMerge => sort_merge::run(env, rels, spec),
            Algo::Grace => grace::run(env, rels, spec),
            Algo::HybridHash => hybrid::run(env, rels, spec),
            Algo::NaiveNestedLoops => naive::run(env, rels, spec),
        }
    };
    env.shutdown_s();
    result
}

/// Convenience: check a join output against its workload oracle.
pub fn verify(out: &JoinOutput, rels: &Relations) -> Result<()> {
    if out.pairs != rels.expected_pairs {
        return Err(mmjoin_env::EnvError::InvalidConfig(format!(
            "join produced {} pairs, expected {}",
            out.pairs, rels.expected_pairs
        )));
    }
    if out.checksum != rels.expected_checksum {
        return Err(mmjoin_env::EnvError::InvalidConfig(format!(
            "join checksum {:#x} != expected {:#x}",
            out.checksum, rels.expected_checksum
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
    use mmjoin_vmsim::{SimConfig, SimEnv};

    fn small_workload(d: u32, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            rel: RelConfig {
                r_size: 32,
                s_size: 32,
                d,
                r_objects: 1_200,
                s_objects: 1_200,
            },
            dist: PointerDist::Uniform,
            seed,
            prefix: String::new(),
        }
    }

    fn sim(d: u32, pages: usize) -> SimEnv {
        let mut cfg = SimConfig::waterloo96(d);
        cfg.rproc_pages = pages;
        cfg.sproc_pages = pages;
        SimEnv::new(cfg).unwrap()
    }

    #[test]
    fn all_algorithms_produce_the_oracle_join() {
        for alg in Algo::ALL {
            let env = sim(4, 16);
            let rels = build(&env, &small_workload(4, 9)).unwrap();
            let spec = JoinSpec::new(16 * 4096, 16 * 4096).with_mode(ExecMode::Sequential);
            let out = join(&env, &rels, alg, &spec).unwrap();
            verify(&out, &rels).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert!(out.elapsed > 0.0, "{}", alg.name());
        }
    }

    #[test]
    fn threaded_mode_matches_sequential_results() {
        for alg in [Algo::NestedLoops, Algo::SortMerge, Algo::Grace] {
            let env = sim(4, 16);
            let rels = build(&env, &small_workload(4, 11)).unwrap();
            let spec = JoinSpec::new(16 * 4096, 16 * 4096).with_mode(ExecMode::Threaded);
            let out = join(&env, &rels, alg, &spec).unwrap();
            verify(&out, &rels).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        }
    }

    #[test]
    fn sync_phases_still_correct() {
        let env = sim(4, 16);
        let rels = build(&env, &small_workload(4, 13)).unwrap();
        let mut spec = JoinSpec::new(16 * 4096, 16 * 4096).with_mode(ExecMode::Threaded);
        spec.sync_phases = true;
        let out = join(&env, &rels, Algo::NestedLoops, &spec).unwrap();
        verify(&out, &rels).unwrap();
    }

    #[test]
    fn tagged_runs_share_one_environment() {
        let env = sim(2, 16);
        let rels = build(&env, &small_workload(2, 5)).unwrap();
        for (t, alg) in [(1, Algo::Grace), (2, Algo::SortMerge)] {
            let spec = JoinSpec::new(16 * 4096, 16 * 4096)
                .with_mode(ExecMode::Sequential)
                .with_tag(&format!("run{t}"));
            let out = join(&env, &rels, alg, &spec).unwrap();
            verify(&out, &rels).unwrap();
        }
    }

    #[test]
    fn cross_partition_skew_survives_every_algorithm() {
        for alg in Algo::ALL {
            let env = sim(4, 16);
            let mut w = small_workload(4, 17);
            w.dist = PointerDist::CrossPartition;
            let rels = build(&env, &w).unwrap();
            assert_eq!(rels.skew, 4.0);
            let spec = JoinSpec::new(16 * 4096, 16 * 4096).with_mode(ExecMode::Sequential);
            let out = join(&env, &rels, alg, &spec).unwrap();
            verify(&out, &rels).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        }
    }

    #[test]
    fn tiny_memory_still_correct_if_slow() {
        // 4-page budgets: pathological paging, but the join must remain
        // exact.
        for alg in [Algo::SortMerge, Algo::Grace] {
            let env = sim(2, 4);
            let rels = build(&env, &small_workload(2, 23)).unwrap();
            let spec = JoinSpec::new(4 * 4096, 4 * 4096).with_mode(ExecMode::Sequential);
            let out = join(&env, &rels, alg, &spec).unwrap();
            verify(&out, &rels).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        }
    }

    #[test]
    fn d_equals_one_degenerates_gracefully() {
        for alg in Algo::ALL {
            let env = sim(1, 16);
            let mut w = small_workload(1, 3);
            w.rel.r_objects = 500;
            w.rel.s_objects = 500;
            let rels = build(&env, &w).unwrap();
            let spec = JoinSpec::new(16 * 4096, 16 * 4096).with_mode(ExecMode::Sequential);
            let out = join(&env, &rels, alg, &spec).unwrap();
            verify(&out, &rels).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        }
    }
}

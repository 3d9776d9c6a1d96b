//! Parallel pointer-based nested loops (paper §5).
//!
//! The shared prologue ([`crate::repartition`]) with the simplest
//! placement rule: every object is joined on sight through the owning
//! `Sproc`'s shared buffer — `R_{i,i}` during pass 0 (the §5.1
//! optimization), `R_{i,j}` in the phase that makes `S_j` private. No
//! `RS` area, no local join pass. Phases are unsynchronized by default
//! (§5.1 measured ≤0.5% difference); `JoinSpec::sync_phases` inserts
//! barriers for that ablation.

use mmjoin_env::{Env, Result};
use mmjoin_relstore::Relations;

use crate::exec::{JoinOutput, JoinSpec};
use crate::repartition::{self, Place};

/// Execute the join. The environment's S catalog must already be
/// registered (the public `join()` entry point does this).
pub fn run<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    repartition::run(env, rels, spec, None, |_, _| Place::JoinNow)
}

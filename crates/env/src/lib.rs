//! # mmjoin-env — shared environment abstraction
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: the [`Env`]/[`FileOps`] traits through which the parallel
//! pointer-based join algorithms access storage, the cost taxonomy of the
//! analytical model ([`CpuOp`], [`MoveKind`]), the measured machine
//! parameters ([`machine::MachineParams`]), and the identifiers for
//! processes, disks and virtual pointers.
//!
//! The join algorithms in the `mmjoin` crate are written **once** against
//! [`Env`] and executed on two implementations:
//!
//! * `mmjoin-vmsim`'s `SimEnv` — an execution-driven simulator that runs
//!   the algorithms on real data while charging every page fault, memory
//!   move, CPU operation and context switch against a parameterized
//!   machine (this is the "experiment" line of the paper's Figure 5);
//! * `mmjoin-mmstore`'s `MmapEnv` — a real memory-mapped single-level
//!   store in the style of µDatabase, used for functional validation and
//!   for measuring real mapping setup costs (Figure 1b).
//!
//! The split mirrors the paper's method: the same algorithm text is both
//! analyzed (via `mmjoin-model`, which consumes the same
//! [`machine::MachineParams`]) and measured (via the environments).

pub mod cost;
pub mod error;
pub mod faults;
pub mod hist;
pub mod ids;
pub mod machine;
pub mod options;
pub mod stats;
pub mod trace;
pub mod traits;

pub use cost::{CpuOp, KernelOps, MoveKind};
pub use error::{EnvError, Result};
pub use faults::{FaultKind, FaultSpec, FaultStats, FaultyEnv, FaultyFile, Outcome};
pub use hist::Histogram;
pub use ids::{DiskId, ProcId, SPtr};
pub use options::Options;
pub use stats::{EnvStats, ProcStats};
pub use trace::{
    null_sink, CollectingSink, JsonlSink, MapOp, NullSink, TraceEvent, TraceRecord, TraceSink,
};
pub use traits::{Env, FileOps, SCatalog};

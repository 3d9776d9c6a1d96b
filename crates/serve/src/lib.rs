//! # mmjoin-serve — a concurrent multi-query join service
//!
//! The paper sizes every join by its per-process memory budgets
//! (`M_Rproc_i`, `M_Sproc_i`) and runs one join at a time. A real
//! µDatabase-style installation faces the next problem up: many join
//! queries arriving concurrently, all drawing on one machine's memory.
//! This crate closes that gap with a small service:
//!
//! * a **job queue + admission controller** that holds pending
//!   requests and admits one only when its `m_rproc × D` footprint fits
//!   the configured budget — FIFO by default, or
//!   shortest-predicted-job-first using the planner's
//!   ([`mmjoin::choose`]) predicted seconds as the priority key;
//! * an **executor pool** of worker threads running admitted jobs on
//!   either the execution-driven simulator or the real memory-mapped
//!   store, each through [`run_join`], the one-job path `mmjoin join`
//!   takes too;
//! * a **service stats layer** ([`ServiceStats`]) folding per-job
//!   process counters into service-level totals, with a JSON snapshot.
//!
//! There is one scheduler, [`ShardedService`]: the global budget
//! partitioned across N shards — each with its own queue, worker pool,
//! and counters — with a [`Placement`] policy choosing, at submission,
//! the one shard that runs each job. The single-queue [`Service`] is that
//! scheduler with N = 1 (one slice holding the whole budget), kept as
//! its own type so callers with no placement to choose need not name
//! one. Both implement the [`JoinService`] trait.
//!
//! ```
//! use mmjoin_serve::{JobRequest, ServeConfig, Service, PAGE};
//!
//! // A 32-page global budget; jobs of 16 pages each ⇒ two at a time.
//! let svc = Service::start(ServeConfig::sim(32 * PAGE, 4)).unwrap();
//! for seed in 0..4 {
//!     svc.submit(JobRequest::new(800, 32, 2, 8, seed)).unwrap();
//! }
//! let (results, stats) = svc.finish();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.verified));
//! assert!(stats.peak_budget_bytes <= stats.budget_bytes);
//! ```
//!
//! More shards are a drop-in replacement behind [`JoinService`]:
//!
//! ```
//! use mmjoin_serve::{
//!     JobRequest, JoinService, PlacementKind, ServeConfig, ShardedService, PAGE,
//! };
//!
//! let svc = ShardedService::start(
//!     ServeConfig::sim(32 * PAGE, 2),
//!     4,
//!     PlacementKind::default().build(),
//! )
//! .unwrap();
//! for seed in 0..4 {
//!     svc.submit(JobRequest::new(800, 32, 2, 4, seed)).unwrap();
//! }
//! let (results, stats) = svc.finish();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.verified));
//! // Per-shard slices sum to the global budget, so the merged peak
//! // still respects it.
//! assert!(stats.peak_budget_bytes <= stats.budget_bytes);
//! ```

pub mod admission;
pub mod job;
pub mod placement;
mod plan;
mod recovery;
pub mod service;
pub mod shard;
pub mod stats;

pub use admission::{AdmissionPolicy, Candidate};
pub use job::{JobId, JobRequest, JobResult, PlanMode, PAGE};
pub use placement::{Placement, PlacementKind, PredictedBalanced, ShardLoad};
pub use recovery::{open_journal, refused_completion, replayed_error, resume_jobs, ResumedJob};
pub use service::{run_join, service_machine, EnvKind, JoinRun, JoinService, ServeConfig, Service};
pub use shard::ShardedService;
pub use stats::ServiceStats;

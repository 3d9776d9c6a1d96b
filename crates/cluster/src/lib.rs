//! Fault-tolerant multi-node join cluster.
//!
//! This crate lifts the single-process join service
//! ([`mmjoin_serve`]) to a coordinator/worker cluster in the spirit of
//! the paper's multi-machine outlook: each worker node is one `mmjoin
//! serve --node` process wrapping a local [`Service`] with its own
//! calibrated machine profile, and one [`Coordinator`] dispatches jobs
//! over a small length-prefixed RPC protocol ([`wire`]).
//!
//! On one host the tier buys no throughput over a local service (a job
//! goes to whichever node has room for it first); it exists for its
//! fault model, which is what happens when a node dies:
//!
//! * **Failure detection** — heartbeat pings with a configurable
//!   timeout; an unanswered heartbeat, an exhausted reconnect budget,
//!   or a corrupt protocol stream declares the node dead.
//! * **Re-queue** — the dead node's in-flight and queued jobs move
//!   back to the pending queue with the retry layer's exponential
//!   backoff, and run on survivors. Dispatch is at-least-once; results
//!   are exactly-once by id dedup on both sides.
//! * **Degradation** — admission re-plans against the surviving
//!   nodes' aggregate budget; jobs that fit nowhere fail fast instead
//!   of waiting for capacity that is gone.
//! * **Coordinator recovery** — an optional write-ahead journal
//!   (reusing [`mmjoin_recovery`]) makes coordinator crash-restart
//!   resume dispatch without re-running or double-reporting finished
//!   jobs.
//!
//! [`Service`]: mmjoin_serve::Service

mod coordinator;
mod node;
mod stats;
pub mod wire;

pub use coordinator::{ClusterConfig, ClusterJobResult, Coordinator};
pub use node::NodeServer;
pub use stats::ClusterStats;
pub use wire::Message;

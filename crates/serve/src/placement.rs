//! Cross-shard placement: which shard a submitted job should queue on.
//!
//! The sharded service splits the global budget into per-shard
//! partitions (DeWitt & Gray's shared-nothing argument applied to the
//! service itself). Placement decides, at submission time, which shard
//! owns a job; work stealing later corrects placements that turn out
//! unbalanced. The three stock policies trade information for balance
//! quality:
//!
//! * [`RoundRobin`] uses no load information at all;
//! * [`LeastLoaded`] balances *memory*: the shard with the fewest
//!   reserved bytes (queued + running footprints) wins;
//! * [`PredictedBalanced`] balances *time*: the shard with the smallest
//!   planner-predicted backlog in seconds wins — the same cost model
//!   ([`mmjoin::choose`]) the admission controller already ranks jobs
//!   with.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::admission::Candidate;

/// What a placement policy sees of one shard at submission time.
#[derive(Clone, Copy, Debug)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: u32,
    /// The shard's budget partition in bytes.
    pub budget_bytes: u64,
    /// Footprint bytes reserved by running jobs plus footprint bytes of
    /// queued jobs — the shard's total memory commitment.
    pub reserved_bytes: u64,
    /// Jobs queued but not yet admitted.
    pub queued: usize,
    /// Planner-predicted seconds of work queued plus running.
    pub backlog_seconds: f64,
}

/// A cross-shard placement policy. Implementations must be cheap: one
/// call per submission, under no lock.
pub trait Placement: Send + Sync {
    /// Display name (used in reports and JSON).
    fn name(&self) -> &str;

    /// The shard `job` should queue on, as an index into `loads`, or
    /// `None` when no shard's budget partition can ever hold the job's
    /// footprint — the job is rejected at submit (with one shard the
    /// partition is the whole budget).
    fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize>;
}

/// Indices of the shards whose budget partition can hold `job` at all.
fn eligible<'a>(job: &'a Candidate, loads: &'a [ShardLoad]) -> impl Iterator<Item = usize> + 'a {
    loads
        .iter()
        .enumerate()
        .filter(move |(_, l)| l.budget_bytes >= job.footprint)
        .map(|(i, _)| i)
}

/// Rotate through the shards in submission order, skipping shards whose
/// budget partition cannot hold the job.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: AtomicUsize,
}

impl Placement for RoundRobin {
    fn name(&self) -> &str {
        "rr"
    }

    fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize> {
        if loads.is_empty() {
            return None;
        }
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        (0..loads.len())
            .map(|k| (start + k) % loads.len())
            .find(|&i| loads[i].budget_bytes >= job.footprint)
    }
}

/// The eligible shard with the fewest reserved bytes (queued + running
/// footprints). Ties fall to the lowest shard index.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl Placement for LeastLoaded {
    fn name(&self) -> &str {
        "load"
    }

    fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize> {
        eligible(job, loads).min_by_key(|&i| (loads[i].reserved_bytes, i))
    }
}

/// The eligible shard with the smallest planner-predicted backlog in
/// seconds. Ties fall back to reserved bytes, then to the lowest index —
/// so with an empty service it degenerates to lowest-index placement,
/// and under uniform predictions to [`LeastLoaded`].
#[derive(Debug, Default)]
pub struct PredictedBalanced;

impl Placement for PredictedBalanced {
    fn name(&self) -> &str {
        "pred"
    }

    fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize> {
        eligible(job, loads).min_by(|&a, &b| {
            loads[a]
                .backlog_seconds
                .total_cmp(&loads[b].backlog_seconds)
                .then(loads[a].reserved_bytes.cmp(&loads[b].reserved_bytes))
                .then(a.cmp(&b))
        })
    }
}

/// Nameable stock policies, for CLI parsing.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PlacementKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`PredictedBalanced`] — the default: it folds the planner's cost
    /// model into placement for free.
    #[default]
    PredictedBalanced,
}

impl PlacementKind {
    /// Parse `rr` | `load` | `pred`.
    pub fn from_name(s: &str) -> Option<PlacementKind> {
        match s {
            "rr" => Some(PlacementKind::RoundRobin),
            "load" => Some(PlacementKind::LeastLoaded),
            "pred" => Some(PlacementKind::PredictedBalanced),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementKind::RoundRobin => "rr",
            PlacementKind::LeastLoaded => "load",
            PlacementKind::PredictedBalanced => "pred",
        }
    }

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn Placement> {
        match self {
            PlacementKind::RoundRobin => Box::new(RoundRobin::default()),
            PlacementKind::LeastLoaded => Box::new(LeastLoaded),
            PlacementKind::PredictedBalanced => Box::new(PredictedBalanced),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(footprint: u64, predicted_seconds: f64) -> Candidate {
        Candidate {
            footprint,
            predicted_seconds,
        }
    }

    fn load(shard: u32, budget: u64, reserved: u64, backlog: f64) -> ShardLoad {
        ShardLoad {
            shard,
            budget_bytes: budget,
            reserved_bytes: reserved,
            queued: 0,
            backlog_seconds: backlog,
        }
    }

    #[test]
    fn round_robin_rotates_and_skips_undersized_shards() {
        let rr = RoundRobin::default();
        let loads = [
            load(0, 100, 0, 0.0),
            load(1, 10, 0, 0.0),
            load(2, 100, 0, 0.0),
        ];
        let j = job(50, 1.0);
        let picks: Vec<usize> = (0..6).map(|_| rr.place(&j, &loads).unwrap()).collect();
        // Shard 1 (budget 10 < 50) is never picked; both eligible
        // shards keep getting work as the cursor rotates.
        assert!(picks.iter().all(|&i| i == 0 || i == 2), "{picks:?}");
        assert!(picks.contains(&0) && picks.contains(&2), "{picks:?}");
    }

    #[test]
    fn least_loaded_minimizes_reserved_bytes() {
        let loads = [
            load(0, 100, 80, 1.0),
            load(1, 100, 20, 9.0),
            load(2, 100, 50, 0.5),
        ];
        assert_eq!(LeastLoaded.place(&job(60, 1.0), &loads), Some(1));
        // Ties break to the lowest index.
        let even = [load(0, 100, 30, 0.0), load(1, 100, 30, 0.0)];
        assert_eq!(LeastLoaded.place(&job(10, 1.0), &even), Some(0));
    }

    #[test]
    fn predicted_balanced_minimizes_backlog_seconds() {
        let loads = [
            load(0, 100, 10, 5.0),
            load(1, 100, 90, 1.0),
            load(2, 100, 40, 3.0),
        ];
        // Shard 1 has the least predicted backlog despite the most
        // reserved bytes.
        assert_eq!(PredictedBalanced.place(&job(10, 1.0), &loads), Some(1));
        // Backlog ties fall back to reserved bytes.
        let tied = [load(0, 100, 50, 2.0), load(1, 100, 10, 2.0)];
        assert_eq!(PredictedBalanced.place(&job(10, 1.0), &tied), Some(1));
    }

    #[test]
    fn oversized_jobs_place_nowhere() {
        let loads = [load(0, 32, 0, 0.0), load(1, 32, 0, 0.0)];
        let j = job(64, 1.0);
        assert_eq!(RoundRobin::default().place(&j, &loads), None);
        assert_eq!(LeastLoaded.place(&j, &loads), None);
        assert_eq!(PredictedBalanced.place(&j, &loads), None);
        assert_eq!(RoundRobin::default().place(&j, &[]), None);
    }

    #[test]
    fn kinds_round_trip_and_build() {
        for kind in [
            PlacementKind::RoundRobin,
            PlacementKind::LeastLoaded,
            PlacementKind::PredictedBalanced,
        ] {
            assert_eq!(PlacementKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PlacementKind::from_name("random"), None);
    }
}

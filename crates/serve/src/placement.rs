//! Cross-shard placement: which shard a submitted job should queue on.
//!
//! The sharded service splits the global budget into per-shard
//! partitions (DeWitt & Gray's shared-nothing argument applied to the
//! service itself). Placement decides, at submission time, which shard
//! owns and runs a job; nothing moves it afterwards, as the paper's
//! Rproc/Sproc schedule moves no work at run time. The stock policy,
//! [`PredictedBalanced`], balances *time*:
//! the shard with the smallest planner-predicted backlog in seconds
//! wins — the same cost model ([`mmjoin::choose`]) the admission
//! controller already ranks jobs with.

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
    /// The shard `job` should queue on, as an index into `loads`, or
    /// `None` when no shard's budget partition can ever hold the job's
    /// footprint — the job is rejected at submit (with one shard the
    /// partition is the whole budget).
    fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize>;
}

/// The shard whose budget partition can hold `job` and whose
/// planner-predicted backlog in seconds is smallest. Ties fall back to
/// reserved bytes, then to the lowest index — so with an empty service
/// it degenerates to lowest-index placement.
#[derive(Debug, Default)]
pub struct PredictedBalanced;

impl Placement for PredictedBalanced {
    fn place(&self, job: &Candidate, loads: &[ShardLoad]) -> Option<usize> {
        (0..loads.len())
            .filter(|&i| loads[i].budget_bytes >= job.footprint)
            .min_by(|&a, &b| {
                loads[a]
                    .backlog_seconds
                    .total_cmp(&loads[b].backlog_seconds)
                    .then(loads[a].reserved_bytes.cmp(&loads[b].reserved_bytes))
                    .then(a.cmp(&b))
            })
    }
}

/// The stock placement policy, as a value a caller can build.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PlacementKind {
    /// [`PredictedBalanced`]: it folds the planner's cost model into
    /// placement for free.
    #[default]
    PredictedBalanced,
}

impl PlacementKind {
    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn Placement> {
        match self {
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
        assert_eq!(PredictedBalanced.place(&j, &loads), None);
        assert_eq!(PredictedBalanced.place(&j, &[]), None);
        // An undersized shard is skipped even with the smallest backlog.
        let mixed = [load(0, 32, 0, 0.0), load(1, 100, 0, 5.0)];
        assert_eq!(PredictedBalanced.place(&j, &mixed), Some(1));
    }
}

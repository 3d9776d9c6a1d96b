//! Submit-time auto-planning (`plan=auto`): sample the workload's
//! pointer distribution, summarize it, and let the data-aware planner
//! re-shape the request *before* admission control sees it.
//!
//! The mutation happens before the footprint is computed, so the
//! admission controller budgets — and the worker reserves — the
//! *chosen* `m_rproc`, not the submitted one. Sampling is seeded from
//! the workload seed, so a resumed service re-resolves a journaled
//! `plan=auto` line to the identical plan.

use mmjoin::{choose_auto, AutoPlan, SampleSummary, SAMPLE_CAP};
use mmjoin_env::TraceEvent;

use crate::job::{JobId, JobRequest, PlanMode};
use crate::service::ServeConfig;

/// The provenance of a resolved `plan=auto` request: what was sampled
/// and what the planner chose from it.
pub(crate) struct ResolvedPlan {
    /// The full data-aware decision (algorithm ranking at the chosen
    /// grant, skew, partitions, provenance).
    pub(crate) auto: AutoPlan,
    /// Pointers sampled at submit time.
    pub(crate) sampled: u64,
    /// Pointer duplication factor of the sample.
    pub(crate) duplication: f64,
}

impl ResolvedPlan {
    /// The two lifecycle events narrating this plan, in emission order.
    pub(crate) fn trace_events(&self, job: JobId) -> [TraceEvent; 2] {
        [
            TraceEvent::PlanSampled {
                job,
                sampled: self.sampled,
                skew: self.auto.skew,
                duplication: self.duplication,
            },
            TraceEvent::PlanChosen {
                job,
                algorithm: self.auto.choice.algorithm.name().to_string(),
                m_rproc: self.auto.m_rproc,
                partitions: self.auto.partitions,
                skew: self.auto.skew,
                source: self.auto.source.name().to_string(),
            },
        ]
    }
}

/// Resolve a request's plan in place. `plan=fixed` requests pass
/// through untouched (`None`); `plan=auto` requests are sampled
/// ([`SAMPLE_CAP`] pointers drawn from the workload distribution,
/// bounded cost, deterministic per seed) and their memory grants
/// replaced by the planner's choice. The algorithm is *not* pinned:
/// the queued plan already ranks algorithms at the chosen grant, and
/// leaving `alg=auto` lets graceful degradation re-plan at a halved
/// footprint later.
pub(crate) fn resolve_auto(
    cfg: &ServeConfig,
    req: &mut JobRequest,
) -> Result<Option<ResolvedPlan>, String> {
    if req.plan != PlanMode::Auto {
        return Ok(None);
    }
    let summary = SampleSummary::of_spec(&req.workload, SAMPLE_CAP);
    let auto = choose_auto(cfg.machine()?, &req.planner_inputs(), Some(&summary));
    req.m_rproc = auto.m_rproc;
    req.m_sproc = auto.m_sproc;
    Ok(Some(ResolvedPlan {
        sampled: summary.sampled,
        duplication: summary.duplication,
        auto,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PAGE;

    #[test]
    fn fixed_requests_pass_through() {
        let cfg = ServeConfig::sim(256 * PAGE, 1);
        let mut req = JobRequest::new(2_000, 64, 2, 32, 1);
        let before = req.m_rproc;
        assert!(resolve_auto(&cfg, &mut req).unwrap().is_none());
        assert_eq!(req.m_rproc, before);
    }

    #[test]
    fn auto_requests_are_resampled_deterministically() {
        let cfg = ServeConfig::sim(1 << 30, 1);
        let mut a = JobRequest::new(8_000, 64, 4, 4_096, 7);
        a.plan = PlanMode::Auto;
        let mut b = a.clone();
        let ra = resolve_auto(&cfg, &mut a).unwrap().unwrap();
        let rb = resolve_auto(&cfg, &mut b).unwrap().unwrap();
        assert_eq!(a.m_rproc, b.m_rproc);
        assert_eq!(ra.auto.skew.to_bits(), rb.auto.skew.to_bits());
        assert_eq!(ra.sampled, rb.sampled);
        // A grossly oversized grant is trimmed, so admission reserves
        // the chosen footprint, not the submitted one.
        assert!(a.m_rproc < 4_096 * PAGE, "grant {} not trimmed", a.m_rproc);
        let events = ra.trace_events(3);
        assert_eq!(events[0].tag(), "plan_sampled");
        assert_eq!(events[1].tag(), "plan_chosen");
    }
}

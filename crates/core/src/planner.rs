//! A model-driven join planner — the use case the paper names for its
//! quantitative model: "a quantitative model is an essential tool for
//! subsystems such as a query optimizer" (§1).
//!
//! Given the machine's measured parameters and a join's shape, the
//! planner evaluates all three analytical cost functions and picks the
//! cheapest algorithm, returning the full prediction table so callers
//! can audit the decision.

use mmjoin_env::machine::MachineParams;
use mmjoin_env::{CpuOp, MoveKind};
use mmjoin_model::breakdown::CostKind;
use mmjoin_model::{choose_k, predict, Algorithm, CostBreakdown, JoinInputs, HASH_ENTRY_OVERHEAD};
use mmjoin_relstore::{Relations, SPTR_SIZE};

use crate::exec::{ExecMode, JoinSpec};
use crate::modern;
use crate::stats::SampleSummary;

/// Build the model inputs corresponding to an executable join.
///
/// Mode-aware: the modern kernels exchange [`modern::PROBE_BATCH`]
/// 16-byte `(key, ptr)` records per `Sproc` round trip instead of
/// filling the faithful `G` buffer with whole R-objects, so the
/// *effective* exchange buffer under [`ExecMode::Modern`] is
/// `PROBE_BATCH × (req + s)` — that is what the model's per-batch
/// context-switch amortization must see. (The kernels' constant-factor
/// CPU gains are not modelled; `mmjoin validate-model` prints the
/// resulting measured-vs-predicted gap per algorithm.)
pub fn inputs_for(rels: &Relations, spec: &JoinSpec) -> JoinInputs {
    let g_buffer = if spec.mode == ExecMode::Modern {
        modern::PROBE_BATCH as u64 * (modern::PROBE_REQ_BYTES + rels.rel.s_size as u64)
    } else {
        spec.g_buffer
    };
    JoinInputs {
        r_objects: rels.rel.r_objects,
        s_objects: rels.rel.s_objects,
        r_size: rels.rel.r_size,
        s_size: rels.rel.s_size,
        sptr_size: SPTR_SIZE,
        d: rels.rel.d,
        skew: rels.skew,
        m_rproc: spec.m_rproc,
        m_sproc: spec.m_sproc,
        g_buffer,
    }
}

/// One planner decision.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// The predicted-cheapest algorithm.
    pub algorithm: Algorithm,
    /// Every algorithm's predicted elapsed seconds, cheapest first.
    pub ranking: Vec<(Algorithm, f64)>,
}

impl PlanChoice {
    /// The winner's predicted time.
    pub fn predicted_seconds(&self) -> f64 {
        self.ranking[0].1
    }
}

/// Evaluate the model for every algorithm and rank them.
///
/// ```
/// use mmjoin::choose;
/// use mmjoin_env::machine::MachineParams;
/// use mmjoin_model::JoinInputs;
/// let inputs = JoinInputs {
///     r_objects: 102_400, s_objects: 102_400, r_size: 128, s_size: 128,
///     sptr_size: 8, d: 4, skew: 1.0,
///     m_rproc: 64 * 4096, m_sproc: 64 * 4096, g_buffer: 4096,
/// };
/// let plan = choose(&MachineParams::waterloo96(), &inputs);
/// // At 2% of |R| the hash joins win, nested loops loses.
/// assert_ne!(plan.algorithm, mmjoin_model::Algorithm::NestedLoops);
/// assert_eq!(plan.ranking.len(), mmjoin_model::Algorithm::ALL.len());
/// ```
pub fn choose(machine: &MachineParams, inputs: &JoinInputs) -> PlanChoice {
    let mut ranking: Vec<(Algorithm, f64)> = Algorithm::ALL
        .iter()
        .map(|&alg| (alg, predict(alg, machine, inputs).total()))
        .collect();
    ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
    PlanChoice {
        algorithm: ranking[0].0,
        ranking,
    }
}

/// Full prediction (itemized) for one algorithm at these inputs.
pub fn explain(machine: &MachineParams, inputs: &JoinInputs, alg: Algorithm) -> CostBreakdown {
    predict(alg, machine, inputs)
}

/// Predicted cost of probing `batch_rows` R-rows against an *already
/// resident* S: the steady-state unit of the streaming tier.
///
/// A resident-S probe batch pays none of the one-shot join's setup —
/// no `newMap`/`openMap`, no pass-0 scatter of `RP_{i,j}` areas, and
/// no S partitioning (the resident index was built once and is
/// amortized over the stream). What remains, per the §5.3 vocabulary:
///
/// * hash/map the batch's join attributes (`CpuOp::Map` + `Hash`);
/// * exchange fetch requests with the Sprocs through the shared
///   buffer (`2·CS` per G-buffer batch, §5.2);
/// * move `sptr + s` bytes per row private↔shared (`MT_PS`);
/// * fault in whatever slice of S the resident buffer does not hold.
///   The stream paid Mackert–Lohman's warm-up term `t(1 − qˣ)` once,
///   at open; what a steady-state batch pays is the *marginal* term,
///   whose per-access miss probability is `qⁿ = 1 − b/t` (the buffer
///   holds `b` of S's `t` pages). Applied to the *worst* per-partition
///   share, `skew · rows / D`, priced at `dttr(P_Si)`.
///
/// The streaming tier prices every probe batch with this and reports
/// the number as the batch's `predicted_seconds`. Nothing schedules by
/// it: the stream has one ordered worker and no admission or placement.
pub fn probe_cost(machine: &MachineParams, base: &JoinInputs, batch_rows: u64) -> CostBreakdown {
    let b = machine.page_size;
    let d = base.d as f64;
    let rows = batch_rows as f64;
    // Worst per-partition share of the batch, skew-adjusted like the
    // one-shot model's R_(i,i) term but never more than the batch.
    let worst = (rows / d * base.skew.max(1.0)).min(rows);
    let p_si = base.p_si(b);
    let msproc_pages = (base.m_sproc / b) as f64;

    let mut out = CostBreakdown::default();
    out.push(
        "probe",
        CostKind::Cpu,
        format!("map + hash {rows:.0} batch join attributes"),
        rows * (machine.op(CpuOp::Map) + machine.op(CpuOp::Hash)),
    );
    out.push(
        "probe",
        CostKind::Ctx,
        format!("G-buffer exchanges for worst partition share {worst:.0}"),
        base.ctx_switches_for(worst) * machine.cs,
    );
    out.push(
        "probe",
        CostKind::Move,
        format!("move {rows:.0} × (sptr+s) via shared buffer"),
        rows * (base.sptr_size as u64 + base.s_size as u64) as f64 * machine.mt(MoveKind::PS),
    );
    let miss = (1.0 - msproc_pages / p_si.max(1.0)).clamp(0.0, 1.0);
    let faults = worst * miss;
    out.push(
        "probe",
        CostKind::DiskRead,
        format!("fault resident S via Ylru: {faults:.0} faults @ dttr({p_si:.0})"),
        faults * machine.dttr.eval(p_si),
    );
    out.push(
        "probe",
        CostKind::Cpu,
        "page-fault overhead",
        faults * machine.op(CpuOp::FaultOverhead),
    );
    out
}

/// Where the skew factor a plan was priced with came from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SkewSource {
    /// The paper's uniform assumption (skew 1.0), no statistics at all.
    Assumed,
    /// The workload's distribution-level analytical estimate
    /// (`WorkloadSpec::estimated_skew`), still a closed-form bound.
    Estimated,
    /// A histogram over actually sampled pointers
    /// ([`SampleSummary::estimated_skew`]).
    Sampled,
}

impl SkewSource {
    /// Stable lowercase name for traces and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SkewSource::Assumed => "assumed",
            SkewSource::Estimated => "estimated",
            SkewSource::Sampled => "sampled",
        }
    }
}

/// A data-aware plan: algorithm, memory grant, and partition count
/// chosen from observed (or estimated) statistics rather than a fixed
/// configuration, with the provenance of the skew term it was priced
/// with. The plan leaves `M_Sproc_i` at the requested grant: shrinking
/// it always costs hybrid hash its resident bucket 0.
#[derive(Clone, Debug)]
pub struct AutoPlan {
    /// The ranked algorithm decision at the chosen memory grant.
    pub choice: PlanChoice,
    /// The chosen `M_Rproc_i` in bytes: the requested grant, or the
    /// model's useful cap below it when the model predicts the cap no
    /// slower.
    pub m_rproc: u64,
    /// The skew factor the plan was priced with.
    pub skew: f64,
    /// Plan-level partition count for the local join pass
    /// (`choose_k` over the skew-adjusted worst `RS_i`). No executor
    /// reads it: each derives `K` from its own `JoinSpec`, so it is
    /// reported, not run. `mmjoin-bench skew_planner`'s `cross` row
    /// reads `plans_differ: true` from this field alone (both arms run
    /// the same sort-merge plan).
    pub partitions: u32,
    /// Where [`AutoPlan::skew`] came from.
    pub source: SkewSource,
}

impl AutoPlan {
    /// The winner's predicted time at the chosen memory grant.
    pub fn predicted_seconds(&self) -> f64 {
        self.choice.predicted_seconds()
    }

    /// One-line provenance for logs: algorithm, grant, partitions,
    /// skew and its source.
    pub fn describe(&self) -> String {
        format!(
            "{} m_rproc={} KiB K={} skew={:.2} ({})",
            self.choice.algorithm.name(),
            self.m_rproc / 1024,
            self.partitions,
            self.skew,
            self.source.name()
        )
    }
}

/// Page size used to align chosen memory grants.
const PLAN_PAGE: u64 = 4096;

/// The skew-adjusted worst per-process `RS_i` population.
fn rs_worst(inputs: &JoinInputs, skew: f64) -> u64 {
    let ri = inputs.r_objects / inputs.d as u64;
    ((ri as f64 * skew).min(inputs.r_objects as f64)).ceil() as u64
}

/// The grant a larger request may be trimmed to: the resident
/// partition plus a `choose_k`-slack hash table over the skew-adjusted
/// worst `RS_i`, page aligned and at least four pages.
fn useful_cap(inputs: &JoinInputs, skew: f64) -> u64 {
    let ri = inputs.r_objects / inputs.d as u64;
    let rs = rs_worst(inputs, skew);
    let bytes = ri * inputs.r_size as u64 + rs * (inputs.r_size as u64 + HASH_ENTRY_OVERHEAD) * 3;
    bytes.next_multiple_of(PLAN_PAGE).max(4 * PLAN_PAGE)
}

/// Choose algorithm, memory grant, and partition count from statistics.
/// No executor reads the partition count ([`AutoPlan::partitions`]):
/// each derives `K` from its own `JoinSpec`, and `skew_planner`'s
/// `cross` row differs from the fixed plan in that field alone.
///
/// The skew term comes from `summary` when one is given (a histogram
/// over sampled pointers), else from `base.skew` (the workload's
/// analytical estimate), else it is the uniform assumption. The memory
/// grant is one of two: the requested `base.m_rproc`, or the
/// page-aligned useful cap below it (the resident partition plus a
/// hash table over the skew-adjusted worst `RS_i`) when the model
/// predicts that no slower. So the plan is never *predicted* slower
/// than the fixed plan, and a grant far past the working set goes back
/// to the admission controller; a grant below the cap is kept even
/// where the model's curve is flat, since a flat prediction is where
/// the model errs, not a promise that less memory is free.
///
/// A sampled summary additionally replaces `|S|` with its Chao1
/// hot-set estimate ([`SampleSummary::estimated_distinct`]): heavily
/// duplicated pointers mean the join only ever touches a small slice
/// of S, and pricing against that slice is what lets the planner flip
/// to pointer chasing on hot-key workloads.
pub fn choose_auto(
    machine: &MachineParams,
    base: &JoinInputs,
    summary: Option<&SampleSummary>,
) -> AutoPlan {
    let (skew, source) = match summary {
        Some(s) => (s.estimated_skew(), SkewSource::Sampled),
        None if (base.skew - 1.0).abs() > 1e-12 => (base.skew, SkewSource::Estimated),
        None => (1.0, SkewSource::Assumed),
    };
    let mut inputs = *base;
    inputs.skew = skew;
    if let Some(s) = summary {
        // Duplicated pointers shrink the S working set: price every
        // algorithm against the Chao1-estimated hot set rather than the
        // full target space. A hot set that fits in memory makes
        // repeated pointer fetches cache hits, which is exactly the
        // regime where pointer chasing beats the partitioning joins.
        inputs.s_objects = inputs.s_objects.min(s.estimated_distinct().max(1));
    }

    let mut choice = choose(machine, &inputs);
    let cap = useful_cap(&inputs, skew);
    if cap < base.m_rproc {
        let mut trimmed = inputs;
        trimmed.m_rproc = cap;
        let at_cap = choose(machine, &trimmed);
        if at_cap.predicted_seconds() <= choice.predicted_seconds() {
            inputs = trimmed;
            choice = at_cap;
        }
    }
    let m_rproc = inputs.m_rproc;
    let partitions = choose_k(rs_worst(&inputs, skew), inputs.r_size, m_rproc).max(1) as u32;
    AutoPlan {
        choice,
        m_rproc,
        skew,
        partitions,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(m_frac: f64) -> JoinInputs {
        let r_bytes = 102_400u64 * 128;
        JoinInputs {
            r_objects: 102_400,
            s_objects: 102_400,
            r_size: 128,
            s_size: 128,
            sptr_size: 8,
            d: 4,
            skew: 1.0,
            m_rproc: (m_frac * r_bytes as f64) as u64,
            m_sproc: (m_frac * r_bytes as f64) as u64,
            g_buffer: 4096,
        }
    }

    #[test]
    fn planner_prefers_hash_joins_at_small_memory() {
        // Fig. 5's regimes: at a few percent of |R|, the hash joins beat
        // sort-merge, which beats nested loops — and hybrid hash's
        // memory-resident bucket 0 beats plain Grace.
        let m = MachineParams::waterloo96();
        let c = choose(&m, &inputs(0.04));
        assert_eq!(c.algorithm, Algorithm::HybridHash);
        assert_eq!(c.ranking.len(), Algorithm::ALL.len());
        for pair in c.ranking.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "ranking sorted ascending");
        }
        let pos = |a: Algorithm| c.ranking.iter().position(|&(x, _)| x == a).unwrap();
        assert!(pos(Algorithm::Grace) < pos(Algorithm::SortMerge));
        assert!(pos(Algorithm::SortMerge) < pos(Algorithm::NestedLoops));
    }

    #[test]
    fn ranking_is_complete_and_positive() {
        let m = MachineParams::waterloo96();
        let c = choose(&m, &inputs(0.3));
        let names: std::collections::HashSet<_> = c.ranking.iter().map(|(a, _)| a.name()).collect();
        assert_eq!(names.len(), Algorithm::ALL.len());
        for (_, t) in &c.ranking {
            assert!(*t > 0.0);
        }
        assert_eq!(c.predicted_seconds(), c.ranking[0].1);
    }

    #[test]
    fn auto_plan_differs_between_uniform_and_skewed_samples() {
        let m = MachineParams::waterloo96();
        let base = inputs(0.05);
        // Uniform sample: every partition equally hit from every source.
        let uni: Vec<(u32, u64)> = (0..4096u64)
            .map(|k| ((k % 4) as u32, (k * 97) % base.s_objects))
            .collect();
        let uni_sum = SampleSummary::from_pointers(&uni, base.r_objects, base.s_objects, 4, 16);
        // Cross-partition-like sample: every source hits one partition.
        let per = base.s_objects / 4;
        let skewed: Vec<(u32, u64)> = (0..4096u64)
            .map(|k| ((k % 4) as u32, per + k % per))
            .collect();
        let skew_sum = SampleSummary::from_pointers(&skewed, base.r_objects, base.s_objects, 4, 16);

        let a = choose_auto(&m, &base, Some(&uni_sum));
        let b = choose_auto(&m, &base, Some(&skew_sum));
        assert_eq!(a.source, SkewSource::Sampled);
        assert!(a.skew < 1.2, "uniform sampled skew {}", a.skew);
        assert_eq!(b.skew, 4.0, "concentrated sample saturates the factor");
        // The skewed plan must differ: the skew-adjusted worst RS_i is
        // ~4x larger, so the plan-level partition count grows (and the
        // algorithm may flip too).
        assert!(
            b.partitions > a.partitions || b.choice.algorithm != a.choice.algorithm,
            "skewed plan {:?}/{} == uniform plan {:?}/{}",
            b.choice.algorithm,
            b.partitions,
            a.choice.algorithm,
            a.partitions
        );
        assert!(b.m_rproc >= a.m_rproc, "skew never shrinks the grant more");
    }

    #[test]
    fn hot_key_sample_flips_the_plan_to_pointer_chasing() {
        let m = MachineParams::waterloo96();
        let base = inputs(0.02);
        // Fixed statistics at 2% of |R|: a partitioning join wins.
        let fixed = choose(&m, &base);
        assert_ne!(fixed.algorithm, Algorithm::NestedLoops);
        // A closed hot set of 64 targets, evenly hit from every source:
        // skew stays ~1 but the Chao1 estimate collapses |S| to 64, the
        // repeated fetches become cache hits, and pointer chasing wins.
        let hot: Vec<(u32, u64)> = (0..4096u64)
            .map(|k| ((k % 4) as u32, (k * 13) % 64))
            .collect();
        let sum = SampleSummary::from_pointers(&hot, base.r_objects, base.s_objects, 4, 16);
        assert_eq!(sum.estimated_distinct(), 64);
        let auto = choose_auto(&m, &base, Some(&sum));
        assert_eq!(
            auto.choice.algorithm,
            Algorithm::NestedLoops,
            "hot set must flip the pick: {:?}",
            auto.choice.ranking
        );
    }

    #[test]
    fn auto_plan_is_never_predicted_slower_than_fixed() {
        let m = MachineParams::waterloo96();
        for frac in [0.02, 0.05, 0.1, 0.3] {
            for skew in [1.0, 2.0, 4.0] {
                let mut base = inputs(frac);
                base.skew = skew;
                let fixed = choose(&m, &base);
                let auto = choose_auto(&m, &base, None);
                assert!(
                    auto.predicted_seconds() <= fixed.predicted_seconds() * (1.0 + 1e-6),
                    "auto {} > fixed {} at frac {frac} skew {skew}",
                    auto.predicted_seconds(),
                    fixed.predicted_seconds()
                );
                assert!(auto.m_rproc <= base.m_rproc);
                assert!(auto.m_rproc >= 4 * 4096);
            }
        }
    }

    #[test]
    fn auto_plan_trims_grants_the_model_calls_useless() {
        let m = MachineParams::waterloo96();
        // Request far more memory than the whole working set: the
        // auto-planner must hand the surplus back.
        let mut base = inputs(0.05);
        base.m_rproc = 8 * base.r_objects * base.r_size as u64;
        let auto = choose_auto(&m, &base, None);
        assert!(
            auto.m_rproc < base.m_rproc,
            "grant {} not trimmed from {}",
            auto.m_rproc,
            base.m_rproc
        );
        assert_eq!(auto.m_rproc % 4096, 0, "grant is page aligned");
    }

    #[test]
    fn auto_plan_keeps_the_grant_where_the_model_is_flat() {
        // Hot zipf keys: the Chao1 hot set fits every grant, so the
        // model prices 4 and 8 pages alike, but nested loops ran 42.3 s
        // at 4 pages against 18.5 s at 8. A grant under the useful cap
        // is kept.
        use mmjoin_relstore::{PointerDist, RelConfig, WorkloadSpec};
        let m = MachineParams::waterloo96();
        let spec = WorkloadSpec {
            rel: RelConfig {
                r_size: 128,
                s_size: 128,
                d: 4,
                r_objects: 40_000,
                s_objects: 40_000,
            },
            dist: PointerDist::Zipf { theta: 2.0 },
            seed: 1996,
            prefix: String::new(),
        };
        let sum = SampleSummary::of_spec(&spec, crate::stats::SAMPLE_CAP);
        let mut base = inputs(0.0);
        base.r_objects = 40_000;
        base.s_objects = 40_000;
        base.m_rproc = 8 * 4096;
        base.m_sproc = 8 * 4096;
        let auto = choose_auto(&m, &base, Some(&sum));
        assert_eq!(auto.m_rproc, base.m_rproc, "{}", auto.describe());
    }

    #[test]
    fn auto_plan_is_deterministic() {
        let m = MachineParams::waterloo96();
        let base = inputs(0.05);
        let ptrs: Vec<(u32, u64)> = (0..2048u64)
            .map(|k| ((k % 4) as u32, (k * 31) % base.s_objects))
            .collect();
        let sum = SampleSummary::from_pointers(&ptrs, base.r_objects, base.s_objects, 4, 16);
        let a = choose_auto(&m, &base, Some(&sum));
        let b = choose_auto(&m, &base, Some(&sum));
        assert_eq!(a.choice.algorithm, b.choice.algorithm);
        assert_eq!(a.m_rproc, b.m_rproc);
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(a.skew.to_bits(), b.skew.to_bits());
        assert!(a.describe().contains("sampled"));
    }

    #[test]
    fn probe_cost_is_far_below_a_full_join_of_the_same_rows() {
        // The streaming claim: once S is resident, a batch costs a
        // small multiple of its fetch I/O, not a full join's setup +
        // pass-0 + partitioning. Require a wide margin (the acceptance
        // bar is 3×; the model should show much more).
        let m = MachineParams::waterloo96();
        for batch in [256u64, 2048, 16_384] {
            // The streaming regime: the resident budget holds S, so
            // steady-state probes fault nothing while each independent
            // full join still re-pays setup and its own warm-up.
            let mut w = inputs(0.05);
            w.r_objects = batch;
            w.m_sproc = w.s_objects * w.s_size as u64;
            let full = choose(&m, &w).predicted_seconds();
            let probe = probe_cost(&m, &w, batch).total();
            assert!(
                probe * 3.0 < full,
                "batch {batch}: probe {probe:.4}s not 3x below full {full:.4}s"
            );
        }
        // Even at 5% residency a probe undercuts the full join (no
        // setup, no scatter), just not by the steady-state margin.
        let mut w = inputs(0.05);
        w.r_objects = 2048;
        let full = choose(&m, &w).predicted_seconds();
        let probe = probe_cost(&m, &w, 2048).total();
        assert!(probe < full, "probe {probe:.4}s vs full {full:.4}s");
    }

    #[test]
    fn probe_cost_scales_with_rows_and_skew() {
        let m = MachineParams::waterloo96();
        let w = inputs(0.05);
        let small = probe_cost(&m, &w, 512).total();
        let big = probe_cost(&m, &w, 8192).total();
        assert!(big > small, "more rows must cost more: {small} vs {big}");
        let mut skewed = w;
        skewed.skew = 4.0;
        assert!(
            probe_cost(&m, &skewed, 8192).total() >= big,
            "skew concentrates the worst partition share"
        );
        // No setup or write terms: probes never create areas.
        let b = probe_cost(&m, &w, 2048);
        assert_eq!(b.total_kind(CostKind::Setup), 0.0);
        assert_eq!(b.total_kind(CostKind::DiskWrite), 0.0);
        assert_eq!(b.passes(), vec!["probe"]);
    }

    #[test]
    fn explain_matches_predict() {
        let m = MachineParams::waterloo96();
        let w = inputs(0.05);
        let b = explain(&m, &w, Algorithm::SortMerge);
        assert!((b.total() - predict(Algorithm::SortMerge, &m, &w).total()).abs() < 1e-12);
    }
}

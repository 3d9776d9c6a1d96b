//! Analytical cost of the parallel pointer-based Grace join (paper §7.3).
//!
//! Passes 0/1 re-partition as before, but the join attribute is hashed —
//! by a *range-partitioning* hash, so bucket order equals S order — into
//! one of `K` buckets of `RS_i`. Pass `1+j` loads bucket `j` into an
//! in-memory hash table of `TSIZE` chains and joins it against a
//! near-sequential read of the matching `S_i` range.
//!
//! The distinctive modelling contribution is the urn-model approximation
//! of *thrashing*: with too little memory, a bucket's current page is
//! evicted before the next object hashes into it, costing one extra
//! write and one extra read (§7.3). That term produces Fig. 5c's knee.

use mmjoin_env::machine::MachineParams;
use mmjoin_env::{CpuOp, MoveKind};

use crate::breakdown::{CostBreakdown, CostKind};
use crate::params::{choose_k, JoinInputs};
use crate::urn::Occupancy;

/// Expected number of prematurely-replaced `RS_i` bucket pages in pass
/// 0, per the paper's epoch/urn argument.
///
/// After a bucket page is hit, objects keep hashing uniformly into the
/// `K` buckets. We divide the following objects into epochs (the first
/// of size `K`, then single objects, §7.3). The page suffers a premature
/// replacement if its *second* hit falls in an epoch by whose start the
/// page has already aged out of the `M/B`-page memory:
///
/// * pages pushed past it: `fills_j` fill events from the `RP_{i,j}`
///   streams (rate `(D−1)/⌊B/r⌋` per hashed object) plus the distinct
///   bucket pages hit (urn occupancy: `K − empty`) plus `D` current
///   pages;
/// * `p_j` = probability that enough distinct pages accumulated, from
///   the Johnson–Kotz occupancy CDF;
/// * `y_j` = probability the second hit lands in epoch `j` (geometric
///   survival at rate `1 − 1/K` per object).
///
/// Expected premature replacements = `|R_{i,i}| · Σ_j p_j · y_j`.
///
/// Epoch `j` ends after `K + j` objects, one more than the last, so a
/// single `urn::Occupancy` distribution is advanced one object per epoch
/// instead of evaluating the occupancy CDF afresh; it is stepped only
/// while `p_j` is in doubt (outside that band `p_j` is exactly 0 or 1).
/// `scripts/urn_exact.py` evaluates the same sum in exact rational
/// arithmetic, and `thrashing_matches_exact_reference` holds this
/// function to it.
pub fn thrash_replacements(
    ri_i: f64,
    k: u64,
    d: u32,
    page_size: u64,
    r_size: u32,
    mem_pages: f64,
) -> f64 {
    if k == 0 || ri_i <= 0.0 {
        return 0.0;
    }
    let kf = k as f64;
    let per_page = (page_size / r_size as u64).max(1) as f64;
    let fill_rate = (d as f64 - 1.0) / per_page;
    let q = 1.0 - 1.0 / kf; // per-object survival (no hit on our bucket)

    let mut occ = Occupancy::new(k);
    let mut sum = 0.0;
    let mut survival = 1.0; // q^(objects hashed at epoch start)
    for epoch in 0..200_000u64 {
        let alpha = if epoch == 0 { kf } else { 1.0 };
        // Objects hashed by the epoch's end, H_j + α_j.
        let hashed = k + epoch;
        // Probability the second hit falls inside this epoch.
        let y = survival * (1.0 - q.powf(alpha));
        // Pages accumulated since our page's last hit, evaluated at the
        // epoch's *end* (a hit inside the epoch has seen all of it; the
        // first, K-object epoch carries most of the probability mass, so
        // start-of-epoch evaluation would miss nearly all of it).
        let fills = hashed as f64 * fill_rate;
        // Our page is out if (fills + hit-buckets + D current) ≥ M/B,
        // i.e. the number of *empty* buckets is at most
        // K − (M/B − fills − D).
        let threshold = kf - (mem_pages - fills - d as f64);
        let p = if threshold < 0.0 {
            0.0
        } else if threshold >= kf {
            1.0
        } else {
            occ.advance_to(hashed);
            occ.at_most(threshold.floor() as u64)
        };
        sum += p * y;
        survival *= q.powf(alpha);
        if survival < 1e-12 {
            break;
        }
        // Once eviction is certain, the rest of the survival mass all
        // thrashes; close the sum analytically.
        if p >= 1.0 {
            sum += survival;
            break;
        }
    }
    ri_i * sum.clamp(0.0, 1.0)
}

/// Predict one Rproc's elapsed time for Grace.
pub fn cost(m: &MachineParams, w: &JoinInputs) -> CostBreakdown {
    let b = m.page_size;
    let d = w.d as f64;
    let r = w.r_size as f64;

    // Populations: skew-adjusted, as in sort-merge (phases synchronize).
    let ri = w.ri();
    // Worst-case (skew-adjusted) populations, capped at their physical
    // maxima: one process never handles more than its own partition,
    // and no RS_i can exceed |R|.
    let ri_i = (ri / d * w.skew).min(ri);
    let rp = (ri * w.skew * (1.0 - 1.0 / d)).clamp(0.0, ri);
    let rs = (ri * w.skew).min(w.r_objects as f64);

    let p_ri = w.p_ri(b);
    let p_si = w.p_si(b);
    let p_rp = (rp * r / b as f64).ceil();
    let p_rs = (rs * r / b as f64).ceil();
    let p_ri_i = (ri_i * r / b as f64).ceil();

    // Parameter choices (§7.2).
    let k = choose_k(rs.ceil() as u64, w.r_size, w.m_rproc);
    let kf = k as f64;
    let mem_pages = (w.m_rproc / b) as f64;

    let mut out = CostBreakdown::default();

    // ---------------- pass 0 ----------------
    let band0 = p_ri + p_si + p_rs + p_rp;
    out.push(
        "pass0",
        CostKind::DiskRead,
        format!("read R_i: {p_ri:.0} pages @ dttr({band0:.0})"),
        p_ri * m.dttr.eval(band0),
    );
    out.push(
        "pass0",
        CostKind::DiskWrite,
        format!("write RP_i: {p_rp:.0} pages @ dttw({band0:.0})"),
        p_rp * m.dttw.eval(band0),
    );
    out.push(
        "pass0",
        CostKind::DiskWrite,
        format!(
            "hash R_(i,i) into K={k} buckets: {:.0} pages @ dttw({band0:.0})",
            p_ri_i + kf
        ),
        (p_ri_i + kf) * m.dttw.eval(band0),
    );
    let thrash = thrash_replacements(ri_i, k, w.d, b, w.r_size, mem_pages);
    out.push(
        "pass0",
        CostKind::DiskWrite,
        format!("thrashing: {thrash:.0} premature replacements (urn model), extra writes"),
        thrash * m.dttw.eval(band0),
    );
    out.push(
        "pass0",
        CostKind::DiskRead,
        format!("thrashing: {thrash:.0} premature replacements, extra re-reads"),
        thrash * m.dttr.eval(band0),
    );
    out.push(
        "pass0",
        CostKind::Cpu,
        format!("map join attributes: {ri:.0} ops"),
        ri * m.op(CpuOp::Map),
    );
    out.push(
        "pass0",
        CostKind::Cpu,
        format!("hash R_(i,i): {ri_i:.0} ops"),
        ri_i * m.op(CpuOp::Hash),
    );
    out.push(
        "pass0",
        CostKind::Move,
        format!("move |R_i| = {ri:.0} objects within segment"),
        ri * r * m.mt(MoveKind::PP),
    );
    out.push(
        "pass0",
        CostKind::Cpu,
        "page-fault overhead",
        (p_ri + p_ri_i + kf + p_rp + 2.0 * thrash) * m.op(CpuOp::FaultOverhead),
    );

    // ---------------- pass 1 ----------------
    let band1 = p_rs + p_rp;
    out.push(
        "pass1",
        CostKind::DiskRead,
        format!("read RP_i: {p_rp:.0} pages @ dttr({band1:.0})"),
        p_rp * m.dttr.eval(band1),
    );
    out.push(
        "pass1",
        CostKind::DiskWrite,
        format!(
            "hash into the RS_j buckets: {:.0} pages @ dttw({band1:.0})",
            p_rp + kf
        ),
        (p_rp + kf) * m.dttw.eval(band1),
    );
    out.push(
        "pass1",
        CostKind::Cpu,
        format!("hash |RP_i| = {rp:.0} objects"),
        rp * m.op(CpuOp::Hash),
    );
    out.push(
        "pass1",
        CostKind::Move,
        format!("move |RP_i| = {rp:.0} objects"),
        rp * r * m.mt(MoveKind::PP),
    );
    out.push(
        "pass1",
        CostKind::Cpu,
        "page-fault overhead",
        (2.0 * p_rp + kf) * m.op(CpuOp::FaultOverhead),
    );

    // ---------------- pass 1+j: per-bucket join ----------------
    // Band: half of one bucket's span (§7.3's "half the size, in blocks,
    // of the objects that fit in the hash table").
    let band_join = (p_rs / (2.0 * kf)).max(1.0);
    out.push(
        "join",
        CostKind::DiskRead,
        format!(
            "read RS_i buckets + S_i near-sequentially: {:.0} pages @ dttr({band_join:.0})",
            p_rs + p_si
        ),
        (p_rs + p_si) * m.dttr.eval(band_join),
    );
    out.push(
        "join",
        CostKind::Cpu,
        format!("hash each RS_i object into the table: {rs:.0} ops"),
        rs * m.op(CpuOp::Hash),
    );
    out.push(
        "join",
        CostKind::Move,
        format!("join {rs:.0} × (r+sptr+s) via shared buffer"),
        rs * w.join_unit() as f64 * m.mt(MoveKind::PS),
    );
    out.push(
        "join",
        CostKind::Ctx,
        "G-buffer exchanges with Sproc_i",
        w.ctx_switches_for(rs) * m.cs,
    );
    out.push(
        "join",
        CostKind::Cpu,
        "page-fault overhead",
        (p_rs + p_si) * m.op(CpuOp::FaultOverhead),
    );

    // ---------------- setup ----------------
    let mc = &m.map_cost;
    out.push(
        "setup",
        CostKind::Setup,
        "D × (openMap R_i + openMap S_i + newMap(RS_i + RP_i) + openMap RS_i)",
        d * (mc.open_map(p_ri as u64)
            + mc.open_map(p_si as u64)
            + mc.new_map((p_rs + p_rp) as u64)
            + mc.open_map(p_rs as u64)),
    );
    out
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
    fn thrashing_vanishes_with_ample_memory() {
        // K buckets + D current pages comfortably resident: no knee.
        let t = thrash_replacements(25_600.0, 16, 4, 4096, 128, 4000.0);
        assert!(t < 1.0, "thrash={t}");
    }

    #[test]
    fn thrashing_explodes_with_tiny_memory() {
        let t = thrash_replacements(25_600.0, 16, 4, 4096, 128, 8.0);
        assert!(t > 20_000.0, "thrash={t} should approach |R_(i,i)|");
        // Bounded by the object count.
        assert!(t <= 25_600.0 + 1e-6);
    }

    #[test]
    fn thrashing_is_monotone_in_memory() {
        let mut prev = f64::INFINITY;
        for pages in [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0] {
            let t = thrash_replacements(25_600.0, 24, 4, 4096, 128, pages);
            assert!(t <= prev + 1e-6, "pages={pages}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn thrashing_matches_exact_reference() {
        // (|R_(i,i)|, K, D, M/B pages, exact value): `scripts/urn_exact.py`
        // with no arguments prints these, computed in exact rationals.
        // On the first four, an occupancy CDF taken from the closed-form
        // alternating sum cancels to 2789.29, 9 % high, 25 600 and 5529.8.
        const EXACT: [(f64, u64, u32, f64, f64); 7] = [
            (6400.0, 57, 4, 48.0, 2788.6079270862606), // Fig. 5c, M = 1.5 % |R|
            (25_600.0, 17, 2, 32.0, 2.779518527049757e-7),
            (25_600.0, 128, 1, 128.0, 387.80664357803676),
            (25_600.0, 64, 4, 64.0, 5410.595621770419),
            (6400.0, 43, 4, 64.0, 81.32234397076643), // Fig. 5c, M = 2 % |R|
            (25_600.0, 16, 4, 8.0, 25_599.99999999294),
            // ⌊threshold⌋ reaches K − 1, where p is exactly 1, just before
            // the 1e-12 cut-off: the loop must leave through p ≥ 1 there.
            (25_600.0, 11, 4, 32.0, 0.0008244491779282707),
        ];
        for (ri_i, k, d, mem, exact) in EXACT {
            let t = thrash_replacements(ri_i, k, d, 4096, 128, mem);
            assert!(
                (t - exact).abs() <= 1e-9 * exact,
                "K={k} D={d} M/B={mem}: {t} vs exact {exact}"
            );
        }
        // Here the summed p rounds to 1 an epoch before the exact p would
        // have let the loop run to its 1e-12 cut-off, so the closed-form
        // tail adds what the exact sum drops past the cut-off: about
        // 1e-12 · |R_(i,i)|, well inside 1e-9 · |R_(i,i)|.
        let (ri_i, exact) = (25_600.0, 7.52495590115898);
        let t = thrash_replacements(ri_i, 24, 2, 4096, 128, 32.0);
        let err = (t - exact).abs();
        assert!(err <= 1e-9 * ri_i, "K=24 D=2 M/B=32: {t} vs exact {exact}");
        assert!(err <= 1e-11 * ri_i, "more than one epoch's tail: {err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Across K up to 1024, where an alternating-sum CDF has no
        /// digits left: bounded, finite and non-increasing in memory.
        #[test]
        fn thrashing_is_bounded_and_monotone_for_any_k(k in 1u64..=1024, d in 1u32..=8) {
            let ri_i = 25_600.0;
            let mut prev = f64::INFINITY;
            for pages in [1.0, 4.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0] {
                let t = thrash_replacements(ri_i, k, d, 4096, 128, pages);
                proptest::prop_assert!(t.is_finite(), "K={k} D={d} pages={pages}: {t}");
                proptest::prop_assert!((0.0..=ri_i).contains(&t), "K={k} D={d} pages={pages}: {t}");
                proptest::prop_assert!(
                    t <= prev + 1e-9 * ri_i,
                    "K={k} D={d} pages={pages}: {t} > {prev}"
                );
                prev = t;
            }
        }
    }

    #[test]
    fn fig5c_knee_shape() {
        // The Fig. 5c curve: roughly flat at the high-memory end, rising
        // sharply at the low end.
        let m = MachineParams::waterloo96();
        let t_low = cost(&m, &inputs(0.02)).total();
        let t_mid = cost(&m, &inputs(0.05)).total();
        let t_high = cost(&m, &inputs(0.08)).total();
        assert!(t_low > t_mid && t_mid >= t_high * 0.95);
        let knee = t_low - t_mid;
        let tail = (t_mid - t_high).abs();
        assert!(
            knee > 2.0 * tail,
            "knee {knee:.1}s should dwarf tail slope {tail:.1}s"
        );
    }

    #[test]
    fn grace_beats_sort_merge_in_its_regime() {
        // Fig. 5: Grace ≈340–460 s vs sort-merge ≈500–700 s at the same
        // memory fractions.
        let m = MachineParams::waterloo96();
        for frac in [0.03, 0.05] {
            let g = cost(&m, &inputs(frac)).total();
            let sm = crate::sort_merge::cost(&m, &inputs(frac)).total();
            assert!(g < sm, "frac={frac}: grace {g:.0}s vs sort-merge {sm:.0}s");
        }
    }

    #[test]
    fn breakdown_structure() {
        let m = MachineParams::waterloo96();
        let b = cost(&m, &inputs(0.05));
        assert_eq!(b.passes(), vec!["pass0", "pass1", "join", "setup"]);
        assert!(b.total().is_finite() && b.total() > 0.0);
    }
}

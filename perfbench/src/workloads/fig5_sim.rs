//! `paper-fig5-sim`: the paper's §8 validation — 102 400 × 128 B over
//! four disks on the calibrated simulated machine, faithful sequential
//! loops, three algorithms × nine Fig. 5 memory fractions, each point
//! one simulated join plus one model prediction. `vmsim`'s pager and
//! disk, the faithful 1996 loops and `model` do all the work; no kernel,
//! journal or scheduler runs. Virtual seconds and fault counts must
//! repeat exactly from round to round: this workload guards the one
//! thing the roadmap says must not be simplified away.

use std::time::Instant;

use mmjoin::Algo;
use mmjoin_bench::{calibrated_machine, fig5_sweep, paper_workload, r_bytes, Fig5Row, PAGE};
use mmjoin_model::{predict, JoinInputs};
use mmjoin_relstore::SPTR_SIZE;
use mmjoin_vmsim::{calibrated_params, DiskParams};

use super::{Ctx, Outcome};
use crate::stats::median;

const D: u32 = 4;

/// The memory fractions `M_Rproc / |R|` of Fig. 5 (a), (b) and (c).
const SWEEPS: [(Algo, [f64; 9]); 3] = [
    (
        Algo::NestedLoops,
        [0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7],
    ),
    (
        Algo::SortMerge,
        [0.01, 0.012, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.05],
    ),
    (
        Algo::Grace,
        [0.015, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08],
    ),
];

/// Rounds measured however short `--seconds` is (the exact-repeat gate
/// needs two).
const MIN_ROUNDS: usize = 2;

/// What must repeat exactly: virtual seconds (bit for bit) and faults.
fn fingerprint(row: &Fig5Row) -> (u64, u64, u64) {
    (row.sim.to_bits(), row.faults_read, row.faults_write)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut workload = paper_workload(D, ctx.seed);
    if ctx.smoke {
        workload.rel.r_objects = 1_024;
        workload.rel.s_objects = 1_024;
    }

    // Set-up: calibrating the machine's dtt curves from the simulated
    // disk, the one thing every Fig. 5 run pays before its first join.
    let mut setup = Vec::new();
    while ctx.setup_again(&setup) {
        let (machine, secs, _) = ctx.tracer.time(
            "vmsim",
            "calibrated_params",
            setup.len() as u64,
            None,
            || calibrated_params(&DiskParams::waterloo96()),
        );
        machine.map_err(|e| format!("calibration: {e}"))?;
        setup.push(secs);
    }
    out.readings.put_median("setup_s", &setup);
    let machine = calibrated_machine();

    // walls[p]: wall seconds of point p, one sample per round.
    let points: Vec<(Algo, f64)> = SWEEPS
        .iter()
        .flat_map(|(alg, fracs)| fracs.iter().map(move |&f| (*alg, f)))
        .collect();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut first: Vec<Fig5Row> = Vec::new();
    // Warm-up: one point of each algorithm (allocator, lazily calibrated
    // machine); a whole round is a third of the budget.
    for (alg, fracs) in &SWEEPS {
        fig5_sweep(*alg, &fracs[..1], &workload, |_, _| String::new());
    }
    let mut rounds = 0usize;
    let started = Instant::now();
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < ctx.seconds {
        for (p, &(alg, frac)) in points.iter().enumerate() {
            let op = (rounds * points.len() + p) as u64;
            let (rows, secs, _) = ctx.tracer.time("vmsim", alg.name(), op, None, || {
                fig5_sweep(alg, &[frac], &workload, |_, _| String::new())
            });
            let row = rows
                .into_iter()
                .next()
                .ok_or("fig5_sweep returned no row")?;
            walls[p].push(secs);
            if rounds == 0 {
                // fig5_sweep has verified the join against its oracle.
                out.check(true, String::new);
                first.push(row);
                continue;
            }
            out.check(fingerprint(&row) == fingerprint(&first[p]), || {
                format!(
                    "{} at {frac}: virtual {} s / {} read faults / {} write-backs, round 0 had {} / {} / {}",
                    alg.name(), row.sim, row.faults_read, row.faults_write,
                    first[p].sim, first[p].faults_read, first[p].faults_write
                )
            });
        }
        rounds += 1;
    }
    out.note("rounds", rounds);
    out.note("objects", workload.rel.r_objects);

    // One "operation" is a round: all 27 points once.
    let round_s: f64 = walls.iter().map(|w| median(w)).sum();
    let total: f64 = walls.iter().flatten().sum();
    let joins = walls.iter().map(Vec::len).sum::<usize>() as f64;
    out.readings.put("latency_p50_ms", round_s * 1e3);
    out.readings.put("throughput_per_s", joins / total);

    // Functions of the inputs alone, so in every run's record: `perf
    // compare` calls any difference between two commits a fidelity change.
    out.readings
        .put("vmsim.virtual_s", first.iter().map(|r| r.sim).sum());
    out.readings.put(
        "vmsim.read_faults",
        first.iter().map(|r| r.faults_read as f64).sum(),
    );
    out.readings.put(
        "vmsim.write_backs",
        first.iter().map(|r| r.faults_write as f64).sum(),
    );
    let err = |rows: &[Fig5Row]| {
        rows.iter()
            .map(|r| ((r.model - r.sim) / r.sim).abs())
            .sum::<f64>()
            / rows.len() as f64
            * 100.0
    };
    out.readings.put("model.err_pct", err(&first));

    if ctx.traced() {
        out.readings.put("vmsim.joins_per_s", joins / total);
        for (k, (alg, fracs)) in SWEEPS.iter().enumerate() {
            let span = k * fracs.len()..(k + 1) * fracs.len();
            out.readings.put(
                &format!("model.err_pct.{}", alg.name()),
                err(&first[span.clone()]),
            );
            let wall: f64 = walls[span].iter().map(|w| median(w)).sum();
            out.readings
                .put(&format!("core.faithful.{}.wall_s", alg.name()), wall);
        }

        // The model alone: one prediction per point, many times over.
        let inputs: Vec<(mmjoin_model::Algorithm, JoinInputs)> = points
            .iter()
            .map(|&(alg, frac)| {
                let pages = (((frac * r_bytes(&workload) as f64) as u64) / PAGE).max(4);
                let inputs = JoinInputs {
                    r_objects: workload.rel.r_objects,
                    s_objects: workload.rel.s_objects,
                    r_size: workload.rel.r_size,
                    s_size: workload.rel.s_size,
                    sptr_size: SPTR_SIZE,
                    d: D,
                    skew: 1.0,
                    m_rproc: pages * PAGE,
                    m_sproc: pages * PAGE,
                    g_buffer: PAGE,
                };
                (
                    alg.modelled()
                        .expect("the three paper algorithms are modelled"),
                    inputs,
                )
            })
            .collect();
        let sweeps_timed = if ctx.smoke { 4 } else { 200 };
        let (sum, secs, _) = ctx.tracer.time("model", "predict", 0, None, || {
            (0..sweeps_timed)
                .flat_map(|_| inputs.iter())
                .map(|(alg, w)| predict(*alg, machine, std::hint::black_box(w)).total())
                .sum::<f64>()
        });
        std::hint::black_box(sum);
        out.readings.put(
            "model.predict_us",
            secs / (sweeps_timed * inputs.len()) as f64 * 1e6,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drifting_virtual_clock_changes_the_fingerprint() {
        let row = |sim: f64, faults_read: u64| Fig5Row {
            frac: 0.1,
            pages: 10,
            model: 1.0,
            sim,
            faults_read,
            faults_write: 0,
            note: String::new(),
        };
        assert_eq!(fingerprint(&row(12.5, 7)), fingerprint(&row(12.5, 7)));
        // One ulp of virtual time, or one fault, is a fidelity change.
        assert_ne!(
            fingerprint(&row(12.5, 7)),
            fingerprint(&row(f64::from_bits(12.5f64.to_bits() + 1), 7))
        );
        assert_ne!(fingerprint(&row(12.5, 7)), fingerprint(&row(12.5, 8)));
    }
}

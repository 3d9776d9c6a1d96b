//! # mmjoin-bench — the experiment harness
//!
//! The `mmjoin-bench` binary runs every figure of the paper (see
//! DESIGN.md §5) and the extension experiments from one table
//! (`src/main.rs`). This library holds the shared machinery: the
//! calibrated machine (dtt curves measured from the simulated disk by
//! the paper's own band procedure), the §8 validation workload, the
//! model-vs-experiment sweep runner, and plain-text table/plot
//! rendering.

use std::time::Instant;

use mmjoin::{inputs_for, join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::trace::escape;
use mmjoin_env::CpuOp;
use mmjoin_model::predict;
use mmjoin_relstore::{build, PointerDist, RelConfig, Relations, WorkloadSpec};
use mmjoin_serve::service_machine;
use mmjoin_vmsim::{ContentionMode, Policy, SimConfig, SimEnv};

/// Page size used throughout the experiments (the paper's 4 KB).
pub const PAGE: u64 = 4096;

pub mod load;

/// The machine every experiment runs on: the shared default
/// [`service_machine`], Waterloo-96-like CPU constants with `dttr`/`dttw`
/// curves **measured from the simulated disk** using the paper's banding
/// procedure — the same coupling the paper had between its model and its
/// Fujitsu drives.
pub fn calibrated_machine() -> &'static MachineParams {
    service_machine().expect("calibration of the default disk cannot fail")
}

/// The §8 validation workload: |R| = |S| = 102 400 × 128-byte objects
/// over `d` disks, uniform pointers.
pub fn paper_workload(d: u32, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        rel: RelConfig {
            r_size: 128,
            s_size: 128,
            d,
            r_objects: 102_400,
            s_objects: 102_400,
        },
        dist: PointerDist::Uniform,
        seed,
        prefix: String::new(),
    }
}

/// The Fig. 5 sweep, 27 points: the memory fractions `M_Rproc / |R|`
/// of panels (a), (b) and (c), per algorithm. The `simrate` row times
/// these points; perfbench's `paper-fig5-sim` workload runs the same.
pub const FIG5_SWEEP: [(Algo, &[f64]); 3] = [
    (
        Algo::NestedLoops,
        &[0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7],
    ),
    (
        Algo::SortMerge,
        &[0.01, 0.012, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.05],
    ),
    (
        Algo::Grace,
        &[0.015, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08],
    ),
];

/// Total bytes of `R` for a workload (the denominator of the Fig. 5
/// x-axis `M_Rproc_i / |R|`).
pub fn r_bytes(spec: &WorkloadSpec) -> u64 {
    spec.rel.r_objects * spec.rel.r_size as u64
}

/// A fresh simulated machine for one sweep point.
pub fn sim_env(d: u32, pages: usize, policy: Policy, contention: ContentionMode) -> SimEnv {
    SimEnv::new(SimConfig {
        policy,
        contention,
        ..SimConfig::granted(d, calibrated_machine().clone(), pages, pages)
    })
    .expect("valid experiment config")
}

/// One model-vs-experiment measurement.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// `M_Rproc_i / |R|`.
    pub frac: f64,
    /// Memory budget in pages.
    pub pages: u64,
    /// Model-predicted Time/Rproc (seconds).
    pub model: f64,
    /// Simulated (execution-driven) Time/Rproc.
    pub sim: f64,
    /// Read faults across all processes.
    pub faults_read: u64,
    /// Write-backs across all processes.
    pub faults_write: u64,
    /// Free-form annotation (merge plan, K, …).
    pub note: String,
}

/// Run the model and the execution-driven simulator for `alg` at each
/// memory fraction, on the §8 workload.
pub fn fig5_sweep(
    alg: Algo,
    fracs: &[f64],
    workload: &WorkloadSpec,
    annotate: impl Fn(&Relations, &JoinSpec) -> String,
) -> Vec<Fig5Row> {
    fracs
        .iter()
        .map(|&frac| fig5_point(alg, frac, workload, &annotate).0)
        .collect()
}

/// Host wall-clock cost of one simulated Fig. 5 point.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointWall {
    /// Seconds spent building and loading the relations.
    pub build_s: f64,
    /// Seconds spent in the simulated join.
    pub join_s: f64,
    /// Pager touches the join made (hits plus faults, every process).
    pub touches: u64,
}

/// One point of [`fig5_sweep`], with where its wall-clock time went.
pub fn fig5_point(
    alg: Algo,
    frac: f64,
    workload: &WorkloadSpec,
    annotate: impl Fn(&Relations, &JoinSpec) -> String,
) -> (Fig5Row, PointWall) {
    let pages = (((frac * r_bytes(workload) as f64) as u64) / PAGE).max(4);
    let env = sim_env(
        workload.rel.d,
        pages as usize,
        Policy::Lru,
        ContentionMode::Independent,
    );
    let started = Instant::now();
    let rels = build(&env, workload).expect("workload builds");
    let built = Instant::now();
    let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(ExecMode::Sequential);
    let out = join(&env, &rels, alg, &spec).expect("join runs");
    let wall = PointWall {
        build_s: (built - started).as_secs_f64(),
        join_s: built.elapsed().as_secs_f64(),
        touches: out
            .stats
            .procs
            .iter()
            .map(|p| p.page_hits + p.cpu_ops[CpuOp::FaultOverhead.index()])
            .sum(),
    };
    verify(&out, &rels).expect("join result matches oracle");
    let model = alg
        .modelled()
        .map(|a| predict(a, calibrated_machine(), &inputs_for(&rels, &spec)).total())
        .unwrap_or(f64::NAN);
    let row = Fig5Row {
        frac,
        pages,
        model,
        sim: out.elapsed,
        faults_read: out.stats.total_read_faults(),
        faults_write: out.stats.total_write_backs(),
        note: annotate(&rels, &spec),
    };
    (row, wall)
}

/// Render a model-vs-experiment table in the shape of one Fig. 5 panel.
pub fn render_fig5(title: &str, rows: &[Fig5Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:>8} {:>7} {:>12} {:>12} {:>8} {:>9} {:>9}  {}\n",
        "M/|R|", "pages", "Model (s)", "Experim (s)", "err%", "faults-r", "faults-w", "notes"
    ));
    for r in rows {
        let err = if r.model.is_nan() {
            "-".to_string()
        } else {
            format!("{:+.1}", (r.model - r.sim) / r.sim * 100.0)
        };
        s.push_str(&format!(
            "{:>8.3} {:>7} {:>12.1} {:>12.1} {:>8} {:>9} {:>9}  {}\n",
            r.frac, r.pages, r.model, r.sim, err, r.faults_read, r.faults_write, r.note
        ));
    }
    s.push_str(&ascii_plot(rows));
    s
}

/// The same rows as a JSON array, for machine consumption alongside the
/// text table.
pub fn fig5_json(rows: &[Fig5Row]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // The model is NaN for the unmodelled naive baseline; JSON has
        // no NaN, so emit null.
        let model = if r.model.is_finite() {
            format!("{:.6}", r.model)
        } else {
            "null".to_string()
        };
        s.push_str(&format!(
            concat!(
                "{{\"frac\":{:.6},\"pages\":{},\"model_seconds\":{model},",
                "\"sim_seconds\":{:.6},\"read_faults\":{},\"write_backs\":{},",
                "\"note\":\"{}\"}}"
            ),
            r.frac,
            r.pages,
            r.sim,
            r.faults_read,
            r.faults_write,
            escape(&r.note),
            model = model,
        ));
    }
    s.push(']');
    s
}

/// Write `json` to `results/<name>.json` and announce it on stderr
/// (stdout is the experiment's table, which `results/<name>.txt` holds).
pub fn write_json(name: &str, json: &str) -> Result<(), String> {
    let path = std::path::Path::new("results").join(format!("{name}.json"));
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("json written to {}", path.display());
    Ok(())
}

/// A small ASCII rendering of the two series (model `o`, experiment
/// `x`), time on the y axis — enough to eyeball the curve shapes
/// against the printed figure.
pub fn ascii_plot(rows: &[Fig5Row]) -> String {
    if rows.len() < 2 {
        return String::new();
    }
    let height = 12usize;
    let finite: Vec<f64> = rows
        .iter()
        .flat_map(|r| [r.model, r.sim])
        .filter(|v| v.is_finite())
        .collect();
    let max = finite.iter().copied().fold(0.0f64, f64::max);
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    if !(max.is_finite() && min.is_finite()) || max <= min {
        return String::new();
    }
    let level =
        |v: f64| -> usize { (((v - min) / (max - min)) * (height - 1) as f64).round() as usize };
    let mut grid = vec![vec![b' '; rows.len() * 4 + 2]; height];
    for (c, r) in rows.iter().enumerate() {
        if r.model.is_finite() {
            grid[height - 1 - level(r.model)][c * 4 + 1] = b'o';
        }
        grid[height - 1 - level(r.sim)][c * 4 + 3] = b'x';
    }
    let mut s = String::new();
    s.push_str(&format!("  {max:>8.0}s + (o = model, x = experiment)\n"));
    for line in grid {
        s.push_str("           |");
        s.push_str(std::str::from_utf8(&line).expect("ascii"));
        s.push('\n');
    }
    s.push_str(&format!(
        "  {min:>8.0}s +{}\n            ",
        "-".repeat(rows.len() * 4 + 2)
    ));
    for r in rows {
        s.push_str(&format!("{:<4.3}", r.frac));
    }
    s.push('\n');
    s
}

/// Run one join on a fresh sim machine; returns `(elapsed, read-faults,
/// write-backs)`. Used by the extension experiments.
pub fn one_sim_join(
    alg: Algo,
    workload: &WorkloadSpec,
    pages: usize,
    policy: Policy,
    contention: ContentionMode,
    mode: ExecMode,
    sync_phases: bool,
) -> (f64, u64, u64) {
    let env = sim_env(workload.rel.d, pages, policy, contention);
    let rels = build(&env, workload).expect("workload builds");
    let mut spec = JoinSpec::new(pages as u64 * PAGE, pages as u64 * PAGE).with_mode(mode);
    spec.sync_phases = sync_phases;
    let out = join(&env, &rels, alg, &spec).expect("join runs");
    verify(&out, &rels).expect("join result matches oracle");
    (
        out.elapsed,
        out.stats.total_read_faults(),
        out.stats.total_write_backs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_machine_is_monotone() {
        let m = calibrated_machine();
        assert!(m.dttr.eval(12_800.0) > m.dttr.eval(1.0));
        assert!(m.dttw.eval(12_800.0) < m.dttr.eval(12_800.0));
    }

    #[test]
    fn ascii_plot_handles_degenerate_series() {
        // Single row: nothing to plot.
        let one = vec![Fig5Row {
            frac: 0.1,
            pages: 10,
            model: 5.0,
            sim: 5.0,
            faults_read: 0,
            faults_write: 0,
            note: String::new(),
        }];
        assert!(ascii_plot(&one).is_empty());
        // Flat series (max == min): nothing to plot either.
        let mut flat = one.clone();
        flat.push(one[0].clone());
        assert!(ascii_plot(&flat).is_empty());
        // NaN model (unmodelled baseline) must not break rendering.
        let mixed = vec![
            Fig5Row {
                frac: 0.1,
                pages: 10,
                model: f64::NAN,
                sim: 5.0,
                faults_read: 0,
                faults_write: 0,
                note: String::new(),
            },
            Fig5Row {
                frac: 0.2,
                pages: 20,
                model: f64::NAN,
                sim: 9.0,
                faults_read: 0,
                faults_write: 0,
                note: String::new(),
            },
        ];
        let plot = ascii_plot(&mixed);
        // Skip the legend line; the grid must mark experiments only.
        let grid: String = plot.lines().skip(1).collect();
        assert!(grid.contains('x') && !grid.contains('o'));
        let table = render_fig5("t", &mixed);
        assert!(table.contains("NaN") || table.contains('-'));
    }

    #[test]
    fn fig5_json_is_well_formed() {
        let rows = vec![
            Fig5Row {
                frac: 0.1,
                pages: 10,
                model: f64::NAN,
                sim: 5.0,
                faults_read: 1,
                faults_write: 2,
                note: "K=3 \"quoted\"\n".into(),
            },
            Fig5Row {
                frac: 0.2,
                pages: 20,
                model: 4.5,
                sim: 4.0,
                faults_read: 0,
                faults_write: 0,
                note: String::new(),
            },
        ];
        let j = fig5_json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"model_seconds\":null"));
        assert!(j.contains("\"model_seconds\":4.5"));
        assert!(j.contains("K=3 \\\"quoted\\\"\\n"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn fig5_sweep_smoke() {
        // A miniature sweep end to end (tiny workload for speed).
        let mut w = paper_workload(2, 1);
        w.rel.r_objects = 2_000;
        w.rel.s_objects = 2_000;
        let rows = fig5_sweep(Algo::Grace, &[0.05, 0.2], &w, |_, _| String::new());
        assert_eq!(rows.len(), 2);
        assert!(rows[0].sim > 0.0 && rows[1].sim > 0.0);
        assert!(rows[0].sim >= rows[1].sim, "less memory can't be faster");
        let table = render_fig5("test", &rows);
        assert!(table.contains("Model") && table.contains('x'));
    }
}

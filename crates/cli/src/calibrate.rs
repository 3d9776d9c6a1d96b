//! `mmjoin calibrate` measures this host's §3 machine parameters into a
//! profile; `mmjoin validate-model` runs the paper's algorithms on the
//! real store and sets each pass's measured time beside the model's.

use std::path::{Path, PathBuf};

use mmjoin::{
    explain, verify, Algo, ExecMode, JoinSpec, SampleSummary, HISTOGRAM_BUCKETS, SAMPLE_CAP,
};
use mmjoin_calibrate::{calibrate_host, CalibrateOptions};
use mmjoin_env::machine::MachineParams;
use mmjoin_env::{Env as _, Options, ProcId};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, sample_relation};
use mmjoin_serve::{JobRequest, PAGE};

use crate::{flush_trace, job_from, machine_from, trace_sink, traced};

pub(crate) fn cmd_calibrate(opts: &Options) -> Result<(), String> {
    let quick = opts.flag("quick")?;
    let device = opts.get("device")?.map(PathBuf::from);
    let out = opts.get("out")?;
    let trace = opts.get("trace")?;
    opts.finish("calibrate")?;
    let sink = trace_sink(trace)?;
    let mut opts = if quick {
        CalibrateOptions::quick()
    } else {
        CalibrateOptions::full()
    };
    opts.device = device;
    opts.trace = traced(&sink);
    println!(
        "calibrating this host ({} probes, {} reps each){}",
        if opts.quick { "quick" } else { "full" },
        opts.spec.reps,
        match &opts.device {
            Some(d) => format!(", disk sweep on {}", d.display()),
            None => ", disk sweep on a temp scratch file".to_string(),
        }
    );
    let profile = calibrate_host(&opts).map_err(|e| e.to_string())?;

    let p = &profile.provenance;
    let m = &profile.machine;
    println!(
        "host {}  device {}  direct_io {}",
        p.host, p.device, p.direct_io
    );
    if !p.direct_io {
        println!("NOTE: O_DIRECT unavailable; dtt curves include the page cache");
    }
    println!(
        "{:>12} {:>14} {:>14}",
        "band (blks)", "dttr (ms/blk)", "dttw (ms/blk)"
    );
    for &(band, read) in m.dttr.points() {
        let write = m.dttw.eval(band);
        println!("{band:>12} {:>14.4} {:>14.4}", read * 1e3, write * 1e3);
    }
    println!(
        "map costs (s): new {:.6}+{:.2e}/blk  open {:.6}+{:.2e}/blk  delete {:.6}+{:.2e}/blk",
        m.map_cost.new_base,
        m.map_cost.new_per_block,
        m.map_cost.open_base,
        m.map_cost.open_per_block,
        m.map_cost.delete_base,
        m.map_cost.delete_per_block
    );
    println!(
        "fit residuals (s): new {:.2e}  open {:.2e}  delete {:.2e}",
        p.fit_residuals[0], p.fit_residuals[1], p.fit_residuals[2]
    );
    println!(
        "MT (ns/B): pp {:.3}  ps {:.3}  sp {:.3}  ss {:.3}",
        m.mt[0] * 1e9,
        m.mt[1] * 1e9,
        m.mt[2] * 1e9,
        m.mt[3] * 1e9
    );
    println!(
        "CPU (ns/op): map {:.1}  hash {:.1}  compare {:.1}  swap {:.1}  transfer {:.1}  fault {:.1}",
        m.cpu[0] * 1e9,
        m.cpu[1] * 1e9,
        m.cpu[2] * 1e9,
        m.cpu[3] * 1e9,
        m.cpu[4] * 1e9,
        m.cpu[5] * 1e9
    );
    println!("CS: {:.2} us", m.cs * 1e6);

    if let Some(path) = out {
        profile
            .save(std::path::Path::new(path))
            .map_err(|e| format!("--out: {e}"))?;
        println!("profile written to {path}");
    }
    flush_trace(&sink)
}

/// One row of the validate-model comparison: a named group of passes
/// with its measured and predicted seconds.
struct PassRow {
    group: &'static str,
    measured: f64,
    predicted: f64,
}

/// Fold executed stage durations and model pass predictions into
/// comparable groups: `setup`, `pass0` (combined into `setup+pass0`
/// for synchronized nested loops), the `pass1` phase sweep, and the
/// algorithm's final local pass (sort+merge+join / bucket-join).
fn pass_rows(
    stage_durations: &[(String, f64)],
    breakdown: &mmjoin_model::CostBreakdown,
) -> Vec<PassRow> {
    let measured_group = |name: &str| -> &'static str {
        match name {
            "setup" => "setup",
            "pass0" => "pass0",
            "setup+pass0" => "setup+pass0",
            n if n.starts_with("phase") => "pass1",
            _ => "local",
        }
    };
    let predicted_group = |pass: &str, combined: bool| -> &'static str {
        match pass {
            "setup" if combined => "setup+pass0",
            "pass0" if combined => "setup+pass0",
            "setup" => "setup",
            "pass0" => "pass0",
            "pass1" => "pass1",
            _ => "local",
        }
    };
    let combined = stage_durations.iter().any(|(n, _)| n == "setup+pass0");
    let mut rows: Vec<PassRow> = Vec::new();
    let mut add = |group: &'static str, measured: f64, predicted: f64| {
        if let Some(row) = rows.iter_mut().find(|r| r.group == group) {
            row.measured += measured;
            row.predicted += predicted;
        } else {
            rows.push(PassRow {
                group,
                measured,
                predicted,
            });
        }
    };
    for (name, dur) in stage_durations {
        add(measured_group(name), *dur, 0.0);
    }
    for pass in breakdown.passes() {
        add(
            predicted_group(pass, combined),
            0.0,
            breakdown.total_pass(pass),
        );
    }
    rows
}

/// The measured/predicted column of the validate-model tables.
fn ratio(measured: f64, predicted: f64) -> String {
    if predicted > 0.0 {
        format!("{:>9.3}", measured / predicted)
    } else {
        format!("{:>9}", "-")
    }
}

pub(crate) fn cmd_validate_model(opts: &Options) -> Result<(), String> {
    let req = job_from(opts)?;
    let machine = machine_from(opts.get("machine-profile")?)?;
    opts.finish("validate-model")?;
    // The store is scratch space: removed on every path, failed runs too.
    let root = std::env::temp_dir().join(format!("mmjoin-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let validated = validate_in(&root, &req, &machine);
    let _ = std::fs::remove_dir_all(&root);
    validated
}

/// Build the workload in a fresh store at `root`, then measure every
/// algorithm on it against the model's prediction.
fn validate_in(root: &Path, req: &JobRequest, machine: &MachineParams) -> Result<(), String> {
    let w = &req.workload;
    let pages = req.m_rproc / PAGE;
    let env = MmapEnv::new(MmapEnvConfig {
        root: root.to_path_buf(),
        num_disks: w.rel.d,
        page_size: PAGE,
    })
    .map_err(|e| e.to_string())?;
    let rels = build(&env, w).map_err(|e| e.to_string())?;

    // Predictions below are priced with the histogram skew estimated
    // from the *stored* relation — the same sampler serve's `plan=auto`
    // uses, but reading real pages instead of the spec's distribution.
    let pointers = sample_relation(&env, &rels, SAMPLE_CAP).map_err(|e| e.to_string())?;
    let summary = SampleSummary::from_pointers(
        &pointers,
        w.rel.r_objects,
        w.rel.s_objects,
        w.rel.d,
        HISTOGRAM_BUCKETS,
    );
    let mut inputs = req.planner_inputs();
    inputs.skew = summary.estimated_skew();

    println!(
        "model validation on the memory-mapped store: |R| = |S| = {} x {} B, \
         D = {}, {pages} pages/proc",
        w.rel.r_objects, w.rel.r_size, w.rel.d
    );
    println!(
        "sampled {} pointers from the store: histogram skew {:.2}, \
         duplication {:.2}",
        summary.sampled, inputs.skew, summary.duplication
    );
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>9}",
        "algorithm", "pass", "measured(s)", "predicted(s)", "ratio"
    );
    for model_alg in mmjoin_model::Algorithm::PAPER {
        let alg = Algo::from(model_alg);
        let mut spec =
            JoinSpec::new(pages * 4096, pages * 4096).with_tag(&format!("val-{}", alg.name()));
        // Synchronized phases give nested loops the same stage
        // boundaries the model prices.
        spec.sync_phases = true;
        let start = (0..w.rel.d).map(|i| env.now(ProcId(i))).fold(0.0, f64::max);
        let out = mmjoin::join(&env, &rels, alg, &spec).map_err(|e| e.to_string())?;
        verify(&out, &rels).map_err(|e| format!("{}: verification failed: {e}", alg.name()))?;

        // stage_times are cumulative max-over-procs boundary clocks;
        // successive differences are per-stage durations.
        let mut durations: Vec<(String, f64)> = Vec::new();
        let mut prev = start;
        for (name, t) in &out.stage_times {
            durations.push((name.clone(), (t - prev).max(0.0)));
            prev = *t;
        }
        let breakdown = explain(machine, &inputs, model_alg);
        let mut measured_total = 0.0;
        let mut predicted_total = 0.0;
        for row in pass_rows(&durations, &breakdown) {
            measured_total += row.measured;
            predicted_total += row.predicted;
            println!(
                "{:<14} {:<12} {:>12.3} {:>12.3} {}",
                alg.name(),
                row.group,
                row.measured,
                row.predicted,
                ratio(row.measured, row.predicted)
            );
        }
        println!(
            "{:<14} {:<12} {:>12.3} {:>12.3} {}",
            alg.name(),
            "TOTAL",
            measured_total,
            predicted_total,
            ratio(measured_total, predicted_total)
        );
    }

    // The same comparison under --modern. The model prices the faithful
    // inner loops (with the modern exchange-batch size substituted via
    // `inputs_for`), so the ratio below is the honest record of the
    // kernels' unmodelled constant-factor win.
    println!();
    println!(
        "modern mode (cache-conscious kernels; ratio = kernel win the model \
         does not price):"
    );
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "algorithm", "measured(s)", "predicted(s)", "ratio"
    );
    for model_alg in mmjoin_model::Algorithm::ALL {
        let alg = Algo::from(model_alg);
        let spec = JoinSpec::new(pages * 4096, pages * 4096)
            .with_mode(ExecMode::Modern)
            .with_tag(&format!("valm-{}", alg.name()));
        let start = (0..w.rel.d).map(|i| env.now(ProcId(i))).fold(0.0, f64::max);
        let out = mmjoin::join(&env, &rels, alg, &spec).map_err(|e| e.to_string())?;
        verify(&out, &rels).map_err(|e| format!("{}: verification failed: {e}", alg.name()))?;
        let measured = out
            .stage_times
            .last()
            .map(|(_, t)| (t - start).max(0.0))
            .unwrap_or(out.elapsed);
        let predicted = explain(machine, &mmjoin::inputs_for(&rels, &spec), model_alg).total();
        println!(
            "{:<14} {:>12.3} {:>12.3} {}",
            alg.name(),
            measured,
            predicted,
            ratio(measured, predicted)
        );
    }
    // What the skew term is worth: the uniform assumption, the
    // worst-case bound (every pointer of a partition landing on one
    // target partition, skew = D), and the histogram estimate the
    // tables above were priced with.
    println!();
    println!(
        "skew sensitivity (predicted total seconds; histogram = {:.2}, \
         worst-case bound = {:.1}):",
        inputs.skew, w.rel.d as f64
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "algorithm", "uniform", "histogram", "worst-case"
    );
    for alg in mmjoin_model::Algorithm::ALL {
        let at = |skew: f64| {
            let mut i = inputs;
            i.skew = skew;
            explain(machine, &i, alg).total()
        };
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3}",
            alg.name(),
            at(1.0),
            at(inputs.skew),
            at(w.rel.d as f64)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_rows_group_stages_against_model_passes() {
        let machine = MachineParams::waterloo96();
        let inputs = mmjoin_model::JoinInputs {
            r_objects: 10_000,
            s_objects: 10_000,
            r_size: 128,
            s_size: 128,
            sptr_size: 8,
            d: 4,
            skew: 1.0,
            m_rproc: 160 * 4096,
            m_sproc: 160 * 4096,
            g_buffer: 4096,
        };
        // Sort-merge stage layout: distinct setup/pass0, phases fold
        // into pass1, the trailing local pass collects the rest.
        let b = explain(&machine, &inputs, mmjoin_model::Algorithm::SortMerge);
        let stages = vec![
            ("setup".to_string(), 1.0),
            ("pass0".to_string(), 2.0),
            ("phase1".to_string(), 0.5),
            ("phase2".to_string(), 0.5),
            ("phase3".to_string(), 0.5),
            ("sort+merge+join".to_string(), 4.0),
        ];
        let rows = pass_rows(&stages, &b);
        let groups: Vec<&str> = rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec!["setup", "pass0", "pass1", "local"]);
        let pass1 = rows.iter().find(|r| r.group == "pass1").unwrap();
        assert!((pass1.measured - 1.5).abs() < 1e-12);
        assert!((pass1.predicted - b.total_pass("pass1")).abs() < 1e-12);
        let total_pred: f64 = rows.iter().map(|r| r.predicted).sum();
        assert!((total_pred - b.total()).abs() < 1e-9);

        // Synchronized nested loops fold setup+pass0 into one stage on
        // both sides.
        let b = explain(&machine, &inputs, mmjoin_model::Algorithm::NestedLoops);
        let stages = vec![
            ("setup+pass0".to_string(), 3.0),
            ("phase1".to_string(), 1.0),
            ("phase2".to_string(), 1.0),
            ("phase3".to_string(), 1.0),
        ];
        let rows = pass_rows(&stages, &b);
        let combined = rows.iter().find(|r| r.group == "setup+pass0").unwrap();
        assert!((combined.predicted - b.total_pass("setup") - b.total_pass("pass0")).abs() < 1e-12);
        let total_pred: f64 = rows.iter().map(|r| r.predicted).sum();
        assert!((total_pred - b.total()).abs() < 1e-9);
    }
}

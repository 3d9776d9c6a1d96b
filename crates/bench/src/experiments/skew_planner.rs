//! Data-aware planner sweep: the fixed-configuration plan vs the
//! sampled-histogram auto plan, both *executed* on the simulated
//! machine, across pointer distributions of increasing skew.
//!
//! For each distribution the fixed arm takes the model's pick under
//! the paper's uniform assumption at the configured memory grant; the
//! auto arm is the same request as a `plan=auto` serve job: serve's
//! `resolve_auto` samples the workload's pointers, folds them into the
//! equi-depth histogram, and takes whatever algorithm, `M_Rproc` grant
//! and partition count `choose_auto` derives from it, keeping the fixed
//! `M_Sproc` grant. Both plans then run for real through serve's
//! executor, so the table is an end-to-end account of what the
//! statistics buy.
//!
//! `--json` writes `results/skew_planner.json`; `--assert` turns the
//! sweep into a CI gate: exit nonzero unless the auto plan differs
//! from the fixed plan on every skewed input (the planner must *react*
//! to skew — on hot zipf keys the Chao1 hot-set estimate flips the
//! algorithm outright, on cross-partition pointers the partition count
//! grows) and the auto arm's executed time is within `--tolerance`
//! (default 10%) of the fixed arm on every input (the statistics must
//! never cost more than they buy).
//!
//! The partition count is reported, not executed: no executor reads
//! `AutoPlan::partitions`, each derives `K` from its own `JoinSpec`.
//! So the `cross` row's `plans_differ: true` comes from that field
//! alone (both arms run the same sort-merge plan to the same elapsed
//! time), and so does the uniform row's.
//!
//! ```sh
//! mmjoin-bench skew_planner --json --assert
//! ```

use mmjoin::{choose, Algo, ExecMode, JoinSpec, SAMPLE_CAP};
use mmjoin_bench::{calibrated_machine, PAGE};
use mmjoin_env::Options;
use mmjoin_model::choose_k;
use mmjoin_relstore::PointerDist;
use mmjoin_serve::{resolve_auto, run_join, JobRequest, PlanMode, ServeConfig};

/// One executed plan: what was chosen and what it cost.
struct Arm {
    alg: Algo,
    m_rproc: u64,
    partitions: u32,
    predicted: f64,
    elapsed: f64,
}

/// Run `req` with `alg` at its grants to completion through serve's
/// executor, on a fresh simulated machine, and verify it against the
/// workload oracle. Elapsed is virtual seconds, so the sweep is
/// bit-deterministic across hosts.
fn execute(cfg: &ServeConfig, req: &JobRequest, alg: Algo) -> f64 {
    let spec = JoinSpec::new(req.m_rproc, req.m_sproc).with_mode(ExecMode::Sequential);
    let run = run_join(cfg, "skew_planner", &req.workload, alg, &spec);
    let out = run.output.expect("join runs");
    assert!(run.mismatch.is_none(), "join result matches oracle");
    out.elapsed
}

pub fn run(opts: &Options) -> Result<(), String> {
    let objects: u64 = opts.parse_or("objects", 40_000)?;
    let obj_size: u32 = opts.parse_or("obj-size", 128)?;
    let d: u32 = opts.parse_or("d", 4)?;
    let pages: u64 = opts.parse_or("mem-pages", 32)?;
    let seed: u64 = opts.parse_or("seed", 1996)?;
    let theta: f64 = opts.parse_or("theta", 2.0)?;
    let tolerance: f64 = opts.parse_or("tolerance", 0.10)?;
    let assert_gates = opts.flag("assert")?;
    let write_json = opts.flag("json")?;
    opts.finish("skew_planner")?;

    let machine = calibrated_machine();
    let cfg = ServeConfig::sim(0, 1);
    let grant = pages * PAGE;
    println!(
        "skew-planner sweep: |R| = |S| = {objects} x {obj_size} B, D = {d}, \
         {pages} pages/proc fixed grant"
    );
    println!(
        "{:>10} {:>6} {:>8}  {:<14} {:>9}  {:<30} {:>9} {:>7}",
        "dist", "skew", "dup", "fixed plan", "exec(s)", "auto plan", "exec(s)", "ratio"
    );

    let mut json = String::from("[");
    let mut gate_failures: Vec<String> = Vec::new();
    for (i, (name, dist)) in [
        ("uniform", PointerDist::Uniform),
        ("zipf", PointerDist::Zipf { theta }),
        ("cross", PointerDist::CrossPartition),
    ]
    .into_iter()
    .enumerate()
    {
        let mut req = JobRequest::new(objects, obj_size, d, pages, seed);
        req.workload.dist = dist;

        // The fixed arm: the uniform-assumption pick at the configured
        // grant, with the partition count the executor would derive.
        let mut inputs = req.planner_inputs();
        inputs.skew = 1.0;
        let fixed_choice = choose(machine, &inputs);
        let fixed = Arm {
            alg: Algo::from(fixed_choice.algorithm),
            m_rproc: grant,
            partitions: choose_k(objects / d as u64, obj_size, grant).max(1) as u32,
            predicted: fixed_choice.predicted_seconds(),
            elapsed: execute(&cfg, &req, Algo::from(fixed_choice.algorithm)),
        };

        // The auto arm: the same request as a `plan=auto` job, resolved
        // by serve's planner (sampled histogram in, data-aware plan out;
        // `m_sproc` stays at the fixed grant).
        req.plan = PlanMode::Auto;
        let resolved =
            resolve_auto(&cfg, &mut req, SAMPLE_CAP)?.expect("a plan=auto request resolves");
        let plan = &resolved.auto;
        let auto = Arm {
            alg: Algo::from(plan.choice.algorithm),
            m_rproc: plan.m_rproc,
            partitions: plan.partitions,
            predicted: plan.predicted_seconds(),
            elapsed: execute(&cfg, &req, Algo::from(plan.choice.algorithm)),
        };

        let plans_differ = auto.alg != fixed.alg
            || auto.m_rproc != fixed.m_rproc
            || auto.partitions != fixed.partitions;
        let ratio = auto.elapsed / fixed.elapsed;
        println!(
            "{:>10} {:>6.2} {:>8.2}  {:<14} {:>9.1}  {:<30} {:>9.1} {:>7.2}",
            name,
            plan.skew,
            resolved.summary.duplication,
            format!("{} K={}", fixed.alg.name(), fixed.partitions),
            fixed.elapsed,
            plan.describe(),
            auto.elapsed,
            ratio
        );

        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            concat!(
                "{{\"dist\":\"{}\",\"sampled_skew\":{:.4},\"duplication\":{:.4},",
                "\"fixed\":{{\"alg\":\"{}\",\"m_rproc_kib\":{},\"partitions\":{},",
                "\"predicted_seconds\":{:.4},\"elapsed_seconds\":{:.4}}},",
                "\"auto\":{{\"alg\":\"{}\",\"m_rproc_kib\":{},\"partitions\":{},",
                "\"skew_source\":\"{}\",",
                "\"predicted_seconds\":{:.4},\"elapsed_seconds\":{:.4}}},",
                "\"plans_differ\":{},\"auto_over_fixed\":{:.4}}}"
            ),
            name,
            plan.skew,
            resolved.summary.duplication,
            fixed.alg.name(),
            fixed.m_rproc / 1024,
            fixed.partitions,
            fixed.predicted,
            fixed.elapsed,
            auto.alg.name(),
            auto.m_rproc / 1024,
            auto.partitions,
            plan.source.name(),
            auto.predicted,
            auto.elapsed,
            plans_differ,
            ratio
        ));

        // Gate (a): the planner must react to skew — on every skewed
        // input the auto plan cannot collapse back to the
        // uniform-assumption plan.
        if assert_gates && name != "uniform" && !plans_differ {
            gate_failures.push(format!(
                "{name}: auto plan equals fixed plan ({} K={} at {} KiB)",
                fixed.alg.name(),
                fixed.partitions,
                fixed.m_rproc / 1024
            ));
        }
        // Gate (b): the statistics must never cost more than they buy
        // — on every input the auto arm stays within the tolerance of
        // the fixed arm's executed time.
        if assert_gates && ratio > 1.0 + tolerance {
            gate_failures.push(format!(
                "{name}: auto {:.1}s vs fixed {:.1}s (ratio {ratio:.2} > {:.2})",
                auto.elapsed,
                fixed.elapsed,
                1.0 + tolerance
            ));
        }
    }
    json.push_str("]\n");
    if write_json {
        mmjoin_bench::write_json("skew_planner", &json)?;
    }

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("skew_planner: FAILED gate: {f}");
        }
        std::process::exit(1);
    }
    if assert_gates {
        println!(
            "gates OK: auto reacts on every skewed input, and stays within {:.0}% of fixed everywhere",
            tolerance * 100.0
        );
    }
    Ok(())
}

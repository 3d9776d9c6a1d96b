//! `mmjoin join` runs one join through the service's executor and
//! prints it; `mmjoin plan` asks the analytical model what it would
//! cost.

use mmjoin::{
    choose, choose_auto, explain, Algo, ExecMode, JoinSpec, PlanChoice, SampleSummary, SAMPLE_CAP,
};
use mmjoin_env::Options;
use mmjoin_serve::{run_join, EnvKind, JobRequest, ServeConfig, PAGE};

use crate::{env_from, fault_spec_from, flush_trace, job_from, machine_from, trace_sink, traced};

fn parse_alg(s: &str) -> Result<Algo, String> {
    Algo::from_name(s).ok_or_else(|| {
        let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
        format!("unknown algorithm '{s}' (one of: {})", names.join(", "))
    })
}

/// The pointer budget requested with `--sample`: bare `--sample` means
/// the planner's default cap, `--sample N` draws exactly `N`, absent
/// means no sampling.
fn sample_cap_from(opts: &Options) -> Result<Option<usize>, String> {
    match opts.lookup("sample") {
        None => Ok(None),
        Some(None) => Ok(Some(SAMPLE_CAP)),
        Some(Some(_)) => match opts.parse("sample")? {
            Some(0) => Err("--sample: must draw at least one pointer".to_string()),
            cap => Ok(cap),
        },
    }
}

/// A `join` command line as a job request: the workload keys, plus
/// `--alg A | --auto` (no algorithm: the planner picks) and
/// `--threads | --modern`.
fn join_request(opts: &Options) -> Result<JobRequest, String> {
    let mut req = job_from(opts)?;
    req.mode = match (opts.flag("threads")?, opts.flag("modern")?) {
        (true, true) => return Err("--threads and --modern are mutually exclusive".to_string()),
        (_, true) => ExecMode::Modern,
        (true, _) => ExecMode::Threaded,
        _ => ExecMode::Sequential,
    };
    req.alg = match (opts.flag("auto")?, opts.get("alg")?) {
        (true, Some(_)) => return Err("--alg and --auto are mutually exclusive".to_string()),
        (true, None) => None,
        (false, alg) => Some(parse_alg(alg.unwrap_or("grace"))?),
    };
    Ok(req)
}

/// `mmjoin join`: one job through [`run_join`], the path every serve
/// worker takes, configured as a one-job service.
pub(crate) fn cmd_join(opts: &Options) -> Result<(), String> {
    let req = join_request(opts)?;
    let sample_cap = sample_cap_from(opts)?;
    let fault_spec = fault_spec_from(opts)?;
    let retries = opts.parse_or("retries", 3)?;
    let env = env_from(opts, std::env::temp_dir())?;
    let trace = opts.get("trace")?;
    let machine = machine_from(opts.get("machine-profile")?)?;
    opts.finish("join")?;

    let w = &req.workload;
    let mut pages = req.m_rproc / PAGE;
    // `--auto` hands algorithm and memory grant to the data-aware
    // planner: sample the workload's pointers, estimate skew from the
    // histogram, and take the plan — exactly what a `plan=auto` job
    // line gets under serve.
    let (alg, auto_plan) = match req.alg {
        Some(alg) => (alg, None),
        None => {
            let summary = SampleSummary::of_spec(w, sample_cap.unwrap_or(SAMPLE_CAP));
            let auto = choose_auto(&machine, &req.planner_inputs(), Some(&summary));
            pages = (auto.m_rproc / PAGE).max(1);
            (Algo::from(auto.choice.algorithm), Some(auto))
        }
    };
    let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(req.mode);
    let sink = trace_sink(trace)?;
    let cfg = ServeConfig {
        env,
        fault_spec,
        retries,
        trace: traced(&sink),
        ..ServeConfig::sim(0, 1).with_machine(machine.into())
    };
    let store = format!("mmjoin-cli-{}", std::process::id());
    let run = run_join(&cfg, &store, w, alg, &spec);
    let out = run.output.map_err(|e| e.to_string())?;
    if let Some(e) = run.mismatch {
        return Err(format!("verification failed: {e}"));
    }
    match &cfg.env {
        EnvKind::Sim => println!("environment: simulator (virtual 1996-like machine)"),
        EnvKind::Mmap { root } => println!(
            "environment: real memory-mapped store ({})",
            root.join(&store).display()
        ),
    }
    if !cfg.fault_spec.is_empty() {
        println!(
            "faults:      {} injected; {} attempt(s), {} transient error(s) \
             retried, {} orphan file(s) cleaned",
            run.faults, run.report.attempts, run.report.transient_errors, run.report.cleaned_files
        );
    }
    println!("algorithm:   {}", alg.name());
    if let Some(auto) = &auto_plan {
        println!(
            "auto plan:   {} — predicted {:.1} s",
            auto.describe(),
            auto.predicted_seconds()
        );
    }
    println!(
        "workload:    |R| = |S| = {} x {} B over D = {}",
        w.rel.r_objects, w.rel.r_size, w.rel.d
    );
    println!("memory:      {pages} pages/process");
    println!("result:      {} pairs, checksum verified", out.pairs);
    println!("elapsed:     {:.3} s", out.elapsed);
    println!(
        "page faults: {} reads, {} write-backs",
        out.stats.total_read_faults(),
        out.stats.total_write_backs()
    );
    for (name, t) in &out.stage_times {
        println!("  stage {name:<16} done at {t:>9.3} s");
    }
    flush_trace(&sink)?;
    if let Some(path) = trace {
        println!("trace:       {path} (structured JSONL events)");
    }
    Ok(())
}

/// A plan's predicted seconds per algorithm, its pick marked.
fn print_ranking(plan: &PlanChoice) {
    for (alg, t) in &plan.ranking {
        let marker = if *alg == plan.algorithm {
            "  <== pick"
        } else {
            ""
        };
        println!("  {:<14} {t:>10.1} s{marker}", alg.name());
    }
}

pub(crate) fn cmd_plan(opts: &Options) -> Result<(), String> {
    let req = job_from(opts)?;
    let sample_cap = sample_cap_from(opts)?;
    let explain_alg = opts.get("explain")?;
    let machine = machine_from(opts.get("machine-profile")?)?;
    opts.finish("plan")?;
    let w = &req.workload;
    let pages = req.m_rproc / PAGE;
    // Plan from statistics alone — no data is generated — under the
    // paper's uniform assumption; `--sample` measures the real skew.
    let mut inputs = req.planner_inputs();
    inputs.skew = 1.0;
    let plan = choose(&machine, &inputs);
    println!(
        "plan for |R| = |S| = {} x {} B, D = {}, {} pages/proc, skew 1",
        w.rel.r_objects, w.rel.r_size, w.rel.d, pages
    );
    print_ranking(&plan);
    if let Some(cap) = sample_cap {
        // The data-aware path: draw pointers, estimate skew from the
        // histogram, and re-rank at the planner's chosen grant.
        let summary = SampleSummary::of_spec(w, cap);
        let auto = choose_auto(&machine, &inputs, Some(&summary));
        println!();
        println!(
            "sampled {} of {} pointers: histogram skew {:.2} \
             (worst-case bound {:.1}), duplication {:.2}",
            summary.sampled,
            summary.population,
            summary.estimated_skew(),
            w.rel.d as f64,
            summary.duplication
        );
        println!("auto plan: {}", auto.describe());
        print_ranking(&auto.choice);
    }
    if let Some(name) = explain_alg {
        let alg = mmjoin_model::Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown algorithm '{name}'"))?;
        println!("\nitemized prediction for {}:", alg.name());
        println!("{}", explain(&machine, &inputs, alg).table());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_opts;

    #[test]
    fn parses_pairs_and_flags() {
        let req = with_opts(
            &["--alg", "grace", "--threads", "--objects", "100"],
            join_request,
        )
        .unwrap();
        assert_eq!(req.alg, Some(Algo::Grace));
        assert_eq!(req.mode, ExecMode::Threaded);
        assert_eq!(req.workload.rel.r_objects, 100);
        assert_eq!(req.m_rproc, 160 * PAGE, "the CLI's default grant");
        let req = with_opts(&["--auto", "--modern"], join_request).unwrap();
        assert_eq!((req.alg, req.mode), (None, ExecMode::Modern));
    }

    #[test]
    fn parses_every_algorithm_name() {
        for alg in Algo::ALL {
            assert_eq!(parse_alg(alg.name()).unwrap(), alg);
        }
        assert!(parse_alg("quantum").is_err());
    }

    #[test]
    fn sample_cap_is_flag_or_value() {
        assert_eq!(with_opts(&[], sample_cap_from).unwrap(), None);
        assert_eq!(
            with_opts(&["--sample"], sample_cap_from).unwrap(),
            Some(SAMPLE_CAP)
        );
        assert_eq!(
            with_opts(&["--sample", "128"], sample_cap_from).unwrap(),
            Some(128)
        );
        assert!(with_opts(&["--sample", "0"], sample_cap_from).is_err());
        assert!(with_opts(&["--sample", "lots"], sample_cap_from).is_err());
    }
}

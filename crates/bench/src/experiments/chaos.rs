//! Chaos harness: a randomized job batch under injected faults.
//!
//! Runs a seeded randomized job mix ([`random_job`]) against a service whose
//! per-job environments inject seeded deterministic faults, then asserts
//! the recovery invariants:
//!
//! * every job that completed (no error) produced a join output that
//!   verifies against the workload oracle;
//! * the budget accounting leaked nothing (`used_bytes` back to 0);
//! * the injector actually fired (`faults_injected > 0`) and the retry
//!   layer actually healed something (`retries > 0`).
//!
//! Jobs may *fail* under heavy fault rates — that is allowed; silent
//! corruption and leaks are not. Exit status is nonzero only when an
//! invariant breaks.
//!
//! ```sh
//! mmjoin-bench chaos \
//!     --jobs 16 --seed 1996 --fault-spec 'seed=7;read:p=1:after=60:count=2' [--json]
//! ```

use mmjoin_bench::load::random_job;
use mmjoin_calibrate::machine_override;
use mmjoin_env::trace::escape;
use mmjoin_env::{FaultSpec, Options};
use mmjoin_serve::{AdmissionPolicy, ServeConfig, Service, PAGE};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default spec: every job sees exactly two transient read errors once
/// its join is ~60 reads in (deep enough to have temp files on disk),
/// plus scattered map-setup failures on the re-partitioning
/// temporaries. All heal within the 4-attempt budget.
const DEFAULT_SPEC: &str = "seed=7;read:p=1:after=60:count=2;create:p=0.2:file=RP:count=1";

fn fail(msg: &str) -> ! {
    eprintln!("chaos: INVARIANT VIOLATED: {msg}");
    std::process::exit(1);
}

/// An `Err` (a bad command line, a service that cannot start or a
/// failed `--json` write) exits 2; a broken invariant exits 1.
pub fn run(opts: &Options) -> Result<(), String> {
    let jobs: u64 = opts.parse_or("jobs", 16)?;
    let budget_pages: u64 = opts.parse_or("budget-pages", 128)?;
    let workers = opts.parse_or("workers", 4)?;
    let seed = opts.parse_or("seed", 1996)?;
    let fault_spec = FaultSpec::parse(opts.get("fault-spec")?.unwrap_or(DEFAULT_SPEC))
        .map_err(|e| format!("--fault-spec: {e}"))?;
    let retries = opts.parse_or("retries", 4)?;
    let journal = opts.get("journal")?;
    let machine = machine_override(opts.get("machine-profile")?)?;
    let json = opts.flag("json")?;
    opts.finish("chaos")?;
    if fault_spec.is_empty() {
        return Err("--fault-spec: chaos needs a nonzero spec".to_string());
    }

    let mut cfg = ServeConfig::sim(budget_pages * PAGE, workers)
        .with_policy(AdmissionPolicy::Fifo)
        .with_faults(fault_spec.clone())
        .with_retries(retries);
    if let Some(dir) = journal {
        cfg = cfg.with_journal(dir.into());
    }
    if let Some(m) = machine {
        cfg = cfg.with_machine(std::sync::Arc::new(m));
    }
    let svc = Service::start(cfg).map_err(|e| format!("cannot start service: {e}"))?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted = 0u64;
    for i in 0..jobs {
        match svc.submit(random_job(&mut rng, i + 1)) {
            Ok(_) => accepted += 1,
            Err(e) => eprintln!("job {i}: {e}"),
        }
    }
    let (results, stats) = svc.finish();

    println!("chaos: {accepted}/{jobs} jobs under spec '{fault_spec}'");
    println!(
        "completed:  {} ok, {} failed; attempts {}, faults injected {}, \
         retries {}, degraded {}, orphans cleaned {}",
        stats.completed,
        stats.failed,
        results.iter().map(|r| r.attempts as u64).sum::<u64>(),
        stats.faults_injected,
        stats.retries,
        stats.degraded,
        stats.cleaned_files,
    );

    if json {
        mmjoin_bench::write_json(
            "chaos",
            &document(jobs, accepted, &fault_spec, &stats.to_json()),
        )?;
    }

    // Invariant 1: every completed job verified against the oracle.
    for r in &results {
        if r.error.is_none() && !r.verified {
            fail(&format!("job {} completed but did not verify", r.id));
        }
    }
    // Invariant 2: zero budget-accounting leaks after drain.
    if stats.budget_leak_bytes != 0 {
        fail(&format!("{} budget bytes leaked", stats.budget_leak_bytes));
    }
    if stats.peak_budget_bytes > budget_pages * PAGE {
        fail("admission exceeded the global budget");
    }
    // Invariant 3: the chaos actually happened and was actually healed.
    if stats.faults_injected == 0 {
        fail("no faults injected — the spec never fired");
    }
    if stats.retries == 0 {
        fail("no retries — the recovery layer never engaged");
    }
    // Invariant 4 (with --journal): every admission and completion was
    // durably committed — one record and one commit per submit and per
    // finish, and nothing else.
    if journal.is_some() {
        if stats.journal_commits != stats.submitted + stats.completed + stats.failed {
            fail(&format!(
                "journal committed {} times for {} submits and {} finishes",
                stats.journal_commits,
                stats.submitted,
                stats.completed + stats.failed
            ));
        }
        if stats.journal_appended_records != stats.journal_commits {
            fail("journal appended a record it did not commit on its own");
        }
    }
    println!("chaos: all invariants held");
    Ok(())
}

/// The one-line `results/chaos.json` document; `service` is the service
/// stats object, already JSON.
fn document(jobs: u64, accepted: u64, fault_spec: &FaultSpec, service: &str) -> String {
    format!(
        "{{\"jobs\":{jobs},\"accepted\":{accepted},\"fault_spec\":\"{}\",\"service\":{service}}}",
        escape(&fault_spec.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_calibrate::json::Json;

    #[test]
    fn document_escapes_a_fault_spec_that_quotes_a_file_name() {
        let spec = FaultSpec::parse(r#"seed=7;read:p=1:count=2:file=R"\_0"#).unwrap();
        let doc = document(16, 15, &spec, "{\"completed\":15}");
        let json = Json::parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert_eq!(
            json.req("fault_spec").unwrap().as_str().unwrap(),
            spec.to_string()
        );
        assert!(spec.to_string().contains(r#"R"\_0"#));
        assert_eq!(json.req("accepted").unwrap().as_u64().unwrap(), 15);
    }
}

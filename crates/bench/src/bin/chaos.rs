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
//! cargo run --release -p mmjoin-bench --bin chaos -- \
//!     --jobs 16 --seed 1996 --fault-spec 'seed=7;read:p=1:after=60:count=2' [--json]
//! ```

use mmjoin_bench::load::{machine_override, opt, random_job};
use mmjoin_env::FaultSpec;
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

fn main() {
    let jobs: u64 = opt("--jobs", 16);
    let budget_pages: u64 = opt("--budget-pages", 128);
    let workers: usize = opt("--workers", 4);
    let seed: u64 = opt("--seed", 1996);
    let spec_text: String = opt("--fault-spec", DEFAULT_SPEC.to_string());
    let retries: u32 = opt("--retries", 4);
    let journal: String = opt("--journal", String::new());
    let fault_spec = match FaultSpec::parse(&spec_text) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            eprintln!("--fault-spec: chaos needs a nonzero spec");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("--fault-spec: {e}");
            std::process::exit(2);
        }
    };

    let mut cfg = ServeConfig::sim(budget_pages * PAGE, workers)
        .with_policy(AdmissionPolicy::Fifo)
        .with_faults(fault_spec.clone())
        .with_retries(retries);
    if !journal.is_empty() {
        cfg = cfg.with_journal(journal.clone().into());
    }
    match machine_override() {
        Ok(Some(m)) => cfg = cfg.with_machine(m),
        Ok(None) => {}
        Err(e) => {
            eprintln!("--machine-profile: {e}");
            std::process::exit(2);
        }
    }
    let svc = match Service::start(cfg) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            std::process::exit(2);
        }
    };

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

    mmjoin_bench::maybe_write_json(
        "chaos",
        &format!(
            "{{\"jobs\":{jobs},\"accepted\":{accepted},\"fault_spec\":\"{fault_spec}\",\"service\":{}}}",
            stats.to_json()
        ),
    );

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
    if !journal.is_empty() {
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
}

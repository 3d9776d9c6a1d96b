//! `perf compare OLD NEW` and `perf aa N`: the pairing rule of the
//! choosing-metrics guide over stored run records.
//!
//! Per (metric, workload) the two sides' medians and quartiles are set
//! side by side. A metric is *worse* only when the new median is worse
//! than the old by more than the pair's bound (`metrics::bound_for`), and
//! *unresolved* — never "unchanged" — when the old side's own
//! inter-quartile range is wider than that bound. A metric that is a
//! function of the inputs (`metrics::EXACT`) has *changed* when the
//! medians differ at all. A gain does not count when more operations
//! failed, so the records' `failed` counts are compared too, and a
//! judged pair that NEW no longer reports is a regression.

use crate::metrics::{bound_for, metric, Better, END_TO_END, EXACT, WORKLOADS};
use crate::report::{Samples, FAILED};
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
    /// An exact metric whose median moved: a change of fidelity.
    Changed,
}

impl Verdict {
    fn regressed(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Changed)
    }
}

/// By what share of the old median the new median is worse (negative:
/// better), in the metric's own direction.
pub fn worsening(old: &[f64], new: &[f64], better: Better) -> f64 {
    let (o, n) = (median(old), median(new));
    if o == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (n - o) / o.abs(),
        Better::Higher => (o - n) / o.abs(),
    }
}

pub fn judge(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(old) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(old, new, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// An exact metric: the medians agree to a part in 10^9, or it changed.
pub fn judge_exact(old: &[f64], new: &[f64]) -> Verdict {
    let (o, n) = (median(old), median(new));
    if (n - o).abs() <= 1e-9 * o.abs() {
        Verdict::Same
    } else {
        Verdict::Changed
    }
}

/// Failed operations per run: worse when NEW's runs failed more.
fn judge_failed(old: &[f64], new: &[f64]) -> Verdict {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    match mean(new).total_cmp(&mean(old)) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
    }
}

/// How `name` on `workload` is judged, and under what label; `None` for
/// a per-layer metric that is only listed.
fn verdict_of(workload: &str, name: &str, old: &[f64], new: &[f64]) -> Option<(Verdict, String)> {
    if name == FAILED {
        return Some((judge_failed(old, new), "no more failures".to_string()));
    }
    if EXACT.contains(&name) {
        return Some((judge_exact(old, new), "exact".to_string()));
    }
    let bound = bound_for(workload, name)?;
    let better = metric(name)?.better;
    Some((
        judge(old, new, better, bound),
        format!("bound {:.0}%", bound * 100.0),
    ))
}

fn row(workload: &str, name: &str, old: &[f64], new: &[f64]) -> (String, Option<Verdict>) {
    let (oq1, oq3) = quartiles(old);
    let (nq1, nq3) = quartiles(new);
    let verdict = verdict_of(workload, name, old, new);
    let change = metric(name).map_or(0.0, |d| worsening(old, new, d.better)) * 100.0;
    let line = format!(
        "{workload:<17} {name:<32} {:>14.6} [{oq1:.6}..{oq3:.6}] n={} -> {:>14.6} [{nq1:.6}..{nq3:.6}] n={}  {change:+.1}% worse  {}",
        median(old),
        old.len(),
        median(new),
        new.len(),
        match &verdict {
            Some((v, rule)) => format!("{v:?} ({rule})"),
            None => "per-layer".to_string(),
        }
    );
    (line, verdict.map(|(v, _)| v))
}

/// Compare two sample sets. Returns the report and whether anything
/// judged regressed. Pairs that read 0 on both sides (a per-layer metric
/// of a layer the workload does not touch) are left out.
pub fn compare(old: &Samples, new: &Samples) -> (String, bool) {
    let mut report = String::new();
    let mut regressed = false;
    for ((workload, name), o) in old {
        let Some(n) = new.get(&(workload.clone(), name.clone())) else {
            let judged = verdict_of(workload, name, o, o).is_some();
            regressed |= judged;
            report.push_str(&format!(
                "{workload:<17} {name:<32} missing from NEW{}\n",
                if judged {
                    "  Worse (no longer reported)"
                } else {
                    ""
                }
            ));
            continue;
        };
        if name != FAILED && o.iter().chain(n).all(|&v| v == 0.0) {
            continue;
        }
        let (line, verdict) = row(workload, name, o, n);
        regressed |= verdict.is_some_and(Verdict::regressed);
        report.push_str(&line);
        report.push('\n');
    }
    (report, regressed)
}

/// A/A report over one build's repeated runs: each end-to-end metric's
/// spread against the bound `BENCHMARK.json` gives it (the benchmark is
/// steady when the spread stays under a third of it), whether that
/// spread would leave `perf compare`'s tighter bound for the pair
/// resolved, and the drift of the second half's median from the
/// first's. Returns the report and whether every spread and drift stayed
/// within the `BENCHMARK.json` bound (`setup_s` is held to its drift
/// only — its spread is first-touch noise).
pub fn aa_report(samples: &Samples) -> (String, bool) {
    let mut report = String::new();
    let mut ok = true;
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(v) = samples.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let gate = bound_for(w.name, m.name).unwrap_or(bound);
            let s = spread(v);
            let (first, second) = v.split_at(v.len() / 2);
            let drift = if first.is_empty() {
                0.0
            } else {
                worsening(first, second, m.better)
            };
            let within = (s <= bound || m.name == "setup_s") && drift <= bound;
            ok &= within;
            report.push_str(&format!(
                "{:<17} {:<18} median {:>14.6} {:<4} spread {:>5.1}% of bound {:>3.0}% ({}), compare bound {:>3.0}% ({}), drift {:+.1}%{}\n",
                w.name,
                m.name,
                median(v),
                m.unit,
                s * 100.0,
                bound * 100.0,
                if s <= bound / 3.0 {
                    "steady"
                } else if s <= bound {
                    "within"
                } else {
                    "TOO WIDE"
                },
                gate * 100.0,
                if s <= gate { "resolved" } else { "unresolved" },
                drift * 100.0,
                if within { "" } else { "  <-- outside its bound" },
            ));
        }
    }
    (report, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_only_beyond_the_bound_and_in_the_metric_direction() {
        let old = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: +8 % is inside a 10 % bound, +12 % is not.
        assert_eq!(judge(&old, &[108.0; 5], Better::Lower, 0.10), Verdict::Same);
        assert_eq!(
            judge(&old, &[112.0; 5], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&old, &[80.0; 5], Better::Lower, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(&old, &[112.0; 5], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&old, &[88.0; 5], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert!((worsening(&old, &[88.0; 5], Better::Higher) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_parent_is_unresolved_not_unchanged() {
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(
            judge(&noisy, &[100.0; 5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[300.0; 5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_flags_a_regression_per_metric_and_workload() {
        let key = |w: &str, m: &str| (w.to_string(), m.to_string());
        let mut old = Samples::new();
        let mut new = Samples::new();
        old.insert(key("serve-mix", "latency_p50_ms"), vec![10.0, 10.1, 9.9]);
        new.insert(key("serve-mix", "latency_p50_ms"), vec![10.2, 10.0, 10.1]);
        old.insert(
            key("stream-probe", "throughput_per_s"),
            vec![1000.0, 1010.0, 990.0],
        );
        new.insert(
            key("stream-probe", "throughput_per_s"),
            vec![700.0, 710.0, 690.0],
        );
        old.insert(key("serve-mix", "serve.exec_p50_ms"), vec![5.0]);
        new.insert(key("serve-mix", "serve.exec_p50_ms"), vec![50.0]);
        old.insert(key("serve-mix", "serve.submit_us"), vec![0.0]);
        new.insert(key("serve-mix", "serve.submit_us"), vec![0.0]);
        let (report, regressed) = compare(&old, &new);
        assert!(regressed);
        assert!(
            report.contains("Worse") && report.contains("Same"),
            "{report}"
        );
        assert!(
            report.contains("per-layer"),
            "unbounded metrics are listed, not judged"
        );
        assert!(
            !report.contains("serve.submit_us"),
            "all-zero pairs are left out"
        );
        new.insert(key("stream-probe", "throughput_per_s"), vec![1001.0]);
        assert!(!compare(&old, &new).1);
    }

    #[test]
    fn the_pair_bound_is_the_issues_not_the_manifests() {
        let key = |w: &str, m: &str| (w.to_string(), m.to_string());
        let one = |w: &str, m: &str, v: f64| Samples::from([(key(w, m), vec![v; 3])]);
        // +12 %: inside latency_p50_ms's 25 % in BENCHMARK.json, outside
        // the 10 % ISSUE 12 gives join_s; inside serve latency's 15 %.
        let (old, new) = (
            one("join-modern-mmap", "latency_p50_ms", 300.0),
            one("join-modern-mmap", "latency_p50_ms", 336.0),
        );
        assert!(compare(&old, &new).1);
        let (old, new) = (
            one("serve-mix", "latency_p50_ms", 10.0),
            one("serve-mix", "latency_p50_ms", 11.2),
        );
        assert!(!compare(&old, &new).1);
        // A gated tail of the traced run is judged too.
        let (old, new) = (
            one("serve-mix", "serve.open_lat_p95_ms", 40.0),
            one("serve-mix", "serve.open_lat_p95_ms", 52.0),
        );
        let (report, regressed) = compare(&old, &new);
        assert!(regressed && report.contains("bound 25%"), "{report}");
    }

    #[test]
    fn fidelity_failures_and_missing_metrics_regress() {
        let key = |w: &str, m: &str| (w.to_string(), m.to_string());
        let mut old = Samples::new();
        let mut new = Samples::new();
        // One ulp-scale drift of virtual time is a change, either way.
        old.insert(key("paper-fig5-sim", "vmsim.virtual_s"), vec![812.5; 3]);
        new.insert(key("paper-fig5-sim", "vmsim.virtual_s"), vec![812.4; 3]);
        let (report, regressed) = compare(&old, &new);
        assert!(regressed && report.contains("Changed (exact)"), "{report}");
        new.insert(key("paper-fig5-sim", "vmsim.virtual_s"), vec![812.5; 3]);
        assert!(!compare(&old, &new).1);

        // More failed operations: a faster median does not count.
        old.insert(key("serve-mix", FAILED), vec![0.0, 0.0]);
        new.insert(key("serve-mix", FAILED), vec![0.0, 3.0]);
        old.insert(key("serve-mix", "latency_p50_ms"), vec![10.0, 10.0]);
        new.insert(key("serve-mix", "latency_p50_ms"), vec![5.0, 5.0]);
        let (report, regressed) = compare(&old, &new);
        assert!(regressed && report.contains("no more failures"), "{report}");
        new.insert(key("serve-mix", FAILED), vec![0.0, 0.0]);
        assert!(!compare(&old, &new).1);

        // A judged metric NEW stopped reporting; an unjudged one may go.
        new.remove(&key("serve-mix", "latency_p50_ms"));
        let (report, regressed) = compare(&old, &new);
        assert!(
            regressed && report.contains("no longer reported"),
            "{report}"
        );
        new.insert(key("serve-mix", "latency_p50_ms"), vec![10.0]);
        old.insert(key("serve-mix", "serve.exec_p50_ms"), vec![5.0]);
        let (report, regressed) = compare(&old, &new);
        assert!(
            !regressed && report.contains("missing from NEW"),
            "{report}"
        );
    }

    #[test]
    fn aa_holds_spread_and_drift_against_the_bound() {
        let key = |m: &str| ("serve-mix".to_string(), m.to_string());
        let mut s = Samples::new();
        s.insert(
            key("latency_p50_ms"),
            vec![10.0, 10.1, 9.9, 10.0, 10.05, 9.95],
        );
        // setup_s may be wide, but must not drift.
        s.insert(key("setup_s"), vec![1.0, 3.0, 2.0, 1.0, 3.0, 2.0]);
        let (report, ok) = aa_report(&s);
        assert!(ok, "{report}");
        assert!(report.contains("steady"));
        s.insert(
            key("throughput_per_s"),
            vec![100.0, 100.0, 100.0, 50.0, 50.0, 50.0],
        );
        let (report, ok) = aa_report(&s);
        assert!(!ok && report.contains("outside its bound"), "{report}");
    }
}

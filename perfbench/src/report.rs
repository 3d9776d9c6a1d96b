//! What a run prints and stores: the metric table for people, the one
//! JSON line the driver reads last on standard output, and the fuller
//! record appended to `--out` that `perf compare` and `perf aa` read
//! back.

use std::collections::BTreeMap;

use mmjoin_calibrate::json::{escape, Json};

use crate::metrics::{metric, MetricDef, Readings, END_TO_END, PER_LAYER};
use crate::workloads::Outcome;

/// Identity of one run, echoed in its record.
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// The metrics a run of this kind owes: end-to-end untraced, per-layer
/// traced.
pub fn owed(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Check the readings against what the run owes. Every end-to-end
/// metric must be present, finite and non-zero; a per-layer metric the
/// workload's layers do not touch is reported as 0.
pub fn settle(readings: &mut Readings, traced: bool) -> Result<(), String> {
    for m in owed(traced) {
        match readings.get(m.name) {
            Some(r) if !r.value.is_finite() => {
                return Err(format!("metric {} is not finite ({})", m.name, r.value));
            }
            Some(r) if !traced && r.value == 0.0 => {
                return Err(format!("end-to-end metric {} measured 0", m.name));
            }
            Some(_) => {}
            None if traced => readings.put(m.name, 0.0),
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        }
    }
    Ok(())
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and the
/// owed `metrics`, each value with all its digits.
pub fn driver_line(out: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = owed(traced)
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                out.readings.value(m.name),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The table: every reading by name with its unit, the quartiles of
/// the rounds behind a median, and the percentile and sample count
/// behind a tail.
pub fn table(id: &RunId, out: &Outcome) -> String {
    let mut s = format!(
        "== {} seed={} seconds={} trace={}{}\n",
        id.workload,
        id.seed,
        id.seconds,
        u8::from(id.traced),
        if id.smoke { " smoke" } else { "" }
    );
    for (name, r) in out.readings.iter() {
        let unit = metric(name).map_or("", |m| m.unit);
        let detail = if r.pct > 0.0 {
            format!("p{} of n={}", r.pct, r.n)
        } else if r.n > 1 {
            format!("median of n={}, IQR {:.6}..{:.6}", r.n, r.q1, r.q3)
        } else {
            String::new()
        };
        s.push_str(&format!(
            "{name:<34} {:>16.6} {unit:<9} {detail}\n",
            r.value
        ));
    }
    s.push_str(&format!(
        "attempted {} failed {}\n",
        out.attempted, out.failed
    ));
    for why in &out.failures {
        s.push_str(&format!("FAILED: {why}\n"));
    }
    s
}

/// The full record of a run, one JSON object on one line.
pub fn record(id: &RunId, header: &[(&str, String)], out: &Outcome) -> String {
    let header: Vec<String> = header
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain(out.notes.iter().map(|(k, v)| (*k, v.clone())))
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(&v)))
        .collect();
    let metrics: Vec<String> = out
        .readings
        .iter()
        .map(|(name, r)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{},\"pct\":{}}}",
                r.value,
                metric(name).map_or("", |m| m.unit),
                r.q1,
                r.q3,
                r.n,
                r.pct
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"claim\":null,\
         \"header\":{{{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        id.workload,
        id.seed,
        id.seconds,
        id.traced,
        id.smoke,
        header.join(","),
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// Values per `(workload, metric)` across the run records of a results
/// file (one JSON object per line; a driver line has no workload and is
/// filed under `default_workload`). Each record's count of failed
/// operations is filed under the metric name [`FAILED`]. A traced
/// record's end-to-end values are left out: they were measured over a
/// share of `--seconds` and belong in no bucket with the untraced ones.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// The name a record's `failed` count is filed under in [`Samples`].
pub const FAILED: &str = "failed";

pub fn read_samples(text: &str, default_workload: &str, into: &mut Samples) -> Result<(), String> {
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        let workload = json
            .get("workload")
            .and_then(|w| w.as_str().ok())
            .unwrap_or(default_workload)
            .to_string();
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("line {}: no metrics object", no + 1));
        };
        if let Some(failed) = json.get(FAILED).and_then(|f| f.as_f64().ok()) {
            into.entry((workload.clone(), FAILED.to_string()))
                .or_default()
                .push(failed);
        }
        let traced = json.get("trace").and_then(|t| t.as_bool().ok()) == Some(true);
        for (name, m) in metrics {
            if traced && END_TO_END.iter().any(|m| m.name == name) {
                continue;
            }
            let value = m
                .req("value")
                .and_then(Json::as_f64)
                .map_err(|e| format!("line {}: {name}: {e}", no + 1))?;
            into.entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        out.readings.put_median("setup_s", &[0.5, 0.25, 0.75]);
        out.readings.put("latency_p50_ms", 1.203_456_789_012);
        out.readings.put("throughput_per_s", 1000.0);
        out.readings.put("peak_rss_mb", 64.5);
        out.note("rounds", 7);
        out
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_owed_metrics() {
        let mut out = outcome();
        settle(&mut out.readings, false).unwrap();
        let line = driver_line(&out, false);
        let json = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &json else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(json.req("correct").unwrap().as_bool().unwrap());
        assert_eq!(json.req("attempted").unwrap().as_u64().unwrap(), 12);
        let Json::Obj(metrics) = json.req("metrics").unwrap() else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        // All digits survive.
        assert!(line.contains("1.203456789012"), "{line}");

        // A traced run owes every per-layer metric; untouched layers read 0.
        let mut traced = outcome();
        traced.readings.put("core.grace.s", 0.04);
        settle(&mut traced.readings, true).unwrap();
        let json = Json::parse(&driver_line(&traced, true)).unwrap();
        let Json::Obj(metrics) = json.req("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            json.req("metrics")
                .unwrap()
                .req("serve.start_ms")
                .unwrap()
                .req("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn settle_refuses_missing_zero_or_non_finite_end_to_end_values() {
        let mut missing = Outcome::default();
        assert!(settle(&mut missing.readings, false).is_err());
        let mut zero = outcome();
        zero.readings.put("throughput_per_s", 0.0);
        assert!(settle(&mut zero.readings, false)
            .unwrap_err()
            .contains("measured 0"));
        let mut nan = outcome();
        nan.readings.put("latency_p50_ms", f64::NAN);
        assert!(settle(&mut nan.readings, false)
            .unwrap_err()
            .contains("not finite"));
    }

    #[test]
    fn records_round_trip_through_read_samples() {
        let out = outcome();
        let id = RunId {
            workload: "serve-mix",
            seed: 3,
            seconds: 8.0,
            traced: false,
            smoke: false,
        };
        let line = record(&id, &[("nproc", "2".into())], &out);
        assert!(line.contains("\"claim\":null") && line.contains("\"rounds\":\"7\""));
        let mut samples = Samples::new();
        read_samples(&format!("noise\n{line}\n{line}\n"), "x", &mut samples).unwrap();
        assert_eq!(
            samples[&("serve-mix".into(), "setup_s".into())],
            vec![0.5, 0.5]
        );
        assert_eq!(
            samples[&("serve-mix".into(), FAILED.into())],
            vec![0.0, 0.0]
        );
        // A traced record keeps its per-layer values only.
        let mut traced = outcome();
        traced.readings.put("serve.exec_p50_ms", 5.0);
        let traced_id = RunId { traced: true, ..id };
        let mut of_traced = Samples::new();
        read_samples(&record(&traced_id, &[], &traced), "x", &mut of_traced).unwrap();
        assert!(of_traced.contains_key(&("serve-mix".into(), "serve.exec_p50_ms".into())));
        assert!(!of_traced.contains_key(&("serve-mix".into(), "setup_s".into())));
        // A bare driver line is filed under the caller's workload.
        let mut settled = outcome();
        settle(&mut settled.readings, false).unwrap();
        read_samples(&driver_line(&settled, false), "w", &mut samples).unwrap();
        assert_eq!(samples[&("w".into(), "peak_rss_mb".into())], vec![64.5]);
        assert!(table(&id, &out).contains("median of n=3"));
    }
}

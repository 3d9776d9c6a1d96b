//! The JSONL trace encoder, end to end: one instance of every
//! [`TraceEvent`] variant, with JSON's awkward characters in every string
//! field, encodes to one line that a strict JSON parser reads back as a
//! flat object whose `ev` is the variant's tag and whose keys are `t`,
//! `ev`, then the variant's fields in declaration order.

use mmjoin_calibrate::json::Json;
use mmjoin_env::trace::encode;
use mmjoin_env::{MapOp, TraceEvent};

/// A quote, a backslash, a newline and a control character.
const AWKWARD: &str = "q\"b\\n\nc\u{1}";

fn every_variant() -> Vec<TraceEvent> {
    let s = || AWKWARD.to_string();
    vec![
        TraceEvent::PassStart {
            proc: 1,
            pass: 1,
            phase: 2,
            disk: 3,
            area: s(),
        },
        TraceEvent::PassEnd {
            proc: 1,
            pass: 1,
            phase: 2,
            disk: 3,
            area: s(),
            bytes: 4096,
            objects: 32,
        },
        TraceEvent::MapSetup {
            proc: 0,
            op: MapOp::New,
            name: s(),
            disk: 1,
            bytes: 8192,
        },
        TraceEvent::MapTeardown {
            proc: 0,
            name: s(),
            disk: 1,
        },
        TraceEvent::FaultInjected {
            proc: 2,
            op: s(),
            kind: s(),
            name: s(),
            disk: Some(1),
        },
        TraceEvent::RetryAttempt { attempt: 1 },
        TraceEvent::RetryBackoff {
            attempt: 1,
            millis: 20,
        },
        TraceEvent::PlanSampled {
            job: 5,
            sampled: 4096,
            skew: 3.5,
            duplication: 1.25,
        },
        TraceEvent::PlanChosen {
            job: 5,
            algorithm: s(),
            m_rproc: 262_144,
            partitions: 7,
            skew: 0.1,
            source: s(),
        },
        TraceEvent::JobSubmitted {
            job: 3,
            footprint: 8192,
            shard: 0,
        },
        TraceEvent::JobAdmitted {
            job: 3,
            footprint: 8192,
            used: 8192,
            shard: 0,
        },
        TraceEvent::JobDegraded {
            job: 3,
            footprint: 4096,
            released: 4096,
        },
        TraceEvent::JobCompleted {
            job: 3,
            ok: true,
            degraded: 1,
        },
        TraceEvent::JournalAppend {
            kind: s(),
            bytes: 34,
        },
        TraceEvent::RecoveryReplayed {
            records: 12,
            torn: 3,
            orphans_deleted: 2,
            resumed_jobs: 1,
        },
        TraceEvent::NodeJoined {
            node: s(),
            budget: 1 << 20,
            workers: 2,
        },
        TraceEvent::NodeLost {
            node: s(),
            in_flight: 3,
        },
        TraceEvent::JobRequeued {
            job: 9,
            from: s(),
            attempt: 1,
        },
        TraceEvent::KernelRadix {
            proc: 1,
            area: s(),
            buckets: 4,
            objects: 1024,
        },
        TraceEvent::KernelMerge {
            proc: 0,
            area: s(),
            runs: 4,
            objects: 4096,
        },
        TraceEvent::KernelProbe {
            proc: 2,
            spart: 2,
            batches: 3,
            objects: 5000,
        },
        TraceEvent::ProbeStart {
            probe: s(),
            reps: 5,
        },
        TraceEvent::ProbeEnd {
            probe: s(),
            reps: 5,
            seconds: 0.25,
        },
        TraceEvent::ProbeFit {
            fit: s(),
            base: 0.05,
            slope: 9.0e-4,
            residual: 1.0e-6,
        },
        TraceEvent::ResidentBuilt {
            parts: 4,
            objects: 40_000,
        },
        TraceEvent::ResidentReopened {
            parts: 4,
            objects: 40_000,
            live: 39_968,
        },
        TraceEvent::ResidentPatched {
            op: s(),
            objects: 32,
            live: 39_968,
        },
        TraceEvent::BatchSubmitted {
            batch: 7,
            rows: 256,
        },
        TraceEvent::BatchCompleted {
            batch: 7,
            pairs: 250,
            misses: 6,
            ok: false,
        },
        TraceEvent::StreamBackpressure {
            queued: 65,
            bound: 64,
        },
    ]
}

/// The variant's fields as `derive(Debug)` lists them, in declaration
/// order: `(name, debug value)`. Pretty Debug puts each field on its own
/// line at a four-space indent and escapes strings, so no value spans a
/// line that could be mistaken for a field.
fn declared_fields(event: &TraceEvent) -> Vec<(String, String)> {
    format!("{event:#?}")
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.trim_end_matches(',').to_string()))
        .collect()
}

#[test]
fn every_variant_encodes_to_one_parseable_flat_object_in_declaration_order() {
    let events = every_variant();
    let mut tags: Vec<&str> = events.iter().map(TraceEvent::tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 30, "one instance of each variant");

    for (i, event) in events.iter().enumerate() {
        let line = encode(i as f64 * 0.5, event);
        assert!(!line.contains('\n'), "{line}");
        let json = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let Json::Obj(members) = &json else {
            panic!("not an object: {line}")
        };
        assert_eq!(json.req("t").unwrap().as_f64().unwrap(), i as f64 * 0.5);
        assert_eq!(json.req("ev").unwrap().as_str().unwrap(), event.tag());

        let fields = declared_fields(event);
        assert!(!fields.is_empty(), "{event:?}");
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut expected = vec!["t", "ev"];
        expected.extend(fields.iter().map(|(k, _)| k.as_str()));
        assert_eq!(keys, expected, "{line}");

        for (key, debug) in &fields {
            let value = json.req(key).unwrap();
            if debug.starts_with('"') {
                assert_eq!(value.as_str().unwrap(), AWKWARD, "{key} in {line}");
            } else if let (Json::Num(n), Ok(d)) = (value, debug.parse::<f64>()) {
                assert_eq!(*n, d, "{key} in {line}");
            }
        }
    }
}

//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds, in one table. `BENCHMARK.json` is
//! `perf manifest` printed from this table (a unit test holds the two
//! together), and every reading a workload reports must name a row.

use std::collections::BTreeMap;

use crate::stats;

/// How long one measured run lasts (`run_seconds` in `BENCHMARK.json`;
/// also the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// One named workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether it writes a journal: such a run is refused on tmpfs,
    /// where `msync` costs nothing (see `--allow-tmpfs-wal`).
    pub journaled: bool,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "join-modern-mmap",
        why: "four modern-mode joins of 1M x 128 B on the mmap store: core kernels and bulk mmstore reads do the work; schedulers, journal, simulator idle",
        journaled: false,
    },
    WorkloadDef {
        name: "paper-fig5-sim",
        why: "the paper's Fig. 5 sweep, 27 faithful joins on the simulator plus the model: bypasses kernels, journal and schedulers; virtual time must repeat exactly",
        journaled: false,
    },
    WorkloadDef {
        name: "stream-probe",
        why: "read-only 4096-row batches against a 1M-slot resident set, no journal: session queue, resident probe and s_fetch_batch; bypasses journal and mutations",
        journaled: false,
    },
    WorkloadDef {
        name: "stream-durable",
        why: "journaled stream on a 262144-slot set, 16-row batches with delete=16 and append=16 after every 8th: the O(|S|) tombstone path, two commits per op, batches queued behind mutations",
        journaled: true,
    },
    WorkloadDef {
        name: "stream-resume",
        why: "reopen a journaled stream of batches and mutations with resume: resident rebuild plus O(history) replay, every op re-reported identically",
        journaled: true,
    },
    WorkloadDef {
        name: "serve-mix",
        why: "seeded 75/25 small/large modern jobs, half zipf, half plan=auto, through a journaled Service on the mmap store: admission, queue, per-job build, join, journal",
        journaled: true,
    },
    WorkloadDef {
        name: "cluster-2node",
        why: "the serve-mix job list through a Coordinator over two in-process nodes on loopback TCP: the difference from serve-mix is the coordinator and wire cost",
        journaled: true,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. `bound` is set for end-to-end metrics only: the share of
/// the parent's median by which it may worsen before `perf compare`
/// (and the driver) call it a regression.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (README.md says what the operation is per workload).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// The bounds `perf compare` holds single (workload, metric) pairs to:
/// ISSUE 12's bound for the quantity the pair measures (named beside
/// it), where `BENCHMARK.json` can only carry one bound per metric name
/// — which must cover the noisiest workload reporting it — and none for
/// a per-layer metric. `"*"` stands for every workload. A pair whose
/// parent-side spread exceeds its bound reads *unresolved*, so a tight
/// bound on a noisy pair costs a verdict, never a false one.
pub const GATES: &[(&str, &str, f64)] = &[
    ("*", "peak_rss_mb", 0.10),
    // join_s
    ("join-modern-mmap", "latency_p50_ms", 0.10),
    ("join-modern-mmap", "throughput_per_s", 0.10),
    // sim_wall_s
    ("paper-fig5-sim", "latency_p50_ms", 0.08),
    ("paper-fig5-sim", "throughput_per_s", 0.08),
    // stream_lat_p50_ms, stream_rows_per_s, stream_lat_p99_ms
    ("stream-probe", "latency_p50_ms", 0.15),
    ("stream-probe", "throughput_per_s", 0.10),
    ("stream-probe", "stream.open_lat_p99_ms", 0.30),
    // mutation_lat_p50_ms, mutation_lat_p95_ms, stream_rows_per_s,
    // stream_lat_p99_ms
    ("stream-durable", "latency_p50_ms", 0.10),
    ("stream-durable", "throughput_per_s", 0.10),
    ("stream-durable", "stream.mutation_lat_p95_ms", 0.20),
    ("stream-durable", "stream.durable_rows_per_s", 0.10),
    ("stream-durable", "stream.open_lat_p99_ms", 0.30),
    // resume_s
    ("stream-resume", "latency_p50_ms", 0.10),
    ("stream-resume", "throughput_per_s", 0.10),
    // serve_lat_p50_ms, serve_jobs_per_s, serve_lat_p95_ms
    ("serve-mix", "latency_p50_ms", 0.15),
    ("serve-mix", "throughput_per_s", 0.10),
    ("serve-mix", "serve.open_lat_p95_ms", 0.25),
    ("cluster-2node", "latency_p50_ms", 0.15),
    ("cluster-2node", "throughput_per_s", 0.10),
    ("cluster-2node", "serve.open_lat_p95_ms", 0.25),
];

/// Metrics that are functions of the inputs alone: `perf compare` calls
/// any difference between two commits' medians (same seeds on both
/// sides) a change of fidelity, in either direction.
pub const EXACT: &[&str] = &[
    "vmsim.virtual_s",
    "vmsim.read_faults",
    "vmsim.write_backs",
    "model.err_pct",
    "model.err_pct.nested-loops",
    "model.err_pct.sort-merge",
    "model.err_pct.grace",
    "core.kernel_radix.objects",
    "core.kernel_merge.objects",
    "core.kernel_probe.objects",
    "core.kernel_probe.batches",
];

/// The bound `perf compare` holds `metric` on `workload` to: the pair's
/// own gate, else the gate for every workload, else the end-to-end
/// bound; `None` for a per-layer metric without a gate.
pub fn bound_for(workload: &str, metric_name: &str) -> Option<f64> {
    let gate = |w: &str| {
        GATES
            .iter()
            .find(|(gw, gm, _)| *gw == w && *gm == metric_name)
            .map(|g| g.2)
    };
    gate(workload)
        .or_else(|| gate("*"))
        .or_else(|| metric(metric_name).and_then(|m| m.bound))
}

/// Metrics of single layers, from the traced run. A workload reports 0
/// for a metric of a layer it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    // mmstore: timed calls on the join-modern-mmap store.
    lo("mmstore.create_file_us", "us"),
    lo("mmstore.open_file_us", "us"),
    lo("mmstore.delete_file_us", "us"),
    hi("mmstore.read_block_gbps", "GB/s"),
    lo("mmstore.read_obj_ns", "ns"),
    hi("mmstore.write_block_gbps", "GB/s"),
    lo("mmstore.s_fetch_2048_ns_per_ptr", "ns/ptr"),
    lo("mmstore.s_fetch_15_us", "us"),
    lo("mmstore.sync_us", "us"),
    // calibrate: the host's own ceiling; denominators, not targets.
    hi("calibrate.mt_pp_gbps", "GB/s"),
    hi("calibrate.mt_ss_gbps", "GB/s"),
    lo("calibrate.cs_us", "us"),
    // core on join-modern-mmap.
    lo("core.nested-loops.s", "s"),
    lo("core.sort-merge.s", "s"),
    lo("core.grace.s", "s"),
    lo("core.hybrid-hash.s", "s"),
    lo("core.sort-merge.scan_sort_s", "s"),
    lo("core.sort-merge.merge_join_s", "s"),
    lo("core.grace.scan_radix_s", "s"),
    lo("core.grace.bucket_join_s", "s"),
    lo("core.hybrid-hash.scan_f0_s", "s"),
    lo("core.hybrid-hash.spill_join_s", "s"),
    lo("core.ns_per_tuple", "ns/tuple"),
    hi("core.frac_of_memcpy", "ratio"),
    lo("core.kernel_radix.objects", "count"),
    lo("core.kernel_merge.objects", "count"),
    lo("core.kernel_probe.objects", "count"),
    lo("core.kernel_probe.batches", "count"),
    lo("core.faithful_threaded_s", "s"),
    hi("core.modern_speedup", "ratio"),
    lo("core.choose_auto_us", "us"),
    // relstore.
    hi("relstore.build_mobj_per_s", "Mobj/s"),
    lo("relstore.sample_us", "us"),
    // vmsim / model on paper-fig5-sim.
    lo("vmsim.virtual_s", "s"),
    lo("vmsim.read_faults", "count"),
    lo("vmsim.write_backs", "count"),
    hi("vmsim.joins_per_s", "1/s"),
    lo("core.faithful.nested-loops.wall_s", "s"),
    lo("core.faithful.sort-merge.wall_s", "s"),
    lo("core.faithful.grace.wall_s", "s"),
    lo("model.predict_us", "us"),
    lo("model.err_pct", "%"),
    lo("model.err_pct.nested-loops", "%"),
    lo("model.err_pct.sort-merge", "%"),
    lo("model.err_pct.grace", "%"),
    // stream.
    lo("stream.resident_build_s", "s"),
    lo("stream.submit_us", "us"),
    lo("stream.queue_wait_p50_ms", "ms"),
    lo("stream.queue_wait_p99_ms", "ms"),
    lo("stream.exec_p50_ms", "ms"),
    lo("stream.exec_p99_ms", "ms"),
    lo("stream.open_lat_p50_ms", "ms"),
    lo("stream.open_lat_p99_ms", "ms"),
    lo("stream.mutation_lat_p50_ms", "ms"),
    lo("stream.mutation_lat_p95_ms", "ms"),
    lo("stream.probe_ns_per_row", "ns/row"),
    lo("stream.delete_us_per_slot", "us/slot"),
    lo("stream.append_us_per_slot", "us/slot"),
    lo("stream.gen_batch_us", "us"),
    lo("stream.durable_batch_p50_ms", "ms"),
    hi("stream.durable_rows_per_s", "1/s"),
    lo("stream.backpressure", "count"),
    lo("stream.late_ms", "ms"),
    lo("stream.resume_replay_s", "s"),
    hi("stream.resume_ops_per_s", "1/s"),
    // recovery, seen through StreamStats and the journal file.
    lo("recovery.commits", "count"),
    lo("recovery.bytes_per_op", "B/op"),
    lo("recovery.commit_us_est", "us"),
    // serve.
    lo("serve.start_ms", "ms"),
    lo("serve.submit_us", "us"),
    lo("serve.queue_wait_p50_ms", "ms"),
    lo("serve.exec_p50_ms", "ms"),
    lo("serve.exec_p95_ms", "ms"),
    lo("serve.small_exec_p50_ms", "ms"),
    lo("serve.large_exec_p50_ms", "ms"),
    lo("serve.open_lat_p50_ms", "ms"),
    lo("serve.open_lat_p95_ms", "ms"),
    lo("serve.peak_budget_frac", "ratio"),
    lo("serve.journal_commits", "count"),
    lo("serve.late_ms", "ms"),
    hi("serve.sharded2_jobs_per_s", "1/s"),
    // cluster.
    lo("cluster.start_ms", "ms"),
    lo("cluster.rpc_overhead_ms", "ms"),
    hi("cluster.vs_serve_ratio", "ratio"),
    lo("cluster.requeued", "count"),
    lo("cluster.duplicate_completions", "count"),
    lo("cluster.budget_leak_bytes", "count"),
    // Span self time per layer (a span minus the cover of its children).
    lo("self_s.mmstore", "s"),
    lo("self_s.calibrate", "s"),
    lo("self_s.core", "s"),
    lo("self_s.relstore", "s"),
    lo("self_s.vmsim", "s"),
    lo("self_s.model", "s"),
    lo("self_s.stream", "s"),
    lo("self_s.serve", "s"),
    lo("self_s.cluster", "s"),
    // The harness itself.
    lo("env.trace_overhead_pct", "%"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One reported value with what is known about its sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Quartiles of the rounds behind a median (equal to `value` for a
    /// single measurement).
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Percentile actually reported for a tail metric (0 otherwise).
    pub pct: f64,
}

/// The readings of one run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Readings(BTreeMap<&'static str, Reading>);

impl Readings {
    fn insert(&mut self, name: &str, reading: Reading) {
        let def = metric(name).unwrap_or_else(|| panic!("'{name}' is not a declared metric"));
        self.0.insert(def.name, reading);
    }

    /// A single measured value or an exact count.
    pub fn put(&mut self, name: &str, value: f64) {
        self.insert(
            name,
            Reading {
                value,
                q1: value,
                q3: value,
                n: 1,
                pct: 0.0,
            },
        );
    }

    /// The median of `samples`, with their quartiles beside it.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        let (q1, q3) = stats::quartiles(samples);
        self.insert(
            name,
            Reading {
                value: stats::median(samples),
                q1,
                q3,
                n: samples.len(),
                pct: 0.0,
            },
        );
    }

    /// A tail of pooled `samples`: percentile `wanted`, or the highest
    /// one the sample count supports.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], wanted: f64) {
        let (value, pct) = stats::tail(samples, wanted);
        self.insert(
            name,
            Reading {
                value,
                q1: value,
                q3: value,
                n: samples.len(),
                pct,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.0.get(name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |r| r.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Reading)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound.expect("end-to-end metrics carry a bound"),
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_calibrate::json::Json;

    fn well_formed(name: &str, max: usize) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_respect_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(well_formed(w.name, 64), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for (w, m, bound) in GATES {
            assert!(*w == "*" || workload(w).is_some(), "gate on {w}");
            assert!(metric(m).is_some(), "gate on {m}");
            assert!(*bound > 0.0 && *bound <= 0.30, "{w} {m}");
        }
        assert!(EXACT
            .iter()
            .all(|m| metric(m).is_some_and(|m| m.bound.is_none())));
        assert_eq!(bound_for("paper-fig5-sim", "latency_p50_ms"), Some(0.08));
        assert_eq!(bound_for("serve-mix", "peak_rss_mb"), Some(0.10));
        assert_eq!(bound_for("serve-mix", "setup_s"), Some(0.25));
        assert_eq!(bound_for("serve-mix", "serve.exec_p50_ms"), None);
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_manifest_of_this_table() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let json = Json::parse(on_disk).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            json.req(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| m.req("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn readings_keep_quartiles_and_refuse_undeclared_names() {
        let mut r = Readings::default();
        r.put_median("latency_p50_ms", &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let got = r.get("latency_p50_ms").unwrap();
        assert_eq!((got.value, got.q1, got.q3, got.n), (3.0, 1.5, 4.5, 5));
        r.put_tail(
            "stream.open_lat_p99_ms",
            &(1..=300).map(f64::from).collect::<Vec<_>>(),
            99.0,
        );
        assert_eq!(r.get("stream.open_lat_p99_ms").unwrap().pct, 95.0);
        assert_eq!(r.value("peak_rss_mb"), 0.0);
        assert!(
            std::panic::catch_unwind(|| Readings::default().put("no.such.metric", 1.0)).is_err()
        );
    }
}

//! Structured trace events for joins, environments, and the service.
//!
//! The paper's central claims are *schedule* claims — pass 1's staggered
//! phases `offset(i,t) = ((i+t-1) mod D) + 1` keep every disk owned by
//! exactly one process per phase (§5) — yet counters alone cannot show a
//! schedule. This module defines a small event vocabulary
//! ([`TraceEvent`]) and a pluggable sink ([`TraceSink`]) so that the
//! algorithms, the environments, the fault injector, the retry layer,
//! and the job service can all narrate what they do. The in-memory
//! [`CollectingSink`] turns executions into test oracles (see
//! `tests/trace_schedule.rs`); the [`JsonlSink`] backs the `--trace`
//! CLI flag.
//!
//! Each variant is declared once, in the `trace_events!` list below,
//! which also fixes its `ev` tag and its JSONL fields; that list is the
//! trace schema.
//!
//! Events carry no timestamps themselves; the emitting environment
//! stamps each one with the emitting process's clock (virtual seconds in
//! the simulator, wall seconds in the real store) into a
//! [`TraceRecord`]. Comparing event *sequences* across environments is
//! therefore exact: strip the `t` fields and the remaining payloads must
//! be identical (asserted in `tests/cross_env_equivalence.rs`).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// How a mapping came into being: a fresh file (`newMap`) or an existing
/// one re-opened (`openMap`), mirroring the Fig. 1b cost taxonomy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MapOp {
    /// `newMap`: the file was created.
    New,
    /// `openMap`: an existing file was opened.
    Open,
}

impl MapOp {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            MapOp::New => "new",
            MapOp::Open => "open",
        }
    }
}

/// Declares [`TraceEvent`] once. Each variant lists its docs, its name,
/// its `ev` tag and its fields in JSONL order; from that one list come
/// the enum, [`TraceEvent::tag`] and the field writer [`encode`] calls.
/// A field typed `f64 [N decimals]` prints with `N` fixed decimals; every
/// other field prints through its `Field` impl.
macro_rules! trace_events {
    (@field $out:ident, $field:ident) => {
        $out.push_str(concat!(",\"", stringify!($field), "\":"));
        Field::put($field, $out);
    };
    (@field $out:ident, $field:ident, $decimals:literal) => {
        let _ = write!($out, ",\"{}\":{:.*}", stringify!($field), $decimals, $field);
    };
    (
        $(#[$meta:meta])*
        pub enum $enum:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $([$decimals:literal decimals])?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum $enum {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )*
        }

        impl $enum {
            /// Stable snake_case tag used as the `"ev"` field in JSONL.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( $enum::$variant { .. } => $tag, )*
                }
            }

            /// Append `,"field":value` for each field, in declaration order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( $enum::$variant { $($field),* } => {
                        $( trace_events!(@field out, $field $(, $decimals)?); )*
                    } )*
                }
            }
        }
    };
}

trace_events! {
    /// One structured event. Variants cover the join passes (the schedule),
    /// mapping setup/teardown (Fig. 1b operations), fault injections, retry
    /// attempts, and service job lifecycle transitions.
    ///
    /// Field conventions: `proc` is the emitting [`ProcId`](crate::ProcId)
    /// index; `pass` is 0 (scan/scatter), 1 (staggered phases), or 2 (the
    /// algorithm-specific local join pass); `phase` is the paper's `t`
    /// (0 for passes without phases); `disk` is the disk the pass touches;
    /// `area` names the storage area in the paper's notation (`R_i`,
    /// `R(i,j)` for the sub-partition `R_{i,j}` held in `RP_i`, `RS_i`).
    pub enum TraceEvent {
        /// A join pass (or one phase of pass 1) begins on `proc`.
        PassStart = "pass_start" {
            /// Emitting process.
            proc: u32,
            /// Pass id: 0 scan, 1 staggered phases, 2 local join.
            pass: u32,
            /// Phase `t` within pass 1 (0 elsewhere).
            phase: u32,
            /// Disk this pass touches.
            disk: u32,
            /// Storage area in paper notation (`R_i`, `R(i,j)`, `RS_i`).
            area: String,
        },
        /// The matching end of a [`TraceEvent::PassStart`].
        PassEnd = "pass_end" {
            /// Emitting process.
            proc: u32,
            /// Pass id: 0 scan, 1 staggered phases, 2 local join.
            pass: u32,
            /// Phase `t` within pass 1 (0 elsewhere).
            phase: u32,
            /// Disk this pass touched.
            disk: u32,
            /// Storage area in paper notation.
            area: String,
            /// Bytes of R-objects processed by the pass.
            bytes: u64,
            /// R-objects processed by the pass.
            objects: u64,
        },
        /// A mapping was established (`newMap`/`openMap`).
        MapSetup = "map_setup" {
            /// Process performing the operation.
            proc: u32,
            /// Whether the file was created or re-opened.
            op: MapOp,
            /// File name.
            name: String,
            /// Disk holding the file.
            disk: u32,
            /// Logical file size in bytes.
            bytes: u64,
        },
        /// A mapping was destroyed (`deleteMap`).
        MapTeardown = "map_teardown" {
            /// Process performing the operation.
            proc: u32,
            /// File name.
            name: String,
            /// Disk that held the file.
            disk: u32,
        },
        /// The fault injector fired a rule.
        FaultInjected = "fault_injected" {
            /// Process whose operation was faulted.
            proc: u32,
            /// Operation label (`read`, `write`, `create`, ...).
            op: String,
            /// What was injected: the op label for transient errors,
            /// `diskfull`, or `delay`.
            kind: String,
            /// File (or `S_fetch` partition) the operation targeted.
            name: String,
            /// Disk, when the operation names one.
            disk: Option<u32>,
        },
        /// `join_with_retry` starts attempt `attempt` (1-based).
        RetryAttempt = "retry_attempt" {
            /// Attempt number, starting at 1.
            attempt: u32,
        },
        /// A transient failure was caught; sleeping before the next attempt.
        RetryBackoff = "retry_backoff" {
            /// The attempt that just failed.
            attempt: u32,
            /// Backoff sleep in milliseconds.
            millis: u64,
        },
        /// The planner sampled a job's join pointers at submit time
        /// (`plan=auto`).
        PlanSampled = "plan_sampled" {
            /// Service job id.
            job: u64,
            /// Pointers sampled.
            sampled: u64,
            /// Histogram-derived skew factor.
            skew: f64,
            /// Pointer duplication factor (`sampled / distinct`).
            duplication: f64,
        },
        /// The planner chose a job's plan from statistics (`plan=auto`).
        PlanChosen = "plan_chosen" {
            /// Service job id.
            job: u64,
            /// Chosen algorithm name.
            algorithm: String,
            /// Chosen `M_Rproc_i` in bytes.
            m_rproc: u64,
            /// Plan-level partition count for the local join pass.
            partitions: u32,
            /// Skew factor the plan was priced with.
            skew: f64,
            /// Where the skew came from (`assumed` | `estimated` |
            /// `sampled`).
            source: String,
        },
        /// A job entered the service queue.
        JobSubmitted = "job_submitted" {
            /// Service job id.
            job: u64,
            /// Reserved footprint `m_rproc × D` in bytes.
            footprint: u64,
            /// Shard the placement policy assigned the job to (0 on the
            /// single-queue service).
            shard: u32,
        },
        /// The admission controller dispatched a queued job to a worker.
        JobAdmitted = "job_admitted" {
            /// Service job id.
            job: u64,
            /// Reserved footprint in bytes.
            footprint: u64,
            /// Budget bytes in use on the admitting shard after this
            /// admission (the whole global budget on the single-queue
            /// service).
            used: u64,
            /// Shard whose worker admitted the job (0 on the single-queue
            /// service): always the [`TraceEvent::JobSubmitted`] shard.
            shard: u32,
        },
        /// A job degraded to a smaller memory grant after `DiskFull`.
        JobDegraded = "job_degraded" {
            /// Service job id.
            job: u64,
            /// New (reduced) footprint in bytes.
            footprint: u64,
            /// Bytes returned to the global budget.
            released: u64,
        },
        /// A job left the service (successfully or not).
        JobCompleted = "job_completed" {
            /// Service job id.
            job: u64,
            /// Whether the job produced a verified result.
            ok: bool,
            /// How many times the job degraded.
            degraded: u32,
        },
        /// A record was appended to the write-ahead journal.
        JournalAppend = "journal_append" {
            /// Record kind tag (`job_submitted`, `job_completed`, ...).
            kind: String,
            /// Encoded record length in bytes (framing + payload + CRC).
            bytes: u64,
        },
        /// A restarted service finished replaying its journal.
        RecoveryReplayed = "recovery_replayed" {
            /// CRC-valid records replayed.
            records: u64,
            /// Bytes of torn tail discarded after the last valid record.
            torn: u64,
            /// Orphaned areas deleted during garbage collection.
            orphans_deleted: u64,
            /// In-flight jobs re-submitted for execution.
            resumed_jobs: u64,
        },
        /// A worker node registered with the cluster coordinator.
        NodeJoined = "node_joined" {
            /// Node name (as registered in its hello).
            node: String,
            /// Budget bytes the node advertises for admission control.
            budget: u64,
            /// Worker threads the node runs.
            workers: u32,
        },
        /// A worker node was declared dead (heartbeat timeout or connection
        /// loss); its jobs are about to be re-queued.
        NodeLost = "node_lost" {
            /// Node name.
            node: String,
            /// Jobs that were in flight on the node when it died.
            in_flight: u64,
        },
        /// A job lost with its node was re-queued for dispatch to a
        /// surviving node.
        JobRequeued = "job_requeued" {
            /// Cluster job id.
            job: u64,
            /// Node the job was dispatched to when it was lost.
            from: String,
            /// How many times this job has now been re-queued.
            attempt: u32,
        },
        /// A modern-mode radix partitioning kernel ran (histogram + scatter
        /// of one block scan's `(ptr, key)` pairs into per-owner buckets).
        KernelRadix = "kernel_radix" {
            /// Emitting process.
            proc: u32,
            /// Storage area the scan covered (`R_i`).
            area: String,
            /// Radix buckets scattered into (the fan-out `D`, or the
            /// second-level bucket count `K` in Grace/Hybrid local joins).
            buckets: u32,
            /// `(ptr, key)` pairs partitioned.
            objects: u64,
        },
        /// A modern-mode multi-way merge-scan kernel ran (MPSM-style: one
        /// owner sequentially merging the sorted private runs every worker
        /// published for its partition).
        KernelMerge = "kernel_merge" {
            /// Emitting (owning) process.
            proc: u32,
            /// Area the merged output joins against (`RS_i`).
            area: String,
            /// Sorted runs merged.
            runs: u32,
            /// Total `(ptr, key)` pairs across all runs.
            objects: u64,
        },
        /// A modern-mode batched S-probe kernel ran (fixed-width key
        /// fetch + compare over `s_fetch_batch`).
        KernelProbe = "kernel_probe" {
            /// Emitting process.
            proc: u32,
            /// S partition probed.
            spart: u32,
            /// `s_fetch_batch` round trips issued.
            batches: u64,
            /// Pointers probed.
            objects: u64,
        },
        /// A host-calibration probe began (mmjoin-calibrate).
        ProbeStart = "probe_start" {
            /// Probe name (`dtt`, `map`, `mt`, `cs`, `cpu`).
            probe: String,
            /// Repetitions the probe will run (median-of-k).
            reps: u32,
        },
        /// The matching end of a [`TraceEvent::ProbeStart`].
        ProbeEnd = "probe_end" {
            /// Probe name.
            probe: String,
            /// Repetitions actually run.
            reps: u32,
            /// Wall seconds the whole probe took.
            seconds: f64 [9 decimals],
        },
        /// A least-squares fit of probe samples into a model coefficient
        /// pair (mmjoin-calibrate: the Fig. 1b `base + slope·blocks` fits).
        ProbeFit = "probe_fit" {
            /// Fit name (`map_new`, `map_open`, `map_delete`).
            fit: String,
            /// Fitted fixed cost in seconds.
            base: f64 [12 decimals],
            /// Fitted per-block slope in seconds/block.
            slope: f64 [12 decimals],
            /// RMS residual of the fit in seconds.
            residual: f64 [12 decimals],
        },
        /// A resident S set finished loading (streaming tier warmup — the
        /// only point the stream pays an O(|S|) cost).
        ResidentBuilt = "resident_built" {
            /// Resident partitions loaded (one per disk).
            parts: u32,
            /// S objects loaded, all live.
            objects: u64,
        },
        /// A resident S set was reopened from the partitions a clean
        /// shutdown checkpointed, instead of being loaded again.
        ResidentReopened = "resident_reopened" {
            /// Resident partitions reopened (one per disk).
            parts: u32,
            /// S objects, live and tombstoned.
            objects: u64,
            /// Live objects found by the key scan.
            live: u64,
        },
        /// An `append=`/`delete=` mutation patched the resident set in
        /// place (no rebuild).
        ResidentPatched = "resident_patched" {
            /// `"append"` or `"delete"`.
            op: String,
            /// Objects appended or tombstoned by this mutation.
            objects: u64,
            /// Live objects after the patch.
            live: u64,
        },
        /// An R micro-batch entered the stream queue.
        BatchSubmitted = "batch_submitted" {
            /// Stream sequence number.
            batch: u64,
            /// R rows in the batch.
            rows: u64,
        },
        /// An R micro-batch finished probing the resident set.
        BatchCompleted = "batch_completed" {
            /// Stream sequence number.
            batch: u64,
            /// Join pairs produced.
            pairs: u64,
            /// Rows whose target was not live at probe time.
            misses: u64,
            /// Whether the batch completed without error.
            ok: bool,
        },
        /// The stream queue exceeded its bound; the submitter blocked until
        /// the worker drained below it.
        StreamBackpressure = "stream_backpressure" {
            /// Ops queued when the submitter blocked.
            queued: u64,
            /// The configured queue bound.
            bound: u64,
        },
    }
}

/// A timestamped event: `t` is the emitting process's clock in seconds
/// (virtual in `SimEnv`, wall since environment creation in `MmapEnv`,
/// wall since service start for job lifecycle events).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Timestamp in seconds.
    pub t: f64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Encode as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        encode(self.t, &self.event)
    }
}

/// Destination for trace events. Implementations must be cheap enough to
/// call from inside the join inner loops' pass boundaries.
pub trait TraceSink: Send + Sync {
    /// Record one event stamped at `t` seconds.
    fn emit(&self, t: f64, event: TraceEvent);
    /// False when emissions are guaranteed to be discarded, letting
    /// callers skip event construction entirely.
    fn enabled(&self) -> bool {
        true
    }
}

/// A sink that discards everything; the default for every environment.
#[derive(Default, Debug, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _t: f64, _event: TraceEvent) {}
    fn enabled(&self) -> bool {
        false
    }
}

/// The process-wide shared null sink.
pub fn null_sink() -> Arc<dyn TraceSink> {
    static NULL: OnceLock<Arc<NullSink>> = OnceLock::new();
    NULL.get_or_init(|| Arc::new(NullSink)).clone()
}

/// An in-memory sink for tests: collects every record in order.
#[derive(Default)]
pub struct CollectingSink {
    records: Mutex<Vec<TraceRecord>>,
}

impl CollectingSink {
    /// A fresh, empty, shareable collecting sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of every record collected so far, in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// The event payloads only (timestamps stripped) — the shape two
    /// environments must agree on.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.records
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.event.clone())
            .collect()
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything collected so far.
    pub fn clear(&self) {
        self.records.lock().unwrap().clear();
    }
}

impl TraceSink for CollectingSink {
    fn emit(&self, t: f64, event: TraceEvent) {
        self.records.lock().unwrap().push(TraceRecord { t, event });
    }
}

/// A sink writing one JSON object per line to a file (the `--trace`
/// flag's backend). Lines are flushed when the sink is dropped.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) the trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().unwrap().flush()
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, t: f64, event: TraceEvent) {
        let line = encode(t, &event);
        let mut out = self.out.lock().unwrap();
        // A failed trace write must not fail the traced operation.
        let _ = writeln!(out, "{line}");
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Escape `s` into a JSON string literal body (no surrounding quotes):
/// the one JSON string escaper every crate's hand-written JSON uses.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc(s, &mut out);
    out
}

/// [`escape`], appending to `out`.
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Encode one record as a JSON object (no trailing newline).
pub fn encode(t: f64, event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t\":{t:.9},\"ev\":\"{}\"", event.tag());
    event.write_fields(&mut s);
    s.push('}');
    s
}

/// How an event field prints as a JSON value.
trait Field {
    fn put(&self, out: &mut String);
}

// Plain `Display`: for floats that is the shortest round-trip form, so a
// replayed plan re-reads identical bits.
macro_rules! display_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_field!(u32, u64, bool, f64);

impl Field for String {
    fn put(&self, out: &mut String) {
        out.push('"');
        esc(self, out);
        out.push('"');
    }
}

impl Field for MapOp {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.as_str());
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_shared() {
        let a = null_sink();
        let b = null_sink();
        assert!(!a.enabled());
        assert!(Arc::ptr_eq(&a, &b));
        a.emit(1.0, TraceEvent::RetryAttempt { attempt: 1 });
    }

    #[test]
    fn collecting_sink_preserves_order_and_payloads() {
        let sink = CollectingSink::new();
        sink.emit(0.5, TraceEvent::RetryAttempt { attempt: 1 });
        sink.emit(
            1.5,
            TraceEvent::PassStart {
                proc: 0,
                pass: 1,
                phase: 2,
                disk: 3,
                area: "R(0,3)".into(),
            },
        );
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t, 0.5);
        assert_eq!(recs[0].event, TraceEvent::RetryAttempt { attempt: 1 });
        assert_eq!(sink.events()[1].tag(), "pass_start");
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_encoding_is_one_flat_object() {
        let line = encode(
            0.25,
            &TraceEvent::PassEnd {
                proc: 1,
                pass: 1,
                phase: 3,
                disk: 0,
                area: "R(1,0)".into(),
                bytes: 4096,
                objects: 32,
            },
        );
        assert!(line.starts_with("{\"t\":0.250000000,\"ev\":\"pass_end\""));
        assert!(line.ends_with('}'));
        assert!(line.contains("\"disk\":0"));
        assert!(line.contains("\"bytes\":4096"));
        assert!(line.contains("\"objects\":32"));
        assert_eq!(line.matches('{').count(), 1);
    }

    #[test]
    fn strings_are_escaped() {
        let line = encode(
            0.0,
            &TraceEvent::MapTeardown {
                proc: 0,
                name: "we\"ird\\name\n".into(),
                disk: 2,
            },
        );
        assert!(line.contains("we\\\"ird\\\\name\\n"));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("mmjoin_trace_test_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(0.0, TraceEvent::RetryAttempt { attempt: 1 });
            sink.emit(
                1.0,
                TraceEvent::JobCompleted {
                    job: 7,
                    ok: true,
                    degraded: 0,
                },
            );
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        assert!(lines[1].contains("\"ok\":true"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plan_events_encode_provenance() {
        let sampled = encode(
            0.0,
            &TraceEvent::PlanSampled {
                job: 5,
                sampled: 4096,
                skew: 3.5,
                duplication: 1.25,
            },
        );
        assert!(sampled.contains("\"ev\":\"plan_sampled\""));
        assert!(sampled.contains("\"job\":5") && sampled.contains("\"sampled\":4096"));
        assert!(sampled.contains("\"skew\":3.5") && sampled.contains("\"duplication\":1.25"));
        let chosen = encode(
            1.0,
            &TraceEvent::PlanChosen {
                job: 5,
                algorithm: "grace".into(),
                m_rproc: 64 * 4096,
                partitions: 7,
                skew: 3.5,
                source: "sampled".into(),
            },
        );
        assert!(chosen.contains("\"ev\":\"plan_chosen\""));
        assert!(chosen.contains("\"algorithm\":\"grace\""));
        assert!(chosen.contains("\"m_rproc\":262144") && chosen.contains("\"partitions\":7"));
        assert!(chosen.contains("\"source\":\"sampled\""));
    }

    #[test]
    fn job_events_carry_shard_ids() {
        let submitted = encode(
            0.0,
            &TraceEvent::JobSubmitted {
                job: 3,
                footprint: 8192,
                shard: 2,
            },
        );
        assert!(submitted.contains("\"ev\":\"job_submitted\""));
        assert!(submitted.contains("\"shard\":2"));
        let admitted = encode(
            0.0,
            &TraceEvent::JobAdmitted {
                job: 3,
                footprint: 8192,
                used: 8192,
                shard: 1,
            },
        );
        assert!(admitted.contains("\"used\":8192"));
        assert!(admitted.contains("\"shard\":1"));
    }

    #[test]
    fn probe_events_encode_name_reps_and_fit() {
        let start = encode(
            0.0,
            &TraceEvent::ProbeStart {
                probe: "dttr".into(),
                reps: 5,
            },
        );
        assert!(start.contains("\"ev\":\"probe_start\""));
        assert!(start.contains("\"probe\":\"dttr\"") && start.contains("\"reps\":5"));
        let end = encode(
            1.0,
            &TraceEvent::ProbeEnd {
                probe: "dttr".into(),
                reps: 5,
                seconds: 0.25,
            },
        );
        assert!(end.contains("\"ev\":\"probe_end\""));
        assert!(end.contains("\"seconds\":0.250000000"));
        let fit = encode(
            2.0,
            &TraceEvent::ProbeFit {
                fit: "map_new".into(),
                base: 0.05,
                slope: 9.0e-4,
                residual: 1.0e-6,
            },
        );
        assert!(fit.contains("\"ev\":\"probe_fit\""));
        assert!(fit.contains("\"fit\":\"map_new\"") && fit.contains("\"base\":0.050000000000"));
    }

    #[test]
    fn recovery_events_encode_their_fields() {
        let append = encode(
            0.0,
            &TraceEvent::JournalAppend {
                kind: "job_completed".into(),
                bytes: 34,
            },
        );
        assert!(append.contains("\"ev\":\"journal_append\""));
        assert!(append.contains("\"kind\":\"job_completed\"") && append.contains("\"bytes\":34"));
        let replayed = encode(
            0.0,
            &TraceEvent::RecoveryReplayed {
                records: 12,
                torn: 3,
                orphans_deleted: 2,
                resumed_jobs: 1,
            },
        );
        assert!(replayed.contains("\"ev\":\"recovery_replayed\""));
        assert!(replayed.contains("\"records\":12"));
        assert!(replayed.contains("\"torn\":3"));
        assert!(replayed.contains("\"orphans_deleted\":2"));
        assert!(replayed.contains("\"resumed_jobs\":1"));
    }

    #[test]
    fn cluster_events_encode_node_lifecycle() {
        let joined = encode(
            0.0,
            &TraceEvent::NodeJoined {
                node: "node-a".into(),
                budget: 1 << 20,
                workers: 2,
            },
        );
        assert!(joined.contains("\"ev\":\"node_joined\""));
        assert!(joined.contains("\"node\":\"node-a\""));
        assert!(joined.contains("\"budget\":1048576") && joined.contains("\"workers\":2"));
        let lost = encode(
            1.0,
            &TraceEvent::NodeLost {
                node: "node-a".into(),
                in_flight: 3,
            },
        );
        assert!(lost.contains("\"ev\":\"node_lost\""));
        assert!(lost.contains("\"in_flight\":3"));
        let req = encode(
            2.0,
            &TraceEvent::JobRequeued {
                job: 9,
                from: "node-a".into(),
                attempt: 1,
            },
        );
        assert!(req.contains("\"ev\":\"job_requeued\""));
        assert!(req.contains("\"job\":9"));
        assert!(req.contains("\"from\":\"node-a\"") && req.contains("\"attempt\":1"));
    }

    #[test]
    fn kernel_events_encode_their_fields() {
        let radix = encode(
            0.0,
            &TraceEvent::KernelRadix {
                proc: 1,
                area: "R_1".into(),
                buckets: 4,
                objects: 1024,
            },
        );
        assert!(radix.contains("\"ev\":\"kernel_radix\""));
        assert!(radix.contains("\"area\":\"R_1\""));
        assert!(radix.contains("\"buckets\":4") && radix.contains("\"objects\":1024"));
        let merge = encode(
            1.0,
            &TraceEvent::KernelMerge {
                proc: 0,
                area: "RS_0".into(),
                runs: 4,
                objects: 4096,
            },
        );
        assert!(merge.contains("\"ev\":\"kernel_merge\""));
        assert!(merge.contains("\"runs\":4") && merge.contains("\"objects\":4096"));
        let probe = encode(
            2.0,
            &TraceEvent::KernelProbe {
                proc: 2,
                spart: 2,
                batches: 3,
                objects: 5000,
            },
        );
        assert!(probe.contains("\"ev\":\"kernel_probe\""));
        assert!(probe.contains("\"spart\":2"));
        assert!(probe.contains("\"batches\":3") && probe.contains("\"objects\":5000"));
    }

    #[test]
    fn stream_events_encode_their_fields() {
        let built = encode(
            0.0,
            &TraceEvent::ResidentBuilt {
                parts: 4,
                objects: 40_000,
            },
        );
        assert!(built.contains("\"ev\":\"resident_built\""));
        assert!(built.contains("\"parts\":4") && built.contains("\"objects\":40000"));
        let patched = encode(
            1.0,
            &TraceEvent::ResidentPatched {
                op: "delete".into(),
                objects: 32,
                live: 39_968,
            },
        );
        assert!(patched.contains("\"ev\":\"resident_patched\""));
        let reopened = encode(
            1.5,
            &TraceEvent::ResidentReopened {
                parts: 2,
                objects: 40_000,
                live: 39_968,
            },
        );
        assert!(reopened.contains("\"ev\":\"resident_reopened\""));
        assert!(reopened.contains("\"objects\":40000") && reopened.contains("\"live\":39968"));
        assert!(patched.contains("\"op\":\"delete\"") && patched.contains("\"live\":39968"));
        let sub = encode(
            2.0,
            &TraceEvent::BatchSubmitted {
                batch: 7,
                rows: 256,
            },
        );
        assert!(sub.contains("\"ev\":\"batch_submitted\""));
        assert!(sub.contains("\"batch\":7") && sub.contains("\"rows\":256"));
        let done = encode(
            3.0,
            &TraceEvent::BatchCompleted {
                batch: 7,
                pairs: 250,
                misses: 6,
                ok: true,
            },
        );
        assert!(done.contains("\"ev\":\"batch_completed\""));
        assert!(done.contains("\"pairs\":250") && done.contains("\"misses\":6"));
        assert!(done.contains("\"ok\":true"));
        let bp = encode(
            4.0,
            &TraceEvent::StreamBackpressure {
                queued: 65,
                bound: 64,
            },
        );
        assert!(bp.contains("\"ev\":\"stream_backpressure\""));
        assert!(bp.contains("\"queued\":65") && bp.contains("\"bound\":64"));
    }

    #[test]
    fn fault_event_encodes_optional_disk() {
        let with = encode(
            0.0,
            &TraceEvent::FaultInjected {
                proc: 2,
                op: "read".into(),
                kind: "read".into(),
                name: "w.RP_1#t2".into(),
                disk: Some(1),
            },
        );
        assert!(with.contains("\"disk\":1"));
        let without = encode(
            0.0,
            &TraceEvent::FaultInjected {
                proc: 2,
                op: "delete".into(),
                kind: "delay".into(),
                name: "x".into(),
                disk: None,
            },
        );
        assert!(without.contains("\"disk\":null"));
    }
}

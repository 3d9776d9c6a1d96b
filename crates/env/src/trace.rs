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
//! Events carry no timestamps themselves; the emitting environment
//! stamps each one with the emitting process's clock (virtual seconds in
//! the simulator, wall seconds in the real store) into a
//! [`TraceRecord`]. Comparing event *sequences* across environments is
//! therefore exact: strip the `t` fields and the remaining payloads must
//! be identical (asserted in `tests/cross_env_equivalence.rs`).

use std::fmt;
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
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A join pass (or one phase of pass 1) begins on `proc`.
    PassStart {
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
    PassEnd {
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
    MapSetup {
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
    MapTeardown {
        /// Process performing the operation.
        proc: u32,
        /// File name.
        name: String,
        /// Disk that held the file.
        disk: u32,
    },
    /// The fault injector fired a rule.
    FaultInjected {
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
    RetryAttempt {
        /// Attempt number, starting at 1.
        attempt: u32,
    },
    /// A transient failure was caught; sleeping before the next attempt.
    RetryBackoff {
        /// The attempt that just failed.
        attempt: u32,
        /// Backoff sleep in milliseconds.
        millis: u64,
    },
    /// The planner sampled a job's join pointers at submit time
    /// (`plan=auto`).
    PlanSampled {
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
    PlanChosen {
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
    JobSubmitted {
        /// Service job id.
        job: u64,
        /// Reserved footprint `m_rproc × D` in bytes.
        footprint: u64,
        /// Shard the placement policy assigned the job to (0 on the
        /// single-queue service).
        shard: u32,
    },
    /// The admission controller dispatched a queued job to a worker.
    JobAdmitted {
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
    JobDegraded {
        /// Service job id.
        job: u64,
        /// New (reduced) footprint in bytes.
        footprint: u64,
        /// Bytes returned to the global budget.
        released: u64,
    },
    /// A job left the service (successfully or not).
    JobCompleted {
        /// Service job id.
        job: u64,
        /// Whether the job produced a verified result.
        ok: bool,
        /// How many times the job degraded.
        degraded: u32,
    },
    /// A record was appended to the write-ahead journal.
    JournalAppend {
        /// Record kind tag (`job_submitted`, `job_completed`, ...).
        kind: String,
        /// Encoded record length in bytes (framing + payload + CRC).
        bytes: u64,
    },
    /// A restarted service finished replaying its journal.
    RecoveryReplayed {
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
    NodeJoined {
        /// Node name (as registered in its hello).
        node: String,
        /// Budget bytes the node advertises for admission control.
        budget: u64,
        /// Worker threads the node runs.
        workers: u32,
    },
    /// A worker node was declared dead (heartbeat timeout or connection
    /// loss); its jobs are about to be re-queued.
    NodeLost {
        /// Node name.
        node: String,
        /// Jobs that were in flight on the node when it died.
        in_flight: u64,
    },
    /// A job lost with its node was re-queued for dispatch to a
    /// surviving node.
    JobRequeued {
        /// Cluster job id.
        job: u64,
        /// Node the job was dispatched to when it was lost.
        from: String,
        /// How many times this job has now been re-queued.
        attempt: u32,
    },
    /// A modern-mode radix partitioning kernel ran (histogram + scatter
    /// of one block scan's `(ptr, key)` pairs into per-owner buckets).
    KernelRadix {
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
    KernelMerge {
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
    KernelProbe {
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
    ProbeStart {
        /// Probe name (`dtt`, `map`, `mt`, `cs`, `cpu`).
        probe: String,
        /// Repetitions the probe will run (median-of-k).
        reps: u32,
    },
    /// The matching end of a [`TraceEvent::ProbeStart`].
    ProbeEnd {
        /// Probe name.
        probe: String,
        /// Repetitions actually run.
        reps: u32,
        /// Wall seconds the whole probe took.
        seconds: f64,
    },
    /// A least-squares fit of probe samples into a model coefficient
    /// pair (mmjoin-calibrate: the Fig. 1b `base + slope·blocks` fits).
    ProbeFit {
        /// Fit name (`map_new`, `map_open`, `map_delete`).
        fit: String,
        /// Fitted fixed cost in seconds.
        base: f64,
        /// Fitted per-block slope in seconds/block.
        slope: f64,
        /// RMS residual of the fit in seconds.
        residual: f64,
    },
    /// A resident S set finished loading (streaming tier warmup — the
    /// only point the stream pays an O(|S|) cost).
    ResidentBuilt {
        /// Resident partitions loaded (one per disk).
        parts: u32,
        /// S objects loaded, all live.
        objects: u64,
    },
    /// An `append=`/`delete=` mutation patched the resident set in
    /// place (no rebuild).
    ResidentPatched {
        /// `"append"` or `"delete"`.
        op: String,
        /// Objects appended or tombstoned by this mutation.
        objects: u64,
        /// Live objects after the patch.
        live: u64,
    },
    /// An R micro-batch entered the stream queue.
    BatchSubmitted {
        /// Stream sequence number.
        batch: u64,
        /// R rows in the batch.
        rows: u64,
    },
    /// An R micro-batch finished probing the resident set.
    BatchCompleted {
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
    StreamBackpressure {
        /// Ops queued when the submitter blocked.
        queued: u64,
        /// The configured queue bound.
        bound: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case tag used as the `"ev"` field in JSONL.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::PassStart { .. } => "pass_start",
            TraceEvent::PassEnd { .. } => "pass_end",
            TraceEvent::MapSetup { .. } => "map_setup",
            TraceEvent::MapTeardown { .. } => "map_teardown",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RetryAttempt { .. } => "retry_attempt",
            TraceEvent::RetryBackoff { .. } => "retry_backoff",
            TraceEvent::PlanSampled { .. } => "plan_sampled",
            TraceEvent::PlanChosen { .. } => "plan_chosen",
            TraceEvent::JobSubmitted { .. } => "job_submitted",
            TraceEvent::JobAdmitted { .. } => "job_admitted",
            TraceEvent::JobDegraded { .. } => "job_degraded",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::JournalAppend { .. } => "journal_append",
            TraceEvent::RecoveryReplayed { .. } => "recovery_replayed",
            TraceEvent::NodeJoined { .. } => "node_joined",
            TraceEvent::NodeLost { .. } => "node_lost",
            TraceEvent::JobRequeued { .. } => "job_requeued",
            TraceEvent::KernelRadix { .. } => "kernel_radix",
            TraceEvent::KernelMerge { .. } => "kernel_merge",
            TraceEvent::KernelProbe { .. } => "kernel_probe",
            TraceEvent::ProbeStart { .. } => "probe_start",
            TraceEvent::ProbeEnd { .. } => "probe_end",
            TraceEvent::ProbeFit { .. } => "probe_fit",
            TraceEvent::ResidentBuilt { .. } => "resident_built",
            TraceEvent::ResidentPatched { .. } => "resident_patched",
            TraceEvent::BatchSubmitted { .. } => "batch_submitted",
            TraceEvent::BatchCompleted { .. } => "batch_completed",
            TraceEvent::StreamBackpressure { .. } => "stream_backpressure",
        }
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
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Encode one record as a JSON object (no trailing newline).
pub fn encode(t: f64, event: &TraceEvent) -> String {
    use fmt::Write as _;
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t\":{t:.9},\"ev\":\"{}\"", event.tag());
    match event {
        TraceEvent::PassStart {
            proc,
            pass,
            phase,
            disk,
            area,
        } => {
            let _ = write!(
                s,
                ",\"proc\":{proc},\"pass\":{pass},\"phase\":{phase},\"disk\":{disk},\"area\":\""
            );
            esc(area, &mut s);
            s.push('"');
        }
        TraceEvent::PassEnd {
            proc,
            pass,
            phase,
            disk,
            area,
            bytes,
            objects,
        } => {
            let _ = write!(
                s,
                ",\"proc\":{proc},\"pass\":{pass},\"phase\":{phase},\"disk\":{disk},\"area\":\""
            );
            esc(area, &mut s);
            let _ = write!(s, "\",\"bytes\":{bytes},\"objects\":{objects}");
        }
        TraceEvent::MapSetup {
            proc,
            op,
            name,
            disk,
            bytes,
        } => {
            let _ = write!(s, ",\"proc\":{proc},\"op\":\"{}\",\"name\":\"", op.as_str());
            esc(name, &mut s);
            let _ = write!(s, "\",\"disk\":{disk},\"bytes\":{bytes}");
        }
        TraceEvent::MapTeardown { proc, name, disk } => {
            let _ = write!(s, ",\"proc\":{proc},\"name\":\"");
            esc(name, &mut s);
            let _ = write!(s, "\",\"disk\":{disk}");
        }
        TraceEvent::FaultInjected {
            proc,
            op,
            kind,
            name,
            disk,
        } => {
            let _ = write!(s, ",\"proc\":{proc},\"op\":\"");
            esc(op, &mut s);
            s.push_str("\",\"kind\":\"");
            esc(kind, &mut s);
            s.push_str("\",\"name\":\"");
            esc(name, &mut s);
            s.push('"');
            match disk {
                Some(d) => {
                    let _ = write!(s, ",\"disk\":{d}");
                }
                None => s.push_str(",\"disk\":null"),
            }
        }
        TraceEvent::RetryAttempt { attempt } => {
            let _ = write!(s, ",\"attempt\":{attempt}");
        }
        TraceEvent::RetryBackoff { attempt, millis } => {
            let _ = write!(s, ",\"attempt\":{attempt},\"millis\":{millis}");
        }
        TraceEvent::PlanSampled {
            job,
            sampled,
            skew,
            duplication,
        } => {
            // Plain Display keeps the floats' shortest round-trip
            // representation, so replayed plans re-read identical bits.
            let _ = write!(
                s,
                ",\"job\":{job},\"sampled\":{sampled},\"skew\":{skew},\"duplication\":{duplication}"
            );
        }
        TraceEvent::PlanChosen {
            job,
            algorithm,
            m_rproc,
            partitions,
            skew,
            source,
        } => {
            let _ = write!(s, ",\"job\":{job},\"algorithm\":\"");
            esc(algorithm, &mut s);
            let _ = write!(
                s,
                "\",\"m_rproc\":{m_rproc},\"partitions\":{partitions},\"skew\":{skew},\"source\":\""
            );
            esc(source, &mut s);
            s.push('"');
        }
        TraceEvent::JobSubmitted {
            job,
            footprint,
            shard,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"footprint\":{footprint},\"shard\":{shard}"
            );
        }
        TraceEvent::JobAdmitted {
            job,
            footprint,
            used,
            shard,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"footprint\":{footprint},\"used\":{used},\"shard\":{shard}"
            );
        }
        TraceEvent::JobDegraded {
            job,
            footprint,
            released,
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"footprint\":{footprint},\"released\":{released}"
            );
        }
        TraceEvent::JobCompleted { job, ok, degraded } => {
            let _ = write!(s, ",\"job\":{job},\"ok\":{ok},\"degraded\":{degraded}");
        }
        TraceEvent::JournalAppend { kind, bytes } => {
            s.push_str(",\"kind\":\"");
            esc(kind, &mut s);
            let _ = write!(s, "\",\"bytes\":{bytes}");
        }
        TraceEvent::RecoveryReplayed {
            records,
            torn,
            orphans_deleted,
            resumed_jobs,
        } => {
            let _ = write!(
                s,
                ",\"records\":{records},\"torn\":{torn},\"orphans_deleted\":{orphans_deleted},\"resumed_jobs\":{resumed_jobs}"
            );
        }
        TraceEvent::NodeJoined {
            node,
            budget,
            workers,
        } => {
            s.push_str(",\"node\":\"");
            esc(node, &mut s);
            let _ = write!(s, "\",\"budget\":{budget},\"workers\":{workers}");
        }
        TraceEvent::NodeLost { node, in_flight } => {
            s.push_str(",\"node\":\"");
            esc(node, &mut s);
            let _ = write!(s, "\",\"in_flight\":{in_flight}");
        }
        TraceEvent::JobRequeued { job, from, attempt } => {
            let _ = write!(s, ",\"job\":{job},\"from\":\"");
            esc(from, &mut s);
            let _ = write!(s, "\",\"attempt\":{attempt}");
        }
        TraceEvent::KernelRadix {
            proc,
            area,
            buckets,
            objects,
        } => {
            let _ = write!(s, ",\"proc\":{proc},\"area\":\"");
            esc(area, &mut s);
            let _ = write!(s, "\",\"buckets\":{buckets},\"objects\":{objects}");
        }
        TraceEvent::KernelMerge {
            proc,
            area,
            runs,
            objects,
        } => {
            let _ = write!(s, ",\"proc\":{proc},\"area\":\"");
            esc(area, &mut s);
            let _ = write!(s, "\",\"runs\":{runs},\"objects\":{objects}");
        }
        TraceEvent::KernelProbe {
            proc,
            spart,
            batches,
            objects,
        } => {
            let _ = write!(
                s,
                ",\"proc\":{proc},\"spart\":{spart},\"batches\":{batches},\"objects\":{objects}"
            );
        }
        TraceEvent::ProbeStart { probe, reps } => {
            s.push_str(",\"probe\":\"");
            esc(probe, &mut s);
            let _ = write!(s, "\",\"reps\":{reps}");
        }
        TraceEvent::ProbeEnd {
            probe,
            reps,
            seconds,
        } => {
            s.push_str(",\"probe\":\"");
            esc(probe, &mut s);
            let _ = write!(s, "\",\"reps\":{reps},\"seconds\":{seconds:.9}");
        }
        TraceEvent::ProbeFit {
            fit,
            base,
            slope,
            residual,
        } => {
            s.push_str(",\"fit\":\"");
            esc(fit, &mut s);
            let _ = write!(
                s,
                "\",\"base\":{base:.12},\"slope\":{slope:.12},\"residual\":{residual:.12}"
            );
        }
        TraceEvent::ResidentBuilt { parts, objects } => {
            let _ = write!(s, ",\"parts\":{parts},\"objects\":{objects}");
        }
        TraceEvent::ResidentPatched { op, objects, live } => {
            s.push_str(",\"op\":\"");
            esc(op, &mut s);
            let _ = write!(s, "\",\"objects\":{objects},\"live\":{live}");
        }
        TraceEvent::BatchSubmitted { batch, rows } => {
            let _ = write!(s, ",\"batch\":{batch},\"rows\":{rows}");
        }
        TraceEvent::BatchCompleted {
            batch,
            pairs,
            misses,
            ok,
        } => {
            let _ = write!(
                s,
                ",\"batch\":{batch},\"pairs\":{pairs},\"misses\":{misses},\"ok\":{ok}"
            );
        }
        TraceEvent::StreamBackpressure { queued, bound } => {
            let _ = write!(s, ",\"queued\":{queued},\"bound\":{bound}");
        }
    }
    s.push('}');
    s
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

//! Service-level accounting: per-job [`crate::JobResult`]s folded into
//! counters a long-running service can report, plus a JSON snapshot for
//! machine consumption.

use mmjoin_env::{Histogram, ProcStats};

use crate::job::JobResult;

/// Aggregated counters over every job the service has seen.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs refused at submission (footprint exceeds the whole budget).
    pub rejected: u64,
    /// Jobs finished successfully with a verified result.
    pub completed: u64,
    /// Jobs that finished with an error or failed verification.
    pub failed: u64,
    /// Global budget the service was configured with, in bytes.
    pub budget_bytes: u64,
    /// High-water mark of reserved budget, in bytes. Never exceeds
    /// `budget_bytes` — the admission invariant.
    pub peak_budget_bytes: u64,
    /// Total wall seconds jobs spent queued before admission.
    pub queue_wait_seconds: f64,
    /// Total wall seconds jobs spent executing after admission.
    pub exec_wall_seconds: f64,
    /// Total environment-reported elapsed seconds (virtual on `SimEnv`).
    pub env_elapsed_seconds: f64,
    /// Faults the injection layer fired across all jobs.
    pub faults_injected: u64,
    /// Transient errors absorbed by retrying, across all jobs.
    pub retries: u64,
    /// `DiskFull` degradations: times a job was re-planned with a
    /// halved memory footprint instead of failing.
    pub degraded: u64,
    /// Worker panics isolated by `catch_unwind`.
    pub panics: u64,
    /// Orphaned temporary files deleted by recovery.
    pub cleaned_files: u64,
    /// Reserved budget still outstanding at snapshot time with no job
    /// running — nonzero after a drain means an accounting leak.
    pub budget_leak_bytes: u64,
    /// Write-ahead journal records appended by this process (0 when
    /// journaling is disabled).
    pub journal_appended_records: u64,
    /// Journal commits performed, each making the records appended
    /// before it durable.
    pub journal_commits: u64,
    /// Journal `sync` calls issued: one per commit plus the create's
    /// (and one per rollback of a refused commit).
    pub journal_syncs: u64,
    /// CRC-valid records replayed at startup (`--resume`).
    pub journal_replayed_records: u64,
    /// Committed journal bytes lost to a torn or corrupted tail at
    /// startup.
    pub journal_torn_bytes: u64,
    /// Orphaned storage areas garbage-collected at startup.
    pub journal_orphans_deleted: u64,
    /// In-flight jobs re-submitted from the journal at startup.
    pub journal_resumed_jobs: u64,
    /// Streaming tier: probe micro-batches completed (`serve --stream`;
    /// 0 on the one-shot job service).
    pub stream_batches: u64,
    /// Streaming tier: `append=`/`delete=` maintenance ops applied.
    pub stream_mutations: u64,
    /// Streaming tier: probe rows that hit a tombstoned resident slot.
    pub stream_misses: u64,
    /// Streaming tier: times a submitter blocked on the queue bound.
    pub stream_backpressure: u64,
    /// Streaming tier: batches re-reported from the journal by
    /// `--resume` instead of re-executed.
    pub stream_resumed: u64,
    /// Every process counter of every job, folded into one set
    /// ([`mmjoin_env::EnvStats::folded`] summed across jobs).
    pub agg: ProcStats,
    /// Client-observed latency (queue wait + execution) per job.
    pub latency_hist: Histogram,
    /// Queue wait per job.
    pub queue_hist: Histogram,
    /// Execution wall time per job.
    pub exec_hist: Histogram,
    /// Per-pass (stage) durations across every job, merged from each
    /// job's `JoinOutput::pass_seconds`.
    pub pass_hist: Histogram,
    /// Streaming tier: client-observed per-batch latency.
    pub batch_hist: Histogram,
}

impl ServiceStats {
    /// Fold one finished job in. `folded` is the job's
    /// `EnvStats::folded()` when it ran far enough to have stats;
    /// `passes` its per-pass duration histogram, likewise.
    pub fn record(
        &mut self,
        result: &JobResult,
        folded: Option<&ProcStats>,
        passes: Option<&Histogram>,
    ) {
        if result.error.is_none() && result.verified {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
        self.queue_wait_seconds += result.queue_wait;
        self.exec_wall_seconds += result.exec_wall;
        self.env_elapsed_seconds += result.env_elapsed;
        self.faults_injected += result.faults_injected;
        self.retries += result.retries;
        self.degraded += result.degraded as u64;
        self.cleaned_files += result.cleaned_files;
        if result.panicked {
            self.panics += 1;
        }
        if let Some(p) = folded {
            self.agg.absorb(p);
        }
        self.latency_hist.record(result.latency());
        self.queue_hist.record(result.queue_wait);
        self.exec_hist.record(result.exec_wall);
        if let Some(h) = passes {
            self.pass_hist.merge(h);
        }
    }

    /// Jobs still queued or running.
    pub fn in_flight(&self) -> u64 {
        self.submitted.saturating_sub(self.completed + self.failed)
    }

    /// Fold another stats snapshot into this one: counters add,
    /// process counters absorb, histograms merge bucket-exactly (see
    /// `tests/hist_properties.rs` — merge is commutative and
    /// associative, so any grouping of per-shard snapshots yields the
    /// same merged result as folding every job into one snapshot).
    ///
    /// `budget_bytes` and `peak_budget_bytes` sum: shards hold disjoint
    /// partitions of the global budget, so the summed peak is an upper
    /// bound on the true global high-water mark and still never exceeds
    /// the summed budget.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.budget_bytes += other.budget_bytes;
        self.peak_budget_bytes += other.peak_budget_bytes;
        self.queue_wait_seconds += other.queue_wait_seconds;
        self.exec_wall_seconds += other.exec_wall_seconds;
        self.env_elapsed_seconds += other.env_elapsed_seconds;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.degraded += other.degraded;
        self.panics += other.panics;
        self.cleaned_files += other.cleaned_files;
        self.budget_leak_bytes += other.budget_leak_bytes;
        self.journal_appended_records += other.journal_appended_records;
        self.journal_commits += other.journal_commits;
        self.journal_syncs += other.journal_syncs;
        self.journal_replayed_records += other.journal_replayed_records;
        self.journal_torn_bytes += other.journal_torn_bytes;
        self.journal_orphans_deleted += other.journal_orphans_deleted;
        self.journal_resumed_jobs += other.journal_resumed_jobs;
        self.stream_batches += other.stream_batches;
        self.stream_mutations += other.stream_mutations;
        self.stream_misses += other.stream_misses;
        self.stream_backpressure += other.stream_backpressure;
        self.stream_resumed += other.stream_resumed;
        self.agg.absorb(&other.agg);
        self.latency_hist.merge(&other.latency_hist);
        self.queue_hist.merge(&other.queue_hist);
        self.exec_hist.merge(&other.exec_hist);
        self.pass_hist.merge(&other.pass_hist);
        self.batch_hist.merge(&other.batch_hist);
    }

    /// Snapshot as a JSON object (hand-rolled: every value is a number,
    /// so no escaping is needed).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"jobs\":{{\"submitted\":{},\"rejected\":{},\"completed\":{},",
                "\"failed\":{},\"in_flight\":{}}},",
                "\"budget\":{{\"bytes\":{},\"peak_bytes\":{},\"leak_bytes\":{}}},",
                "\"seconds\":{{\"queue_wait\":{:.6},\"exec_wall\":{:.6},",
                "\"env_elapsed\":{:.6},\"io\":{:.6}}},",
                "\"faults\":{{\"read_blocks\":{},\"write_blocks\":{},\"page_hits\":{}}},",
                "\"recovery\":{{\"faults_injected\":{},\"retries\":{},\"degraded\":{},",
                "\"panics\":{},\"cleaned_files\":{}}},",
                "\"journal\":{{\"appended_records\":{},\"commits\":{},\"syncs\":{},",
                "\"replayed_records\":{},\"torn_bytes\":{},\"orphans_deleted\":{},",
                "\"resumed_jobs\":{}}},",
                "\"stream\":{{\"batches\":{},\"mutations\":{},\"misses\":{},",
                "\"backpressure\":{},\"resumed\":{}}},",
                "\"latency\":{},\"queue\":{},\"exec\":{},\"pass\":{},\"batch\":{}}}"
            ),
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.in_flight(),
            self.budget_bytes,
            self.peak_budget_bytes,
            self.budget_leak_bytes,
            self.queue_wait_seconds,
            self.exec_wall_seconds,
            self.env_elapsed_seconds,
            self.agg.io_time,
            self.agg.fault_read_blocks,
            self.agg.fault_write_blocks,
            self.agg.page_hits,
            self.faults_injected,
            self.retries,
            self.degraded,
            self.panics,
            self.cleaned_files,
            self.journal_appended_records,
            self.journal_commits,
            self.journal_syncs,
            self.journal_replayed_records,
            self.journal_torn_bytes,
            self.journal_orphans_deleted,
            self.journal_resumed_jobs,
            self.stream_batches,
            self.stream_mutations,
            self.stream_misses,
            self.stream_backpressure,
            self.stream_resumed,
            self.latency_hist.to_json(),
            self.queue_hist.to_json(),
            self.exec_hist.to_json(),
            self.pass_hist.to_json(),
            self.batch_hist.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin::Algo;

    fn result(ok: bool) -> JobResult {
        JobResult {
            id: 1,
            shard: 0,
            name: String::new(),
            alg: Algo::Grace,
            predicted_seconds: 1.0,
            pairs: 10,
            checksum: 0xfeed,
            verified: ok,
            env_elapsed: 2.0,
            queue_wait: 0.5,
            exec_wall: 1.5,
            read_faults: 7,
            write_backs: 3,
            attempts: if ok { 1 } else { 3 },
            retries: if ok { 0 } else { 2 },
            faults_injected: if ok { 0 } else { 2 },
            degraded: 0,
            released_bytes: 0,
            cleaned_files: if ok { 0 } else { 4 },
            panicked: false,
            resumed: false,
            error: if ok { None } else { Some("boom".into()) },
        }
    }

    #[test]
    fn record_splits_completed_and_failed() {
        let mut s = ServiceStats {
            submitted: 2,
            ..Default::default()
        };
        let p = ProcStats {
            fault_read_blocks: 7,
            ..Default::default()
        };
        s.record(&result(true), Some(&p), None);
        s.record(&result(false), None, None);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.agg.fault_read_blocks, 7);
        assert!((s.queue_wait_seconds - 1.0).abs() < 1e-12);
        assert!((s.exec_wall_seconds - 3.0).abs() < 1e-12);
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.cleaned_files, 4);
        assert_eq!(s.panics, 0);
        // Both jobs land in the latency histograms either way.
        assert_eq!(s.latency_hist.count(), 2);
        assert_eq!(s.queue_hist.count(), 2);
        assert_eq!(s.exec_hist.count(), 2);
        assert!(s.pass_hist.is_empty());
        assert!((s.latency_hist.max() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let mut s = ServiceStats {
            submitted: 1,
            budget_bytes: 1024,
            peak_budget_bytes: 512,
            ..Default::default()
        };
        s.record(&result(true), None, None);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"submitted\":1"));
        assert!(j.contains("\"completed\":1"));
        assert!(j.contains("\"peak_bytes\":512"));
        assert!(j.contains("\"leak_bytes\":0"));
        assert!(j.contains("\"recovery\":{\"faults_injected\":0"));
        assert!(j.contains("\"journal\":{\"appended_records\":0"));
        assert!(j.contains("\"stream\":{\"batches\":0"));
        for key in ["latency", "queue", "exec", "pass", "batch"] {
            assert!(j.contains(&format!("\"{key}\":{{\"count\":")), "{key}: {j}");
        }
        assert!(j.contains("\"p999\":"));
        // Balanced braces — cheap structural sanity without a parser.
        let open = j.matches('{').count();
        assert_eq!(open, j.matches('}').count());
        // Eight section objects plus five histogram objects.
        assert_eq!(open, 13);
    }

    #[test]
    fn merge_equals_single_fold() {
        // Folding jobs into two per-shard snapshots and merging must
        // give the same counters and bucket-exact histograms as folding
        // them all into one snapshot.
        let mut a = ServiceStats::default();
        let mut b = ServiceStats::default();
        let mut whole = ServiceStats::default();
        for i in 0..6u64 {
            let mut r = result(i % 3 != 0);
            r.queue_wait = 0.1 * (i + 1) as f64;
            r.exec_wall = 0.3 * (i + 1) as f64;
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.submitted += 1;
            target.record(&r, None, None);
            whole.submitted += 1;
            whole.record(&r, None, None);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.submitted, whole.submitted);
        assert_eq!(merged.completed, whole.completed);
        assert_eq!(merged.failed, whole.failed);
        assert_eq!(merged.in_flight(), 0);
        assert_eq!(merged.latency_hist.buckets(), whole.latency_hist.buckets());
        assert_eq!(merged.queue_hist.buckets(), whole.queue_hist.buckets());
        assert_eq!(merged.exec_hist.buckets(), whole.exec_hist.buckets());
        assert_eq!(merged.latency_hist.count(), whole.latency_hist.count());
        assert_eq!(merged.latency_hist.min(), whole.latency_hist.min());
        assert_eq!(merged.latency_hist.max(), whole.latency_hist.max());
    }
}

//! Coordinator-side counters, with the same hand-rolled JSON snapshot
//! idiom as [`ServiceStats`](mmjoin_serve::ServiceStats).

use std::fmt::Write as _;

use mmjoin_env::Histogram;
use mmjoin_recovery::JournalStats;

/// Counters describing one coordinator's lifetime.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// Nodes configured.
    pub nodes: u32,
    /// Nodes currently registered and alive.
    pub nodes_alive: u32,
    /// Successful node registrations (a reconnect re-registers).
    pub node_joins: u64,
    /// Nodes declared dead (heartbeat timeout or connection loss after
    /// exhausted reconnects).
    pub node_losses: u64,
    /// Jobs accepted at submission.
    pub submitted: u64,
    /// Jobs rejected at submission (footprint exceeds every node).
    pub rejected: u64,
    /// Jobs with a terminal result (ok or failed).
    pub completed: u64,
    /// Terminal results with `ok == false`.
    pub failed: u64,
    /// Jobs re-queued off a dead node onto the pending queue.
    pub requeued: u64,
    /// Duplicate `JobDone` deliveries dropped by id dedup (the
    /// at-least-once resend path working as designed).
    pub duplicate_completions: u64,
    /// Completed jobs re-reported from the journal by `--resume`.
    pub resumed_reported: u64,
    /// CRC-valid journal records replayed at startup.
    pub replayed_records: u64,
    /// Aggregate budget bytes across currently alive nodes — the
    /// capacity admission control re-plans against as nodes come and
    /// go.
    pub budget_bytes: u64,
    /// Bytes currently reserved for in-flight jobs across alive nodes.
    pub reserved_bytes: u64,
    /// High-water mark of `reserved_bytes`.
    pub peak_reserved_bytes: u64,
    /// Reserved bytes not backed by any in-flight job — 0 unless the
    /// release accounting leaks (see the node-death release-once
    /// guard in the coordinator).
    pub budget_leak_bytes: u64,
    /// Submit→completion wall latency of terminal results.
    pub latency: Histogram,
    /// Coordinator journal counters, when journaling is configured.
    pub journal: Option<JournalStats>,
}

impl ClusterStats {
    /// JSON snapshot (one flat object, stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"nodes\":{},\"nodes_alive\":{},\"node_joins\":{},\"node_losses\":{},",
            self.nodes, self.nodes_alive, self.node_joins, self.node_losses
        );
        let _ = write!(
            s,
            "\"submitted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\"requeued\":{},",
            self.submitted, self.rejected, self.completed, self.failed, self.requeued
        );
        let _ = write!(
            s,
            "\"duplicate_completions\":{},\"resumed_reported\":{},\"replayed_records\":{},",
            self.duplicate_completions, self.resumed_reported, self.replayed_records
        );
        let _ = write!(
            s,
            "\"budget_bytes\":{},\"reserved_bytes\":{},\"peak_reserved_bytes\":{},\"budget_leak_bytes\":{},",
            self.budget_bytes, self.reserved_bytes, self.peak_reserved_bytes, self.budget_leak_bytes
        );
        let _ = write!(s, "\"latency\":{}", self.latency.to_json());
        match &self.journal {
            Some(j) => {
                let _ = write!(
                    s,
                    ",\"journal\":{{\"appended_records\":{},\"appended_bytes\":{},\"commits\":{},\"syncs\":{},\"replayed_records\":{},\"torn_bytes\":{}}}",
                    j.appended_records, j.appended_bytes, j.commits, j.syncs, j.replayed_records, j.torn_bytes
                );
            }
            None => s.push_str(",\"journal\":null"),
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_flat_and_complete() {
        let mut st = ClusterStats {
            nodes: 2,
            nodes_alive: 1,
            node_joins: 2,
            node_losses: 1,
            submitted: 10,
            completed: 10,
            failed: 1,
            requeued: 3,
            duplicate_completions: 2,
            ..ClusterStats::default()
        };
        st.latency.record(0.05);
        let json = st.to_json();
        for key in [
            "\"nodes\":2",
            "\"nodes_alive\":1",
            "\"node_losses\":1",
            "\"requeued\":3",
            "\"duplicate_completions\":2",
            "\"budget_leak_bytes\":0",
            "\"latency\":{",
            "\"journal\":null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn journal_section_appears_when_configured() {
        let st = ClusterStats {
            journal: Some(JournalStats {
                appended_records: 4,
                appended_bytes: 128,
                commits: 4,
                syncs: 5,
                replayed_records: 0,
                torn_bytes: 0,
            }),
            ..ClusterStats::default()
        };
        let json = st.to_json();
        assert!(json.contains("\"journal\":{\"appended_records\":4"));
        assert!(json.contains("\"commits\":4,\"syncs\":5"));
    }
}

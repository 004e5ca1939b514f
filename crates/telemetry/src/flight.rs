//! The violation flight recorder.
//!
//! When the engine detects a CFI violation (fast-path mismatch or slow-path
//! shadow-stack breach) it snapshots everything a post-mortem needs — the
//! offending ToPA window bytes, the decoded packet run, and the failing edge
//! — into a [`FlightRecord`]. Records are serialisable so an attack report
//! can round-trip through JSON (the paper's §6 attack analysis, made
//! machine-readable). Violations are rare by construction, so the recorder
//! is a bounded vector: the cost lives entirely off the hot path.

use serde::{Deserialize, Serialize};

/// One captured violation, with enough context to re-derive the verdict
/// offline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Monotone capture index (0-based across the recorder's lifetime).
    pub seq: u64,
    /// The intercepted endpoint ("sysno 59", "pmi", ...).
    pub endpoint: String,
    /// Human-readable verdict detail, e.g. the failing transfer.
    pub detail: String,
    /// Whether the fast path raised the verdict (false = slow path).
    pub fast_path: bool,
    /// The violating edge, when one was isolated: `(from, to)` addresses.
    pub edge: Option<(u64, u64)>,
    /// The raw ToPA window bytes that were being scanned when the violation
    /// fired (truncated to the recorder's window budget).
    pub topa_window: Vec<u8>,
    /// The decoded packet run over that window, one rendered packet per
    /// entry (e.g. `"TIP 0x40123a"`, `"TNT 1101"`).
    pub packets: Vec<String>,
}

/// A bounded store of [`FlightRecord`]s; keeps the first `capacity` captures
/// and counts any overflow rather than growing without bound.
pub struct FlightRecorder {
    records: Vec<FlightRecord>,
    captured: u64,
    capacity: usize,
    /// Max ToPA window bytes retained per record.
    window_budget: usize,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` records, each with at most
    /// `window_budget` bytes of ToPA window.
    pub fn new(capacity: usize, window_budget: usize) -> FlightRecorder {
        FlightRecorder { records: Vec::new(), captured: 0, capacity, window_budget }
    }

    /// Captures a record, assigning its sequence number. Returns the
    /// sequence number; the record body is dropped (but still counted) once
    /// the recorder is full.
    pub fn capture(
        &mut self,
        endpoint: impl Into<String>,
        detail: impl Into<String>,
        fast_path: bool,
        edge: Option<(u64, u64)>,
        topa_window: &[u8],
        packets: Vec<String>,
    ) -> u64 {
        let seq = self.captured;
        self.captured += 1;
        if self.records.len() < self.capacity {
            let keep = topa_window.len().min(self.window_budget);
            self.records.push(FlightRecord {
                seq,
                endpoint: endpoint.into(),
                detail: detail.into(),
                fast_path,
                edge,
                topa_window: topa_window[..keep].to_vec(),
                packets,
            });
        }
        seq
    }

    /// The retained records.
    pub fn records(&self) -> &[FlightRecord] {
        &self.records
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlightRecorder(retained={}, captured={})", self.records.len(), self.captured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_retains_window_and_packets() {
        let mut r = FlightRecorder::new(4, 8);
        let seq = r.capture(
            "sysno 59",
            "edge 0x401000 -> 0xdead not in ITC-CFG",
            true,
            Some((0x401000, 0xdead)),
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            vec!["TIP 0x401000".into(), "TNT 101".into()],
        );
        assert_eq!(seq, 0);
        let recs = r.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].topa_window, vec![1, 2, 3, 4, 5, 6, 7, 8], "window truncated to budget");
        assert_eq!(recs[0].edge, Some((0x401000, 0xdead)));
        assert_eq!(recs[0].packets.len(), 2);
    }

    #[test]
    fn recorder_is_bounded_but_keeps_counting() {
        let mut r = FlightRecorder::new(2, 16);
        let seqs: Vec<u64> =
            (0..5).map(|i| r.capture("pmi", format!("v{i}"), false, None, &[], vec![])).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4], "dropped captures still take a sequence number");
        let recs = r.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
    }
}

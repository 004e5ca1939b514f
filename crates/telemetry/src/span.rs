//! Cycle-attribution span profiler — *where* did a check's cycles go?
//!
//! The engine's aggregate counters say *that* a check was fast; the span
//! profiler says *why*: the engine records every stage of the check
//! pipeline ([`PhaseSpan`]) with its modeled cycle cost, and the profiler
//! keeps per-phase cycle totals and span counts. It is plain data, written
//! through `&mut self` by its one owner, and a record collapses to one
//! predictable branch when disabled.
//!
//! The profiler also measures **itself**: every
//! [`OVERHEAD_SAMPLE_PERIOD`]th record is wall-clock timed with
//! `std::time::Instant`, and the mean sampled nanoseconds-per-record is
//! extrapolated to an estimated total in [`ProfilerOverhead`]. That is the
//! number the observability bench gates — the profiler must never cost a
//! meaningful fraction of the checks it attributes.

use serde::{Deserialize, Serialize};

/// Number of pipeline phases — the length of [`PhaseSpan::ALL`].
pub const PHASE_COUNT: usize = 9;

/// Every `OVERHEAD_SAMPLE_PERIOD`th record is wall-clock timed to estimate
/// the profiler's own cost. A power of two keeps the sampling decision a
/// mask away from free.
pub const OVERHEAD_SAMPLE_PERIOD: u64 = 64;

/// A stage of the check pipeline, in pipeline order.
///
/// The first nine phases partition a check's modeled cycles exactly:
/// [`PhaseSpan::Intercept`] is charged on entry, the fast path splits its
/// edge-walk into tier-0 probe / edge probe / verdict, scanning is charged
/// to [`PhaseSpan::FastScan`] (appended-byte scans) or
/// [`PhaseSpan::ResidueScan`] (check-time streaming residue), and slow-path
/// escalations add decode and stitch. [`PhaseSpan::StreamDrain`] is the one
/// *background* phase — poll-slot and PMI drains that happen outside any
/// check and are therefore excluded from check-cycle attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseSpan {
    /// Syscall interception and dispatch into the engine.
    Intercept,
    /// Tier-0 entry-bitset membership probes.
    Tier0Probe,
    /// ITC-CFG edge-table probes (including the per-check edge cache).
    EdgeProbe,
    /// Packet scanning charged to the check (appended bytes, cold scans).
    FastScan,
    /// Background streaming drains (poll slots, PMIs) — not check time.
    StreamDrain,
    /// Check-time drain of the not-yet-consumed streaming residue.
    ResidueScan,
    /// Slow-path instruction-level flow reconstruction.
    SlowDecode,
    /// Slow-path shard seam validation and event replay.
    ShardStitch,
    /// Verdict assembly: cache credit, event emission, escalation choice.
    Verdict,
}

impl PhaseSpan {
    /// Every phase, in pipeline order — the canonical iteration order for
    /// tables and snapshots.
    pub const ALL: [PhaseSpan; PHASE_COUNT] = [
        PhaseSpan::Intercept,
        PhaseSpan::Tier0Probe,
        PhaseSpan::EdgeProbe,
        PhaseSpan::FastScan,
        PhaseSpan::StreamDrain,
        PhaseSpan::ResidueScan,
        PhaseSpan::SlowDecode,
        PhaseSpan::ShardStitch,
        PhaseSpan::Verdict,
    ];

    /// Dense index into per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case label (metric label values, table rows).
    pub fn label(self) -> &'static str {
        match self {
            PhaseSpan::Intercept => "intercept",
            PhaseSpan::Tier0Probe => "tier0_probe",
            PhaseSpan::EdgeProbe => "edge_probe",
            PhaseSpan::FastScan => "fast_scan",
            PhaseSpan::StreamDrain => "stream_drain",
            PhaseSpan::ResidueScan => "residue_scan",
            PhaseSpan::SlowDecode => "slow_decode",
            PhaseSpan::ShardStitch => "shard_stitch",
            PhaseSpan::Verdict => "verdict",
        }
    }

    /// Whether the phase's cycles are charged to endpoint checks.
    /// Background [`PhaseSpan::StreamDrain`] work overlaps execution and is
    /// deliberately excluded from check-cycle attribution.
    pub fn is_check_phase(self) -> bool {
        !matches!(self, PhaseSpan::StreamDrain)
    }
}

/// Per-phase aggregate in a [`SpanSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// [`PhaseSpan::label`] of the phase.
    pub phase: String,
    /// Total modeled cycles attributed to the phase.
    pub cycles: f64,
    /// Number of spans recorded for the phase.
    pub spans: u64,
}

/// The profiler's measured self-overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfilerOverhead {
    /// Records that were wall-clock sampled.
    pub sampled_records: u64,
    /// Total nanoseconds across the sampled records.
    pub sampled_ns: u64,
    /// Mean nanoseconds per record over the samples.
    pub mean_ns_per_record: f64,
    /// `mean_ns_per_record` extrapolated over every record.
    pub estimated_total_ns: f64,
}

/// A serialisable point-in-time view of the profiler.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Per-phase aggregates in [`PhaseSpan::ALL`] order.
    pub phases: Vec<PhaseStat>,
    /// Sum of all phase cycles, including background drains.
    pub total_cycles: f64,
    /// Sum over check phases only (see [`PhaseSpan::is_check_phase`]).
    pub check_cycles: f64,
    /// Total spans ever recorded.
    pub records: u64,
    /// The profiler's own measured cost.
    pub overhead: ProfilerOverhead,
}

impl SpanSnapshot {
    /// Cycles attributed to `phase`, zero if absent from the snapshot.
    pub fn phase_cycles(&self, phase: PhaseSpan) -> f64 {
        self.phases.iter().find(|p| p.phase == phase.label()).map_or(0.0, |p| p.cycles)
    }
}

/// The span profiler: per-phase totals, a record count and the sampled
/// self-overhead. Recording costs one branch when disabled.
#[derive(Debug)]
pub struct SpanProfiler {
    enabled: bool,
    cycles: [f64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
    records: u64,
    overhead_ns: u64,
    overhead_samples: u64,
}

impl SpanProfiler {
    /// A profiler; when `enabled` is false every record is a single branch.
    pub fn new(enabled: bool) -> SpanProfiler {
        SpanProfiler {
            enabled,
            cycles: [0.0; PHASE_COUNT],
            counts: [0; PHASE_COUNT],
            records: 0,
            overhead_ns: 0,
            overhead_samples: 0,
        }
    }

    /// Records one span. Every [`OVERHEAD_SAMPLE_PERIOD`]th record is
    /// wall-clock timed so the profiler's own cost stays observable.
    #[inline]
    pub fn record(&mut self, phase: PhaseSpan, cycles: f64) {
        if !self.enabled {
            return;
        }
        if self.records.is_multiple_of(OVERHEAD_SAMPLE_PERIOD) {
            let t0 = std::time::Instant::now();
            self.add(phase, cycles);
            self.overhead_ns += t0.elapsed().as_nanos() as u64;
            self.overhead_samples += 1;
        } else {
            self.add(phase, cycles);
        }
    }

    fn add(&mut self, phase: PhaseSpan, cycles: f64) {
        let i = phase.index();
        self.cycles[i] += cycles;
        self.counts[i] += 1;
        self.records += 1;
    }

    /// Total cycles attributed to `phase` so far.
    pub fn phase_cycles(&self, phase: PhaseSpan) -> f64 {
        self.cycles[phase.index()]
    }

    /// Spans recorded for `phase` so far.
    pub fn phase_spans(&self, phase: PhaseSpan) -> u64 {
        self.counts[phase.index()]
    }

    /// Total spans ever recorded.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The measured self-overhead so far.
    pub fn overhead(&self) -> ProfilerOverhead {
        let sampled_records = self.overhead_samples;
        let sampled_ns = self.overhead_ns;
        let mean =
            if sampled_records == 0 { 0.0 } else { sampled_ns as f64 / sampled_records as f64 };
        ProfilerOverhead {
            sampled_records,
            sampled_ns,
            mean_ns_per_record: mean,
            estimated_total_ns: mean * self.records() as f64,
        }
    }

    /// A serialisable aggregate view.
    pub fn snapshot(&self) -> SpanSnapshot {
        let mut phases = Vec::with_capacity(PHASE_COUNT);
        let mut total = 0.0;
        let mut check = 0.0;
        for p in PhaseSpan::ALL {
            let cycles = self.phase_cycles(p);
            total += cycles;
            if p.is_check_phase() {
                check += cycles;
            }
            phases.push(PhaseStat {
                phase: p.label().to_owned(),
                cycles,
                spans: self.phase_spans(p),
            });
        }
        SpanSnapshot {
            phases,
            total_cycles: total,
            check_cycles: check,
            records: self.records(),
            overhead: self.overhead(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip_and_labels_are_unique() {
        let mut labels = std::collections::HashSet::new();
        for (i, p) in PhaseSpan::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(PhaseSpan::ALL[p.index()], *p);
            assert!(labels.insert(p.label()), "duplicate label {}", p.label());
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut prof = SpanProfiler::new(false);
        prof.record(PhaseSpan::Intercept, 50.0);
        assert_eq!(prof.records(), 0);
        let snap = prof.snapshot();
        assert_eq!(snap.total_cycles, 0.0);
        assert_eq!(snap.overhead.sampled_records, 0);
    }

    #[test]
    fn snapshot_partitions_check_and_background_cycles() {
        let mut prof = SpanProfiler::new(true);
        prof.record(PhaseSpan::Intercept, 30.0);
        prof.record(PhaseSpan::StreamDrain, 500.0);
        prof.record(PhaseSpan::Verdict, 12.0);
        let snap = prof.snapshot();
        assert!((snap.total_cycles - 542.0).abs() < 1e-9);
        assert!((snap.check_cycles - 42.0).abs() < 1e-9);
        assert_eq!(snap.phases.len(), PHASE_COUNT);
        assert!((snap.phase_cycles(PhaseSpan::StreamDrain) - 500.0).abs() < 1e-9);
        assert_eq!(snap.records, 3);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SpanSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn overhead_sampling_reports_mean_and_extrapolation() {
        let mut prof = SpanProfiler::new(true);
        for _ in 0..(OVERHEAD_SAMPLE_PERIOD * 3) {
            prof.record(PhaseSpan::EdgeProbe, 1.0);
        }
        let oh = prof.overhead();
        assert_eq!(oh.sampled_records, 3, "one sample per period");
        assert!(oh.mean_ns_per_record >= 0.0);
        assert!(oh.estimated_total_ns >= oh.sampled_ns as f64 - 1e-9 || oh.sampled_ns == 0);
    }
}

//! Engine telemetry: every runtime statistic the engine emits, as plain
//! data behind one lock.
//!
//! [`EngineTelemetry`] aggregates counters for verdict tallies, log-linear
//! histograms for latency distributions, a bounded event ring with one
//! [`CheckEvent`] per endpoint check, the span profiler, a bounded
//! violation log, and the violation flight recorder.
//! The engine is the only writer and records each check (event, spans and
//! cache samples together) in one call; readers (the CLI, fleet rollups,
//! benchmarks) take snapshots between calls through the shared handle, so
//! the lock is never contended. With telemetry disabled a check records
//! nothing and takes no lock. [`TelemetrySnapshot`] is the one counter set:
//! the live counters are kept in its form, and
//! [`EngineTelemetry::telemetry_snapshot`] fills in the rest.

use fg_ipt::DrainStats;
use fg_trace::{
    EventRing, FlightRecord, FlightRecorder, Histogram, HistogramSnapshot, PhaseSpan, PromText,
    SpanProfiler, SpanSnapshot, PHASE_COUNT,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sysno value recorded for PMI-triggered (non-syscall) checks.
pub const PMI_SYSNO: u64 = u64::MAX;

/// Retained events in the check-event ring.
pub const EVENT_RING_CAPACITY: usize = 1024;

/// Violations retained verbatim at each end of the bounded log.
pub const VIOLATION_KEEP: usize = 32;

/// Flight records retained, and ToPA window bytes kept per record.
pub const FLIGHT_CAPACITY: usize = 16;
/// Max ToPA window bytes snapshotted into a flight record.
pub const FLIGHT_WINDOW_BYTES: usize = 4096;

/// The final disposition of one endpoint check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum CheckVerdict {
    /// Not enough trace to judge (untraced, unparseable, or too few TIPs).
    #[default]
    Insufficient,
    /// Fast path passed the window fully credited.
    FastClean,
    /// Fast path found a definitive violation.
    FastMalicious,
    /// Escalated to the slow path, which found the flow conformant.
    SlowClean,
    /// Escalated to the slow path, which found an attack.
    SlowAttack,
}

impl CheckVerdict {
    /// Short label for event listings.
    pub fn label(self) -> &'static str {
        match self {
            CheckVerdict::Insufficient => "insufficient",
            CheckVerdict::FastClean => "fast-clean",
            CheckVerdict::FastMalicious => "fast-malicious",
            CheckVerdict::SlowClean => "slow-clean",
            CheckVerdict::SlowAttack => "slow-attack",
        }
    }
}

/// One structured record per endpoint check — the event-ring payload.
/// Events are written out (the CLI, flowbench's probe) but never read back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CheckEvent {
    /// The intercepted syscall number ([`PMI_SYSNO`] for PMI checks).
    pub sysno: u64,
    /// The check's disposition.
    pub verdict: CheckVerdict,
    /// Whether the checkpointed scanner needed a cold PSB restart.
    pub cold_restart: bool,
    /// Trace bytes appended (and scanned) since the previous check.
    pub delta_bytes: u64,
    /// TIP pairs checked in the window.
    pub pairs_checked: u64,
    /// Checked pairs that were high-credit.
    pub credited_pairs: u64,
    /// Escalation reason: low-credit edges that forced the slow path
    /// (zero for non-escalated checks).
    pub uncredited: u64,
    /// Fast-path edge-cache hits during this check.
    pub edge_cache_hits: u64,
    /// Fast-path edge-cache misses during this check.
    pub edge_cache_misses: u64,
    /// Packet-scan cycles spent this check.
    pub scan_cycles: f64,
    /// ITC-CFG matching cycles spent this check.
    pub check_cycles: f64,
    /// Slow-path decode cycles (zero when not escalated).
    pub slow_cycles: f64,
    /// Interception-overhead cycles.
    pub other_cycles: f64,
    /// Whether the slow path resumed from its decode checkpoint (warm)
    /// instead of decoding the window cold.
    pub checkpoint_hit: bool,
    /// PSB shards the slow-path decode split into (zero when not
    /// escalated).
    pub slow_shards: u64,
    /// Instructions the slow-path decoders actually walked this check (the
    /// appended delta on warm checks; the whole window cold).
    pub slow_insns_decoded: u64,
    /// Sequential stitch/replay cycles spent by the slow path.
    pub stitch_cycles: f64,
    /// Tier-0 bitset probes that passed during this check.
    pub tier0_hits: u64,
    /// Tier-0 probes that failed (pre-edge-lookup violations).
    pub tier0_misses: u64,
    /// Whether the streaming consumer served this check (frontier compare +
    /// residue scan instead of an endpoint-time buffer consume).
    pub streaming: bool,
    /// Streaming mode: residue bytes the background consumer had NOT yet
    /// drained when this check arrived (the frontier lag — the bytes the
    /// check itself had to scan). Zero when streaming is off.
    pub frontier_lag: u64,
    /// Streaming mode: bytes drained by the background consumer (poll slots
    /// and PMI drains) since the previous check. Zero when streaming is off.
    pub drained_bytes: u64,
}

impl CheckEvent {
    /// Total cycles attributable to this check.
    pub fn total_cycles(&self) -> f64 {
        self.scan_cycles
            + self.check_cycles
            + self.slow_cycles
            + self.stitch_cycles
            + self.other_cycles
    }
}

/// Bounded violation log: first [`VIOLATION_KEEP`] + last [`VIOLATION_KEEP`]
/// records verbatim, everything between counted.
#[derive(Debug, Default)]
struct ViolationLog {
    first: Vec<ViolationRecord>,
    last: VecDeque<ViolationRecord>,
    dropped: u64,
}

impl ViolationLog {
    fn push(&mut self, rec: ViolationRecord) {
        if self.first.len() < VIOLATION_KEEP {
            self.first.push(rec);
        } else {
            if self.last.len() == VIOLATION_KEEP {
                self.last.pop_front();
                self.dropped += 1;
            }
            self.last.push_back(rec);
        }
    }

    fn total(&self) -> u64 {
        self.first.len() as u64 + self.last.len() as u64 + self.dropped
    }

    fn retained(&self) -> Vec<ViolationRecord> {
        self.first.iter().chain(self.last.iter()).cloned().collect()
    }
}

/// One check's spans: the modeled cycles of each phase the check recorded
/// a span for, in [`PhaseSpan::ALL`] order (`None`: no span). A check
/// records at most one span per phase.
pub type CheckSpans = [Option<f64>; PHASE_COUNT];

/// What one endpoint check hands its telemetry, recorded in one call
/// ([`EngineTelemetry::record_check`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckRecord {
    /// The check's event.
    pub event: CheckEvent,
    /// The check's spans.
    pub spans: CheckSpans,
    /// The streaming consumer's cumulative counters, when the check samples
    /// their copy figures (a streaming check whose drain succeeded).
    pub drain_stats: Option<DrainStats>,
    /// Slow-path result cache entries after the check.
    pub cache_size: usize,
}

/// Everything [`EngineTelemetry`] keeps, as plain data behind its lock.
#[derive(Debug)]
struct Recorders {
    /// The live counters in their snapshot form; the distributions, spans,
    /// violations and flight records stay empty here (the recorders below
    /// hold them, and [`EngineTelemetry::telemetry_snapshot`] fills them
    /// in).
    stats: TelemetrySnapshot,
    /// Cycles per endpoint check, all phases.
    check_latency: Histogram,
    /// Fast-path packet-scan cycles per check.
    fastpath_scan_cycles: Histogram,
    /// Slow-path decode cycles per escalation.
    slowpath_decode_cycles: Histogram,
    /// Slow-path sequential stitch/replay cycles per escalation.
    slowpath_stitch_cycles: Histogram,
    /// PSB shards per slow-path decode.
    slowpath_shards: Histogram,
    /// Trace bytes consumed per check.
    bytes_per_check: Histogram,
    /// Streaming mode: residue bytes not yet drained at check entry.
    frontier_lag: Histogram,
    /// Per-phase cycle attribution.
    spans: SpanProfiler,
    events: EventRing<CheckEvent>,
    violations: ViolationLog,
    flight: FlightRecorder,
}

impl Recorders {
    fn sample_stream_copies(&mut self, ds: &DrainStats) {
        self.stats.stream_copied_bytes = ds.copied_bytes;
        self.stats.stream_seam_carries = ds.seam_carries;
    }
}

/// All engine telemetry, shared between the engine (moved into the kernel)
/// and observers holding the handle from
/// [`FlowGuardEngine::stats_handle`](crate::FlowGuardEngine::stats_handle).
#[derive(Debug)]
pub struct EngineTelemetry {
    enabled: bool,
    inner: Mutex<Recorders>,
}

impl EngineTelemetry {
    /// Creates telemetry; with `enabled` false checks and drains record
    /// nothing and take no lock (violations and flight records are still
    /// captured — they are rare and security-critical). Span profiling
    /// follows `enabled`.
    pub fn new(enabled: bool) -> EngineTelemetry {
        EngineTelemetry {
            enabled,
            inner: Mutex::new(Recorders {
                stats: TelemetrySnapshot { enabled, ..TelemetrySnapshot::default() },
                check_latency: Histogram::new(),
                fastpath_scan_cycles: Histogram::new(),
                slowpath_decode_cycles: Histogram::new(),
                slowpath_stitch_cycles: Histogram::new(),
                slowpath_shards: Histogram::new(),
                bytes_per_check: Histogram::new(),
                frontier_lag: Histogram::new(),
                spans: SpanProfiler::new(enabled),
                events: EventRing::new(EVENT_RING_CAPACITY),
                violations: ViolationLog::default(),
                flight: FlightRecorder::new(FLIGHT_CAPACITY, FLIGHT_WINDOW_BYTES),
            }),
        }
    }

    /// Records one completed endpoint check — counters, histograms, the
    /// event ring, its spans and the cache samples — under one lock.
    pub fn record_check(&self, rec: &CheckRecord) {
        if !self.enabled {
            return;
        }
        let ev = &rec.event;
        let mut r = self.inner.lock();
        let r = &mut *r;
        for (phase, cycles) in PhaseSpan::ALL.into_iter().zip(rec.spans) {
            if let Some(cycles) = cycles {
                r.spans.record(phase, cycles);
            }
        }
        if let Some(ds) = &rec.drain_stats {
            r.sample_stream_copies(ds);
        }
        let s = &mut r.stats;
        s.cache_size = rec.cache_size as u64;
        s.edge_cache_hits += ev.edge_cache_hits;
        s.edge_cache_misses += ev.edge_cache_misses;
        s.checks += 1;
        match ev.verdict {
            CheckVerdict::Insufficient => s.insufficient += 1,
            CheckVerdict::FastClean => s.fast_clean += 1,
            CheckVerdict::FastMalicious => s.fast_malicious += 1,
            CheckVerdict::SlowClean => s.slow_invocations += 1,
            CheckVerdict::SlowAttack => {
                s.slow_invocations += 1;
                s.slow_attacks += 1;
            }
        }
        s.pairs_checked += ev.pairs_checked;
        s.credited_pairs += ev.credited_pairs;
        s.tier0_hits += ev.tier0_hits;
        s.tier0_misses += ev.tier0_misses;
        s.bytes_scanned += ev.delta_bytes;
        if ev.cold_restart {
            s.cold_restarts += 1;
        }
        s.decode_cycles += ev.scan_cycles + ev.slow_cycles;
        s.check_cycles += ev.check_cycles;
        s.other_cycles += ev.other_cycles;
        r.check_latency.record_f64(ev.total_cycles());
        r.fastpath_scan_cycles.record_f64(ev.scan_cycles);
        if matches!(ev.verdict, CheckVerdict::SlowClean | CheckVerdict::SlowAttack) {
            r.slowpath_decode_cycles.record_f64(ev.slow_cycles);
            r.slowpath_stitch_cycles.record_f64(ev.stitch_cycles);
            r.slowpath_shards.record(ev.slow_shards);
            if ev.checkpoint_hit {
                r.stats.slow_checkpoint_hits += 1;
            } else {
                r.stats.slow_checkpoint_misses += 1;
            }
        }
        r.bytes_per_check.record(ev.delta_bytes);
        if ev.streaming {
            r.frontier_lag.record(ev.frontier_lag);
            r.stats.last_frontier_lag = ev.frontier_lag;
        }
        r.events.push(ev);
    }

    /// Records one background drain by the streaming consumer (trace-poll
    /// slots and region-fill PMIs — not check-time residue scans, which are
    /// accounted as `delta_bytes` on their [`CheckEvent`]): its span of
    /// `span_cycles`, the bytes it drained when it counts as a drain (it
    /// consumed bytes or cold-restarted), and the consumer's cumulative copy
    /// counters.
    pub fn record_stream_drain(&self, drained: Option<u64>, span_cycles: f64, ds: &DrainStats) {
        if !self.enabled {
            return;
        }
        let mut r = self.inner.lock();
        r.spans.record(PhaseSpan::StreamDrain, span_cycles);
        if let Some(bytes) = drained {
            r.stats.stream_drains += 1;
            r.stats.stream_drained_bytes += bytes;
        }
        r.sample_stream_copies(ds);
    }

    /// Adds the per-check total-cycles histogram into `into` — the fleet
    /// rollup's bucket merge across processes.
    pub fn merge_check_latency_into(&self, into: &mut Histogram) {
        into.merge_from(&self.inner.lock().check_latency);
    }

    /// Appends to the bounded violation log (recorded even when disabled:
    /// violations are rare and security-critical).
    pub fn record_violation(&self, rec: ViolationRecord) {
        self.inner.lock().violations.push(rec);
    }

    /// Captures a flight record for a violation (see [`FlightRecorder`]).
    pub fn capture_flight(
        &self,
        endpoint: &str,
        detail: &str,
        fast_path: bool,
        edge: Option<(u64, u64)>,
        topa_window: &[u8],
        packets: Vec<String>,
    ) -> u64 {
        self.inner.lock().flight.capture(endpoint, detail, fast_path, edge, topa_window, packets)
    }

    /// The retained flight records.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.inner.lock().flight.records().to_vec()
    }

    /// The most recent `n` check events, oldest first, with absolute
    /// indices.
    pub fn recent_events(&self, n: usize) -> Vec<(u64, CheckEvent)> {
        self.inner.lock().events.last(n)
    }

    /// Total endpoint checks recorded.
    pub fn checks(&self) -> u64 {
        self.inner.lock().stats.checks
    }

    /// The full serialisable telemetry snapshot (counters, distributions,
    /// spans, violations, flight records) — the JSON the CLI's
    /// `stats` subcommand and fg-bench's distribution columns consume.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let r = self.inner.lock();
        TelemetrySnapshot {
            check_latency: r.check_latency.snapshot(),
            fastpath_scan_cycles: r.fastpath_scan_cycles.snapshot(),
            slowpath_decode_cycles: r.slowpath_decode_cycles.snapshot(),
            slowpath_stitch_cycles: r.slowpath_stitch_cycles.snapshot(),
            slowpath_shards: r.slowpath_shards.snapshot(),
            bytes_per_check: r.bytes_per_check.snapshot(),
            frontier_lag: r.frontier_lag.snapshot(),
            spans: r.spans.snapshot(),
            events_recorded: r.events.pushed(),
            violations_total: r.violations.total(),
            violations_dropped: r.violations.dropped,
            violations: r.violations.retained(),
            flight_records: r.flight.records().to_vec(),
            ..r.stats.clone()
        }
    }

    /// Renders the Prometheus/OpenMetrics text-format exposition with
    /// *mergeable* cumulative-bucket histograms — the fleet-rollup format.
    pub fn prometheus_text(&self) -> String {
        let r = self.inner.lock();
        let s = &r.stats;
        let mut p = PromText::new();
        p.counter("fg_checks_total", "Endpoint checks performed", s.checks)
            .counter("fg_fast_clean_total", "Fast-path clean outcomes", s.fast_clean)
            .counter("fg_fast_malicious_total", "Fast-path malicious detections", s.fast_malicious)
            .counter(
                "fg_slow_invocations_total",
                "Windows escalated to the slow path",
                s.slow_invocations,
            )
            .counter("fg_slow_attacks_total", "Slow-path attack detections", s.slow_attacks)
            .counter("fg_insufficient_total", "Checks skipped for lack of trace", s.insufficient)
            .counter("fg_pairs_checked_total", "TIP pairs checked", s.pairs_checked)
            .counter("fg_credited_pairs_total", "High-credit pairs", s.credited_pairs)
            .counter("fg_bytes_scanned_total", "Trace bytes scanned", s.bytes_scanned)
            .counter("fg_cold_restarts_total", "Cold PSB re-syncs", s.cold_restarts)
            .counter(
                "fg_slow_checkpoint_hits_total",
                "Slow-path checks resumed from the decode checkpoint",
                s.slow_checkpoint_hits,
            )
            .counter(
                "fg_slow_checkpoint_misses_total",
                "Slow-path checks decoded cold",
                s.slow_checkpoint_misses,
            )
            .counter("fg_tier0_hits_total", "Tier-0 bitset probes that passed", s.tier0_hits)
            .counter(
                "fg_tier0_misses_total",
                "Tier-0 bitset probes that failed (pre-edge violations)",
                s.tier0_misses,
            )
            .counter(
                "fg_stream_drains_total",
                "Background drains by the streaming consumer",
                s.stream_drains,
            )
            .counter(
                "fg_stream_drained_bytes_total",
                "Trace bytes drained in the background by the streaming consumer",
                s.stream_drained_bytes,
            )
            .counter(
                "fg_stream_copied_bytes_total",
                "Bytes the streaming consumer copied (seam carries + wrap recoveries)",
                s.stream_copied_bytes,
            )
            .counter(
                "fg_stream_seam_carries_total",
                "Packet fragments carried across ToPA region seams",
                s.stream_seam_carries,
            )
            .counter("fg_edge_cache_hits_total", "Fast-path edge-cache hits", s.edge_cache_hits)
            .counter(
                "fg_edge_cache_misses_total",
                "Fast-path edge-cache misses",
                s.edge_cache_misses,
            )
            .counter("fg_violations_total", "CFI violations", r.violations.total())
            .counter(
                "fg_span_records_total",
                "Spans recorded by the cycle-attribution profiler",
                r.spans.records(),
            )
            .gauge("fg_cache_entries", "Slow-path result cache entries", s.cache_size as f64)
            .gauge("fg_decode_cycles", "Cycles spent decoding", s.decode_cycles)
            .gauge("fg_check_cycles", "Cycles spent matching", s.check_cycles)
            .gauge("fg_other_cycles", "Interception-overhead cycles", s.other_cycles);

        // Per-phase cycle attribution: one counter family labelled by
        // pipeline phase, the foundation for fleet rollups.
        let overhead = r.spans.overhead();
        let cycle_series: Vec<(&str, f64)> =
            PhaseSpan::ALL.iter().map(|&ph| (ph.label(), r.spans.phase_cycles(ph))).collect();
        let span_series: Vec<(&str, f64)> =
            PhaseSpan::ALL.iter().map(|&ph| (ph.label(), r.spans.phase_spans(ph) as f64)).collect();
        p.labeled_counter(
            "fg_phase_cycles_total",
            "Modeled cycles attributed to each check-pipeline phase",
            "phase",
            &cycle_series,
        )
        .labeled_counter(
            "fg_phase_spans_total",
            "Spans recorded per check-pipeline phase",
            "phase",
            &span_series,
        )
        .gauge(
            "fg_span_overhead_mean_ns",
            "Measured profiler self-overhead per record (sampled mean)",
            overhead.mean_ns_per_record,
        )
        .gauge(
            "fg_span_overhead_estimated_ns",
            "Profiler self-overhead extrapolated over all records",
            overhead.estimated_total_ns,
        );

        let hists: [(&str, &str, &Histogram); 7] = [
            ("fg_check_latency_cycles", "Per-check total cycles", &r.check_latency),
            ("fg_fastpath_scan_cycles", "Per-check packet-scan cycles", &r.fastpath_scan_cycles),
            (
                "fg_slowpath_decode_cycles",
                "Per-escalation slow-path cycles",
                &r.slowpath_decode_cycles,
            ),
            (
                "fg_slowpath_stitch_cycles",
                "Per-escalation sequential stitch/replay cycles",
                &r.slowpath_stitch_cycles,
            ),
            ("fg_slowpath_shards", "PSB shards per slow-path decode", &r.slowpath_shards),
            ("fg_check_bytes", "Trace bytes consumed per check", &r.bytes_per_check),
            (
                "fg_frontier_lag_bytes",
                "Residue bytes not yet drained at check entry (streaming)",
                &r.frontier_lag,
            ),
        ];
        for (name, help, h) in hists {
            p.histogram(name, help, &h.cumulative_buckets(), h.sum(), h.count());
        }
        p.finish()
    }
}

/// A recorded violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// The endpoint syscall at which the violation was caught.
    pub endpoint: String,
    /// Human-readable description.
    pub detail: String,
    /// Whether the fast path (true) or slow path (false) detected it.
    pub fast_path: bool,
}

/// The engine's counter set and its full serialisable telemetry export.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether hot-path recording was on.
    pub enabled: bool,
    /// Endpoint checks performed.
    pub checks: u64,
    /// Fast-path clean outcomes.
    pub fast_clean: u64,
    /// Fast-path malicious detections.
    pub fast_malicious: u64,
    /// Windows escalated to the slow path.
    pub slow_invocations: u64,
    /// Slow-path attack detections.
    pub slow_attacks: u64,
    /// Checks skipped for lack of trace.
    pub insufficient: u64,
    /// TIP pairs checked.
    pub pairs_checked: u64,
    /// Checked pairs that were high-credit (directly or via the cache).
    pub credited_pairs: u64,
    /// Slow-path result cache entries.
    pub cache_size: u64,
    /// Trace bytes scanned across all checks. This grows by the bytes
    /// appended since the previous drain (at most one window) per check,
    /// not by a whole rescanned tail window.
    pub bytes_scanned: u64,
    /// Checkpoint losses: the ToPA wrapped past the scanner's position and
    /// a cold PSB re-synchronisation was needed.
    pub cold_restarts: u64,
    /// Slow-path checks resumed from the decode checkpoint.
    #[serde(default)]
    pub slow_checkpoint_hits: u64,
    /// Slow-path checks that decoded their window cold.
    #[serde(default)]
    pub slow_checkpoint_misses: u64,
    /// Tier-0 bitset probes that passed.
    #[serde(default)]
    pub tier0_hits: u64,
    /// Tier-0 bitset probes that failed (pre-edge-lookup violations).
    #[serde(default)]
    pub tier0_misses: u64,
    /// Background drains performed by the streaming consumer (trace-poll
    /// slots and region-fill PMIs; zero when streaming is off).
    #[serde(default)]
    pub stream_drains: u64,
    /// Trace bytes drained in the background by the streaming consumer.
    #[serde(default)]
    pub stream_drained_bytes: u64,
    /// Bytes the streaming consumer copied (seam carries + wrap
    /// recoveries) — the zero-copy drain path keeps this near zero.
    #[serde(default)]
    pub stream_copied_bytes: u64,
    /// Packet fragments carried across ToPA region seams.
    #[serde(default)]
    pub stream_seam_carries: u64,
    /// Edge-cache hits (cumulative).
    pub edge_cache_hits: u64,
    /// Edge-cache misses (cumulative).
    pub edge_cache_misses: u64,
    /// Cycles spent decoding (packet scans + instruction-flow decodes).
    pub decode_cycles: f64,
    /// Cycles spent matching against the ITC-CFG.
    pub check_cycles: f64,
    /// Interception-overhead cycles.
    pub other_cycles: f64,
    /// Distribution of per-check total cycles.
    pub check_latency: HistogramSnapshot,
    /// Distribution of per-check packet-scan cycles.
    pub fastpath_scan_cycles: HistogramSnapshot,
    /// Distribution of per-escalation slow-path decode cycles.
    pub slowpath_decode_cycles: HistogramSnapshot,
    /// Distribution of per-escalation sequential stitch/replay cycles.
    #[serde(default)]
    pub slowpath_stitch_cycles: HistogramSnapshot,
    /// Distribution of PSB shards per slow-path decode.
    #[serde(default)]
    pub slowpath_shards: HistogramSnapshot,
    /// Distribution of trace bytes consumed per check.
    pub bytes_per_check: HistogramSnapshot,
    /// Distribution of residue bytes not yet drained at check entry
    /// (streaming mode only; empty otherwise).
    #[serde(default)]
    pub frontier_lag: HistogramSnapshot,
    /// Residue bytes not yet drained at the most recent streaming check
    /// (zero outside streaming mode).
    #[serde(default)]
    pub last_frontier_lag: u64,
    /// Per-phase cycle attribution (empty when telemetry is off).
    #[serde(default)]
    pub spans: SpanSnapshot,
    /// Events ever pushed to the ring (≥ retained).
    pub events_recorded: u64,
    /// Violations recorded in total.
    pub violations_total: u64,
    /// Violations whose log entries were dropped by the bound.
    pub violations_dropped: u64,
    /// Retained violation records (first/last windows).
    pub violations: Vec<ViolationRecord>,
    /// Forensic flight records.
    pub flight_records: Vec<FlightRecord>,
}

impl TelemetrySnapshot {
    /// Fraction of checked pairs that were credited — the runtime
    /// `cred_ratio` of §7.1.1 / Figure 5d.
    pub fn credited_fraction(&self) -> f64 {
        if self.pairs_checked == 0 {
            return 0.0;
        }
        self.credited_pairs as f64 / self.pairs_checked as f64
    }

    /// Fraction of checks that needed the slow path.
    pub fn slow_fraction(&self) -> f64 {
        if self.checks == 0 {
            return 0.0;
        }
        self.slow_invocations as f64 / self.checks as f64
    }

    /// Bytes the streaming consumer copied per KiB it drained — the
    /// zero-copy figure of merit (region-seam carries cost ~15 bytes per
    /// region, so a healthy drain path sits near zero).
    pub fn copied_per_drained_kib(&self) -> f64 {
        let drained = self.stream_drained_bytes + self.bytes_scanned;
        if drained == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.stream_copied_bytes as f64 / (drained as f64 / 1024.0)
        }
    }
}

/// Renders up to `max` packets of a (PSB-synchronised) trace window for a
/// flight record.
pub fn render_packets(window: &[u8], max: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut p = fg_ipt::PacketParser::new(window);
    while out.len() < max {
        match p.next_packet() {
            Some(Ok(pa)) => out.push(pa.packet.to_string()),
            Some(Err(e)) => {
                out.push(format!("<{e}>"));
                break;
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A check record carrying only `event`.
    fn check(event: CheckEvent) -> CheckRecord {
        CheckRecord { event, ..Default::default() }
    }

    #[test]
    fn disabled_mode_records_nothing_hot_but_keeps_violations() {
        let t = EngineTelemetry::new(false);
        t.record_check(&CheckRecord {
            event: CheckEvent { sysno: 2, ..Default::default() },
            cache_size: 10,
            ..Default::default()
        });
        assert_eq!(t.checks(), 0);
        assert_eq!(t.recent_events(10).len(), 0);
        let s = t.telemetry_snapshot();
        assert!(!s.enabled);
        assert_eq!(s.checks, 0);
        assert_eq!(s.cache_size, 0);
        t.record_violation(ViolationRecord {
            endpoint: "write".into(),
            detail: "bad edge".into(),
            fast_path: true,
        });
        let s = t.telemetry_snapshot();
        assert_eq!(s.violations_total, 1, "violations recorded even when disabled");
        assert_eq!(s.violations[0].endpoint, "write");
    }

    #[test]
    fn snapshot_matches_recorded_checks() {
        let t = EngineTelemetry::new(true);
        t.record_check(&check(CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::FastClean,
            delta_bytes: 100,
            pairs_checked: 30,
            credited_pairs: 30,
            scan_cycles: 50.0,
            check_cycles: 20.0,
            other_cycles: 200.0,
            ..Default::default()
        }));
        t.record_check(&check(CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::SlowClean,
            delta_bytes: 60,
            pairs_checked: 30,
            credited_pairs: 28,
            uncredited: 2,
            scan_cycles: 30.0,
            check_cycles: 20.0,
            slow_cycles: 1000.0,
            other_cycles: 200.0,
            ..Default::default()
        }));
        let s = t.telemetry_snapshot();
        assert!(s.enabled);
        assert_eq!(s.checks, 2);
        assert_eq!(s.fast_clean, 1);
        assert_eq!(s.slow_invocations, 1);
        assert_eq!(s.bytes_scanned, 160);
        assert_eq!(s.pairs_checked, 60);
        assert!((s.credited_fraction() - 58.0 / 60.0).abs() < 1e-12);
        assert!((s.slow_fraction() - 0.5).abs() < 1e-12);
        assert!((s.decode_cycles - 1080.0).abs() < 1e-9);
        assert!((s.check_cycles - 40.0).abs() < 1e-9);
        assert_eq!(s.check_latency.count, 2);
        assert_eq!(s.slowpath_decode_cycles.count, 1);
        assert_eq!(s.events_recorded, 2);
        let events = t.recent_events(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].1.verdict, CheckVerdict::SlowClean);
    }

    #[test]
    fn violation_log_keeps_first_and_last() {
        let t = EngineTelemetry::new(true);
        for i in 0..(2 * VIOLATION_KEEP as u64 + 10) {
            t.record_violation(ViolationRecord {
                endpoint: "write".into(),
                detail: format!("v{i}"),
                fast_path: true,
            });
        }
        let s = t.telemetry_snapshot();
        assert_eq!(s.violations.len(), 2 * VIOLATION_KEEP);
        assert_eq!(s.violations_dropped, 10);
        assert_eq!(s.violations_total, 2 * VIOLATION_KEEP as u64 + 10);
        assert_eq!(s.violations[0].detail, "v0");
        assert_eq!(s.violations.last().unwrap().detail, format!("v{}", 2 * VIOLATION_KEEP + 9));
    }

    #[test]
    fn prometheus_dump_contains_required_series() {
        let t = EngineTelemetry::new(true);
        t.record_check(&check(CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::FastClean,
            scan_cycles: 100.0,
            ..Default::default()
        }));
        let text = t.prometheus_text();
        for series in [
            "fg_checks_total",
            "fg_violations_total",
            // Latency distributions are mergeable cumulative histograms.
            "# TYPE fg_check_latency_cycles histogram",
            "fg_check_latency_cycles_bucket{le=\"+Inf\"} 1",
            "fg_check_latency_cycles_sum",
            "fg_check_bytes_count",
            // Per-phase attribution.
            "fg_phase_cycles_total{phase=\"fast_scan\"}",
            "fg_phase_spans_total{phase=\"verdict\"}",
            "fg_span_overhead_mean_ns",
            // The zero-copy drain families.
            "fg_stream_copied_bytes_total",
            "fg_stream_seam_carries_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        let errs = fg_trace::export::lint(&text);
        assert!(errs.is_empty(), "exposition lint violations: {errs:?}");
    }

    #[test]
    fn telemetry_snapshot_round_trips_json() {
        let t = EngineTelemetry::new(true);
        t.record_check(&check(CheckEvent { sysno: 2, ..Default::default() }));
        let json = serde_json::to_string(&t.telemetry_snapshot()).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checks, 1);
        // Pre-observability snapshots (no `spans` key) still parse. The
        // vendored JSON layer has no mutable value tree, so excise the key
        // textually by walking its balanced-brace object body.
        fn drop_key(json: &str, key: &str) -> String {
            let pat = format!("\"{key}\":");
            let start = json.find(&pat).unwrap();
            let body = start + pat.len();
            let mut depth = 0usize;
            let mut end = body;
            for (i, c) in json[body..].char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = body + i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            // Also eat the separating comma (one side has one).
            let mut out = String::new();
            out.push_str(&json[..start]);
            let rest = json[end..].strip_prefix(',').unwrap_or_else(|| {
                out.truncate(out.trim_end().trim_end_matches(',').len());
                &json[end..]
            });
            out.push_str(rest);
            out
        }
        let stripped = drop_key(&json, "spans");
        let old: TelemetrySnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.checks, 1);
        assert_eq!(old.spans, fg_trace::SpanSnapshot::default());
    }

    /// The top-level keys of `value`, in serialisation order.
    fn keys(value: &serde::Value) -> Vec<&str> {
        match value {
            serde::Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// Readers find the snapshot's and the event's fields by name (CI greps
    /// the `stats` JSON, flowbench sums snapshot counters by key and reads
    /// event keys), and a renamed key only warns there, so the names are
    /// pinned here.
    #[test]
    fn serialised_key_names_are_pinned() {
        use serde::Serialize;
        let snapshot = EngineTelemetry::new(true).telemetry_snapshot().to_value();
        assert_eq!(
            keys(&snapshot),
            [
                "enabled",
                "checks",
                "fast_clean",
                "fast_malicious",
                "slow_invocations",
                "slow_attacks",
                "insufficient",
                "pairs_checked",
                "credited_pairs",
                "cache_size",
                "bytes_scanned",
                "cold_restarts",
                "slow_checkpoint_hits",
                "slow_checkpoint_misses",
                "tier0_hits",
                "tier0_misses",
                "stream_drains",
                "stream_drained_bytes",
                "stream_copied_bytes",
                "stream_seam_carries",
                "edge_cache_hits",
                "edge_cache_misses",
                "decode_cycles",
                "check_cycles",
                "other_cycles",
                "check_latency",
                "fastpath_scan_cycles",
                "slowpath_decode_cycles",
                "slowpath_stitch_cycles",
                "slowpath_shards",
                "bytes_per_check",
                "frontier_lag",
                "last_frontier_lag",
                "spans",
                "events_recorded",
                "violations_total",
                "violations_dropped",
                "violations",
                "flight_records",
            ]
        );
        assert_eq!(
            keys(&CheckEvent::default().to_value()),
            [
                "sysno",
                "verdict",
                "cold_restart",
                "delta_bytes",
                "pairs_checked",
                "credited_pairs",
                "uncredited",
                "edge_cache_hits",
                "edge_cache_misses",
                "scan_cycles",
                "check_cycles",
                "slow_cycles",
                "other_cycles",
                "checkpoint_hit",
                "slow_shards",
                "slow_insns_decoded",
                "stitch_cycles",
                "tier0_hits",
                "tier0_misses",
                "streaming",
                "frontier_lag",
                "drained_bytes",
            ]
        );
    }

    #[test]
    fn spans_record_through_the_telemetry_handle() {
        let mut rec = check(CheckEvent { sysno: 2, ..Default::default() });
        rec.spans[PhaseSpan::Intercept.index()] = Some(30.0);
        rec.spans[PhaseSpan::EdgeProbe.index()] = Some(12.0);
        let t = EngineTelemetry::new(true);
        t.record_check(&rec);
        t.record_stream_drain(Some(64), 500.0, &DrainStats::default());
        let snap = t.telemetry_snapshot();
        assert_eq!(snap.spans.records, 3);
        assert!((snap.spans.check_cycles - 42.0).abs() < 1e-9);
        assert!((snap.spans.phase_cycles(PhaseSpan::StreamDrain) - 500.0).abs() < 1e-9);
        let spans: Vec<u64> = snap.spans.phases.iter().map(|p| p.spans).collect();
        assert_eq!(spans, [1, 0, 1, 0, 1, 0, 0, 0, 0]);
        assert_eq!(snap.stream_drained_bytes, 64);
        // Disabled telemetry records no spans.
        let off = EngineTelemetry::new(false);
        off.record_check(&rec);
        assert_eq!(off.telemetry_snapshot().spans.records, 0);
    }
}

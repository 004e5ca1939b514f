//! Engine telemetry: the lock-free replacement for `Mutex<EngineStats>`.
//!
//! [`EngineTelemetry`] aggregates every runtime statistic the engine emits —
//! sharded counters for verdict tallies, log-linear histograms for latency
//! distributions, a bounded event ring with one [`CheckEvent`] per endpoint
//! check, a bounded violation log, and the violation flight recorder. The
//! hot path records through one `enabled` branch; with telemetry disabled
//! every per-check record is a single predictable-not-taken branch. The old
//! [`EngineStats`](crate::engine::EngineStats) aggregate survives as a
//! snapshot assembled on demand ([`EngineTelemetry::snapshot`]).

use crate::engine::{EngineStats, ViolationRecord};
use fg_trace::ring::{EventRing, PodEvent, EVENT_WORDS};
use fg_trace::{
    CycleCounter, FlightRecord, FlightRecorder, Gauge, HealthReport, HealthSample, Histogram,
    HistogramSnapshot, PhaseSpan, PromText, ShardedU64, SpanProfiler, SpanSnapshot, Watchdog,
    WatchdogConfig,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    fn to_u64(self) -> u64 {
        match self {
            CheckVerdict::Insufficient => 0,
            CheckVerdict::FastClean => 1,
            CheckVerdict::FastMalicious => 2,
            CheckVerdict::SlowClean => 3,
            CheckVerdict::SlowAttack => 4,
        }
    }

    fn from_u64(v: u64) -> CheckVerdict {
        match v {
            1 => CheckVerdict::FastClean,
            2 => CheckVerdict::FastMalicious,
            3 => CheckVerdict::SlowClean,
            4 => CheckVerdict::SlowAttack,
            _ => CheckVerdict::Insufficient,
        }
    }

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
///
/// The event has grown across releases (12 words → 16 words with the
/// slow-path rework → 18 words with streaming); every field carries a
/// serde default so JSON captured by any older release keeps
/// deserialising. A back-compat test in `fg-bench` pins fixtures of each
/// historical shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckEvent {
    /// The intercepted syscall number ([`PMI_SYSNO`] for PMI checks).
    #[serde(default)]
    pub sysno: u64,
    /// The check's disposition.
    #[serde(default)]
    pub verdict: CheckVerdict,
    /// Whether the checkpointed scanner needed a cold PSB restart.
    #[serde(default)]
    pub cold_restart: bool,
    /// Trace bytes appended (and scanned) since the previous check.
    #[serde(default)]
    pub delta_bytes: u64,
    /// TIP pairs checked in the window.
    #[serde(default)]
    pub pairs_checked: u64,
    /// Checked pairs that were high-credit.
    #[serde(default)]
    pub credited_pairs: u64,
    /// Escalation reason: low-credit edges that forced the slow path
    /// (zero for non-escalated checks).
    #[serde(default)]
    pub uncredited: u64,
    /// Fast-path edge-cache hits during this check.
    #[serde(default)]
    pub edge_cache_hits: u64,
    /// Fast-path edge-cache misses during this check.
    #[serde(default)]
    pub edge_cache_misses: u64,
    /// Packet-scan cycles spent this check.
    #[serde(default)]
    pub scan_cycles: f64,
    /// ITC-CFG matching cycles spent this check.
    #[serde(default)]
    pub check_cycles: f64,
    /// Slow-path decode cycles (zero when not escalated).
    #[serde(default)]
    pub slow_cycles: f64,
    /// Interception-overhead cycles.
    #[serde(default)]
    pub other_cycles: f64,
    /// Whether the slow path resumed from its decode checkpoint (warm)
    /// instead of decoding the window cold.
    #[serde(default)]
    pub checkpoint_hit: bool,
    /// PSB shards the slow-path decode split into (zero when not
    /// escalated).
    #[serde(default)]
    pub slow_shards: u64,
    /// Instructions the slow-path decoders actually walked this check (the
    /// appended delta on warm checks; the whole window cold).
    #[serde(default)]
    pub slow_insns_decoded: u64,
    /// Sequential stitch/replay cycles spent by the slow path.
    #[serde(default)]
    pub stitch_cycles: f64,
    /// Tier-0 bitset probes that passed during this check.
    #[serde(default)]
    pub tier0_hits: u64,
    /// Tier-0 probes that failed (pre-edge-lookup violations).
    #[serde(default)]
    pub tier0_misses: u64,
    /// Whether the streaming consumer served this check (frontier compare +
    /// residue scan instead of an endpoint-time buffer consume).
    #[serde(default)]
    pub streaming: bool,
    /// Streaming mode: residue bytes the background consumer had NOT yet
    /// drained when this check arrived (the frontier lag — the bytes the
    /// check itself had to scan). Zero when streaming is off.
    #[serde(default)]
    pub frontier_lag: u64,
    /// Streaming mode: bytes drained by the background consumer (poll slots
    /// and PMI drains) since the previous check. Zero when streaming is off.
    #[serde(default)]
    pub drained_bytes: u64,
}

impl Default for CheckEvent {
    fn default() -> CheckEvent {
        CheckEvent {
            sysno: 0,
            verdict: CheckVerdict::Insufficient,
            cold_restart: false,
            delta_bytes: 0,
            pairs_checked: 0,
            credited_pairs: 0,
            uncredited: 0,
            edge_cache_hits: 0,
            edge_cache_misses: 0,
            scan_cycles: 0.0,
            check_cycles: 0.0,
            slow_cycles: 0.0,
            other_cycles: 0.0,
            checkpoint_hit: false,
            slow_shards: 0,
            slow_insns_decoded: 0,
            stitch_cycles: 0.0,
            tier0_hits: 0,
            tier0_misses: 0,
            streaming: false,
            frontier_lag: 0,
            drained_bytes: 0,
        }
    }
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

impl PodEvent for CheckEvent {
    fn encode(&self) -> [u64; EVENT_WORDS] {
        [
            self.sysno,
            self.verdict.to_u64()
                | u64::from(self.cold_restart) << 8
                | u64::from(self.checkpoint_hit) << 9
                | u64::from(self.streaming) << 10,
            self.delta_bytes,
            self.pairs_checked,
            self.credited_pairs,
            self.uncredited,
            self.edge_cache_hits,
            self.edge_cache_misses,
            self.scan_cycles.to_bits(),
            self.check_cycles.to_bits(),
            self.slow_cycles.to_bits(),
            self.other_cycles.to_bits(),
            self.slow_shards,
            self.slow_insns_decoded,
            self.stitch_cycles.to_bits(),
            // Per-check probe counts are bounded by the window's pair count,
            // so 32 bits each is ample.
            (self.tier0_hits & 0xffff_ffff) | (self.tier0_misses << 32),
            self.frontier_lag,
            self.drained_bytes,
        ]
    }

    fn decode(w: &[u64; EVENT_WORDS]) -> CheckEvent {
        CheckEvent {
            sysno: w[0],
            verdict: CheckVerdict::from_u64(w[1] & 0xff),
            cold_restart: w[1] & 0x100 != 0,
            checkpoint_hit: w[1] & 0x200 != 0,
            streaming: w[1] & 0x400 != 0,
            delta_bytes: w[2],
            pairs_checked: w[3],
            credited_pairs: w[4],
            uncredited: w[5],
            edge_cache_hits: w[6],
            edge_cache_misses: w[7],
            scan_cycles: f64::from_bits(w[8]),
            check_cycles: f64::from_bits(w[9]),
            slow_cycles: f64::from_bits(w[10]),
            other_cycles: f64::from_bits(w[11]),
            slow_shards: w[12],
            slow_insns_decoded: w[13],
            stitch_cycles: f64::from_bits(w[14]),
            tier0_hits: w[15] & 0xffff_ffff,
            tier0_misses: w[15] >> 32,
            frontier_lag: w[16],
            drained_bytes: w[17],
        }
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

/// All engine telemetry, shared between the engine (moved into the kernel)
/// and observers holding the handle from
/// [`FlowGuardEngine::stats_handle`](crate::FlowGuardEngine::stats_handle).
#[derive(Debug)]
pub struct EngineTelemetry {
    enabled: bool,
    checks: ShardedU64,
    fast_clean: ShardedU64,
    fast_malicious: ShardedU64,
    slow_invocations: ShardedU64,
    slow_attacks: ShardedU64,
    insufficient: ShardedU64,
    pairs_checked: ShardedU64,
    credited_pairs: ShardedU64,
    bytes_scanned: ShardedU64,
    cold_restarts: ShardedU64,
    slow_checkpoint_hits: ShardedU64,
    slow_checkpoint_misses: ShardedU64,
    tier0_hits: ShardedU64,
    tier0_misses: ShardedU64,
    stream_drains: ShardedU64,
    stream_drained_bytes: ShardedU64,
    /// Cumulative bytes the streaming consumer copied (seam carries plus
    /// wrap-recovery linearizations) — sampled from
    /// [`fg_ipt::DrainStats`]-style cumulative counters, last-write-wins.
    stream_copied_bytes: Gauge,
    /// Cumulative region-seam packet carries, sampled the same way.
    stream_seam_carries: Gauge,
    /// Fleet mode: poll-slot drains deferred onto the fleet scheduler's
    /// queue instead of running inline in the borrowed slot.
    sched_deferred_drains: ShardedU64,
    /// Fleet mode: jobs that found their queue full and were shed to
    /// synchronous inline execution (the backpressure policy — never drop).
    sched_shed_inline: ShardedU64,
    cache_size: Gauge,
    edge_cache_hits: Gauge,
    edge_cache_misses: Gauge,
    decode_cycles: CycleCounter,
    check_cycles: CycleCounter,
    other_cycles: CycleCounter,
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
    /// The streaming frontier lag observed by the most recent check
    /// (feeds the watchdog's lag-growth rule).
    last_frontier_lag: Gauge,
    /// 1 once a streaming-served check has been recorded (watchdog input).
    streaming_mode: Gauge,
    /// Per-phase cycle-attribution profiler (shared with the fast/slow
    /// path scratch state and the streaming consumer).
    spans: Arc<SpanProfiler>,
    /// Rolling-window health evaluation over the counters above.
    watchdog: Mutex<Watchdog>,
    events: EventRing<CheckEvent>,
    violations: Mutex<ViolationLog>,
    flight: FlightRecorder,
}

impl EngineTelemetry {
    /// Creates telemetry; with `enabled` false every hot-path record is a
    /// single branch and the rings/histograms stay empty (violations and
    /// flight records are still captured — they are rare and
    /// security-critical). Span profiling follows `enabled`.
    pub fn new(enabled: bool) -> EngineTelemetry {
        EngineTelemetry::with_spans(enabled, enabled)
    }

    /// Like [`EngineTelemetry::new`], but with span profiling controlled
    /// independently (`profile_spans` config knob); spans can only be on
    /// when telemetry itself is.
    pub fn with_spans(enabled: bool, profile_spans: bool) -> EngineTelemetry {
        EngineTelemetry {
            enabled,
            checks: ShardedU64::new(),
            fast_clean: ShardedU64::new(),
            fast_malicious: ShardedU64::new(),
            slow_invocations: ShardedU64::new(),
            slow_attacks: ShardedU64::new(),
            insufficient: ShardedU64::new(),
            pairs_checked: ShardedU64::new(),
            credited_pairs: ShardedU64::new(),
            bytes_scanned: ShardedU64::new(),
            cold_restarts: ShardedU64::new(),
            slow_checkpoint_hits: ShardedU64::new(),
            slow_checkpoint_misses: ShardedU64::new(),
            tier0_hits: ShardedU64::new(),
            tier0_misses: ShardedU64::new(),
            stream_drains: ShardedU64::new(),
            stream_drained_bytes: ShardedU64::new(),
            stream_copied_bytes: Gauge::new(),
            stream_seam_carries: Gauge::new(),
            sched_deferred_drains: ShardedU64::new(),
            sched_shed_inline: ShardedU64::new(),
            cache_size: Gauge::new(),
            edge_cache_hits: Gauge::new(),
            edge_cache_misses: Gauge::new(),
            decode_cycles: CycleCounter::new(),
            check_cycles: CycleCounter::new(),
            other_cycles: CycleCounter::new(),
            check_latency: Histogram::new(),
            fastpath_scan_cycles: Histogram::new(),
            slowpath_decode_cycles: Histogram::new(),
            slowpath_stitch_cycles: Histogram::new(),
            slowpath_shards: Histogram::new(),
            bytes_per_check: Histogram::new(),
            frontier_lag: Histogram::new(),
            last_frontier_lag: Gauge::new(),
            streaming_mode: Gauge::new(),
            spans: Arc::new(SpanProfiler::new(enabled && profile_spans)),
            watchdog: Mutex::new(Watchdog::default()),
            events: EventRing::new(EVENT_RING_CAPACITY),
            violations: Mutex::new(ViolationLog::default()),
            flight: FlightRecorder::new(FLIGHT_CAPACITY, FLIGHT_WINDOW_BYTES),
        }
    }

    /// Whether hot-path recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one completed endpoint check: counters, histograms, and the
    /// event ring, in a single call so the disabled mode costs one branch.
    #[inline]
    pub fn record_check(&self, ev: &CheckEvent) {
        if !self.enabled {
            return;
        }
        self.checks.incr();
        match ev.verdict {
            CheckVerdict::Insufficient => self.insufficient.incr(),
            CheckVerdict::FastClean => self.fast_clean.incr(),
            CheckVerdict::FastMalicious => self.fast_malicious.incr(),
            CheckVerdict::SlowClean => self.slow_invocations.incr(),
            CheckVerdict::SlowAttack => {
                self.slow_invocations.incr();
                self.slow_attacks.incr();
            }
        }
        self.pairs_checked.add(ev.pairs_checked);
        self.credited_pairs.add(ev.credited_pairs);
        self.tier0_hits.add(ev.tier0_hits);
        self.tier0_misses.add(ev.tier0_misses);
        self.bytes_scanned.add(ev.delta_bytes);
        if ev.cold_restart {
            self.cold_restarts.incr();
        }
        self.decode_cycles.add(ev.scan_cycles + ev.slow_cycles);
        self.check_cycles.add(ev.check_cycles);
        self.other_cycles.add(ev.other_cycles);
        self.check_latency.record_f64(ev.total_cycles());
        self.fastpath_scan_cycles.record_f64(ev.scan_cycles);
        if matches!(ev.verdict, CheckVerdict::SlowClean | CheckVerdict::SlowAttack) {
            self.slowpath_decode_cycles.record_f64(ev.slow_cycles);
            self.slowpath_stitch_cycles.record_f64(ev.stitch_cycles);
            self.slowpath_shards.record(ev.slow_shards);
            if ev.checkpoint_hit {
                self.slow_checkpoint_hits.incr();
            } else {
                self.slow_checkpoint_misses.incr();
            }
        }
        self.bytes_per_check.record(ev.delta_bytes);
        if ev.streaming {
            self.frontier_lag.record(ev.frontier_lag);
            self.last_frontier_lag.set(ev.frontier_lag);
            self.streaming_mode.set(1);
        }
        self.events.push(ev);
    }

    /// Records one background drain by the streaming consumer (trace-poll
    /// slots and region-fill PMIs — not check-time residue scans, which are
    /// accounted as `delta_bytes` on their [`CheckEvent`]).
    #[inline]
    pub fn record_stream_drain(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.stream_drains.incr();
        self.stream_drained_bytes.add(bytes);
    }

    /// Samples the streaming consumer's cumulative copy counters (bytes it
    /// had to copy — seam carries plus wrap recoveries — and the carry
    /// count). Last-write-wins, like the cache gauges.
    #[inline]
    pub fn sample_stream_copies(&self, copied_bytes: u64, seam_carries: u64) {
        if !self.enabled {
            return;
        }
        self.stream_copied_bytes.set(copied_bytes);
        self.stream_seam_carries.set(seam_carries);
    }

    /// Records one poll-slot drain deferred onto the fleet scheduler's
    /// queue (fleet mode only).
    #[inline]
    pub fn record_sched_deferred(&self) {
        if self.enabled {
            self.sched_deferred_drains.incr();
        }
    }

    /// Records one job shed to synchronous inline execution because its
    /// bounded queue was full (fleet backpressure — the job still ran).
    #[inline]
    pub fn record_sched_shed(&self) {
        if self.enabled {
            self.sched_shed_inline.incr();
        }
    }

    /// The per-check total-cycles histogram — exposed so fleet rollups can
    /// bucket-merge it across processes via [`Histogram::merge_from`].
    pub fn check_latency_hist(&self) -> &Histogram {
        &self.check_latency
    }

    /// The per-check trace-bytes histogram (fleet rollups).
    pub fn bytes_per_check_hist(&self) -> &Histogram {
        &self.bytes_per_check
    }

    /// The streaming frontier-lag histogram (fleet rollups).
    pub fn frontier_lag_hist(&self) -> &Histogram {
        &self.frontier_lag
    }

    /// Samples the caches' current sizes (gauges, last-write-wins).
    #[inline]
    pub fn sample_caches(&self, cache_size: u64, edge_hits: u64, edge_misses: u64) {
        if !self.enabled {
            return;
        }
        self.cache_size.set(cache_size);
        self.edge_cache_hits.set(edge_hits);
        self.edge_cache_misses.set(edge_misses);
    }

    /// The span profiler (per-phase cycle attribution).
    pub fn spans(&self) -> &SpanProfiler {
        &self.spans
    }

    /// A shareable handle to the span profiler, for wiring into the
    /// fast/slow-path scratch state and the streaming consumer.
    pub fn spans_handle(&self) -> Arc<SpanProfiler> {
        Arc::clone(&self.spans)
    }

    /// Replaces the watchdog's thresholds (the sample window is kept).
    pub fn configure_watchdog(&self, cfg: WatchdogConfig) {
        self.watchdog.lock().set_config(cfg);
    }

    /// The current vital signs as a cumulative [`HealthSample`].
    pub fn health_sample(&self) -> HealthSample {
        HealthSample {
            checks: self.checks.get(),
            slow_invocations: self.slow_invocations.get(),
            edge_cache_hits: self.edge_cache_hits.get(),
            edge_cache_misses: self.edge_cache_misses.get(),
            checkpoint_hits: self.slow_checkpoint_hits.get(),
            checkpoint_misses: self.slow_checkpoint_misses.get(),
            stream_drains: self.stream_drains.get(),
            frontier_lag: self.last_frontier_lag.get(),
            streaming: self.streaming_mode.get() != 0,
        }
    }

    /// Pushes the current vital signs into the watchdog's rolling window.
    /// Call once per observation interval (the protected-process runner
    /// ticks at the end of every run slice).
    pub fn health_tick(&self) {
        let sample = self.health_sample();
        self.watchdog.lock().push(sample);
    }

    /// Evaluates the watchdog rules over the ticks accumulated so far.
    pub fn health_report(&self) -> HealthReport {
        self.watchdog.lock().report()
    }

    /// Appends to the bounded violation log (recorded even when disabled:
    /// violations are rare and security-critical).
    pub fn record_violation(&self, rec: ViolationRecord) {
        self.violations.lock().push(rec);
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
        self.flight.capture(endpoint, detail, fast_path, edge, topa_window, packets)
    }

    /// The retained flight records.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.flight.records()
    }

    /// The most recent `n` check events, oldest first, with absolute
    /// indices.
    pub fn recent_events(&self, n: usize) -> Vec<(u64, CheckEvent)> {
        self.events.last(n)
    }

    /// Total endpoint checks recorded.
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }

    /// Total events pushed into the ring (including overwritten ones).
    pub fn events_recorded(&self) -> u64 {
        self.events.pushed()
    }

    /// Total violations recorded (including dropped log entries).
    pub fn violations_total(&self) -> u64 {
        self.violations.lock().total()
    }

    /// Assembles the compatibility [`EngineStats`] aggregate from the
    /// shards.
    pub fn snapshot(&self) -> EngineStats {
        let v = self.violations.lock();
        EngineStats {
            checks: self.checks.get(),
            fast_clean: self.fast_clean.get(),
            fast_malicious: self.fast_malicious.get(),
            slow_invocations: self.slow_invocations.get(),
            slow_attacks: self.slow_attacks.get(),
            insufficient: self.insufficient.get(),
            pairs_checked: self.pairs_checked.get(),
            credited_pairs: self.credited_pairs.get(),
            cache_size: self.cache_size.get() as usize,
            bytes_scanned: self.bytes_scanned.get(),
            cold_restarts: self.cold_restarts.get(),
            edge_cache_hits: self.edge_cache_hits.get(),
            edge_cache_misses: self.edge_cache_misses.get(),
            tier0_hits: self.tier0_hits.get(),
            tier0_misses: self.tier0_misses.get(),
            stream_drains: self.stream_drains.get(),
            stream_drained_bytes: self.stream_drained_bytes.get(),
            decode_cycles: self.decode_cycles.get(),
            check_cycles: self.check_cycles.get(),
            other_cycles: self.other_cycles.get(),
            violations_dropped: v.dropped,
            violations: v.retained(),
        }
    }

    /// The full serialisable telemetry snapshot (counters, distributions,
    /// recent events, violations, flight records) — the JSON the CLI's
    /// `stats` subcommand and fg-bench's distribution columns consume.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let v = self.violations.lock();
        TelemetrySnapshot {
            enabled: self.enabled,
            checks: self.checks.get(),
            fast_clean: self.fast_clean.get(),
            fast_malicious: self.fast_malicious.get(),
            slow_invocations: self.slow_invocations.get(),
            slow_attacks: self.slow_attacks.get(),
            insufficient: self.insufficient.get(),
            pairs_checked: self.pairs_checked.get(),
            credited_pairs: self.credited_pairs.get(),
            cache_size: self.cache_size.get(),
            bytes_scanned: self.bytes_scanned.get(),
            cold_restarts: self.cold_restarts.get(),
            slow_checkpoint_hits: self.slow_checkpoint_hits.get(),
            slow_checkpoint_misses: self.slow_checkpoint_misses.get(),
            tier0_hits: self.tier0_hits.get(),
            tier0_misses: self.tier0_misses.get(),
            stream_drains: self.stream_drains.get(),
            stream_drained_bytes: self.stream_drained_bytes.get(),
            stream_copied_bytes: self.stream_copied_bytes.get(),
            stream_seam_carries: self.stream_seam_carries.get(),
            sched_deferred_drains: self.sched_deferred_drains.get(),
            sched_shed_inline: self.sched_shed_inline.get(),
            edge_cache_hits: self.edge_cache_hits.get(),
            edge_cache_misses: self.edge_cache_misses.get(),
            decode_cycles: self.decode_cycles.get(),
            check_cycles: self.check_cycles.get(),
            other_cycles: self.other_cycles.get(),
            check_latency: self.check_latency.snapshot(),
            fastpath_scan_cycles: self.fastpath_scan_cycles.snapshot(),
            slowpath_decode_cycles: self.slowpath_decode_cycles.snapshot(),
            slowpath_stitch_cycles: self.slowpath_stitch_cycles.snapshot(),
            slowpath_shards: self.slowpath_shards.snapshot(),
            bytes_per_check: self.bytes_per_check.snapshot(),
            frontier_lag: self.frontier_lag.snapshot(),
            last_frontier_lag: self.last_frontier_lag.get(),
            spans: self.spans.snapshot(),
            health: self.health_report(),
            events_recorded: self.events.pushed(),
            violations_total: v.total(),
            violations_dropped: v.dropped,
            violations: v
                .retained()
                .into_iter()
                .map(|r| ViolationSummary {
                    endpoint: r.endpoint.to_string(),
                    detail: r.detail,
                    fast_path: r.fast_path,
                })
                .collect(),
            flight_records: self.flight.records(),
        }
    }

    /// Renders the Prometheus/OpenMetrics text-format exposition with
    /// *mergeable* cumulative-bucket histograms — the fleet-rollup format.
    pub fn prometheus_text(&self) -> String {
        self.prometheus_text_opts(false)
    }

    /// Like [`EngineTelemetry::prometheus_text`], but with
    /// `legacy_summaries` the latency distributions render as the old
    /// quantile `summary` families (which cannot be aggregated across
    /// processes) instead of cumulative histogram buckets.
    pub fn prometheus_text_opts(&self, legacy_summaries: bool) -> String {
        let mut p = PromText::new();
        p.counter("fg_checks_total", "Endpoint checks performed", self.checks.get())
            .counter("fg_fast_clean_total", "Fast-path clean outcomes", self.fast_clean.get())
            .counter(
                "fg_fast_malicious_total",
                "Fast-path malicious detections",
                self.fast_malicious.get(),
            )
            .counter(
                "fg_slow_invocations_total",
                "Windows escalated to the slow path",
                self.slow_invocations.get(),
            )
            .counter(
                "fg_slow_attacks_total",
                "Slow-path attack detections",
                self.slow_attacks.get(),
            )
            .counter(
                "fg_insufficient_total",
                "Checks skipped for lack of trace",
                self.insufficient.get(),
            )
            .counter("fg_pairs_checked_total", "TIP pairs checked", self.pairs_checked.get())
            .counter("fg_credited_pairs_total", "High-credit pairs", self.credited_pairs.get())
            .counter("fg_bytes_scanned_total", "Trace bytes scanned", self.bytes_scanned.get())
            .counter("fg_cold_restarts_total", "Cold PSB re-syncs", self.cold_restarts.get())
            .counter(
                "fg_slow_checkpoint_hits_total",
                "Slow-path checks resumed from the decode checkpoint",
                self.slow_checkpoint_hits.get(),
            )
            .counter(
                "fg_slow_checkpoint_misses_total",
                "Slow-path checks decoded cold",
                self.slow_checkpoint_misses.get(),
            )
            .counter(
                "fg_tier0_hits_total",
                "Tier-0 bitset probes that passed",
                self.tier0_hits.get(),
            )
            .counter(
                "fg_tier0_misses_total",
                "Tier-0 bitset probes that failed (pre-edge violations)",
                self.tier0_misses.get(),
            )
            .counter(
                "fg_stream_drains_total",
                "Background drains by the streaming consumer",
                self.stream_drains.get(),
            )
            .counter(
                "fg_stream_drained_bytes_total",
                "Trace bytes drained in the background by the streaming consumer",
                self.stream_drained_bytes.get(),
            )
            .counter(
                "fg_stream_copied_bytes_total",
                "Bytes the streaming consumer copied (seam carries + wrap recoveries)",
                self.stream_copied_bytes.get(),
            )
            .counter(
                "fg_stream_seam_carries_total",
                "Packet fragments carried across ToPA region seams",
                self.stream_seam_carries.get(),
            )
            .counter(
                "fg_edge_cache_hits_total",
                "Fast-path edge-cache hits",
                self.edge_cache_hits.get(),
            )
            .counter(
                "fg_edge_cache_misses_total",
                "Fast-path edge-cache misses",
                self.edge_cache_misses.get(),
            )
            .counter("fg_violations_total", "CFI violations", self.violations_total())
            .counter(
                "fg_span_records_total",
                "Spans recorded by the cycle-attribution profiler",
                self.spans.records(),
            )
            .gauge(
                "fg_cache_entries",
                "Slow-path result cache entries",
                self.cache_size.get() as f64,
            )
            .gauge("fg_decode_cycles", "Cycles spent decoding", self.decode_cycles.get())
            .gauge("fg_check_cycles", "Cycles spent matching", self.check_cycles.get())
            .gauge("fg_other_cycles", "Interception-overhead cycles", self.other_cycles.get());

        // Per-phase cycle attribution: one counter family labelled by
        // pipeline phase, the foundation for fleet rollups.
        let span_snap = self.spans.snapshot();
        let cycle_series: Vec<(&str, f64)> =
            PhaseSpan::ALL.iter().map(|&ph| (ph.label(), self.spans.phase_cycles(ph))).collect();
        let span_series: Vec<(&str, f64)> = PhaseSpan::ALL
            .iter()
            .map(|&ph| (ph.label(), self.spans.phase_spans(ph) as f64))
            .collect();
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
            span_snap.overhead.mean_ns_per_record,
        )
        .gauge(
            "fg_span_overhead_estimated_ns",
            "Profiler self-overhead extrapolated over all records",
            span_snap.overhead.estimated_total_ns,
        )
        .gauge(
            "fg_health_status",
            "Watchdog verdict: 0 healthy, 1 degraded, 2 critical",
            self.health_report().status.to_u64() as f64,
        );

        let hists: [(&str, &str, &Histogram); 7] = [
            ("fg_check_latency_cycles", "Per-check total cycles", &self.check_latency),
            ("fg_fastpath_scan_cycles", "Per-check packet-scan cycles", &self.fastpath_scan_cycles),
            (
                "fg_slowpath_decode_cycles",
                "Per-escalation slow-path cycles",
                &self.slowpath_decode_cycles,
            ),
            (
                "fg_slowpath_stitch_cycles",
                "Per-escalation sequential stitch/replay cycles",
                &self.slowpath_stitch_cycles,
            ),
            ("fg_slowpath_shards", "PSB shards per slow-path decode", &self.slowpath_shards),
            ("fg_check_bytes", "Trace bytes consumed per check", &self.bytes_per_check),
            (
                "fg_frontier_lag_bytes",
                "Residue bytes not yet drained at check entry (streaming)",
                &self.frontier_lag,
            ),
        ];
        for (name, help, h) in hists {
            if legacy_summaries {
                p.summary(name, help, &h.snapshot());
            } else {
                p.histogram(name, help, &h.cumulative_buckets(), h.sum(), h.count());
            }
        }
        p.finish()
    }
}

/// One violation in serialisable form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationSummary {
    /// The endpoint syscall name.
    pub endpoint: String,
    /// Human-readable description.
    pub detail: String,
    /// Fast-path (true) or slow-path (false) detection.
    pub fast_path: bool,
}

/// The full serialisable telemetry export.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// High-credit pairs.
    pub credited_pairs: u64,
    /// Slow-path result cache entries.
    pub cache_size: u64,
    /// Trace bytes scanned.
    pub bytes_scanned: u64,
    /// Cold PSB re-synchronisations.
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
    /// Background drains performed by the streaming consumer.
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
    /// Fleet mode: poll-slot drains deferred onto the fleet scheduler's
    /// queue (zero outside a fleet).
    #[serde(default)]
    pub sched_deferred_drains: u64,
    /// Fleet mode: jobs shed to synchronous inline execution under
    /// backpressure (zero outside a fleet; shed jobs still ran — nothing
    /// is ever dropped).
    #[serde(default)]
    pub sched_shed_inline: u64,
    /// Edge-cache hits (cumulative).
    pub edge_cache_hits: u64,
    /// Edge-cache misses (cumulative).
    pub edge_cache_misses: u64,
    /// Cycles spent decoding.
    pub decode_cycles: f64,
    /// Cycles spent matching.
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
    /// Per-phase cycle attribution (empty when span profiling is off).
    #[serde(default)]
    pub spans: SpanSnapshot,
    /// Watchdog verdict over the health ticks accumulated so far.
    #[serde(default)]
    pub health: HealthReport,
    /// Events ever pushed to the ring (≥ retained).
    pub events_recorded: u64,
    /// Violations recorded in total.
    pub violations_total: u64,
    /// Violations whose log entries were dropped by the bound.
    pub violations_dropped: u64,
    /// Retained violation records (first/last windows).
    pub violations: Vec<ViolationSummary>,
    /// Forensic flight records.
    pub flight_records: Vec<FlightRecord>,
}

impl TelemetrySnapshot {
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

    #[test]
    fn check_event_pod_roundtrip() {
        let ev = CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::SlowAttack,
            cold_restart: true,
            delta_bytes: 321,
            pairs_checked: 30,
            credited_pairs: 29,
            uncredited: 1,
            edge_cache_hits: 25,
            edge_cache_misses: 5,
            scan_cycles: 123.5,
            check_cycles: 60.25,
            slow_cycles: 900.0,
            other_cycles: 200.0,
            checkpoint_hit: true,
            slow_shards: 5,
            slow_insns_decoded: 777,
            stitch_cycles: 44.0,
            tier0_hits: 29,
            tier0_misses: 1,
            streaming: true,
            frontier_lag: 17,
            drained_bytes: 4096,
        };
        assert_eq!(CheckEvent::decode(&ev.encode()), ev);
    }

    #[test]
    fn disabled_mode_records_nothing_hot_but_keeps_violations() {
        let t = EngineTelemetry::new(false);
        t.record_check(&CheckEvent { sysno: 2, ..Default::default() });
        t.sample_caches(10, 5, 5);
        assert_eq!(t.checks(), 0);
        assert_eq!(t.recent_events(10).len(), 0);
        let s = t.snapshot();
        assert_eq!(s.checks, 0);
        assert_eq!(s.cache_size, 0);
        t.record_violation(ViolationRecord {
            endpoint: "write",
            detail: "bad edge".into(),
            fast_path: true,
        });
        assert_eq!(t.violations_total(), 1, "violations recorded even when disabled");
    }

    #[test]
    fn snapshot_matches_recorded_checks() {
        let t = EngineTelemetry::new(true);
        t.record_check(&CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::FastClean,
            delta_bytes: 100,
            pairs_checked: 30,
            credited_pairs: 30,
            scan_cycles: 50.0,
            check_cycles: 20.0,
            other_cycles: 200.0,
            ..Default::default()
        });
        t.record_check(&CheckEvent {
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
        });
        let s = t.snapshot();
        assert_eq!(s.checks, 2);
        assert_eq!(s.fast_clean, 1);
        assert_eq!(s.slow_invocations, 1);
        assert_eq!(s.bytes_scanned, 160);
        assert_eq!(s.pairs_checked, 60);
        assert!((s.decode_cycles - 1080.0).abs() < 1e-9);
        assert!((s.check_cycles - 40.0).abs() < 1e-9);
        let ts = t.telemetry_snapshot();
        assert_eq!(ts.check_latency.count, 2);
        assert_eq!(ts.slowpath_decode_cycles.count, 1);
        assert_eq!(ts.events_recorded, 2);
        let events = t.recent_events(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].1.verdict, CheckVerdict::SlowClean);
    }

    #[test]
    fn violation_log_keeps_first_and_last() {
        let t = EngineTelemetry::new(true);
        for i in 0..(2 * VIOLATION_KEEP as u64 + 10) {
            t.record_violation(ViolationRecord {
                endpoint: "write",
                detail: format!("v{i}"),
                fast_path: true,
            });
        }
        let s = t.snapshot();
        assert_eq!(s.violations.len(), 2 * VIOLATION_KEEP);
        assert_eq!(s.violations_dropped, 10);
        assert_eq!(t.violations_total(), 2 * VIOLATION_KEEP as u64 + 10);
        assert_eq!(s.violations[0].detail, "v0");
        assert_eq!(s.violations.last().unwrap().detail, format!("v{}", 2 * VIOLATION_KEEP + 9));
    }

    #[test]
    fn prometheus_dump_contains_required_series() {
        let t = EngineTelemetry::new(true);
        t.record_check(&CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::FastClean,
            scan_cycles: 100.0,
            ..Default::default()
        });
        let text = t.prometheus_text();
        for series in [
            "fg_checks_total",
            "fg_violations_total",
            // Latency distributions are mergeable cumulative histograms.
            "# TYPE fg_check_latency_cycles histogram",
            "fg_check_latency_cycles_bucket{le=\"+Inf\"} 1",
            "fg_check_latency_cycles_sum",
            "fg_check_bytes_count",
            // Per-phase attribution and the watchdog verdict.
            "fg_phase_cycles_total{phase=\"fast_scan\"}",
            "fg_phase_spans_total{phase=\"verdict\"}",
            "fg_health_status 0",
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
    fn prometheus_legacy_summaries_flag_restores_quantiles() {
        let t = EngineTelemetry::new(true);
        t.record_check(&CheckEvent {
            sysno: 2,
            verdict: CheckVerdict::FastClean,
            ..Default::default()
        });
        let text = t.prometheus_text_opts(true);
        assert!(text.contains("fg_check_latency_cycles{quantile=\"0.99\"}"));
        assert!(text.contains("# TYPE fg_check_latency_cycles summary"));
        assert!(!text.contains("fg_check_latency_cycles_bucket"));
        let errs = fg_trace::export::lint(&text);
        assert!(errs.is_empty(), "legacy exposition still lints clean: {errs:?}");
    }

    #[test]
    fn telemetry_snapshot_round_trips_json() {
        let t = EngineTelemetry::new(true);
        t.record_check(&CheckEvent { sysno: 2, ..Default::default() });
        let json = serde_json::to_string(&t.telemetry_snapshot()).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checks, 1);
        // Pre-observability snapshots (no spans/health keys) still parse.
        // The vendored JSON layer has no mutable value tree, so excise the
        // two keys textually by walking their balanced-brace object bodies.
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
        let stripped = drop_key(&drop_key(&json, "spans"), "health");
        let old: TelemetrySnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.checks, 1);
        assert_eq!(old.spans, fg_trace::SpanSnapshot::default());
    }

    #[test]
    fn health_ticks_feed_the_watchdog() {
        let t = EngineTelemetry::new(true);
        t.health_tick();
        for _ in 0..100 {
            t.record_check(&CheckEvent {
                sysno: 2,
                verdict: CheckVerdict::SlowClean,
                ..Default::default()
            });
        }
        t.health_tick();
        let report = t.health_report();
        assert_eq!(report.samples, 2);
        assert_eq!(report.window_checks, 100);
        assert_eq!(report.status, fg_trace::HealthStatus::Critical, "100% escalation rate");
        assert!(report.findings.iter().any(|f| f.rule == "escalation_rate"));
    }

    #[test]
    fn spans_record_through_the_telemetry_handle() {
        let t = EngineTelemetry::new(true);
        t.spans().record(PhaseSpan::Intercept, 30.0, 0);
        {
            let mut g = t.spans().enter(PhaseSpan::EdgeProbe);
            g.add_cycles(12.0);
        }
        let snap = t.telemetry_snapshot();
        assert_eq!(snap.spans.records, 2);
        assert!((snap.spans.check_cycles - 42.0).abs() < 1e-9);
        // Disabled telemetry wires a disabled profiler.
        let off = EngineTelemetry::new(false);
        off.spans().record(PhaseSpan::Intercept, 30.0, 0);
        assert_eq!(off.spans().records(), 0);
    }
}

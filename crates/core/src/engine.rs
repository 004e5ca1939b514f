//! The FlowGuard runtime engine: the "kernel module" of §5.
//!
//! Installed into the simulated kernel as a [`SyscallInterceptor`], the
//! engine reads the protected process's ToPA buffer at each sensitive
//! syscall, runs the fast path, escalates suspicious windows to the slow
//! path (the "upcall to the waiting user-level process"), caches negative
//! slow-path results, and kills the process on violation.
//!
//! Statistics flow through the lock-free [`EngineTelemetry`] aggregate (one
//! [`CheckEvent`](crate::telemetry::CheckEvent) per endpoint check); the
//! [`EngineStats`] struct survives as its on-demand snapshot form.

use crate::config::FlowGuardConfig;
use crate::fastpath::{self, CheckScratch, FastVerdict, Violation};
use crate::slowpath::{self, SlowVerdict, SlowViolation};
use crate::telemetry::{
    render_packets, CheckEvent, CheckVerdict, EngineTelemetry, FLIGHT_WINDOW_BYTES, PMI_SYSNO,
};
use fg_cfg::{EdgeIdx, EntryBitset, ItcCfg, OCfg};
use fg_cpu::cost::CostModel;
use fg_cpu::machine::SyscallCtx;
use fg_ipt::topa::Topa;
use fg_ipt::StreamConsumer;
use fg_isa::image::Image;
use fg_kernel::{InterceptVerdict, SyscallInterceptor, Sysno, SIGKILL};
use fg_trace::PhaseSpan;
use std::collections::HashSet;
use std::sync::Arc;

/// A recorded violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRecord {
    /// The endpoint syscall at which the violation was caught.
    pub endpoint: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Whether the fast path (true) or slow path (false) detected it.
    pub fast_path: bool,
}

/// Aggregated engine statistics — the snapshot form of [`EngineTelemetry`]
/// (obtain one via [`EngineTelemetry::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
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
    /// TIP pairs checked in total.
    pub pairs_checked: u64,
    /// Checked pairs that were high-credit (directly or via the cache).
    pub credited_pairs: u64,
    /// Current slow-path result cache size.
    pub cache_size: usize,
    /// Total trace bytes actually scanned across all checks. This grows by
    /// the bytes appended since the previous drain (at most one window) per
    /// check, not by a whole rescanned tail window.
    pub bytes_scanned: u64,
    /// Checkpoint losses: the ToPA wrapped past the scanner's position and
    /// a cold PSB re-synchronisation was needed.
    pub cold_restarts: u64,
    /// Background drains performed by the streaming consumer (trace-poll
    /// slots and region-fill PMIs; zero when streaming is off).
    pub stream_drains: u64,
    /// Trace bytes drained in the background by the streaming consumer.
    pub stream_drained_bytes: u64,
    /// Fast-path edge-cache hits (direct-mapped `(from, to)` cache).
    pub edge_cache_hits: u64,
    /// Fast-path edge-cache misses.
    pub edge_cache_misses: u64,
    /// Tier-0 bitset probes that passed and fell through to the edge check.
    pub tier0_hits: u64,
    /// Tier-0 probes that failed (violations caught before any edge
    /// lookup).
    pub tier0_misses: u64,
    /// Cycles spent decoding (packet scans + instruction-flow decodes).
    pub decode_cycles: f64,
    /// Cycles spent matching against the ITC-CFG.
    pub check_cycles: f64,
    /// Interception overhead cycles.
    pub other_cycles: f64,
    /// Violations whose records were dropped by the bounded log (the log
    /// keeps the first and last windows verbatim).
    pub violations_dropped: u64,
    /// Retained violation records.
    pub violations: Vec<ViolationRecord>,
}

impl EngineStats {
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
}

/// The runtime protection engine.
pub struct FlowGuardEngine {
    image: Image,
    ocfg: Arc<OCfg>,
    itc: ItcCfg,
    cfg: FlowGuardConfig,
    cost: CostModel,
    cr3: u64,
    cache: HashSet<EdgeIdx>,
    /// The one trace consumer. Every check drains the residue written
    /// since the previous drain (at most one window); with
    /// [`FlowGuardConfig::streaming`] on, trace-poll slots and region-fill
    /// PMIs drain in the background too, so checks find only a small
    /// residue.
    stream: StreamConsumer,
    /// `stream.stats().drained_bytes` at the previous check — the baseline
    /// for each [`CheckEvent::drained_bytes`] delta.
    drained_at_last_check: u64,
    scratch: CheckScratch,
    slow_scratch: slowpath::SlowScratch,
    stats: Arc<EngineTelemetry>,
    /// Tier-0 entry-point bitset, probed ahead of the ITC edge lookup when
    /// the deployment ships one.
    tier0: Option<EntryBitset>,
}

impl std::fmt::Debug for FlowGuardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowGuardEngine")
            .field("cr3", &self.cr3)
            .field("itc_nodes", &self.itc.node_count())
            .field("cache", &self.cache.len())
            .finish()
    }
}

impl FlowGuardEngine {
    /// Creates an engine protecting the process with page table `cr3`.
    pub fn new(
        image: Image,
        ocfg: Arc<OCfg>,
        itc: ItcCfg,
        cfg: FlowGuardConfig,
        cr3: u64,
    ) -> FlowGuardEngine {
        cfg.validate();
        let cost = CostModel::calibrated();
        let stats = Arc::new(EngineTelemetry::with_spans(
            cfg.telemetry,
            cfg.telemetry && cfg.profile_spans,
        ));
        let spans = stats.spans_handle();
        let mut scratch = CheckScratch::new(&image);
        scratch.set_profiler(Arc::clone(&spans));
        let mut slow_scratch = slowpath::SlowScratch::new();
        slow_scratch.set_profiler(Arc::clone(&spans));
        let mut stream = StreamConsumer::new();
        stream.set_profiler(spans, cost.packet_scan_byte_cycles);
        FlowGuardEngine {
            scratch,
            stats,
            image,
            ocfg,
            itc,
            cfg,
            cost,
            cr3,
            cache: HashSet::new(),
            stream,
            drained_at_last_check: 0,
            slow_scratch,
            tier0: None,
        }
    }

    /// Overrides the cost model (hardware-extension ablations, §7.2.4).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
        // The consumer carries its own per-byte span cost — re-wire it so
        // drains recorded after the override use the new model, matching
        // `ev.scan_cycles` accounting.
        self.stream.set_profiler(self.stats.spans_handle(), cost.packet_scan_byte_cycles);
    }

    /// Installs the deployment's tier-0 entry-point bitset; `None` turns the
    /// probe off.
    pub fn set_tier0(&mut self, bits: Option<EntryBitset>) {
        self.tier0 = bits;
    }

    /// A shared handle to the telemetry, usable after the engine is moved
    /// into the kernel.
    pub fn stats_handle(&self) -> Arc<EngineTelemetry> {
        Arc::clone(&self.stats)
    }

    /// Records a violation into the bounded log and captures a flight
    /// record with the offending ToPA window and its decoded packet run.
    fn record_violation(
        &self,
        endpoint: &'static str,
        detail: String,
        fast_path: bool,
        edge: Option<(u64, u64)>,
        bytes: &[u8],
    ) {
        let window = tail_window(bytes, FLIGHT_WINDOW_BYTES);
        let packets = render_packets(window, 64);
        self.stats.capture_flight(endpoint, &detail, fast_path, edge, window, packets);
        self.stats.record_violation(ViolationRecord { endpoint, detail, fast_path });
    }
}

/// The violating `(from, to)` edge of a fast-path verdict, when one was
/// isolated.
fn fast_violation_edge(v: &Violation) -> Option<(u64, u64)> {
    match *v {
        Violation::NoEdge { from, to } => Some((from, to)),
        Violation::UnknownTarget { from, ip } => Some((from, ip)),
    }
}

/// The violating `(from, went)` edge of a slow-path verdict.
fn slow_violation_edge(v: &SlowViolation) -> Option<(u64, u64)> {
    match *v {
        SlowViolation::ForwardEdge { from, to } | SlowViolation::ReturnOffCfg { from, to } => {
            Some((from, to))
        }
        SlowViolation::ReturnEdge { from, went, .. } => Some((from, went)),
        _ => None,
    }
}

impl SyscallInterceptor for FlowGuardEngine {
    fn protects(&self, cr3: u64) -> bool {
        cr3 == self.cr3
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.cfg.endpoints.contains(nr)
    }

    fn check(&mut self, nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        self.flow_check(nr.name(), nr as u64, ctx, false)
    }

    fn on_pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        // A region filled: a large chunk of trace is ready for the
        // streaming consumer.
        if let Some(ipt) = ctx.trace.as_ipt() {
            self.background_drain(ipt.topa());
        }
        if !self.cfg.pmi_endpoints {
            return InterceptVerdict::Allow;
        }
        // "Triggering upon PMI and checking all of the packets in the
        // interrupted region … ensures all of the execution flow of the
        // protected process being checked" (§5.2/§7.1.2) — the full-buffer
        // variant of the flow check.
        self.flow_check("pmi", PMI_SYSNO, ctx, true)
    }

    fn on_trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        if !self.cfg.streaming {
            return;
        }
        // Drain inline in the poll slot — residues this small are cheaper
        // to consume than to ship to a worker, and a check right after the
        // slot then finds only the bytes written since.
        if let Some(ipt) = ctx.trace.as_ipt() {
            self.background_drain(ipt.topa());
        }
    }
}

impl FlowGuardEngine {
    /// One background drain of the whole ToPA residue (trace-poll slots
    /// and region-fill PMIs). Drain cycles are not charged to the process
    /// (`ctx.extra_cycles`): the consumer runs concurrently with execution
    /// on its own slice of CPU — that concurrency is the point of the
    /// streaming pipeline.
    fn background_drain(&mut self, topa: &Topa) {
        let total = topa.total_written();
        if !self.cfg.streaming || self.stream.residue(total) == 0 {
            return;
        }
        // Zero-copy drain: the consumer reads the ToPA's regions in place —
        // only ≤15-byte packet fragments straddling region seams get copied
        // (into the consumer's carry).
        let drained = self.stream.drain_window_profiled(
            topa.segments(),
            total,
            usize::MAX,
            PhaseSpan::StreamDrain,
        );
        match drained {
            Ok(info) => {
                if info.new_bytes > 0 || info.cold_restart {
                    self.stats.record_stream_drain(info.new_bytes);
                }
            }
            // Corrupt PSB+ bundle mid-stream: abandon it; the next drain
            // re-synchronises. The same conservative recovery the check
            // path uses.
            Err(_) => self.stream.skip_to(total),
        }
        let ds = self.stream.stats();
        self.stats.sample_stream_copies(ds.copied_bytes, ds.seam_carries);
    }

    fn flow_check(
        &mut self,
        endpoint: &'static str,
        sysno: u64,
        ctx: &mut SyscallCtx<'_>,
        full_buffer: bool,
    ) -> InterceptVerdict {
        let mut ev = CheckEvent { sysno, ..Default::default() };
        let hits_before = self.scratch.edge_cache_hits;
        let misses_before = self.scratch.edge_cache_misses;
        let verdict = self.flow_check_inner(endpoint, ctx, full_buffer, &mut ev);
        ev.edge_cache_hits = self.scratch.edge_cache_hits - hits_before;
        ev.edge_cache_misses = self.scratch.edge_cache_misses - misses_before;
        self.stats.sample_caches(
            self.cache.len() as u64,
            self.scratch.edge_cache_hits,
            self.scratch.edge_cache_misses,
        );
        self.stats.record_check(&ev);
        verdict
    }

    fn flow_check_inner(
        &mut self,
        endpoint: &'static str,
        ctx: &mut SyscallCtx<'_>,
        full_buffer: bool,
        ev: &mut CheckEvent,
    ) -> InterceptVerdict {
        ev.other_cycles = self.cost.intercept_cycles;
        ctx.extra_cycles.other += self.cost.intercept_cycles;
        self.stats.spans().record(PhaseSpan::Intercept, self.cost.intercept_cycles, 0);

        let Some(ipt) = ctx.trace.as_ipt() else {
            // Not traced (misconfiguration): nothing to check.
            ev.verdict = CheckVerdict::Insufficient;
            return InterceptVerdict::Allow;
        };
        let topa = ipt.topa();
        let total_written = topa.total_written();

        // --- fast path -----------------------------------------------------
        // "It is not required to decode the whole ToPA buffer" (§5.3): an
        // endpoint check needs only the most recent window of flow. The
        // consumer scans the bytes written since its previous drain, and
        // when more was written than one window can use it skips the excess
        // and re-synchronises inside the newest window, so per-check decode
        // work is min(residue, window budget) bytes — never a rescan of flow
        // an earlier drain already extracted. A PMI check reaches back over
        // the whole retained buffer.
        //
        // With streaming on, background drains have already decoded
        // (almost) everything: the check is a frontier compare plus a scan
        // of the residue written since the last poll slot.
        let budget = if full_buffer {
            topa.retained_len().max(1)
        } else {
            (self.cfg.pkt_count * 24).max(512)
        };
        let streaming = self.cfg.streaming;
        let residue = self.stream.residue(total_written);
        if streaming {
            ev.streaming = true;
            ev.frontier_lag = residue;
            ev.drained_bytes =
                self.stream.stats().drained_bytes.saturating_sub(self.drained_at_last_check);
        }
        if !streaming || residue > 0 {
            // Endpoint checks attribute their drain to the fast-scan phase;
            // streaming checks to the residue-scan phase (background drains
            // go to the stream-drain phase instead).
            let phase = if streaming { PhaseSpan::ResidueScan } else { PhaseSpan::FastScan };
            match self.stream.drain_window_profiled(topa.segments(), total_written, budget, phase) {
                Ok(info) => {
                    ev.cold_restart = info.cold_restart;
                    ev.delta_bytes += info.new_bytes;
                    let scan_cycles = info.new_bytes as f64 * self.cost.packet_scan_byte_cycles;
                    ev.scan_cycles += scan_cycles;
                    ctx.extra_cycles.decode += scan_cycles;
                }
                Err(_) => {
                    // Corrupt PSB+ bundle: skip past it, stay conservative.
                    self.stream.skip_to(total_written);
                    self.drained_at_last_check = self.stream.stats().drained_bytes;
                    ev.verdict = CheckVerdict::Insufficient;
                    return InterceptVerdict::Allow;
                }
            }
        }
        let ds = self.stream.stats();
        self.drained_at_last_check = ds.drained_bytes;
        if streaming {
            self.stats.sample_stream_copies(ds.copied_bytes, ds.seam_carries);
        }

        // PMI mode checks every pair in the accumulated flow; endpoint mode
        // checks the configured window.
        let scan = self.stream.scan();
        let (pkt_count, require_module_stride) = if full_buffer {
            (scan.tip_count().max(2), false)
        } else {
            (self.cfg.pkt_count, self.cfg.require_module_stride)
        };
        let fast = fastpath::check_windowed(
            &self.itc,
            &self.cache,
            &mut self.scratch,
            scan,
            &self.cfg,
            pkt_count,
            require_module_stride,
            self.cost.edge_check_cycles,
            self.stream.first_tip_truncated(),
            self.tier0.as_ref(),
        );
        // Bound the accumulated scan: keep comfortably more than the widest
        // window the checker reaches back (pkt_count * 4).
        self.stream.compact(self.cfg.pkt_count.saturating_mul(8).max(256));
        ev.pairs_checked = fast.pairs_checked as u64;
        ev.credited_pairs = fast.credited_pairs as u64;
        ev.tier0_hits = fast.tier0_hits;
        ev.tier0_misses = fast.tier0_misses;
        ev.check_cycles = fast.check_cycles;
        ctx.extra_cycles.check += fast.check_cycles;

        let uncredited = match fast.verdict {
            FastVerdict::Clean => {
                ev.verdict = CheckVerdict::FastClean;
                return InterceptVerdict::Allow;
            }
            FastVerdict::InsufficientTrace => {
                ev.verdict = CheckVerdict::Insufficient;
                return InterceptVerdict::Allow;
            }
            FastVerdict::Malicious(v) => {
                ev.verdict = CheckVerdict::FastMalicious;
                // Violations are terminal: linearizing the window for the
                // flight record here costs nothing on the hot path.
                self.record_violation(
                    endpoint,
                    format!("{v:?}"),
                    true,
                    fast_violation_edge(&v),
                    &ipt.trace_bytes(),
                );
                return InterceptVerdict::Kill(SIGKILL);
            }
            FastVerdict::Suspicious { uncredited } => uncredited,
        };
        ev.uncredited = uncredited.len() as u64;

        // --- slow path (the user-level decoder upcall) ----------------------
        // The slow path analyses a bounded recent region (the paper's §7.2.2
        // micro-benchmark measures it on "ranges of memory containing 100
        // TIP packets"), not the whole buffer. Escalations are the rare,
        // already-expensive path, so this is where the deferred
        // linearization finally happens — fast-clean checks never paid it.
        let bytes = ipt.trace_bytes();
        let budget = (self.cfg.pkt_count * 110).max(2048);
        let (_, win_off) = tail_window_at(&bytes, budget);
        // Absolute stream offset of the window's first byte: the ToPA keeps
        // the most recent `bytes.len()` of `total_written` stream bytes.
        let buf_start = total_written.saturating_sub(bytes.len() as u64);
        let mut window_start = buf_start + win_off as u64;
        if !self.cfg.slow_checkpoint {
            self.slow_scratch.invalidate();
        } else if let Some((start, consumed)) = self.slow_scratch.lineage() {
            // Extend the parked lineage instead of sliding the window: a
            // slid start cannot resume warm (the shadow stack's windowed
            // context would change), so as long as the lineage's first byte
            // is still retained in the ToPA — and the lineage hasn't grown
            // past a few windows, bounding the validated-pair replay — keep
            // decoding on top of it. Strictly more context than the slid
            // window, and only the appended bytes are decoded.
            if start >= buf_start
                && start <= window_start
                && consumed.saturating_sub(start) <= 4 * budget as u64
            {
                window_start = start;
            }
        }
        let slow_window = &bytes[(window_start - buf_start) as usize..];
        let slow = slowpath::check_incremental(
            &self.image,
            &self.ocfg,
            slow_window,
            window_start,
            &self.cost,
            Some(crate::pool::WorkerPool::global()),
            &mut self.slow_scratch,
        );
        ev.slow_cycles = slow.decode_cycles;
        ev.stitch_cycles = slow.stitch_cycles;
        ev.slow_shards = slow.shards;
        ev.slow_insns_decoded = slow.insns_decoded;
        ev.checkpoint_hit = slow.checkpoint_hit;
        ctx.extra_cycles.decode += slow.decode_cycles + slow.stitch_cycles;

        match slow.verdict {
            SlowVerdict::Attack(v) => {
                ev.verdict = CheckVerdict::SlowAttack;
                self.record_violation(
                    endpoint,
                    format!("{v:?}"),
                    false,
                    slow_violation_edge(&v),
                    &bytes,
                );
                InterceptVerdict::Kill(SIGKILL)
            }
            SlowVerdict::Clean { validated_pairs } => {
                ev.verdict = CheckVerdict::SlowClean;
                if self.cfg.cache_slow_path_results {
                    // Cache both the window's uncredited edges and every
                    // validated pair (§7.1.1: negative results are cached).
                    self.cache.extend(uncredited);
                    for (a, b) in validated_pairs {
                        if let Some(e) = self.itc.edge(a, b) {
                            self.cache.insert(e);
                        }
                    }
                }
                InterceptVerdict::Allow
            }
        }
    }
}

/// Picks a PSB-synchronised tail window of roughly `budget` bytes.
pub(crate) fn tail_window(bytes: &[u8], budget: usize) -> &[u8] {
    tail_window_at(bytes, budget).0
}

/// [`tail_window`], also returning the window's offset into `bytes` — the
/// slow-path checkpoint keys on the window's absolute stream position.
fn tail_window_at(bytes: &[u8], budget: usize) -> (&[u8], usize) {
    if bytes.len() <= budget {
        return (bytes, 0);
    }
    let mut p = fg_ipt::PacketParser::at(bytes, bytes.len() - budget);
    match p.sync_forward() {
        Some(off) => (&bytes[off..], off),
        None => (bytes, 0), // no sync point in the tail: fall back to everything
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cpu::{IptUnit, Machine, StopReason, TraceUnit};
    use fg_ipt::topa::Topa;

    fn protected_run(
        w: &fg_workloads::Workload,
        itc: ItcCfg,
        ocfg: Arc<OCfg>,
        input: &[u8],
        cfg: FlowGuardConfig,
    ) -> (StopReason, Arc<EngineTelemetry>, fg_kernel::Kernel) {
        let cr3 = 0x4000;
        let engine = FlowGuardEngine::new(w.image.clone(), ocfg, itc, cfg.clone(), cr3);
        let stats = engine.stats_handle();
        let mut m = Machine::new(&w.image, cr3);
        let mut unit = IptUnit::flowguard(cr3, Topa::two_regions(cfg.topa_region_bytes).unwrap());
        unit.start(w.image.entry(), cr3);
        m.trace = TraceUnit::Ipt(unit);
        let mut k = fg_kernel::Kernel::with_input(input);
        k.install_interceptor(Box::new(engine));
        let stop = m.run(&mut k, 50_000_000);
        (stop, stats, k)
    }

    fn trained_deployment(w: &fg_workloads::Workload) -> (ItcCfg, Arc<OCfg>) {
        let ocfg = OCfg::build(&w.image);
        let mut itc = ItcCfg::build(&ocfg);
        fg_fuzz::train(
            &mut itc,
            &w.image,
            std::slice::from_ref(&w.default_input),
            fg_fuzz::TrainConfig::default(),
        );
        (itc, Arc::new(ocfg))
    }

    #[test]
    fn benign_trained_run_passes_mostly_fast() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let (stop, stats, k) =
            protected_run(&w, itc, ocfg, &w.default_input, FlowGuardConfig::default());
        assert_eq!(stop, StopReason::Exited(0), "no false positives");
        assert!(!k.violated());
        let s = stats.snapshot();
        assert!(s.checks > 10, "every write is an endpoint");
        assert_eq!(s.fast_malicious + s.slow_attacks, 0);
        assert!(
            s.slow_fraction() < 0.35,
            "trained run should rarely hit the slow path ({}/{})",
            s.slow_invocations,
            s.checks
        );
    }

    #[test]
    fn engine_scans_fewer_bytes_than_the_cold_window_oracle() {
        let w = fg_workloads::nginx_patched();
        let mut d = crate::Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        let cfg = FlowGuardConfig::default();
        let mut p = d.launch(&w.default_input, cfg.clone());
        let cold_bytes = crate::reference::ColdWindowTally::install(&mut p, &cfg);
        assert_eq!(p.run(50_000_000), StopReason::Exited(0));
        assert!(!p.violated());
        let s = p.stats.snapshot();
        let cold = cold_bytes.load(std::sync::atomic::Ordering::Relaxed);
        assert!(s.checks > 10 && cold > 0);
        assert!(
            s.bytes_scanned < cold,
            "the consumer must scan strictly fewer bytes than cold rescans ({} vs {cold})",
            s.bytes_scanned
        );
    }

    #[test]
    fn streaming_and_endpoint_consumption_agree_on_verdicts() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let run = |streaming: bool| {
            let cfg = FlowGuardConfig { streaming, ..Default::default() };
            let (stop, stats, k) =
                protected_run(&w, itc.clone(), Arc::clone(&ocfg), &w.default_input, cfg);
            assert_eq!(stop, StopReason::Exited(0));
            assert!(!k.violated());
            let s = stats.snapshot();
            let verdicts = (
                s.checks,
                s.fast_clean,
                s.fast_malicious,
                s.slow_invocations,
                s.slow_attacks,
                s.insufficient,
            );
            (verdicts, s, stats.telemetry_snapshot())
        };
        let (stream_verdicts, stream_stats, stream_ts) = run(true);
        let (endpoint_verdicts, endpoint_stats, _) = run(false);
        assert_eq!(
            stream_verdicts, endpoint_verdicts,
            "streaming consumption must not change any verdict"
        );
        assert!(stream_stats.stream_drains > 0, "background drains happened");
        assert!(stream_stats.stream_drained_bytes > 0, "background drains consumed bytes");
        assert!(
            stream_stats.bytes_scanned < endpoint_stats.bytes_scanned,
            "check-time residue must be smaller than endpoint-time deltas ({} vs {})",
            stream_stats.bytes_scanned,
            endpoint_stats.bytes_scanned
        );
        assert_eq!(
            stream_ts.frontier_lag.count, stream_stats.checks,
            "every streaming check records its frontier lag"
        );
    }

    #[test]
    fn streaming_drains_copy_almost_nothing() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let cfg = FlowGuardConfig { streaming: true, ..Default::default() };
        let (stop, stats, _) = protected_run(&w, itc, ocfg, &w.default_input, cfg);
        assert_eq!(stop, StopReason::Exited(0));
        let ts = stats.telemetry_snapshot();
        assert!(ts.stream_drained_bytes > 0);
        let per_kib = ts.copied_per_drained_kib();
        // Region seams carry ≤15 bytes per 8 KiB region (~2 B/KiB); wrap
        // recoveries are rare. Anything near the old 1024 B/KiB means the
        // drain path went back to linearizing.
        assert!(per_kib < 8.0, "drains must be near-zero-copy, got {per_kib:.1} B/KiB");
    }

    #[test]
    fn untrained_run_uses_slow_path_and_cache_warms() {
        let w = fg_workloads::nginx_patched();
        let ocfg = Arc::new(OCfg::build(&w.image));
        let itc = ItcCfg::build(&ocfg); // zero training
        let (stop, stats, _) =
            protected_run(&w, itc, ocfg, &w.default_input, FlowGuardConfig::default());
        assert_eq!(stop, StopReason::Exited(0), "still no false positives");
        let s = stats.snapshot();
        assert!(s.slow_invocations > 0, "untrained edges escalate");
        assert!(s.cache_size > 0, "negative results cached");
        assert!(
            s.fast_clean > 0,
            "cache warms up and later checks pass fast ({} clean)",
            s.fast_clean
        );
    }

    #[test]
    fn stats_account_cycles() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let (_, stats, _) =
            protected_run(&w, itc, ocfg, &w.default_input, FlowGuardConfig::default());
        let s = stats.snapshot();
        assert!(s.decode_cycles > 0.0);
        assert!(s.check_cycles > 0.0);
        assert!(s.other_cycles > 0.0);
    }

    #[test]
    fn telemetry_events_mirror_check_counters() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let (_, stats, _) =
            protected_run(&w, itc, ocfg, &w.default_input, FlowGuardConfig::default());
        let s = stats.snapshot();
        let ts = stats.telemetry_snapshot();
        assert_eq!(ts.events_recorded, s.checks, "one event per check");
        assert_eq!(ts.check_latency.count, s.checks);
        let events = stats.recent_events(usize::MAX);
        assert!(!events.is_empty());
        let clean = events
            .iter()
            .filter(|(_, e)| e.verdict == crate::telemetry::CheckVerdict::FastClean)
            .count() as u64;
        // The ring may have wrapped, so retained events are a suffix; on
        // this short run it holds everything.
        assert_eq!(clean, s.fast_clean);
        let total_scanned: u64 = events.iter().map(|(_, e)| e.delta_bytes).sum();
        assert_eq!(total_scanned, s.bytes_scanned);
    }

    #[test]
    fn disabled_telemetry_still_enforces() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let cfg = FlowGuardConfig { telemetry: false, ..Default::default() };
        let (stop, stats, k) = protected_run(&w, itc, ocfg, &w.default_input, cfg);
        assert_eq!(stop, StopReason::Exited(0));
        assert!(!k.violated());
        let s = stats.snapshot();
        assert_eq!(s.checks, 0, "disabled telemetry records no counters");
        assert!(stats.recent_events(10).is_empty());
    }

    #[test]
    fn span_attribution_covers_check_cycles() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let (_, stats, _) =
            protected_run(&w, itc, ocfg, &w.default_input, FlowGuardConfig::default());
        let ts = stats.telemetry_snapshot();
        assert!(ts.spans.records > 0, "spans were recorded");
        let total = ts.check_latency.mean * ts.check_latency.count as f64;
        assert!(total > 0.0);
        let coverage = ts.spans.check_cycles / total;
        assert!(
            (0.95..=1.05).contains(&coverage),
            "per-phase attribution must cover the measured check cycles, got {coverage}"
        );
    }

    #[test]
    fn streaming_span_attribution_separates_drain_phases() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let cfg = FlowGuardConfig { streaming: true, ..Default::default() };
        let (_, stats, _) = protected_run(&w, itc, ocfg, &w.default_input, cfg);
        let ts = stats.telemetry_snapshot();
        let drain = ts.spans.phase_cycles(PhaseSpan::StreamDrain);
        assert!(drain > 0.0, "background drains attribute to the stream-drain phase");
        let total = ts.check_latency.mean * ts.check_latency.count as f64;
        let coverage = ts.spans.check_cycles / total;
        assert!(
            (0.95..=1.05).contains(&coverage),
            "check-phase spans exclude background drains yet still cover check cycles, \
             got {coverage}"
        );
    }

    #[test]
    fn profile_spans_off_records_nothing_but_still_enforces() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let cfg = FlowGuardConfig { profile_spans: false, ..Default::default() };
        let (stop, stats, k) = protected_run(&w, itc, ocfg, &w.default_input, cfg);
        assert_eq!(stop, StopReason::Exited(0));
        assert!(!k.violated());
        let ts = stats.telemetry_snapshot();
        assert!(ts.checks > 0, "telemetry itself stays on");
        assert_eq!(ts.spans.records, 0, "no spans with profiling off");
    }

    #[test]
    fn engine_ignores_other_processes() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let engine =
            FlowGuardEngine::new(w.image.clone(), ocfg, itc, FlowGuardConfig::default(), 0x9999);
        assert!(engine.protects(0x9999));
        assert!(!engine.protects(0x4000));
        assert!(engine.is_sensitive(Sysno::Write));
        assert!(!engine.is_sensitive(Sysno::Read));
    }
}

//! The FlowGuard runtime engine: the "kernel module" of §5.
//!
//! Installed into the simulated kernel as a [`SyscallInterceptor`], the
//! engine reads the protected process's ToPA buffer at each sensitive
//! syscall, runs the fast path, escalates suspicious windows to the slow
//! path (the "upcall to the waiting user-level process"), caches negative
//! slow-path results, and kills the process on violation.
//!
//! Statistics flow through the [`EngineTelemetry`] aggregate: the engine
//! records every check — its [`CheckEvent`] and the modeled cycles of each
//! pipeline phase — in one call; readers take a
//! [`TelemetrySnapshot`](crate::telemetry::TelemetrySnapshot).

use crate::config::FlowGuardConfig;
use crate::fastpath::{self, CheckScratch, FastVerdict, SlowPathCache, Violation};
use crate::slowpath::{self, SlowVerdict, SlowViolation};
use crate::telemetry::{
    render_packets, CheckEvent, CheckRecord, CheckVerdict, EngineTelemetry, ViolationRecord,
    FLIGHT_WINDOW_BYTES, PMI_SYSNO,
};
use fg_cfg::{EntryBitset, ItcCfg, OCfg};
use fg_cpu::cost::CostModel;
use fg_cpu::machine::SyscallCtx;
use fg_ipt::topa::Topa;
use fg_ipt::StreamConsumer;
use fg_isa::image::Image;
use fg_kernel::{InterceptVerdict, SyscallInterceptor, Sysno, SIGKILL};
use fg_trace::PhaseSpan;
use std::sync::Arc;

/// The runtime protection engine.
pub struct FlowGuardEngine {
    image: Image,
    ocfg: Arc<OCfg>,
    itc: ItcCfg,
    cfg: FlowGuardConfig,
    cost: CostModel,
    cr3: u64,
    /// Edges the slow path found conformant (§7.1.1), credited by later
    /// fast-path checks.
    cache: SlowPathCache,
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
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::config::ConfigError) message
    /// when `cfg` does not validate.
    pub fn new(
        image: Image,
        ocfg: Arc<OCfg>,
        itc: ItcCfg,
        cfg: FlowGuardConfig,
        cr3: u64,
    ) -> FlowGuardEngine {
        if let Err(e) = cfg.validate() {
            panic!("invalid FlowGuardConfig: {e}");
        }
        let cost = CostModel::calibrated();
        // Presized for its steady state, so a fresh process's first checks
        // grow neither the scan nor the restart window.
        let stream = StreamConsumer::with_capacity(
            keep_tips(&cfg).min(PRESIZED_TIPS),
            window_budget(&cfg).min(cfg.topa_region_bytes.saturating_mul(2)),
        );
        let stats = Arc::new(EngineTelemetry::new(cfg.telemetry));
        FlowGuardEngine {
            scratch: CheckScratch::new(&image),
            stats,
            image,
            ocfg,
            itc,
            cfg,
            cost,
            cr3,
            cache: SlowPathCache::default(),
            stream,
            drained_at_last_check: 0,
            slow_scratch: slowpath::SlowScratch::new(),
        }
    }

    /// Overrides the cost model (hardware-extension ablations, §7.2.4).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Installs the deployment's tier-0 entry-point bitset in the fast
    /// path's scratch ([`CheckScratch::set_tier0`]); `None` turns the probe
    /// off.
    pub fn set_tier0(&mut self, bits: Option<EntryBitset>) {
        self.scratch.set_tier0(bits);
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
        self.stats.record_violation(ViolationRecord {
            endpoint: endpoint.to_owned(),
            detail,
            fast_path,
        });
    }
}

/// The most TIPs a fresh engine presizes its scan for (a `pkt_count` of up
/// to 512); a wider window's scan grows while it warms up.
const PRESIZED_TIPS: usize = 4096;

/// The TIPs the accumulated scan keeps after each check: comfortably more
/// than the widest window the checker reaches back (`pkt_count * 4`).
fn keep_tips(cfg: &FlowGuardConfig) -> usize {
    cfg.pkt_count.saturating_mul(8).max(256)
}

/// The most trace bytes an endpoint check drains: a residue beyond it is
/// skipped and the drain restarts inside the newest `window_budget` bytes.
fn window_budget(cfg: &FlowGuardConfig) -> usize {
    (cfg.pkt_count * 24).max(512)
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
        let (bytes, counted) = match self.stream.drain_window(topa.segments(), total, usize::MAX) {
            Ok(info) => (info.new_bytes, info.new_bytes > 0 || info.cold_restart),
            // Corrupt PSB+ bundle mid-stream: abandon it; the next drain
            // re-synchronises. The same conservative recovery the check
            // path uses. The failed drain's span is empty.
            Err(_) => {
                self.stream.skip_to(total);
                (0, false)
            }
        };
        let cycles = bytes as f64 * self.cost.packet_scan_byte_cycles;
        self.stats.record_stream_drain(counted.then_some(bytes), cycles, &self.stream.stats());
    }

    fn flow_check(
        &mut self,
        endpoint: &'static str,
        sysno: u64,
        ctx: &mut SyscallCtx<'_>,
        full_buffer: bool,
    ) -> InterceptVerdict {
        let mut rec =
            CheckRecord { event: CheckEvent { sysno, ..Default::default() }, ..Default::default() };
        let hits_before = self.scratch.edge_cache_hits;
        let misses_before = self.scratch.edge_cache_misses;
        let verdict = self.flow_check_inner(endpoint, ctx, full_buffer, &mut rec);
        rec.event.edge_cache_hits = self.scratch.edge_cache_hits - hits_before;
        rec.event.edge_cache_misses = self.scratch.edge_cache_misses - misses_before;
        rec.cache_size = self.cache.len();
        self.stats.record_check(&rec);
        verdict
    }

    fn flow_check_inner(
        &mut self,
        endpoint: &'static str,
        ctx: &mut SyscallCtx<'_>,
        full_buffer: bool,
        rec: &mut CheckRecord,
    ) -> InterceptVerdict {
        let CheckRecord { event: ev, spans, drain_stats, .. } = rec;
        let mut span = |phase: PhaseSpan, cycles: f64| spans[phase.index()] = Some(cycles);
        ev.other_cycles = self.cost.intercept_cycles;
        ctx.extra_cycles.other += self.cost.intercept_cycles;
        span(PhaseSpan::Intercept, self.cost.intercept_cycles);

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
        let budget =
            if full_buffer { topa.retained_len().max(1) } else { window_budget(&self.cfg) };
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
            match self.stream.drain_window(topa.segments(), total_written, budget) {
                Ok(info) => {
                    ev.cold_restart = info.cold_restart;
                    ev.delta_bytes += info.new_bytes;
                    let scan_cycles = info.new_bytes as f64 * self.cost.packet_scan_byte_cycles;
                    span(phase, scan_cycles);
                    ev.scan_cycles += scan_cycles;
                    ctx.extra_cycles.decode += scan_cycles;
                }
                Err(_) => {
                    // Corrupt PSB+ bundle: skip past it, stay conservative.
                    // The failed drain's span is empty.
                    span(phase, 0.0);
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
            *drain_stats = Some(ds);
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
        );
        self.stream.compact(keep_tips(&self.cfg));
        ev.pairs_checked = fast.pairs_checked as u64;
        ev.credited_pairs = fast.credited_pairs as u64;
        ev.tier0_hits = fast.tier0_hits;
        ev.tier0_misses = fast.tier0_misses;
        ev.check_cycles = fast.check_cycles;
        ctx.extra_cycles.check += fast.check_cycles;
        if fast.tier0_hits + fast.tier0_misses > 0 {
            span(PhaseSpan::Tier0Probe, fast.tier0_cycles);
        }
        if fast.pairs_checked > 0 {
            span(PhaseSpan::EdgeProbe, fast.edge_cycles);
            span(PhaseSpan::Verdict, fast.verdict_cycles);
        }

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
        if let Some((start, consumed)) = self.slow_scratch.lineage() {
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
        span(PhaseSpan::SlowDecode, slow.decode_cycles);
        span(PhaseSpan::ShardStitch, slow.stitch_cycles);

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
        let s = stats.telemetry_snapshot();
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
        let s = p.stats.telemetry_snapshot();
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
            let s = stats.telemetry_snapshot();
            let verdicts = (
                s.checks,
                s.fast_clean,
                s.fast_malicious,
                s.slow_invocations,
                s.slow_attacks,
                s.insufficient,
            );
            (verdicts, s)
        };
        let (stream_verdicts, stream_stats) = run(true);
        let (endpoint_verdicts, endpoint_stats) = run(false);
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
            stream_stats.frontier_lag.count, stream_stats.checks,
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
        let s = stats.telemetry_snapshot();
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
        let s = stats.telemetry_snapshot();
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
        let s = stats.telemetry_snapshot();
        assert_eq!(s.events_recorded, s.checks, "one event per check");
        assert_eq!(s.check_latency.count, s.checks);
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
        let s = stats.telemetry_snapshot();
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
    #[should_panic(expected = "invalid FlowGuardConfig: topa_region_bytes")]
    fn engine_refuses_an_invalid_config() {
        let w = fg_workloads::nginx_patched();
        let ocfg = Arc::new(OCfg::build(&w.image));
        let itc = ItcCfg::build(&ocfg);
        let cfg = FlowGuardConfig { topa_region_bytes: 100, ..Default::default() };
        let _ = FlowGuardEngine::new(w.image.clone(), ocfg, itc, cfg, 0x4000);
    }

    /// The largest accepted window runs its checks without overflowing a
    /// window product (debug builds panic on overflow).
    #[test]
    fn largest_pkt_count_checks_without_overflow() {
        let w = fg_workloads::nginx_patched();
        let (itc, ocfg) = trained_deployment(&w);
        let cfg = FlowGuardConfig { pkt_count: crate::config::MAX_PKT_COUNT, ..Default::default() };
        let (stop, stats, k) = protected_run(&w, itc, ocfg, &w.default_input, cfg);
        assert_eq!(stop, StopReason::Exited(0));
        assert!(!k.violated());
        assert!(stats.telemetry_snapshot().checks > 0);
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

//! The reference trace consumption, kept as a test and benchmark oracle.
//!
//! Before the engine consumed the trace incrementally, every endpoint check
//! cold-scanned a PSB-synchronised tail window of the ToPA, doubling the
//! window while it held too few TIPs for `pkt_count`. No runtime path uses
//! that scan any more: [`cold_window_scan`] preserves it as the comparator
//! the engine's consumer is measured against, and [`ColdWindowTally`] runs
//! it at each check of a protected process over the very bytes the engine
//! sees.

use crate::engine::tail_window;
use crate::{FlowGuardConfig, ProtectedProcess};
use fg_cpu::machine::SyscallCtx;
use fg_ipt::{fast, FastScan, PacketError};
use fg_kernel::{InterceptVerdict, SyscallInterceptor, Sysno};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cold-scans the tail of `bytes` (a linearised ToPA) from a PSB sync
/// point: first the newest `budget` bytes, doubling the window until it
/// holds more than `pkt_count` TIPs or covers the whole buffer. Returns the
/// scan and the window length scanned.
///
/// # Errors
///
/// Propagates the scanner's [`PacketError`] for a corrupt window.
pub fn cold_window_scan(
    bytes: &[u8],
    budget: usize,
    pkt_count: usize,
) -> Result<(FastScan, usize), PacketError> {
    let mut budget = budget;
    loop {
        let window = tail_window(bytes, budget);
        let scan = fast::scan(window)?;
        if scan.tip_count() > pkt_count || window.len() == bytes.len() {
            return Ok((scan, window.len()));
        }
        budget *= 2;
    }
}

/// An interceptor wrapper that, before each endpoint check, runs
/// [`cold_window_scan`] over the trace and tallies the bytes it scanned —
/// what the reference mode would have paid for the same check.
pub struct ColdWindowTally {
    inner: Box<dyn SyscallInterceptor>,
    budget: usize,
    pkt_count: usize,
    bytes: Arc<AtomicU64>,
}

impl ColdWindowTally {
    /// Re-installs `process`'s engine behind a tally using `cfg`'s check
    /// window. Returns the shared running total of cold-scanned bytes.
    ///
    /// # Panics
    ///
    /// Panics if the process has no interceptor installed.
    pub fn install(process: &mut ProtectedProcess, cfg: &FlowGuardConfig) -> Arc<AtomicU64> {
        let inner = process.kernel.take_interceptor().expect("a protected process has an engine");
        let bytes = Arc::new(AtomicU64::new(0));
        process.kernel.install_interceptor(Box::new(ColdWindowTally {
            inner,
            budget: (cfg.pkt_count * 24).max(512),
            pkt_count: cfg.pkt_count,
            bytes: Arc::clone(&bytes),
        }));
        bytes
    }
}

impl SyscallInterceptor for ColdWindowTally {
    fn protects(&self, cr3: u64) -> bool {
        self.inner.protects(cr3)
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.inner.is_sensitive(nr)
    }

    fn check(&mut self, nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        if let Some(ipt) = ctx.trace.as_ipt() {
            if let Ok((_, scanned)) =
                cold_window_scan(&ipt.trace_bytes(), self.budget, self.pkt_count)
            {
                self.bytes.fetch_add(scanned as u64, Ordering::Relaxed);
            }
        }
        self.inner.check(nr, ctx)
    }

    fn on_pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        self.inner.on_pmi(ctx)
    }

    fn on_trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        self.inner.on_trace_poll(ctx);
    }
}

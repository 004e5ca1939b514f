//! The benchmark's own [`SyscallInterceptor`]: it wraps a protected
//! process's FlowGuard engine and times every call the kernel makes into it
//! — sensitive-syscall checks, trace-buffer PMIs and, in the traced run,
//! trace-poll slots — from outside the engine.

use fg_cpu::machine::SyscallCtx;
use fg_kernel::{InterceptVerdict, SyscallInterceptor, Sysno};
use flowguard::{Deployment, EngineTelemetry, FlowGuardConfig, ProtectedProcess};
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One timed engine call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Call {
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Host duration in ns, timer overhead included.
    pub ns: u64,
    /// Whether the check escalated to the slow path (traced runs only).
    pub escalated: bool,
    /// Trace bytes the check scanned (traced runs only).
    pub bytes: u64,
}

/// Calls recorded since the last [`Probe::take`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Calls {
    /// `check` calls (sensitive syscalls).
    pub checks: Vec<Call>,
    /// `on_pmi` calls (trace-buffer PMIs).
    pub pmis: Vec<Call>,
    /// `on_trace_poll` calls timed (traced runs only).
    pub polls: u64,
    /// Their summed host ns, timer overhead included.
    pub poll_ns: u64,
}

impl Calls {
    /// Appends `other`'s calls.
    pub fn extend(&mut self, other: Calls) {
        self.checks.extend(other.checks);
        self.pmis.extend(other.pmis);
        self.polls += other.polls;
        self.poll_ns += other.poll_ns;
    }
}

/// What the wrapper records, shared with the runner that owns the process.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    tracing: bool,
    /// The wrapped engine's telemetry, read after each traced check.
    stats: Option<Arc<EngineTelemetry>>,
    events_seen: u64,
    warned: bool,
    calls: Calls,
}

/// A probe shared between a runner and the [`Timed`] wrapper it installed.
pub type SharedProbe = Rc<RefCell<Probe>>;

impl Probe {
    /// A probe whose call times count from `epoch`.
    pub fn shared(epoch: Instant) -> SharedProbe {
        Rc::new(RefCell::new(Probe {
            epoch,
            tracing: false,
            stats: None,
            events_seen: 0,
            warned: false,
            calls: Calls::default(),
        }))
    }

    /// Traced mode: also time poll slots and classify each check by the
    /// engine's check event. Off (the end-to-end run), only `check` and
    /// `on_pmi` are timed.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Takes the calls recorded so far.
    pub fn take(&mut self) -> Calls {
        std::mem::take(&mut self.calls)
    }

    fn call(&self, t0: Instant, t1: Instant) -> Call {
        Call {
            start_ns: crate::host::ns_between(self.epoch, t0),
            ns: crate::host::ns_between(t0, t1),
            ..Call::default()
        }
    }

    fn record_check(&mut self, t0: Instant, t1: Instant) {
        let mut call = self.call(t0, t1);
        if self.tracing {
            (call.escalated, call.bytes) = self.classify();
        }
        self.calls.checks.push(call);
    }

    /// Reads the engine's newest check event by key: whether it escalated
    /// (`verdict` is `SlowClean`/`SlowAttack`) and its `delta_bytes`.
    fn classify(&mut self) -> (bool, u64) {
        let Some(stats) = &self.stats else { return (false, 0) };
        let Some((idx, ev)) = stats.recent_events(1).pop() else { return (false, 0) };
        if idx < self.events_seen {
            return (false, 0);
        }
        self.events_seen = idx + 1;
        let ev = ev.to_value();
        let (verdict, bytes) = (ev.get("verdict"), ev.get("delta_bytes"));
        if (verdict.is_none() || bytes.is_none()) && !self.warned {
            self.warned = true;
            eprintln!("warning: check events lack `verdict`/`delta_bytes`; checks unclassified");
        }
        let escalated = matches!(verdict, Some(Value::Str(s)) if s.starts_with("Slow"));
        let bytes = match bytes {
            Some(Value::U64(b)) => *b,
            _ => 0,
        };
        (escalated, bytes)
    }
}

/// The interceptor wrapper: forwards every call to the engine it wraps and
/// records the host time each takes into a [`Probe`].
pub struct Timed {
    inner: Box<dyn SyscallInterceptor>,
    probe: SharedProbe,
}

impl SyscallInterceptor for Timed {
    fn protects(&self, cr3: u64) -> bool {
        self.inner.protects(cr3)
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.inner.is_sensitive(nr)
    }

    fn check(&mut self, nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        let t0 = Instant::now();
        let verdict = self.inner.check(nr, ctx);
        let t1 = Instant::now();
        self.probe.borrow_mut().record_check(t0, t1);
        verdict
    }

    fn on_pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        let t0 = Instant::now();
        let verdict = self.inner.on_pmi(ctx);
        let t1 = Instant::now();
        let mut probe = self.probe.borrow_mut();
        let call = probe.call(t0, t1);
        probe.calls.pmis.push(call);
        verdict
    }

    fn on_trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        if !self.probe.borrow().tracing {
            self.inner.on_trace_poll(ctx);
            return;
        }
        let t0 = Instant::now();
        self.inner.on_trace_poll(ctx);
        let t1 = Instant::now();
        let mut probe = self.probe.borrow_mut();
        probe.calls.polls += 1;
        probe.calls.poll_ns += crate::host::ns_between(t0, t1);
    }
}

/// Launches a protected process exactly as [`Deployment::launch`] does,
/// then re-installs its engine behind a [`Timed`] wrapper feeding `probe`.
pub fn launch(
    d: &Deployment,
    input: &[u8],
    cfg: &FlowGuardConfig,
    probe: &SharedProbe,
) -> ProtectedProcess {
    let mut p = d.launch(input, cfg.clone());
    let inner = p.kernel.take_interceptor().expect("launch installs the engine");
    p.kernel.install_interceptor(Box::new(Timed { inner, probe: Rc::clone(probe) }));
    let mut probe = probe.borrow_mut();
    probe.stats = Some(Arc::clone(&p.stats));
    probe.events_seen = 0;
    p
}

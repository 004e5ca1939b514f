//! A fast-clean endpoint check allocates nothing, from a fresh process's
//! first one on: the engine is built with its buffers at their steady-state
//! capacity, so draining the trace, scanning it and matching the window
//! against the ITC-CFG run entirely in place — in endpoint mode and with
//! streaming on.
//!
//! A counting global allocator tallies the allocations made on the checking
//! thread while the wrapped engine's `check` runs.

use fg_cpu::machine::SyscallCtx;
use fg_cpu::StopReason;
use fg_kernel::{InterceptVerdict, SyscallInterceptor, Sysno};
use flowguard::{CheckVerdict, Deployment, EngineTelemetry, FlowGuardConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What the wrapper saw: per check, the allocations made inside it and
/// whether the engine rendered it fast-clean.
#[derive(Default)]
struct Tally {
    checks: Vec<(u64, bool)>,
}

/// Forwards every call to the wrapped engine, counting the allocations made
/// on this thread while `check` runs.
struct Counted {
    inner: Box<dyn SyscallInterceptor>,
    stats: Arc<EngineTelemetry>,
    tally: std::rc::Rc<std::cell::RefCell<Tally>>,
}

impl SyscallInterceptor for Counted {
    fn protects(&self, cr3: u64) -> bool {
        self.inner.protects(cr3)
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.inner.is_sensitive(nr)
    }

    fn check(&mut self, nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|c| c.set(true));
        let verdict = self.inner.check(nr, ctx);
        COUNTING.with(|c| c.set(false));
        let allocs = ALLOCS.with(Cell::get);
        let clean = self
            .stats
            .recent_events(1)
            .pop()
            .is_some_and(|(_, ev)| ev.verdict == CheckVerdict::FastClean);
        self.tally.borrow_mut().checks.push((allocs, clean));
        verdict
    }

    fn on_pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        self.inner.on_pmi(ctx)
    }

    fn on_trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        self.inner.on_trace_poll(ctx);
    }
}

/// Runs a trained nginx over a multi-request load with the engine wrapped,
/// returning the per-check tally.
fn tally_checks(cfg: FlowGuardConfig) -> Tally {
    let w = fg_workloads::nginx_patched();
    let mut d = Deployment::analyze(&w.image);
    d.train(std::slice::from_ref(&w.default_input));
    let input = fg_workloads::load_input(96, 3);
    let mut p = d.launch(&input, cfg);
    let inner = p.kernel.take_interceptor().expect("launch installs the engine");
    let tally = std::rc::Rc::default();
    p.kernel.install_interceptor(Box::new(Counted {
        inner,
        stats: Arc::clone(&p.stats),
        tally: std::rc::Rc::clone(&tally),
    }));
    assert_eq!(p.run(2_000_000_000), StopReason::Exited(0));
    assert!(!p.violated());
    drop(p);
    std::rc::Rc::try_unwrap(tally).ok().expect("the process is gone").into_inner()
}

fn assert_alloc_free(mode: &str, cfg: FlowGuardConfig) {
    let tally = tally_checks(cfg);
    let clean: Vec<(usize, u64)> = tally
        .checks
        .iter()
        .enumerate()
        .filter(|(_, &(_, clean))| clean)
        .map(|(i, &(allocs, _))| (i, allocs))
        .collect();
    assert!(clean.len() >= 16, "{mode}: too few fast-clean checks: {}", clean.len());
    let allocating: Vec<_> = clean.iter().filter(|&&(_, allocs)| allocs > 0).collect();
    assert!(
        allocating.is_empty(),
        "{mode}: fast-clean checks allocated (check index, allocations): {allocating:?}"
    );
}

#[test]
fn fast_clean_checks_do_not_allocate() {
    // One test, both modes in turn: the counter is per thread, and this
    // keeps the two runs apart.
    assert_alloc_free("endpoint", FlowGuardConfig::default());
    assert_alloc_free("streaming", FlowGuardConfig { streaming: true, ..Default::default() });
}

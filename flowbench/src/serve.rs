//! serve-* workloads: one long-lived protected server answers a seeded
//! request stream in a closed loop — it reads the next framed request only
//! after writing the previous response — measured in fixed-size
//! instruction windows until the deadline.

use crate::host::{ns_between, reference_loop_ns};
use crate::probe::{self, Probe};
use crate::workload::{stream, sub_seed, unprotected, RUN_BUDGET};
use crate::{Between, Ctx, RunData, Window};
use fg_cpu::machine::StopReason;
use fg_cpu::CycleAccount;
use flowguard::{Deployment, FlowGuardConfig};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The seeded request stream, generated in batches as the server needs it.
struct Feed {
    seed: u64,
    batch: usize,
    batches: u64,
    /// The first batch, kept for the output check.
    first: Vec<u8>,
    /// Stream offset at which each request ends.
    ends: Vec<u64>,
    bytes: u64,
}

impl Feed {
    fn new(seed: u64, batch: usize) -> Feed {
        Feed { seed, batch, batches: 0, first: Vec::new(), ends: Vec::new(), bytes: 0 }
    }

    /// Queues the next batch of requests.
    fn push(&mut self, input: &mut VecDeque<u8>) {
        let b =
            fg_workloads::load_input(self.batch, sub_seed(self.seed, stream::SERVE, self.batches));
        let mut at = 0;
        while at < b.len() {
            at += 2 + usize::from(b[at + 1]);
            self.ends.push(self.bytes + at as u64);
        }
        if self.batches == 0 {
            self.first.clone_from(&b);
        }
        self.batches += 1;
        self.bytes += b.len() as u64;
        input.extend(&b);
    }

    /// Cuts the queued input at the first request boundary at or past the
    /// server's read position, so the server finishes the request it is on
    /// and then reads end-of-input. Returns the requests it will have
    /// answered.
    fn cut(&self, input: &mut VecDeque<u8>) -> u64 {
        let consumed = self.bytes - input.len() as u64;
        let idx = self.ends.partition_point(|&e| e < consumed);
        let end = self.ends.get(idx).copied().unwrap_or(self.bytes);
        input.truncate(usize::try_from(end - consumed).expect("queued input fits usize"));
        idx as u64 + 1
    }

    /// The first `n` requests of the stream (at most one batch).
    fn prefix(&self, n: u64) -> &[u8] {
        let n = usize::try_from(n.min(self.batch as u64)).expect("batch fits usize");
        let end = if n == 0 { 0 } else { self.ends[n - 1] };
        &self.first[..usize::try_from(end).expect("batch fits usize")]
    }
}

/// Runs a serve workload until the deadline (and at least
/// `min_windows` windows), then lets the server finish its request and
/// exit, and checks its exit, verdicts and output.
pub fn run(
    ctx: &mut Ctx,
    d: &Deployment,
    cfg: &FlowGuardConfig,
    between: &mut Between<'_>,
) -> RunData {
    let sizes = ctx.sizes;
    let probe = Probe::shared(ctx.epoch);
    let mut p = probe::launch(d, &[], cfg, &probe);
    let mut feed = Feed::new(ctx.seed, sizes.batch);
    let mut run = RunData::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while run.windows.len() < sizes.min_windows || Instant::now() < deadline {
        between(ctx);
        while p.kernel.input.len() < sizes.low_water_bytes {
            feed.push(&mut p.kernel.input);
        }
        let ws = run.windows.len() as u64;
        let traced = ctx.tracing() && ws % 2 == 1;
        probe.borrow_mut().set_tracing(traced);
        let ref_ns = reference_loop_ns();
        let (insns, model) = (p.machine.insns_retired, p.machine.account);
        let t0 = Instant::now();
        let stop = p.run(sizes.window_insns);
        let t1 = Instant::now();
        let window = Window {
            traced,
            ns: ns_between(t0, t1),
            insns: p.machine.insns_retired - insns,
            calls: probe.borrow_mut().take(),
            ref_ns,
            model: minus(&p.machine.account, &model),
            ..Window::default()
        };
        if let (true, Some(log)) = (traced, ctx.spans.as_mut()) {
            let id = log.span(ctx.root, "window", ws, t0, t1);
            log.record_calls(id, ws, &window.calls);
        }
        run.windows.push(window);
        if stop != StopReason::InsnLimit {
            let n = feed.ends.len() as u64;
            run.attempted = n;
            run.fail(n, format!("server stopped mid-stream: {stop}"));
            return run;
        }
    }

    probe.borrow_mut().set_tracing(false);
    let answered = feed.cut(&mut p.kernel.input);
    let stop = p.run(RUN_BUDGET);
    probe.borrow_mut().take();
    run.requests = answered;
    run.attempted = answered;
    run.insns = p.machine.insns_retired;
    if ctx.tracing() {
        run.telemetry.absorb(&p.stats.telemetry_snapshot());
    }

    if stop != StopReason::Exited(0) || p.violated() {
        run.fail(answered, format!("server ended {stop}, violations {:?}", p.kernel.violations));
    } else if p.stats.checks() < answered {
        run.fail(answered, format!("{} checks for {answered} responses", p.stats.checks()));
    } else {
        let (ref_stop, ref_out) = unprotected(d, feed.prefix(answered));
        if ref_stop != StopReason::Exited(0) || !p.kernel.output.starts_with(&ref_out) {
            run.fail(answered, "output differs from the unprotected reference".to_owned());
        }
    }
    run
}

/// `a - b`, phase by phase.
fn minus(a: &CycleAccount, b: &CycleAccount) -> CycleAccount {
    CycleAccount {
        exec: a.exec - b.exec,
        trace: a.trace - b.trace,
        decode: a.decode - b.decode,
        check: a.check - b.check,
        other: a.other - b.other,
    }
}

//! Per-layer metrics of the traced run: the timed engine calls of the
//! traced windows, telemetry counters read by key, the set-up phases, and
//! replays that call `fg-cpu`, `fg-ipt` and the slow path directly.

use crate::host::{median, ns_between, quantile, secs};
use crate::probe::{self, Call, Probe};
use crate::report::Metric;
use crate::workload::{stream, sub_seed, Setup, RUN_BUDGET};
use crate::{insns_per_s, quiet, ratio, Ctx, RunData};
use fg_cpu::machine::{Machine, StopReason, TRACE_POLL_PERIOD};
use fg_cpu::trace::{IptUnit, TraceUnit};
use fg_cpu::CostModel;
use fg_ipt::topa::Topa;
use fg_ipt::StreamConsumer;
use fg_kernel::Kernel;
use flowguard::slowpath::{self, SlowScratch};
use flowguard::{Deployment, FlowGuardConfig, TelemetrySnapshot, WorkerPool, DEFAULT_CR3};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Engine telemetry read by key from `TelemetrySnapshot` JSON, so that a
/// counter deleted from the engine drops one metric instead of breaking
/// this build. Top-level numbers are summed over processes; numbers one
/// level down (histogram summaries such as `frontier_lag.p99`) keep their
/// maximum over processes.
#[derive(Debug, Default)]
pub struct Counters {
    values: BTreeMap<String, f64>,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

impl Counters {
    /// Adds one process's telemetry.
    pub fn absorb(&mut self, snap: &TelemetrySnapshot) {
        let Value::Object(fields) = snap.to_value() else { return };
        for (key, v) in fields {
            if let Some(x) = number(&v) {
                *self.values.entry(key).or_default() += x;
            } else if let Value::Object(sub) = v {
                for (sub_key, sv) in sub {
                    if let Some(x) = number(&sv) {
                        let e = self.values.entry(format!("{key}.{sub_key}")).or_insert(x);
                        *e = e.max(x);
                    }
                }
            }
        }
    }

    /// Counter `key`. A key the telemetry no longer has prints a warning
    /// and yields `None`, which drops the metric built on it.
    pub fn get(&self, key: &str) -> Option<f64> {
        let v = self.values.get(key).copied();
        if v.is_none() {
            eprintln!("warning: telemetry has no `{key}`; dropping the metrics that read it");
        }
        v
    }
}

/// Host probes of the run.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Cost of one timed region, ns.
    pub timer_ns: f64,
    /// Reference loop at the start, ms.
    pub ref_start_ms: f64,
    /// Reference loop at the end, ms.
    pub ref_end_ms: f64,
}

/// Results of the traced run's replays.
#[derive(Debug, Default)]
pub struct Replays {
    /// Unprotected, IPT-traced reference run: simulated Minsn per host s.
    pub mips: f64,
    /// Its trace bytes per request.
    pub trace_bytes_per_req: f64,
    /// `fast::scan_vectorized` over the reference trace, ns per KiB.
    pub scan_ns_per_kib: f64,
    /// `StreamConsumer::drain` fed the reference trace in poll-sized
    /// increments, ns per KiB.
    pub drain_ns_per_kib: f64,
    /// `slowpath::check` (serial) over the trace's tail, ms.
    pub slow_serial_ms: f64,
    /// `slowpath::check_incremental` on the worker pool over the same
    /// tail, cold, ms.
    pub slow_sharded_ms: f64,
    /// Median launch (`Deployment::launch` plus the wrapper), µs.
    pub launch_us_p50: f64,
    /// Launches timed.
    pub launches: usize,
    /// Replays whose results disagreed or failed.
    pub failures: Vec<String>,
}

/// Regions of the reference run's ToPA: large enough that it never wraps.
const REF_REGION_BYTES: usize = 1 << 22;
/// Repetitions of each replay (the median is reported).
const REPLAY_REPS: usize = 3;

/// Runs the traced run's replays on `d`.
pub fn replays(ctx: &mut Ctx, d: &Deployment, cfg: &FlowGuardConfig) -> Replays {
    let sizes = ctx.sizes;
    let mut out = Replays::default();
    let root = ctx.root;
    let mut log = ctx.spans.take();
    let mut span = |name, t0, t1| {
        if let Some(log) = log.as_mut() {
            log.span(root, name, 0, t0, t1);
        }
    };

    // fg-cpu: the same kind of input, unprotected, IPT-traced, no engine.
    let input =
        fg_workloads::load_input(sizes.ref_requests, sub_seed(ctx.seed, stream::REFERENCE, 0));
    let mut m = Machine::new(&d.image, DEFAULT_CR3);
    let mut unit =
        IptUnit::flowguard(DEFAULT_CR3, Topa::two_regions(REF_REGION_BYTES).expect("valid ToPA"));
    unit.start(d.image.entry(), DEFAULT_CR3);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = Kernel::with_input(&input);
    let t0 = Instant::now();
    let stop = m.run(&mut k, RUN_BUDGET);
    let t1 = Instant::now();
    span("replay.reference", t0, t1);
    if stop != StopReason::Exited(0) {
        out.failures.push(format!("reference run ended {stop}"));
    }
    let unit = m.trace.as_ipt_mut().expect("IPT unit installed");
    unit.flush();
    let emitted = unit.bytes_emitted();
    let trace = unit.trace_bytes();
    out.mips = ratio(m.insns_retired as f64, secs(t1 - t0) * 1e6);
    out.trace_bytes_per_req = emitted as f64 / sizes.ref_requests as f64;
    let kib = trace.len() as f64 / 1024.0;

    // fg-ipt: the vectorized scan, and the streaming drain at poll cadence.
    let mut scan_ns = Vec::new();
    for _ in 0..REPLAY_REPS {
        let t0 = Instant::now();
        let ok = fg_ipt::scan_vectorized(&trace).is_ok();
        let t1 = Instant::now();
        span("replay.scan", t0, t1);
        scan_ns.push(ns_between(t0, t1) as f64);
        if !ok {
            out.failures.push("vectorized scan rejected the reference trace".to_owned());
        }
    }
    out.scan_ns_per_kib = ratio(median(&mut scan_ns), kib);
    let step = usize::try_from((emitted * TRACE_POLL_PERIOD / m.insns_retired.max(1)).max(1))
        .expect("step fits usize");
    let mut drain_ns = Vec::new();
    for _ in 0..REPLAY_REPS {
        let mut c = StreamConsumer::new();
        let t0 = Instant::now();
        let mut end = 0;
        let mut ok = true;
        while end < trace.len() {
            end = (end + step).min(trace.len());
            ok &= c.drain(&trace[..end], end as u64).is_ok();
        }
        let t1 = Instant::now();
        span("replay.drain", t0, t1);
        drain_ns.push(ns_between(t0, t1) as f64);
        if !ok {
            out.failures.push("stream drain rejected the reference trace".to_owned());
        }
    }
    out.drain_ns_per_kib = ratio(median(&mut drain_ns), kib);

    // slowpath: serial against pooled, cold, over the trace's tail.
    let tail = &trace[trace.len().saturating_sub(sizes.slow_window)..];
    let cost = CostModel::calibrated();
    let (mut serial_ms, mut sharded_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_REPS {
        let t0 = Instant::now();
        let serial = slowpath::check(&d.image, &d.ocfg, tail, &cost);
        let t1 = Instant::now();
        let mut scratch = SlowScratch::new();
        let pool = Some(WorkerPool::global());
        let sharded =
            slowpath::check_incremental(&d.image, &d.ocfg, tail, 0, &cost, pool, &mut scratch);
        let t2 = Instant::now();
        span("replay.slow_serial", t0, t1);
        span("replay.slow_sharded", t1, t2);
        serial_ms.push(secs(t1 - t0) * 1e3);
        sharded_ms.push(secs(t2 - t1) * 1e3);
        if serial.verdict != sharded.verdict {
            out.failures.push("pooled slow path disagrees with the serial one".to_owned());
        }
    }
    out.slow_serial_ms = median(&mut serial_ms);
    out.slow_sharded_ms = median(&mut sharded_ms);

    // engine: launches of the workload's configuration.
    let probe = Probe::shared(ctx.epoch);
    let one = fg_workloads::load_input(1, sub_seed(ctx.seed, stream::REFERENCE, 1));
    let mut launch_us: Vec<f64> = (0..sizes.launch_reps)
        .map(|_| {
            let t0 = Instant::now();
            let p = probe::launch(d, &one, cfg, &probe);
            let t1 = Instant::now();
            drop(p);
            span("replay.launch", t0, t1);
            secs(t1 - t0) * 1e6
        })
        .collect();
    out.launches = launch_us.len();
    out.launch_us_p50 = median(&mut launch_us);
    ctx.spans = log;
    out
}

/// Timer-corrected host ns of `calls`.
fn corrected_ns<'a>(calls: impl Iterator<Item = &'a Call>, timer_ns: f64) -> Vec<f64> {
    calls.map(|c| (c.ns as f64 - timer_ns).max(0.0)).collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(ctx: &Ctx, setup: &Setup, run: &RunData, r: &Replays, host: &Host) -> Vec<Metric> {
    let t = host.timer_ns;
    let share = ctx.sizes.quiet_share;
    let traced = quiet(run.windows.iter().filter(|w| w.traced), share);
    let plain = quiet(run.windows.iter().filter(|w| !w.traced), share);
    let n = traced.len();
    let win_ns: f64 = traced.iter().map(|w| w.ns as f64).sum();
    let req = traced.iter().map(|w| w.insns as f64).sum::<f64>() * run.requests_per_insn();
    let checks = || traced.iter().flat_map(|w| &w.calls.checks);
    let check_ns: f64 = corrected_ns(checks(), t).iter().sum();
    let pmi_ns: f64 = corrected_ns(traced.iter().flat_map(|w| &w.calls.pmis), t).iter().sum();
    let polls: f64 = traced.iter().map(|w| w.calls.polls as f64).sum();
    let poll_ns = (traced.iter().map(|w| w.calls.poll_ns as f64).sum::<f64>() - polls * t).max(0.0);
    let launches: f64 = traced.iter().map(|w| w.launches as f64).sum();
    let launch_ns =
        (traced.iter().map(|w| w.launch_ns as f64).sum::<f64>() - launches * t).max(0.0);
    let guard_ns = check_ns + pmi_ns + poll_ns;
    let mut fast_us: Vec<f64> =
        corrected_ns(checks().filter(|c| !c.escalated), t).iter().map(|ns| ns / 1e3).collect();
    let mut slow_us: Vec<f64> =
        corrected_ns(checks().filter(|c| c.escalated), t).iter().map(|ns| ns / 1e3).collect();
    let overhead = 100.0 * (1.0 - ratio(insns_per_s(&traced), insns_per_s(&plain)));
    let reps = setup.total_s.len();
    let requests = usize::try_from(run.requests).expect("request count fits usize");

    let mut m = vec![
        Metric::new("cpu.mips", r.mips, "Minsn/s", 1),
        Metric::new(
            "cpu.trace_bytes_per_req",
            r.trace_bytes_per_req,
            "B/req",
            ctx.sizes.ref_requests,
        ),
        Metric::new("kernel.polls_per_req", ratio(polls, req), "polls/req", n),
        Metric::new("engine.poll_ns_per_call", ratio(poll_ns, polls), "ns", n),
        Metric::new("engine.poll_us_per_req", ratio(poll_ns, req) / 1e3, "us/req", n),
        Metric::new("engine.pmi_us_per_req", ratio(pmi_ns, req) / 1e3, "us/req", n),
        Metric::new("engine.guard_share", ratio(guard_ns, win_ns), "ratio", n),
        Metric::new("engine.launch_us_p50", r.launch_us_p50, "us", r.launches),
        Metric::new("sim.gap_share", ratio(win_ns - guard_ns - launch_ns, win_ns), "ratio", n),
        Metric::new("fastpath.check_us_p50", median(&mut fast_us), "us", fast_us.len()),
        Metric::new("fastpath.check_us_p99", quantile(&mut fast_us, 0.99), "us", fast_us.len()),
        Metric::new("slowpath.check_us_p50", median(&mut slow_us), "us", slow_us.len()),
        Metric::new("slowpath.serial_ms", r.slow_serial_ms, "ms", REPLAY_REPS),
        Metric::new("slowpath.sharded_ms", r.slow_sharded_ms, "ms", REPLAY_REPS),
        Metric::new("ipt.scan_ns_per_kib", r.scan_ns_per_kib, "ns/KiB", REPLAY_REPS),
        Metric::new("ipt.drain_ns_per_kib", r.drain_ns_per_kib, "ns/KiB", REPLAY_REPS),
        Metric::new("cfg.analyze_ms", median(&mut setup.analyze_ms.clone()), "ms", reps),
        Metric::new("fuzz.train_ms", median(&mut setup.train_ms.clone()), "ms", reps),
        Metric::new("verify.verify_ms", median(&mut setup.verify_ms.clone()), "ms", reps),
        Metric::new("host.timer_ns", host.timer_ns, "ns", 64),
        Metric::new("host.ref_ms_start", host.ref_start_ms, "ms", 3),
        Metric::new("host.ref_ms_end", host.ref_end_ms, "ms", 3),
        Metric::new("bench.trace_overhead_pct", overhead, "%", n + plain.len()),
    ];

    // Telemetry counters, by key.
    let tel = &run.telemetry;
    let mut keyed = |name: &str, unit: &str, value: Option<f64>| {
        if let Some(v) = value {
            m.push(Metric::new(name, v, unit, requests));
        }
    };
    let (checks, slow) = (tel.get("checks"), tel.get("slow_invocations"));
    let pairs = tel.get("pairs_checked");
    keyed(
        "fastpath.bytes_per_check",
        "B/check",
        tel.get("bytes_scanned").zip(checks).map(|(b, c)| ratio(b, c)),
    );
    keyed("fastpath.pairs_per_check", "pairs/check", pairs.zip(checks).map(|(p, c)| ratio(p, c)));
    keyed(
        "fastpath.credit_ratio",
        "ratio",
        tel.get("credited_pairs").zip(pairs).map(|(c, p)| ratio(c, p)),
    );
    keyed(
        "fastpath.edge_cache_hit_ratio",
        "ratio",
        tel.get("edge_cache_hits").zip(tel.get("edge_cache_misses")).map(|(h, x)| ratio(h, h + x)),
    );
    keyed("fastpath.cold_restarts", "count", tel.get("cold_restarts"));
    keyed("slowpath.escalations", "count", slow);
    keyed("slowpath.escalation_frac", "ratio", slow.zip(checks).map(|(s, c)| ratio(s, c)));
    keyed(
        "slowpath.checkpoint_hit_ratio",
        "ratio",
        tel.get("slow_checkpoint_hits")
            .zip(tel.get("slow_checkpoint_misses"))
            .map(|(h, x)| ratio(h, h + x)),
    );
    keyed(
        "ipt.stream_bytes_per_req",
        "B/req",
        tel.get("stream_drained_bytes").map(|b| ratio(b, run.requests as f64)),
    );
    keyed("ipt.frontier_lag_p99", "B", tel.get("frontier_lag.p99"));
    m
}

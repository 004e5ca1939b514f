//! **Slow-path micro-benchmarks** — PSB-sharded parallel decode throughput
//! and checkpointed re-decode avoidance.
//!
//! The slow path is FlowGuard's dominant cost (§2: instruction-flow decode
//! runs ~230× execution), so this experiment measures the two levers that
//! attack it: fanning PSB-delimited shard decodes across a fixed 4-worker
//! pool, and the decode checkpoint (instructions actually decoded across a
//! run of overlapping windows, warm vs. cold).
//!
//! [`modeled`] is the deterministic half — the modeled critical-path
//! speedup of the sharded schedule over the serial decode of the same
//! window, the checkpoint workload, and an untrained protected run's
//! slow-path distributions — pinned exactly by the root `bench_golden`
//! test. [`timed`] is the host-timed half: wall-clock decode and check
//! throughput, informational because parallelism depends on the host's
//! core count. Both land in `BENCH_slowpath.json`.

use crate::measure::time_per_iter;
use crate::table::{fmt, Table};
use fg_cpu::{CostModel, IptUnit, Machine, TraceUnit};
use fg_ipt::shard::{decode_shard, shard_spans, ShardDecode, Stitcher};
use fg_ipt::topa::Topa;
use fg_ipt::FlowMachine;
use fg_isa::insn::CofiKind;
use fg_trace::HistogramSnapshot;
use flowguard::slowpath::{self, SlowScratch, SlowVerdict};
use flowguard::{Deployment, FlowGuardConfig, WorkerPool};
use serde::{Deserialize, Serialize};

/// The default artifact file name.
pub const JSON_PATH: &str = "BENCH_slowpath.json";

/// Workers in the decode fleet: fixed so the modeled speedup is comparable
/// across machines.
pub const DECODE_WORKERS: usize = 4;

/// Overlapping windows in the checkpoint workload.
pub const CHECKPOINT_WINDOWS: usize = 8;

/// One full measurement, serialised as `BENCH_slowpath.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlowpathBench {
    /// Bench trace size, MiB.
    pub trace_mib: f64,
    /// PSB-delimited shards the bench trace splits into.
    pub shards: u64,
    /// Workers in the sharded-decode fleet.
    pub decode_workers: u64,
    /// Serial instruction-flow decode throughput, MiB of trace per second.
    /// Wall-clock; scales with the host — informational, never gated.
    pub serial_decode_mib_per_sec: f64,
    /// Sharded decode (fan-out + sequential stitch) throughput, MiB/s.
    /// Wall-clock; on hosts with fewer physical cores than
    /// [`DECODE_WORKERS`] this can sit *below* serial — informational.
    pub sharded_decode_mib_per_sec: f64,
    /// Modeled decode-cycle speedup of the 4-worker sharded schedule over
    /// the serial decode: total shard decode cycles divided by the critical
    /// path (the most-loaded worker's strided share plus the sequential
    /// seam stitch). Deterministic and hardware-independent — what the
    /// wall-clock speedup converges to on a host with ≥ [`DECODE_WORKERS`]
    /// idle cores (higher is better).
    pub sharded_decode_speedup: f64,
    /// One full cold slow-path check (decode + policies), serial, in µs.
    pub serial_check_us: f64,
    /// The same check with the shard fan-out on the pool, in µs.
    pub sharded_check_us: f64,
    /// Windows in the checkpoint workload.
    pub checkpoint_windows: u64,
    /// Instructions decoded across the workload with a fresh scratch per
    /// window (every check cold).
    pub cold_insns_decoded: u64,
    /// Instructions decoded with one persistent scratch (warm resumes).
    pub warm_insns_decoded: u64,
    /// `warm / cold` instructions decoded (lower is better).
    pub checkpoint_insn_ratio: f64,
    /// Fraction of workload checks that resumed warm (higher is better).
    pub checkpoint_hit_rate: f64,
    /// Distribution of per-escalation slow-path decode cycles over a
    /// protected run.
    pub slow_decode_cycles_dist: HistogramSnapshot,
    /// Distribution of per-escalation sequential stitch cycles.
    pub slow_stitch_cycles_dist: HistogramSnapshot,
    /// Distribution of PSB shards per slow-path decode.
    pub slow_shards_dist: HistogramSnapshot,
    /// Engine-level checkpoint hits over the protected run.
    pub engine_checkpoint_hits: u64,
    /// Engine-level cold decodes over the protected run.
    pub engine_checkpoint_misses: u64,
}

struct Setup {
    image: fg_isa::image::Image,
    ocfg: fg_cfg::OCfg,
    trace: Vec<u8>,
}

fn setup() -> Setup {
    let w = fg_workloads::nginx_patched();
    let ocfg = fg_cfg::OCfg::build(&w.image);
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let trace = m.trace.as_ipt().expect("ipt").trace_bytes();
    Setup { image: w.image.clone(), ocfg, trace }
}

/// The decode half of the slow path, sharded: independent [`decode_shard`]
/// calls batched into one strided task per worker (PSB shards average well
/// under a KiB, so per-shard task dispatch would drown the decode work),
/// then the sequential seam-validating stitch — the exact structure
/// `slowpath::check_incremental` runs, minus the policy replay, so the
/// speedup isolates the parallelisable work.
pub fn decode_sharded_pool(image: &fg_isa::image::Image, buf: &[u8], pool: &WorkerPool) -> u64 {
    let spans = shard_spans(buf);
    let mut acc = FlowMachine::new(false);
    let mut st = Stitcher::new(image, &mut acc);
    let head_end = spans.first().map_or(buf.len(), |&(s, _)| s);
    st.feed_serial(&buf[..head_end]).expect("head");
    let workers = pool.size().min(spans.len()).max(1);
    let spans_ref = &spans;
    let tasks: Vec<_> = (0..workers)
        .map(|w| {
            move || {
                spans_ref
                    .iter()
                    .enumerate()
                    .skip(w)
                    .step_by(workers)
                    .map(|(i, &(s, e))| (i, decode_shard(image, &buf[s..e])))
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let mut shards: Vec<(usize, ShardDecode)> = pool.run(tasks).into_iter().flatten().collect();
    shards.sort_unstable_by_key(|&(i, _)| i);
    for (shard, &(s, e)) in shards.iter_mut().map(|(_, sd)| sd).zip(&spans) {
        st.push(&buf[s..e], shard).expect("stitch");
    }
    acc.trace().insns_walked
}

/// Serial reference for [`decode_sharded_pool`].
pub fn decode_serial_ref(image: &fg_isa::image::Image, buf: &[u8]) -> u64 {
    fg_ipt::shard::decode_serial(image, buf).expect("serial decode").trace().insns_walked
}

/// Modeled decode cycles of one decoded shard: every walked instruction
/// plus a TIP decode per indirect outcome — the same cost model
/// `slowpath::check_incremental` charges.
fn shard_cycles(sd: &ShardDecode, cost: &CostModel) -> f64 {
    let t = sd.machine.trace();
    let tips = t
        .branches
        .iter()
        .filter(|b| matches!(b.kind, CofiKind::IndCall | CofiKind::IndJmp | CofiKind::Ret))
        .count();
    t.insns_walked as f64 * cost.flow_decode_insn_cycles + tips as f64 * cost.flow_decode_tip_cycles
}

/// Modeled speedup of the sharded schedule on a `workers`-wide fleet:
/// serial cycles (the sum over every shard) divided by the critical path —
/// the most-loaded worker under the runtime's strided shard distribution,
/// plus the sequential seam-stitch replay that no fleet width removes
/// (Amdahl's serial fraction). Deterministic: depends only on the trace,
/// the binary, and the cost model, so a single-core runner computes the
/// same number a 32-core workstation reproduces in wall-clock.
pub fn modeled_speedup(
    image: &fg_isa::image::Image,
    buf: &[u8],
    cost: &CostModel,
    workers: usize,
) -> f64 {
    let spans = shard_spans(buf);
    let mut serial = 0.0f64;
    let mut load = vec![0.0f64; workers.max(1)];
    let mut stitch = 0.0f64;
    for (i, &(s, e)) in spans.iter().enumerate() {
        let sd = decode_shard(image, &buf[s..e]);
        let c = shard_cycles(&sd, cost);
        serial += c;
        load[i % workers.max(1)] += c;
        stitch += sd.machine.trace().branches.len() as f64 * cost.flow_stitch_event_cycles;
    }
    let critical = load.iter().copied().fold(0.0f64, f64::max) + stitch;
    if critical == 0.0 {
        return 1.0;
    }
    serial / critical
}

/// The checkpoint workload: `CHECKPOINT_WINDOWS` growing windows over the
/// trace (cut at PSB offsets), checked in sequence. Returns total
/// instructions decoded plus, for the warm variant, the scratch's hit/miss
/// counters.
fn checkpoint_workload(s: &Setup, cost: &CostModel, warm: bool) -> (u64, u64, u64) {
    let psbs = fg_ipt::PacketParser::psb_offsets(&s.trace);
    assert!(psbs.len() >= CHECKPOINT_WINDOWS, "bench trace has too few PSBs");
    let step = psbs.len() / CHECKPOINT_WINDOWS;
    let mut cuts: Vec<usize> = (1..CHECKPOINT_WINDOWS).map(|i| psbs[i * step]).collect();
    cuts.push(s.trace.len());

    let mut persistent = SlowScratch::new();
    let mut total = 0u64;
    for &cut in &cuts {
        let mut fresh = SlowScratch::new();
        let scratch = if warm { &mut persistent } else { &mut fresh };
        let r =
            slowpath::check_incremental(&s.image, &s.ocfg, &s.trace[..cut], 0, cost, None, scratch);
        assert!(matches!(r.verdict, SlowVerdict::Clean { .. }), "benign windows must be clean");
        total += r.insns_decoded;
    }
    (total, persistent.checkpoint_hits, persistent.checkpoint_misses)
}

/// A protected nginx run's telemetry (drives the slow-path distribution
/// columns and the engine-level checkpoint counters). Deliberately
/// *untrained*: a trained ITC-CFG clears nearly every check on the fast
/// path and the slow-path histograms would stay empty — zero credit forces
/// the escalations this experiment is about.
fn protected_telemetry() -> flowguard::TelemetrySnapshot {
    let w = fg_workloads::nginx_patched();
    let d = Deployment::analyze(&w.image);
    let mut p = d.launch(&w.default_input, FlowGuardConfig::default());
    let stop = p.run(crate::measure::BUDGET);
    assert!(matches!(stop, fg_cpu::StopReason::Exited(0)), "benign run must exit: {stop:?}");
    p.stats.telemetry_snapshot()
}

/// The deterministic half: trace shape, the modeled sharded speedup, the
/// checkpoint workload cold and warm, and an untrained protected run's
/// slow-path distributions. The host-timed columns stay zero.
pub fn modeled() -> SlowpathBench {
    let s = setup();
    let cost = CostModel::calibrated();

    // Checkpointed re-decode avoidance over overlapping windows.
    let (cold_insns, _, _) = checkpoint_workload(&s, &cost, false);
    let (warm_insns, hits, misses) = checkpoint_workload(&s, &cost, true);
    assert!(warm_insns < cold_insns, "warm lineage must decode strictly less");

    let t = protected_telemetry();

    SlowpathBench {
        trace_mib: s.trace.len() as f64 / (1024.0 * 1024.0),
        shards: shard_spans(&s.trace).len() as u64,
        decode_workers: DECODE_WORKERS as u64,
        sharded_decode_speedup: modeled_speedup(&s.image, &s.trace, &cost, DECODE_WORKERS),
        checkpoint_windows: CHECKPOINT_WINDOWS as u64,
        cold_insns_decoded: cold_insns,
        warm_insns_decoded: warm_insns,
        checkpoint_insn_ratio: warm_insns as f64 / cold_insns as f64,
        checkpoint_hit_rate: hits as f64 / (hits + misses) as f64,
        slow_decode_cycles_dist: t.slowpath_decode_cycles,
        slow_stitch_cycles_dist: t.slowpath_stitch_cycles,
        slow_shards_dist: t.slowpath_shards,
        engine_checkpoint_hits: t.slow_checkpoint_hits,
        engine_checkpoint_misses: t.slow_checkpoint_misses,
        ..SlowpathBench::default()
    }
}

/// The host-timed half: fills the wall-clock columns of `b`.
pub fn timed(b: &mut SlowpathBench) {
    let s = setup();
    let mib = s.trace.len() as f64 / (1024.0 * 1024.0);
    let pool = WorkerPool::with_size(DECODE_WORKERS);
    let cost = CostModel::calibrated();

    // Decode throughput: identical result, serial vs. pool-sharded.
    let serial_insns = decode_serial_ref(&s.image, &s.trace);
    assert_eq!(
        decode_sharded_pool(&s.image, &s.trace, &pool),
        serial_insns,
        "sharded decode must be bit-identical to serial"
    );
    let serial_sec = time_per_iter(3, || decode_serial_ref(&s.image, &s.trace));
    let sharded_sec = time_per_iter(3, || decode_sharded_pool(&s.image, &s.trace, &pool));

    // Full cold checks (decode + forward edges + shadow stack).
    let check_serial_sec = time_per_iter(3, || slowpath::check(&s.image, &s.ocfg, &s.trace, &cost));
    let check_sharded_sec = time_per_iter(3, || {
        let mut scratch = SlowScratch::new();
        slowpath::check_incremental(
            &s.image,
            &s.ocfg,
            &s.trace,
            0,
            &cost,
            Some(&pool),
            &mut scratch,
        )
    });

    b.serial_decode_mib_per_sec = mib / serial_sec;
    b.sharded_decode_mib_per_sec = mib / sharded_sec;
    b.serial_check_us = check_serial_sec * 1e6;
    b.sharded_check_us = check_sharded_sec * 1e6;
}

/// Runs both halves once.
pub fn run() -> SlowpathBench {
    let mut b = modeled();
    timed(&mut b);
    b
}

/// Prints the table and writes `BENCH_slowpath.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match crate::measure::write_json(&b, JSON_PATH) {
        Ok(()) => println!("\nwrote {JSON_PATH}"),
        Err(e) => eprintln!("\nfailed to write {JSON_PATH}: {e}"),
    }
}

/// Renders the metric table for a measurement.
pub fn print_table(b: &SlowpathBench) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["trace MiB".into(), fmt(b.trace_mib, 2)]);
    t.row(vec!["PSB shards".into(), fmt(b.shards as f64, 0)]);
    t.row(vec!["decode workers".into(), fmt(b.decode_workers as f64, 0)]);
    t.row(vec!["serial decode MiB/s (wall)".into(), fmt(b.serial_decode_mib_per_sec, 2)]);
    t.row(vec!["sharded decode MiB/s (wall)".into(), fmt(b.sharded_decode_mib_per_sec, 2)]);
    t.row(vec!["sharded decode speedup (modeled)".into(), fmt(b.sharded_decode_speedup, 2)]);
    t.row(vec!["cold check serial µs".into(), fmt(b.serial_check_us, 0)]);
    t.row(vec!["cold check sharded µs".into(), fmt(b.sharded_check_us, 0)]);
    t.row(vec!["checkpoint windows".into(), fmt(b.checkpoint_windows as f64, 0)]);
    t.row(vec!["cold insns decoded".into(), fmt(b.cold_insns_decoded as f64, 0)]);
    t.row(vec!["warm insns decoded".into(), fmt(b.warm_insns_decoded as f64, 0)]);
    t.row(vec!["checkpoint insn ratio".into(), fmt(b.checkpoint_insn_ratio, 4)]);
    t.row(vec!["checkpoint hit rate".into(), fmt(b.checkpoint_hit_rate, 3)]);
    let d = &b.slow_shards_dist;
    t.row(vec!["shards/escalation p50/p99".into(), format!("{}/{}", d.p50, d.p99)]);
    t.row(vec![
        "engine ckpt hits/misses".into(),
        format!("{}/{}", b.engine_checkpoint_hits, b.engine_checkpoint_misses),
    ]);
    t.print("Slow-path micro-benchmarks (BENCH_slowpath.json)");
}

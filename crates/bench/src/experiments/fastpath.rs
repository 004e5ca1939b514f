//! **Fast-path micro-benchmarks** — scan throughput, edge-lookup latency,
//! endpoint-check latency, and the incremental scanner's bytes-per-check.
//!
//! [`modeled`] is the deterministic half: bytes per check against the cold
//! oracle, the edge-cache hit rate and the latency distributions of one
//! protected nginx run, pinned exactly by the root `bench_golden` test.
//! [`timed`] is the host-timed half: the harness's own fast-path hot loops
//! in wall-clock time, of which `bench_gate` judges the CSR vs. BTreeMap
//! lookup speedup on the median of its runs; the absolute throughputs are
//! informational. Both land in `BENCH_fastpath.json`.

use crate::measure::{time_interleaved, time_per_iter};
use crate::table::{fmt, Table};
use fg_cfg::EdgeIdx;
use fg_cpu::CostModel;
use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{fast, IncrementalScanner};
use fg_trace::HistogramSnapshot;
use flowguard::reference::ColdWindowTally;
use flowguard::{fastpath, CheckScratch, FlowGuardConfig, SlowPathCache};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;

/// The default artifact file name.
pub const JSON_PATH: &str = "BENCH_fastpath.json";

/// One full measurement, serialised as `BENCH_fastpath.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FastpathBench {
    /// Serial packet-scan throughput, MiB of trace per second.
    pub scan_mib_per_sec: f64,
    /// TIP pairs checked per second through the windowed fast path.
    pub pairs_per_sec: f64,
    /// One ITC-CFG edge lookup through the interned CSR tables, in ns.
    pub edge_lookup_ns: f64,
    /// The same lookups through a `BTreeMap<(u64, u64), EdgeIdx>` — the
    /// pre-interning representation, kept as the comparison baseline.
    pub edge_lookup_ns_btreemap: f64,
    /// `edge_lookup_ns_btreemap / edge_lookup_ns` (higher is better).
    pub edge_lookup_speedup: f64,
    /// One windowed endpoint check (scan already advanced), in ns.
    pub endpoint_check_ns: f64,
    /// Mean trace bytes scanned per endpoint check by the engine's
    /// checkpointed consumer (a protected nginx run).
    pub bytes_per_check_incremental: f64,
    /// Mean bytes the cold tail-window rescan
    /// ([`flowguard::reference::cold_window_scan`]) scans at the same
    /// checks of the same run.
    pub bytes_per_check_cold: f64,
    /// `bytes_per_check_incremental / bytes_per_check_cold` (lower is
    /// better; deterministic, hardware-independent).
    pub bytes_per_check_ratio: f64,
    /// Direct-mapped edge-cache hit rate over the protected run.
    pub edge_cache_hit_rate: f64,
    /// Distribution of simulated per-check latency (cycles) over the
    /// protected run, from the engine telemetry.
    pub check_cycles_dist: HistogramSnapshot,
    /// Distribution of simulated fast-path scan cycles per check.
    pub scan_cycles_dist: HistogramSnapshot,
    /// Distribution of trace bytes scanned per check by the engine.
    pub bytes_per_check_dist: HistogramSnapshot,
}

struct Setup {
    image: fg_isa::image::Image,
    itc: fg_cfg::ItcCfg,
    trace: Vec<u8>,
    scan: fast::FastScan,
}

fn setup() -> Setup {
    let w = fg_workloads::nginx_patched();
    let ocfg = fg_cfg::OCfg::build(&w.image);
    let mut itc = fg_cfg::ItcCfg::build(&ocfg);
    fg_fuzz::train(
        &mut itc,
        &w.image,
        std::slice::from_ref(&w.default_input),
        fg_fuzz::TrainConfig::default(),
    );
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let trace = m.trace.as_ipt().expect("ipt").trace_bytes();
    let scan = fast::scan(&trace).expect("scan");
    Setup { image: w.image.clone(), itc, trace, scan }
}

/// A protected nginx run's full telemetry snapshot (drives bytes-per-check,
/// cache hit rate, and the latency-distribution columns), plus the bytes
/// the cold tail-window oracle scanned at the same checks.
fn protected_telemetry() -> (flowguard::TelemetrySnapshot, u64) {
    let w = fg_workloads::nginx_patched();
    let d = crate::measure::trained_deployment(&w);
    let cfg = FlowGuardConfig::default();
    let mut p = d.launch(&w.default_input, cfg.clone());
    let cold_bytes = ColdWindowTally::install(&mut p, &cfg);
    let stop = p.run(crate::measure::BUDGET);
    assert!(matches!(stop, fg_cpu::StopReason::Exited(0)), "benign run must exit: {stop:?}");
    let t = p.stats.telemetry_snapshot();
    assert!(t.checks > 0, "protected run must hit endpoints");
    (t, cold_bytes.load(Ordering::Relaxed))
}

/// The deterministic half: bytes per check, edge-cache hit rate and the
/// latency distributions of one protected nginx run. The host-timed
/// columns stay zero.
pub fn modeled() -> FastpathBench {
    let (t, cold_bytes) = protected_telemetry();
    let bpc_inc = t.bytes_scanned as f64 / t.checks as f64;
    let bpc_cold = cold_bytes as f64 / t.checks as f64;
    let lookups = t.edge_cache_hits + t.edge_cache_misses;
    let hit_rate = if lookups == 0 { 0.0 } else { t.edge_cache_hits as f64 / lookups as f64 };
    FastpathBench {
        bytes_per_check_incremental: bpc_inc,
        bytes_per_check_cold: bpc_cold,
        bytes_per_check_ratio: bpc_inc / bpc_cold,
        edge_cache_hit_rate: hit_rate,
        check_cycles_dist: t.check_latency,
        scan_cycles_dist: t.fastpath_scan_cycles,
        bytes_per_check_dist: t.bytes_per_check,
        ..FastpathBench::default()
    }
}

/// The host-timed half: fills the wall-clock columns of `b`.
pub fn timed(b: &mut FastpathBench) {
    let s = setup();
    let mib = s.trace.len() as f64 / (1024.0 * 1024.0);

    let scan_sec = time_per_iter(20, || fast::scan(&s.trace).expect("scan"));

    // Edge lookups: the runtime pair stream, through both representations.
    let pairs: Vec<(u64, u64)> =
        s.scan.tip_ips().windows(2).map(|w| (w[0], w[1])).take(4096).collect();
    let map: BTreeMap<(u64, u64), EdgeIdx> =
        s.itc.iter_edges().map(|(f, t, e)| ((f, t), e)).collect();
    let [csr_sec, map_sec] = time_interleaved(
        50,
        [
            &mut || {
                black_box(pairs.iter().filter(|&&(f, t)| s.itc.edge(f, t).is_some()).count());
            },
            &mut || {
                black_box(pairs.iter().filter(|&&(f, t)| map.contains_key(&(f, t))).count());
            },
        ],
    );
    let per_lookup = csr_sec / pairs.len() as f64 * 1e9;
    let per_lookup_map = map_sec / pairs.len() as f64 * 1e9;

    // The windowed check with persistent scratch (the engine's hot loop).
    let cfg = FlowGuardConfig::default();
    let cache = SlowPathCache::default();
    let cost = CostModel::calibrated();
    let mut scratch = CheckScratch::new(&s.image);
    let mut pairs_checked = 0usize;
    let check_sec = time_per_iter(200, || {
        let r = fastpath::check_windowed(
            &s.itc,
            &cache,
            &mut scratch,
            &s.scan,
            &cfg,
            cfg.pkt_count,
            cfg.require_module_stride,
            cost.edge_check_cycles,
            None,
        );
        pairs_checked = r.pairs_checked;
        r
    });

    // One sanity pass of the incremental scanner over the bench trace, so a
    // broken checkpoint path fails the bench loudly rather than silently
    // producing numbers for the wrong code.
    let mut inc = IncrementalScanner::new();
    inc.advance(&s.trace, s.trace.len() as u64, s.trace.len()).expect("incremental");
    assert_eq!(inc.scan().tip_events(), s.scan.tip_events(), "incremental != cold scan");

    b.scan_mib_per_sec = mib / scan_sec;
    b.pairs_per_sec = pairs_checked as f64 / check_sec;
    b.edge_lookup_ns = per_lookup;
    b.edge_lookup_ns_btreemap = per_lookup_map;
    b.edge_lookup_speedup = per_lookup_map / per_lookup;
    b.endpoint_check_ns = check_sec * 1e9;
}

/// Runs both halves once.
pub fn run() -> FastpathBench {
    let mut b = modeled();
    timed(&mut b);
    b
}

/// Prints the table and writes `BENCH_fastpath.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match crate::measure::write_json(&b, JSON_PATH) {
        Ok(()) => println!("\nwrote {JSON_PATH}"),
        Err(e) => eprintln!("\nfailed to write {JSON_PATH}: {e}"),
    }
}

/// Prints the metric table for a measurement.
pub fn print_table(b: &FastpathBench) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["serial scan MiB/s".into(), fmt(b.scan_mib_per_sec, 1)]);
    t.row(vec!["pairs checked / s".into(), fmt(b.pairs_per_sec, 0)]);
    t.row(vec!["edge lookup (CSR) ns".into(), fmt(b.edge_lookup_ns, 1)]);
    t.row(vec!["edge lookup (BTreeMap) ns".into(), fmt(b.edge_lookup_ns_btreemap, 1)]);
    t.row(vec!["edge lookup speedup".into(), fmt(b.edge_lookup_speedup, 2)]);
    t.row(vec!["endpoint check ns".into(), fmt(b.endpoint_check_ns, 0)]);
    t.row(vec!["bytes/check incremental".into(), fmt(b.bytes_per_check_incremental, 1)]);
    t.row(vec!["bytes/check cold rescan".into(), fmt(b.bytes_per_check_cold, 1)]);
    t.row(vec!["bytes/check ratio".into(), fmt(b.bytes_per_check_ratio, 4)]);
    t.row(vec!["edge-cache hit rate".into(), fmt(b.edge_cache_hit_rate, 3)]);
    let d = &b.check_cycles_dist;
    t.row(vec!["check cycles p50/p90/p99".into(), format!("{}/{}/{}", d.p50, d.p90, d.p99)]);
    let d = &b.bytes_per_check_dist;
    t.row(vec!["bytes/check p50/p90/p99".into(), format!("{}/{}/{}", d.p50, d.p90, d.p99)]);
    t.print("Fast-path micro-benchmarks (BENCH_fastpath.json)");
}

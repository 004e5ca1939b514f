//! **Streaming-pipeline benchmarks** — scalar vs vectorized vs segmented
//! scan throughput, the frontier-compare cost of a fully-drained check, and
//! the residue bytes left for the check path when the background consumer
//! keeps up.
//!
//! [`modeled`] is the deterministic half: the residue distribution, drain
//! counts and copy traffic of a protected streaming run, pinned exactly by
//! the root `bench_golden` test. [`timed`] is the host-timed half, of which
//! `bench_gate` judges two same-machine ratios (vectorized over scalar,
//! segmented over vectorized) on the median of its runs; absolute
//! throughputs are informational. Both land in `BENCH_streaming.json`.

use crate::measure::{time_interleaved, time_per_iter};
use crate::table::{fmt, Table};
use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{fast, StreamConsumer};
use fg_trace::HistogramSnapshot;
use flowguard::FlowGuardConfig;
use serde::{Deserialize, Serialize};
use std::hint::black_box;

/// The default artifact file name.
pub const JSON_PATH: &str = "BENCH_streaming.json";

/// One full measurement, serialised as `BENCH_streaming.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingBench {
    /// Scalar reference scan throughput, MiB of trace per second.
    pub scan_mib_per_sec: f64,
    /// Vectorized (SWAR + table-driven TNT) scan throughput, MiB/s.
    pub vectorized_scan_mib_per_sec: f64,
    /// `vectorized / scalar` (same machine, same trace; higher is better).
    pub vectorized_speedup: f64,
    /// Cost of the degenerate fully-drained check: one frontier compare
    /// (`StreamConsumer::residue`) in ns.
    pub frontier_compare_ns: f64,
    /// Median residue bytes per endpoint check on a protected streaming
    /// run — the bytes the check path still has to scan itself.
    pub residue_bytes_per_check_p50: u64,
    /// 99th percentile of the same distribution.
    pub residue_bytes_per_check_p99: u64,
    /// Background drains performed over the protected run.
    pub stream_drains: u64,
    /// Bytes consumed by those background drains.
    pub stream_drained_bytes: u64,
    /// Full residue (frontier-lag) distribution.
    pub residue_bytes_dist: HistogramSnapshot,
    /// Zero-copy segmented scan throughput
    /// ([`fast::scan_vectorized_segments`] over the ToPA's region slices,
    /// no linearization), MiB/s.
    pub segmented_scan_mib_per_sec: f64,
    /// `segmented / vectorized` (same machine, same trace). The segmented
    /// cursor pays only seam carries, so this must stay near 1 — a collapse
    /// means the zero-copy path regressed to copying.
    pub segmented_vs_vectorized: f64,
    /// Bytes the drain path copied per KiB drained over the protected
    /// streaming run (seam carries + restart windows). The linearizing
    /// drain path copied every byte — 1024.
    pub copied_bytes_per_drained_kib: f64,
}

/// Builds the bench trace: a 100M-instruction protected-style nginx run
/// into a 4 MiB ToPA. Returns the machine so callers can scan the ToPA's
/// region slices in place as well as linearized.
fn bench_machine() -> Machine {
    let w = fg_workloads::nginx_patched();
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    m
}

/// The deterministic half: the residue distribution, drains and copy
/// traffic of a protected streaming nginx run. Every check records its
/// frontier lag — the bytes the background consumer had not yet drained at
/// syscall time. The host-timed columns stay zero.
pub fn modeled() -> StreamingBench {
    let w = fg_workloads::nginx_patched();
    let d = crate::measure::trained_deployment(&w);
    let cfg = FlowGuardConfig { streaming: true, ..Default::default() };
    let mut p = d.launch(&w.default_input, cfg);
    let stop = p.run(crate::measure::BUDGET);
    assert!(matches!(stop, fg_cpu::StopReason::Exited(0)), "benign run must exit: {stop:?}");
    let t = p.stats.telemetry_snapshot();
    assert!(t.checks > 0, "protected run must hit endpoints");
    assert!(t.stream_drains > 0, "streaming run must drain in the background");
    StreamingBench {
        residue_bytes_per_check_p50: t.frontier_lag.p50,
        residue_bytes_per_check_p99: t.frontier_lag.p99,
        stream_drains: t.stream_drains,
        stream_drained_bytes: t.stream_drained_bytes,
        copied_bytes_per_drained_kib: t.copied_per_drained_kib(),
        residue_bytes_dist: t.frontier_lag,
        ..StreamingBench::default()
    }
}

/// The host-timed half: fills the wall-clock columns of `b`.
pub fn timed(b: &mut StreamingBench) {
    let m = bench_machine();
    let ipt = m.trace.as_ipt().expect("ipt");
    let segs: Vec<&[u8]> = ipt.trace_segments().collect();
    let trace = segs.concat();
    let mib = trace.len() as f64 / (1024.0 * 1024.0);

    let [scalar_sec, vec_sec, seg_sec] = time_interleaved(
        20,
        [
            &mut || {
                black_box(fast::scan(&trace).expect("scan"));
            },
            &mut || {
                black_box(fast::scan_vectorized(&trace).expect("vectorized scan"));
            },
            &mut || {
                black_box(fast::scan_vectorized_segments(&segs).expect("segmented scan"));
            },
        ],
    );

    // The degenerate fully-drained check: drain everything once, then time
    // the frontier compare the endpoint check performs when no residue is
    // left.
    let mut stream = StreamConsumer::new();
    let total = trace.len() as u64;
    stream.drain(&trace, total).expect("drain");
    assert_eq!(stream.residue(total), 0, "bench trace must drain fully");
    let compare_sec = time_per_iter(100_000, || stream.residue(black_box(total)));

    b.scan_mib_per_sec = mib / scalar_sec;
    b.vectorized_scan_mib_per_sec = mib / vec_sec;
    b.vectorized_speedup = scalar_sec / vec_sec;
    b.frontier_compare_ns = compare_sec * 1e9;
    b.segmented_scan_mib_per_sec = mib / seg_sec;
    b.segmented_vs_vectorized = vec_sec / seg_sec;
}

/// Runs both halves once.
pub fn run() -> StreamingBench {
    let mut b = modeled();
    timed(&mut b);
    b
}

/// Prints the table and writes `BENCH_streaming.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match crate::measure::write_json(&b, JSON_PATH) {
        Ok(()) => println!("\nwrote {JSON_PATH}"),
        Err(e) => eprintln!("\nfailed to write {JSON_PATH}: {e}"),
    }
}

/// Prints the metric table for a measurement.
pub fn print_table(b: &StreamingBench) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["scalar scan MiB/s".into(), fmt(b.scan_mib_per_sec, 1)]);
    t.row(vec!["vectorized scan MiB/s".into(), fmt(b.vectorized_scan_mib_per_sec, 1)]);
    t.row(vec!["segmented scan MiB/s".into(), fmt(b.segmented_scan_mib_per_sec, 1)]);
    t.row(vec!["vectorized speedup".into(), fmt(b.vectorized_speedup, 2)]);
    t.row(vec!["segmented / vectorized".into(), fmt(b.segmented_vs_vectorized, 2)]);
    t.row(vec!["frontier compare ns".into(), fmt(b.frontier_compare_ns, 1)]);
    t.row(vec![
        "residue bytes/check p50/p99".into(),
        format!("{}/{}", b.residue_bytes_per_check_p50, b.residue_bytes_per_check_p99),
    ]);
    t.row(vec!["copied bytes / drained KiB".into(), fmt(b.copied_bytes_per_drained_kib, 2)]);
    t.row(vec!["background drains".into(), b.stream_drains.to_string()]);
    t.row(vec!["background bytes drained".into(), b.stream_drained_bytes.to_string()]);
    t.print("Streaming-pipeline benchmarks (BENCH_streaming.json)");
}

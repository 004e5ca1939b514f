//! **§7.2.2 micro-benchmark** — fast-path vs slow-path checking time over a
//! window of ~100 TIP packets (paper: slow ≈ 0.23 ms ≈ 60× the fast path).

use crate::table::{fmt, Table};
use fg_cfg::OCfg;
use fg_cpu::CostModel;
use fg_ipt::fast;
use flowguard::{slowpath, FlowGuardConfig, SlowPathCache};
use std::time::Instant;

/// The comparison result.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// TIPs in the measured window.
    pub tips: usize,
    /// Fast-path simulated cycles.
    pub fast_cycles: f64,
    /// Slow-path simulated cycles.
    pub slow_cycles: f64,
    /// Fast-path wall time (µs) of our implementation.
    pub fast_wall_us: f64,
    /// Slow-path wall time (µs) of our implementation.
    pub slow_wall_us: f64,
}

impl MicroResult {
    /// Simulated slow/fast ratio.
    pub fn sim_ratio(&self) -> f64 {
        self.slow_cycles / self.fast_cycles
    }

    /// Wall-clock slow/fast ratio.
    pub fn wall_ratio(&self) -> f64 {
        self.slow_wall_us / self.fast_wall_us
    }
}

/// Captures a benign nginx trace whose tail holds roughly 100 TIPs, then
/// times both paths on it.
pub fn run() -> MicroResult {
    let w = fg_workloads::nginx_patched();
    let d = flowguard::Deployment::analyze(&w.image);
    let mut d = d;
    d.train(std::slice::from_ref(&w.default_input));
    let ocfg = OCfg::build(&w.image);
    let cost = CostModel::calibrated();

    // Produce a trace.
    let mut m = fg_cpu::Machine::new(&w.image, 0x4000);
    let mut unit =
        fg_cpu::IptUnit::flowguard(0x4000, fg_ipt::Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = fg_cpu::TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, crate::measure::BUDGET);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let bytes = m.trace.as_ipt().expect("ipt").trace_bytes();

    // Trim to a ~100-TIP window from the first PSB.
    let scan_all = fast::scan(&bytes).expect("scan");
    let window_bytes = if scan_all.tip_count() > 100 {
        // find byte offset after which ~100 TIPs remain: rescan incrementally
        let mut cut = 0;
        let mut parser = fg_ipt::PacketParser::new(&bytes);
        let mut seen = 0usize;
        let keep = scan_all.tip_count() - 100;
        while let Some(Ok(p)) = parser.next_packet() {
            if matches!(p.packet, fg_ipt::Packet::Tip { .. }) {
                seen += 1;
                if seen == keep {
                    cut = p.offset + p.len;
                    break;
                }
            }
        }
        let mut sub = fg_ipt::PacketParser::at(&bytes, cut);
        match sub.sync_forward() {
            Some(off) => &bytes[off..],
            None => &bytes[..],
        }
    } else {
        &bytes[..]
    };

    let cfg =
        FlowGuardConfig { pkt_count: 100, require_module_stride: false, ..Default::default() };
    let cache = SlowPathCache::default();

    // Fast path: simulated + wall clock (averaged over repeats).
    const REPS: u32 = 200;
    let t0 = Instant::now();
    let mut fast_cycles = 0.0;
    let mut tips = 0;
    for _ in 0..REPS {
        let scan = fast::scan(window_bytes).expect("scan");
        tips = scan.tip_count();
        let r = flowguard::fastpath::check(
            &d.itc,
            &cache,
            &w.image,
            &scan,
            &cfg,
            cost.edge_check_cycles,
        );
        fast_cycles = window_bytes.len() as f64 * cost.packet_scan_byte_cycles + r.check_cycles;
    }
    let fast_wall_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;

    let t1 = Instant::now();
    let mut slow_cycles = 0.0;
    for _ in 0..REPS {
        let r = slowpath::check(&w.image, &ocfg, window_bytes, &cost);
        slow_cycles = r.decode_cycles;
    }
    let slow_wall_us = t1.elapsed().as_secs_f64() * 1e6 / REPS as f64;

    MicroResult { tips, fast_cycles, slow_cycles, fast_wall_us, slow_wall_us }
}

/// Prints the comparison.
pub fn print() {
    let r = run();
    let mut t = Table::new(&["path", "simulated cycles", "wall time (µs)"]);
    t.row(vec!["fast".into(), fmt(r.fast_cycles, 0), fmt(r.fast_wall_us, 1)]);
    t.row(vec!["slow".into(), fmt(r.slow_cycles, 0), fmt(r.slow_wall_us, 1)]);
    t.print(&format!("§7.2.2 — checking time for a window of {} TIPs", r.tips));
    println!(
        "\nslow/fast ratio: {:.0}x simulated, {:.0}x wall-clock (paper: ~60x, 0.23 ms slow path)",
        r.sim_ratio(),
        r.wall_ratio()
    );
}

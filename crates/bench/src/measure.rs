//! Measurement primitives shared by all table/figure binaries.

use fg_cpu::cost::CostModel;
use fg_cpu::machine::{Machine, StopReason};
use fg_cpu::trace::{BtsUnit, IptUnit, LbrFilter, LbrUnit, TraceUnit};
use fg_cpu::CycleAccount;
use fg_ipt::topa::Topa;
use fg_kernel::Kernel;
use fg_workloads::Workload;
use flowguard::{Deployment, FlowGuardConfig, DEFAULT_CR3};
use std::time::Instant;

/// Instruction budget for measurement runs.
pub const BUDGET: u64 = 200_000_000;

/// Which hardware tracing mechanism a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Tracing off (baseline).
    None,
    /// Intel Processor Trace (CR3-filtered, ToPA output).
    Ipt,
    /// Branch Trace Store.
    Bts,
    /// Last Branch Record, 16 entries, indirect-only filter.
    Lbr,
}

/// Metrics of one (unprotected) run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Workload name.
    pub name: String,
    /// Stop reason.
    pub stop: StopReason,
    /// Cycle accounting.
    pub account: CycleAccount,
    /// Instructions retired.
    pub insns: u64,
    /// CoFI instructions retired.
    pub cofi: u64,
    /// Trace bytes produced (IPT only).
    pub trace_bytes: u64,
    /// TIP-producing branches retired (indirect + returns).
    pub tips: u64,
}

impl RunMetrics {
    /// Total overhead versus pure execution, in percent.
    pub fn overhead_pct(&self) -> f64 {
        self.account.overhead() * 100.0
    }
}

fn count_tips(m: &Machine) -> u64 {
    m.branch_log.as_ref().map_or(0, |log| {
        log.iter()
            .filter(|b| {
                use fg_isa::insn::CofiKind::*;
                matches!(b.kind, IndCall | IndJmp | Ret)
            })
            .count() as u64
    })
}

/// Runs a workload with no tracing (the baseline).
pub fn run_baseline(w: &Workload) -> RunMetrics {
    run_traced(w, Mechanism::None)
}

/// Runs a workload under one tracing mechanism (no checking).
pub fn run_traced(w: &Workload, mech: Mechanism) -> RunMetrics {
    let cr3 = 0x4000;
    let mut m = Machine::new(&w.image, cr3);
    m.enable_branch_log();
    match mech {
        Mechanism::None => {}
        Mechanism::Ipt => {
            let mut unit = IptUnit::flowguard(cr3, Topa::two_regions(1 << 22).expect("topa"));
            unit.start(w.image.entry(), cr3);
            m.trace = TraceUnit::Ipt(unit);
        }
        Mechanism::Bts => m.trace = TraceUnit::Bts(BtsUnit::new(1 << 16)),
        Mechanism::Lbr => m.trace = TraceUnit::Lbr(LbrUnit::new(16, LbrFilter::indirect_only())),
    }
    let mut k = Kernel::with_input(&w.default_input);
    let stop = m.run(&mut k, BUDGET);
    if let Some(u) = m.trace.as_ipt_mut() {
        u.flush();
    }
    let trace_bytes = m.trace.as_ipt().map_or(0, fg_cpu::IptUnit::bytes_emitted);
    let tips = count_tips(&m);
    RunMetrics {
        name: w.name.clone(),
        stop,
        account: m.account,
        insns: m.insns_retired,
        cofi: m.cofi_retired,
        trace_bytes,
        tips,
    }
}

/// Metrics of one protected run.
#[derive(Debug, Clone)]
pub struct ProtectedMetrics {
    /// Base run metrics (account includes decode/check/other from the
    /// engine).
    pub run: RunMetrics,
    /// Engine statistics snapshot.
    pub checks: u64,
    /// Slow-path invocations.
    pub slow: u64,
    /// Violations detected.
    pub violations: usize,
    /// Fraction of checks that escalated to the slow path.
    pub slow_fraction: f64,
}

/// Builds a trained deployment for a workload: analyse, then train on the
/// benign default input plus one request per handler command.
pub fn trained_deployment(w: &Workload) -> Deployment {
    let mut d = Deployment::analyze(&w.image);
    let mut corpus = vec![w.default_input.clone()];
    if w.category == fg_workloads::Category::Server {
        for c in 0..8u8 {
            corpus.push(fg_workloads::request(c, b"training-payload-x"));
            corpus.push(fg_workloads::request(c, b"tp"));
        }
    }
    d.train(&corpus);
    d
}

/// Verifies the trained artifact of every bundled server before the
/// experiments run: a corrupted analysis pipeline fails fast here instead
/// of silently skewing every downstream number.
///
/// # Panics
///
/// Panics with the diagnostic list if any artifact fails verification.
pub fn verify_preflight() {
    for w in &fg_workloads::servers() {
        let d = trained_deployment(w);
        let report = d.verify();
        assert!(
            !report.has_errors(),
            "{}: deployment artifact failed verification:\n{report}",
            w.name
        );
    }
    println!("artifact preflight: all server deployments pass verification\n");
}

/// Runs a workload under full FlowGuard protection.
pub fn run_protected(
    w: &Workload,
    d: &Deployment,
    cfg: FlowGuardConfig,
    cost: CostModel,
) -> ProtectedMetrics {
    let mut p = d.launch_with(&w.default_input, cfg, cost, DEFAULT_CR3);
    let stop = p.run(BUDGET);
    let trace_bytes = p.machine.trace.as_ipt().map_or(0, fg_cpu::IptUnit::bytes_emitted);
    let s = p.stats.snapshot();
    ProtectedMetrics {
        run: RunMetrics {
            name: w.name.clone(),
            stop,
            account: p.machine.account,
            insns: p.machine.insns_retired,
            cofi: p.machine.cofi_retired,
            trace_bytes,
            tips: 0,
        },
        checks: s.checks,
        slow: s.slow_invocations,
        violations: s.violations.len(),
        slow_fraction: s.slow_fraction(),
    }
}

/// Times `iters` runs of `f` in 5 blocks and returns seconds per run of the
/// fastest block — the best-of-N convention for micro-timings, insensitive
/// to scheduler noise.
pub fn time_per_iter<O>(iters: usize, mut f: impl FnMut() -> O) -> f64 {
    let [t] = time_interleaved(
        iters,
        [&mut || {
            std::hint::black_box(f());
        }],
    );
    t
}

/// [`time_per_iter`] for closures compared with each other: each of the 5
/// rounds times one block of every closure in turn, so host noise lands on
/// all of them alike and their ratios stay steady. Returns each closure's
/// seconds per run in its fastest block.
pub fn time_interleaved<const N: usize>(iters: usize, mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..5 {
        for (f, best) in fs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            *best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
    }
    best
}

/// Serialises a bench measurement to `path` as one line of JSON.
pub fn write_json(b: &impl serde::Serialize, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(b).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Geometric mean that tolerates zero/negative samples by flooring them at
/// `floor` (useful for overhead percentages that can round to zero).
pub fn geomean_floored(xs: &[f64], floor: f64) -> f64 {
    let adj: Vec<f64> = xs.iter().map(|&x| x.max(floor)).collect();
    geomean(&adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_calc() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[0.0, 1.0]);
    }

    #[test]
    fn floored_geomean_tolerates_zeros() {
        let g = geomean_floored(&[0.0, 1.0], 0.01);
        assert!(g > 0.0 && g < 1.0);
    }

    #[test]
    fn baseline_run_has_no_overhead() {
        let w = fg_workloads::dd();
        let m = run_baseline(&w);
        assert_eq!(m.account.trace, 0.0);
        assert!(m.overhead_pct() < 1e-9);
        assert!(m.insns > 1000);
    }

    #[test]
    fn ipt_run_produces_trace_bytes() {
        let w = fg_workloads::tar();
        let m = run_traced(&w, Mechanism::Ipt);
        assert!(m.trace_bytes > 0);
        assert!(m.account.trace > 0.0);
        assert!(m.tips > 0);
    }
}

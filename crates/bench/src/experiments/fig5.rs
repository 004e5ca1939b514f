//! **Figure 5 (a)–(c)** — FlowGuard's runtime overhead on servers, Linux
//! utilities, and SPEC profiles, broken into trace/decode/check/other, and
//! **Figure 5 (d)** — the fuzzing-training benefit curve.

use super::overhead::{print_population, BreakdownRow};
use crate::table::{fmt, Table};
use fg_cpu::CostModel;
use flowguard::{Deployment, FlowGuardConfig};

/// Figure 5a: server applications. Paper geomean ≈ 4.37%.
pub fn servers(cost: CostModel) -> Vec<BreakdownRow> {
    // The performance population uses the patched nginx (the vulnerable one
    // is the security target), matching the paper's default-config servers.
    let mut ws = vec![fg_workloads::nginx_patched()];
    ws.extend([fg_workloads::vsftpd(), fg_workloads::openssh(), fg_workloads::exim()]);
    print_population(
        "Figure 5a — server overhead breakdown (paper geomean ~4.37%)",
        &ws,
        &FlowGuardConfig::default(),
        cost,
    )
}

/// Figure 5b: Linux utilities. Paper geomean ≈ 0.82%.
pub fn utilities(cost: CostModel) -> Vec<BreakdownRow> {
    let ws = fg_workloads::utilities();
    print_population(
        "Figure 5b — Linux utility overhead breakdown (paper geomean ~0.82%)",
        &ws,
        &FlowGuardConfig::default(),
        cost,
    )
}

/// Figure 5c: SPEC profiles. Paper geomean ≈ 3.79% with h264ref an outlier.
pub fn spec(cost: CostModel) -> Vec<BreakdownRow> {
    let ws = fg_workloads::spec_suite();
    let rows = print_population(
        "Figure 5c — SPECCPU profile overhead (paper geomean ~3.79%, h264ref outlier)",
        &ws,
        &FlowGuardConfig::default(),
        cost,
    );
    let h264 = rows.iter().find(|r| r.name == "h264ref").expect("h264ref present");
    let rest: f64 = rows.iter().filter(|r| r.name != "h264ref").map(|r| r.total).sum::<f64>()
        / (rows.len() - 1) as f64;
    println!(
        "\nh264ref {:.2}% vs mean-of-rest {:.2}% — the indirect-call-dense loop generates far more trace",
        h264.total, rest
    );
    rows
}

/// One Figure 5d sample point.
#[derive(Debug, Clone)]
pub struct TrainingPoint {
    /// Fuzzer executions so far (the "training time" axis).
    pub execs: u64,
    /// Coverage-increasing paths discovered.
    pub paths: usize,
    /// Runtime credit ratio observed while serving the benign load.
    pub cred_ratio: f64,
}

/// Figure 5d: paths discovered and runtime cred-ratio versus training time.
pub fn training_curve(points: &[u64]) -> Vec<TrainingPoint> {
    let w = fg_workloads::nginx_patched();
    let mut out = Vec::new();
    for &execs in points {
        let mut d = Deployment::analyze(&w.image);
        let seeds = vec![fg_workloads::request(0, b"seed-input")];
        let (_, history) = d.fuzz_train(
            seeds,
            execs,
            fg_fuzz::FuzzConfig { havoc_per_entry: 24, ..Default::default() },
        );
        let paths = history.last().map_or(0, |s| s.paths);
        // Serve the ab-style benign load and observe the credit ratio.
        let mut p = d.launch(&w.default_input, FlowGuardConfig::default());
        p.run(crate::measure::BUDGET);
        let s = p.stats.telemetry_snapshot();
        out.push(TrainingPoint { execs, paths, cred_ratio: s.credited_fraction() });
    }
    out
}

/// Prints Figure 5d.
pub fn print_training_curve() {
    let points = training_curve(&[10, 50, 150, 400, 900]);
    let mut t = Table::new(&["fuzzer execs", "paths", "cred-ratio during checking"]);
    for p in &points {
        t.row(vec![p.execs.to_string(), p.paths.to_string(), fmt(p.cred_ratio * 100.0, 1) + "%"]);
    }
    t.print("Figure 5d — fuzzing-training benefit (paper: paths grow, cred-ratio → 97%+)");
    let last = points.last().expect("points");
    assert!(last.cred_ratio > 0.5, "training should credit most checked edges");
}

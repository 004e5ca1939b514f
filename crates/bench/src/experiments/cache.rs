//! **Ablation: slow-path result caching** — §7.1.1: "the negative (no
//! attack) results of slow path checking are cached for the subsequent fast
//! path checking, thus makes the performance better and better."
//!
//! On a completely untrained deployment every window initially escalates;
//! with the cache, later checks hit the promoted edges and stay on the fast
//! path. Without it, the same windows escalate forever.

use crate::table::{fmt, Table};
use flowguard::{Deployment, FlowGuardConfig};

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label.
    pub config: &'static str,
    /// Endpoint checks.
    pub checks: u64,
    /// Slow-path invocations.
    pub slow: u64,
    /// Total overhead %.
    pub overhead_pct: f64,
}

/// Serves the benign load twice over an untrained deployment, with and
/// without the cache.
pub fn run() -> Vec<Row> {
    let w = fg_workloads::vsftpd();
    let d = Deployment::analyze(&w.image); // deliberately untrained
    let mut doubled = w.default_input.clone();
    doubled.extend_from_slice(&w.default_input);

    [true, false]
        .into_iter()
        .map(|cache| {
            let cfg = FlowGuardConfig { cache_slow_path_results: cache, ..Default::default() };
            let mut p = d.launch(&doubled, cfg);
            let stop = p.run(crate::measure::BUDGET);
            assert!(
                matches!(stop, fg_cpu::StopReason::Exited(0)),
                "benign run must complete: {stop:?}"
            );
            let s = p.stats.telemetry_snapshot();
            Row {
                config: if cache { "cache on (paper)" } else { "cache off" },
                checks: s.checks,
                slow: s.slow_invocations,
                overhead_pct: p.machine.account.overhead() * 100.0,
            }
        })
        .collect()
}

/// Prints the ablation.
pub fn print() {
    let rows = run();
    let mut t = Table::new(&["configuration", "checks", "slow-path upcalls", "total overhead %"]);
    for r in &rows {
        t.row(vec![
            r.config.into(),
            r.checks.to_string(),
            r.slow.to_string(),
            fmt(r.overhead_pct, 2),
        ]);
    }
    t.print("ablation — slow-path result caching on an untrained deployment");
    assert!(rows[0].slow < rows[1].slow, "the cache must absorb repeat escalations");
    assert!(rows[0].overhead_pct < rows[1].overhead_pct);
    println!(
        "\npaper §7.1.1: caching makes performance \"better and better\" — {} vs {} upcalls here.",
        rows[0].slow, rows[1].slow
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn cache_reduces_slow_invocations() {
        let rows = super::run();
        assert!(rows[0].slow < rows[1].slow);
    }
}

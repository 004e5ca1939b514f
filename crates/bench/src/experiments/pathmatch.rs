//! **Ablation: high-credit path matching** — the paper's §7.1.2 future-work
//! extension: "we can also make the fast path more context-sensitive by
//! matching the high-credit paths … this can significantly strengthen the
//! security of fast path, however, it may introduce larger number of slow
//! path checking."
//!
//! The experiment quantifies exactly that trade: with *partial* training,
//! path matching escalates more windows to the slow path (higher overhead),
//! in exchange for rejecting novel stitchings of individually-trained edges.

use crate::table::{fmt, Table};
use flowguard::{Deployment, FlowGuardConfig};

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label.
    pub config: &'static str,
    /// Slow-path invocations per check.
    pub slow_fraction: f64,
    /// Total overhead %.
    pub overhead_pct: f64,
    /// Trained path grams available.
    pub grams: usize,
    /// High-credit edge adjacencies an attacker may stitch (lower = less
    /// fast-path attack surface).
    pub stitchable_pairs: usize,
}

/// Counts adjacent high-credit edge pairs `(a→b, b→c)`; with `use_grams`,
/// only pairs whose adjacency was seen in training are counted.
fn stitchable(itc: &fg_cfg::ItcCfg, use_grams: bool) -> usize {
    itc.iter_edges()
        .filter(|&(_, _, e)| itc.credit(e) == fg_cfg::Credit::High)
        .map(|(_, b, e1)| {
            itc.targets_of(b)
                .iter()
                .filter(|&&c| {
                    itc.edge(b, c).is_some_and(|e2| {
                        itc.credit(e2) == fg_cfg::Credit::High
                            && (!use_grams || itc.has_path_gram(e1, e2))
                    })
                })
                .count()
        })
        .sum()
}

/// Runs the ablation on the nginx-alike with deliberately partial training
/// (half the benign handler mix).
pub fn run() -> Vec<Row> {
    let w = fg_workloads::nginx_patched();
    let mut d = Deployment::analyze(&w.image);
    // Partial training: only commands 0 and 1.
    let corpus: Vec<Vec<u8>> = (0..2u8)
        .flat_map(|c| {
            vec![
                fg_workloads::request(c, b"partial-training-payload"),
                fg_workloads::request(c, b"pt"),
            ]
        })
        .collect();
    d.train(&corpus);
    let grams = d.itc.path_gram_count();

    let mut rows = Vec::new();
    for (label, path_matching) in
        [("edges only (paper default)", false), ("path matching (§7.1.2 ext)", true)]
    {
        let cfg = FlowGuardConfig { path_matching, ..Default::default() };
        let mut p = d.launch(&w.default_input, cfg);
        let stop = p.run(crate::measure::BUDGET);
        assert!(
            !matches!(stop, fg_cpu::StopReason::Killed(_)),
            "benign traffic must never be killed"
        );
        let s = p.stats.telemetry_snapshot();
        rows.push(Row {
            config: label,
            slow_fraction: s.slow_fraction(),
            overhead_pct: p.machine.account.overhead() * 100.0,
            grams,
            stitchable_pairs: stitchable(&d.itc, path_matching),
        });
    }
    rows
}

/// Prints the ablation.
pub fn print() {
    let rows = run();
    let mut t =
        Table::new(&["fast-path policy", "slow-path freq", "total overhead %", "stitchable pairs"]);
    for r in &rows {
        t.row(vec![
            r.config.into(),
            fmt(r.slow_fraction, 3),
            fmt(r.overhead_pct, 2),
            r.stitchable_pairs.to_string(),
        ]);
    }
    t.print(&format!(
        "ablation — high-credit path matching ({} trained grams, partial training)",
        rows[0].grams
    ));
    assert!(rows[1].slow_fraction >= rows[0].slow_fraction, "path matching can only escalate more");
    assert!(
        rows[1].stitchable_pairs < rows[0].stitchable_pairs,
        "path matching must shrink the stitchable fast-path surface"
    );
    println!(
        "\npaper §7.1.2: stronger fast path ({} → {} stitchable pairs), at the cost of more slow-path checking.",
        rows[0].stitchable_pairs, rows[1].stitchable_pairs
    );
}

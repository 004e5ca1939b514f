//! The one bench gate. Runs each experiment's deterministic half once and
//! its timed half `gate::RUNS` times, writes the five `BENCH_*.json` files
//! (each key at its median) to the working directory, prints every row of
//! `gate::TABLE` with its median and quartiles, and exits 1 if any row
//! fails. Takes no options.

use fg_bench::experiments::{fastpath, fleet, observability, slowpath, streaming};
use fg_bench::gate::{self, RUNS, TABLE};
use fg_bench::table::{fmt, Table};
use serde::{Deserialize, Serialize, Value};

/// Runs `timed` over `RUNS` copies of the deterministic half `modeled`,
/// prints and writes the key-by-key median, and returns the runs as
/// documents.
fn measure<B: Clone + Serialize + Deserialize>(
    path: &str,
    modeled: B,
    timed: fn(&mut B),
    print: fn(&B),
) -> Vec<Value> {
    let runs: Vec<Value> = (0..RUNS)
        .map(|_| {
            let mut b = modeled.clone();
            timed(&mut b);
            b.to_value()
        })
        .collect();
    let median = B::from_value(&gate::median_doc(&runs)).expect("a median keeps the bench's shape");
    print(&median);
    if let Err(e) = fg_bench::measure::write_json(&median, path) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {path} (timed keys: median of {RUNS} runs)\n");
    runs
}

fn main() {
    let benches = [
        (
            "fastpath",
            measure(
                fastpath::JSON_PATH,
                fastpath::modeled(),
                fastpath::timed,
                fastpath::print_table,
            ),
        ),
        (
            "streaming",
            measure(
                streaming::JSON_PATH,
                streaming::modeled(),
                streaming::timed,
                streaming::print_table,
            ),
        ),
        (
            "observability",
            measure(
                observability::JSON_PATH,
                observability::modeled(),
                observability::timed,
                observability::print_table,
            ),
        ),
        (
            "slowpath",
            measure(
                slowpath::JSON_PATH,
                slowpath::modeled(),
                slowpath::timed,
                slowpath::print_table,
            ),
        ),
        (
            "fleet",
            measure(
                fleet::JSON_PATH,
                fleet::modeled(fleet::FLEET_SIZE),
                fleet::timed,
                fleet::print_table,
            ),
        ),
    ];

    let mut t = Table::new(&["key", "q1", "median", "q3", "bound", "verdict"]);
    let mut failed = 0;
    for row in &TABLE {
        let (bench, field) = row.bench_field();
        let runs = &benches.iter().find(|(name, _)| *name == bench).expect("a gated bench").1;
        let samples: Vec<f64> = runs
            .iter()
            .map(|doc| doc.get(field).and_then(gate::number).expect("a numeric gated field"))
            .collect();
        let [q1, median, q3] = gate::quartiles(&samples);
        let pass = row.passes(median);
        failed += usize::from(!pass);
        t.row(vec![
            row.key.into(),
            fmt(q1, 4),
            fmt(median, 4),
            fmt(q3, 4),
            row.describe(),
            if pass { "pass" } else { "FAIL" }.into(),
        ]);
    }
    t.print(&format!("Bench gate (medians of {RUNS} runs)"));
    if failed > 0 {
        eprintln!("\nbench gate FAILED: {failed} of {} rows", TABLE.len());
        std::process::exit(1);
    }
    println!("\nbench gate passed: {} rows", TABLE.len());
}

//! Standalone fleet-scale enforcement benchmark runner.
//!
//! Prints the fleet metric tables (64 concurrent processes over 4 distinct
//! images, plus the 1/8/64 scaling sweep and the concurrent attack fleet),
//! writes `BENCH_fleet.json` to the working directory, and — with
//! `--check-baseline <path>` — exits non-zero if any gate fails: artifact
//! cache hit rate ≥ 0.9, p99 check latency within 2× of solo, 100% of the
//! concurrent attacks detected, and the baseline's check count. CI runs
//! this as part of the smoke-bench gate.

use fg_bench::experiments::fleet;

const REGRESSION_FACTOR: f64 = 2.0;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check-baseline" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--check-baseline requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: fleet_bench [--check-baseline <path>]");
                std::process::exit(2);
            }
        }
    }

    let current = fleet::run();
    fleet::print_table(&current);

    if let Err(e) = fleet::write_json(&current, fleet::JSON_PATH) {
        eprintln!("failed to write {}: {e}", fleet::JSON_PATH);
        std::process::exit(1);
    }
    println!("\nwrote {}", fleet::JSON_PATH);

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline: fleet::FleetBench = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        let regressions = fleet::regressions(&current, &baseline, REGRESSION_FACTOR);
        if regressions.is_empty() {
            println!("baseline check passed ({path}, tolerance {REGRESSION_FACTOR}x)");
        } else {
            eprintln!("\nbaseline check FAILED ({path}, tolerance {REGRESSION_FACTOR}x):");
            for r in &regressions {
                eprintln!("  - {r}");
            }
            std::process::exit(1);
        }
    }
}

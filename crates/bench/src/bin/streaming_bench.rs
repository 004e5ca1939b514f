//! Standalone streaming-pipeline benchmark runner.
//!
//! Prints the streaming metric table, writes `BENCH_streaming.json` to the
//! working directory, and — with `--check-baseline <path>` — exits non-zero
//! if any gated metric regressed by more than 2x against the checked-in
//! baseline (or violates an absolute floor: parallel scan must not lose to
//! serial, the residue p50 must stay under 32 bytes, and the drain path
//! must copy fewer than 4 bytes per drained KiB). CI runs this as part of
//! the smoke-bench gate.

use fg_bench::experiments::streaming;

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
                eprintln!("usage: streaming_bench [--check-baseline <path>]");
                std::process::exit(2);
            }
        }
    }

    let current = streaming::run();
    streaming::print_table(&current);

    if let Err(e) = streaming::write_json(&current, streaming::JSON_PATH) {
        eprintln!("failed to write {}: {e}", streaming::JSON_PATH);
        std::process::exit(1);
    }
    println!("\nwrote {}", streaming::JSON_PATH);

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline: streaming::StreamingBench = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        let regressions = streaming::regressions(&current, &baseline, REGRESSION_FACTOR);
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

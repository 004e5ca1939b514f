//! `flowbench`: runs the benchmark's workloads and prints one JSON result
//! line last. See README.md.

use flowbench::report::{result_line, table, Report};
use flowbench::{run_workload, Args};
use std::process::ExitCode;

const USAGE: &str = "usage: flowbench [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace 0|1] [--quick] [--json <path>] [--spans <dir>]";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reports: Vec<Report> = args
        .specs()
        .into_iter()
        .map(|spec| {
            let r = run_workload(spec, &args);
            print!("{}", table(&r));
            r
        })
        .collect();
    if let Some(path) = &args.json {
        let text = serde_json::to_string(&reports).expect("reports serialise");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("flowbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&reports));
    if reports.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

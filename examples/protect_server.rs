//! Full deployment pipeline on the nginx-alike web server: fuzz-driven
//! training (Figure 1's steps ① and ②) followed by protected serving of an
//! ab-style benign load (steps ③–⑤), with engine statistics.
//!
//! Run with: `cargo run --release --example protect_server`

use fg_fuzz::FuzzConfig;
use flowguard::{Deployment, FlowGuardConfig};

fn main() {
    let app = fg_workloads::nginx_patched();
    println!(
        "target: {} ({} modules, {} instructions)",
        app.name,
        app.image.modules().len(),
        app.image.total_insns()
    );

    // ① static analysis
    let mut deployment = Deployment::analyze(&app.image);
    println!(
        "ITC-CFG reconstructed: |V| = {}, |E| = {}, {:.1} KiB resident",
        deployment.itc.node_count(),
        deployment.itc.edge_count(),
        deployment.itc.memory_bytes() as f64 / 1024.0
    );

    // ② coverage-oriented fuzzing → credit labeling
    let seeds = vec![fg_workloads::request(0, b"GET /index"), fg_workloads::request(1, b"42")];
    let (stats, history) = deployment.fuzz_train(seeds, 600, FuzzConfig::default());
    println!(
        "fuzz training: {} corpus inputs, {} TIP pairs replayed, {} edges high-credit ({:.1}% of ITC)",
        stats.inputs,
        stats.pairs,
        stats.edges_labeled,
        stats.cred_fraction * 100.0
    );
    if let Some(last) = history.last() {
        println!(
            "fuzzer: {} executions, {} paths, {} crashes",
            last.execs, last.paths, last.crashes
        );
    }

    // ③–⑤ protected serving
    let load = fg_workloads::benign_input(48);
    let mut process = deployment.launch(&load, FlowGuardConfig::default());
    let stop = process.run(500_000_000);
    let s = process.stats.telemetry_snapshot();
    println!("\nserved the benign load: {stop:?}");
    println!("  endpoint checks:     {}", s.checks);
    println!("  fast-path clean:     {}", s.fast_clean);
    println!(
        "  slow-path upcalls:   {} ({:.2}% of checks)",
        s.slow_invocations,
        s.slow_fraction() * 100.0
    );
    println!("  runtime cred-ratio:  {:.1}%", s.credited_fraction() * 100.0);
    println!("  violations:          {}", s.violations.len());
    assert!(s.violations.is_empty(), "no false positives on benign traffic");
    let exec = process.machine.account.exec;
    println!(
        "  overhead: trace {:.2}%  decode {:.2}%  check {:.2}%  (total {:.2}%)",
        process.machine.account.trace / exec * 100.0,
        process.machine.account.decode / exec * 100.0,
        process.machine.account.check / exec * 100.0,
        process.machine.account.overhead() * 100.0
    );
}

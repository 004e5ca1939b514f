//! The benchmark's way of running a protected server — its own interceptor
//! wrapped around the engine, and `ProtectedProcess::run` in fixed-size
//! instruction windows — must leave everything the program computes
//! exactly as `Deployment::launch` plus one `run` leaves it.

use fg_cpu::machine::StopReason;
use flowbench::layers::Counters;
use flowbench::probe::{self, Probe};
use flowbench::workload::{config, corpus, RUN_BUDGET};
use std::time::Instant;

/// The benchmark's serve window.
const WINDOW_INSNS: u64 = 4_000_000;

fn equivalent(overrides: &str) {
    let w = fg_workloads::nginx_patched();
    let mut d = flowguard::Deployment::analyze(&w.image);
    d.train(&corpus(&w));
    let cfg = config(overrides);
    let input = fg_workloads::load_input(100, 7);

    let mut plain = d.launch(&input, cfg.clone());
    let plain_stop = plain.run(RUN_BUDGET);

    let probe = Probe::shared(Instant::now());
    probe.borrow_mut().set_tracing(true);
    let mut timed = probe::launch(&d, &input, &cfg, &probe);
    let mut windows = 0;
    let stop = loop {
        windows += 1;
        let stop = timed.run(WINDOW_INSNS);
        if stop != StopReason::InsnLimit {
            break stop;
        }
    };

    assert!(windows > 1, "the input spans several windows");
    assert_eq!(stop, StopReason::Exited(0));
    assert_eq!(stop, plain_stop);
    assert_eq!(timed.machine.insns_retired, plain.machine.insns_retired);
    assert_eq!(timed.kernel.output, plain.kernel.output);
    assert_eq!(timed.machine.account, plain.machine.account);
    let (mut a, mut b) = (Counters::default(), Counters::default());
    a.absorb(&timed.stats.telemetry_snapshot());
    b.absorb(&plain.stats.telemetry_snapshot());
    for key in ["checks", "slow_invocations", "bytes_scanned"] {
        assert_eq!(a.get(key), b.get(key), "{key}");
    }
    let calls = probe.borrow_mut().take();
    assert_eq!(
        Some(calls.checks.len() as f64),
        a.get("checks"),
        "every check went through the wrapper"
    );
    assert!(calls.polls > 0, "traced poll slots went through the wrapper");
}

#[test]
fn endpoint_mode_matches_a_plain_launch() {
    equivalent("{}");
}

#[test]
fn streaming_mode_matches_a_plain_launch() {
    equivalent(r#"{"streaming": true}"#);
}

//! Streaming-consumption integration tests: the background ToPA drain must
//! not change any detection outcome or benign result, with the pipeline on
//! or off.

use fg_cpu::StopReason;
use flowguard::{Deployment, FlowGuardConfig};

fn attack_payloads(w: &fg_workloads::Workload) -> Vec<(&'static str, Vec<u8>)> {
    let g = fg_attacks::find_gadgets(&w.image);
    vec![
        ("rop", fg_attacks::rop_write(&w.image, &g)),
        ("srop", fg_attacks::srop_execve(&w.image, &g)),
        ("ret2lib", fg_attacks::ret_to_lib(&w.image, &g)),
        ("flush", fg_attacks::history_flush(&w.image, &g, 12)),
    ]
}

/// All four attack routes are detected with the streaming consumer enabled,
/// and equally with it gated off — the drain may only move *when* bytes are
/// scanned, never what the checks conclude.
#[test]
fn attacks_detected_with_and_without_streaming() {
    let (w, d) = fg_attacks::trained_vulnerable_nginx();
    for (name, payload) in attack_payloads(&w) {
        for streaming in [true, false] {
            let cfg = FlowGuardConfig { streaming, ..Default::default() };
            let r = fg_attacks::run_protected(&d, &payload, cfg);
            assert!(r.detected, "{name} must be detected (streaming={streaming})");
            assert_eq!(
                r.stop,
                StopReason::Killed(fg_kernel::SIGKILL),
                "{name} (streaming={streaming})"
            );
        }
    }
}

/// Benign runs stay violation-free under streaming, and the background
/// consumer actually does the draining (the check path sees a mostly-empty
/// buffer).
#[test]
fn benign_runs_clean_with_streaming() {
    for w in [fg_workloads::nginx_patched(), fg_workloads::vsftpd(), fg_workloads::openssh()] {
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        let cfg = FlowGuardConfig { streaming: true, ..Default::default() };
        let mut p = d.launch(&w.default_input, cfg);
        let stop = p.run(500_000_000);
        assert!(matches!(stop, StopReason::Exited(0)), "{}: {stop:?}", w.name);
        assert!(!p.violated(), "{}: no violations on benign input", w.name);
        let s = p.stats.telemetry_snapshot();
        assert!(s.stream_drains > 0, "{}: background drains must run", w.name);
        assert!(s.stream_drained_bytes > 0, "{}: drains must consume bytes", w.name);
    }
}

/// Streaming and endpoint-time consumption agree check for check: same
/// verdict counters on the same deployment and input.
#[test]
fn streaming_verdict_parity_on_benign_load() {
    let w = fg_workloads::exim();
    let mut d = Deployment::analyze(&w.image);
    d.train(std::slice::from_ref(&w.default_input));
    let run = |streaming: bool| {
        let cfg = FlowGuardConfig { streaming, ..Default::default() };
        let mut p = d.launch(&w.default_input, cfg);
        let stop = p.run(500_000_000);
        assert!(matches!(stop, StopReason::Exited(0)), "{stop:?}");
        let s = p.stats.telemetry_snapshot();
        (s.checks, s.fast_clean, s.fast_malicious, s.slow_invocations, s.slow_attacks)
    };
    assert_eq!(run(true), run(false), "streaming must not change verdicts");
}

//! Cross-crate integration tests: the complete FlowGuard pipeline over the
//! whole evaluation population.

use fg_cpu::{IptUnit, Machine, StopReason, TraceUnit};
use fg_ipt::topa::Topa;
use fg_kernel::Kernel;
use flowguard::{Deployment, FlowGuardConfig};

fn all_benign_workloads() -> Vec<fg_workloads::Workload> {
    let mut ws = vec![fg_workloads::nginx_patched()];
    ws.extend([fg_workloads::vsftpd(), fg_workloads::openssh(), fg_workloads::exim()]);
    ws.extend(fg_workloads::utilities());
    ws.extend(fg_workloads::spec_suite());
    ws
}

/// Every workload, protected and trained, runs its benign input with zero
/// violations — the paper's no-false-positives property (§7.1.2) across the
/// entire population.
#[test]
fn no_false_positives_across_population() {
    for w in all_benign_workloads() {
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        let mut p = d.launch(&w.default_input, FlowGuardConfig::default());
        let stop = p.run(500_000_000);
        assert!(
            matches!(stop, StopReason::Exited(0)),
            "{}: benign protected run must exit cleanly, got {stop:?}",
            w.name
        );
        assert!(!p.violated(), "{}: no violations on benign input", w.name);
    }
}

/// The §4.2 soundness theorem, on real workloads: every pair of consecutive
/// TIP packets in a benign trace is an ITC-CFG edge.
#[test]
fn itc_soundness_on_real_workloads() {
    for w in all_benign_workloads() {
        let ocfg = fg_cfg::OCfg::build(&w.image);
        let itc = fg_cfg::ItcCfg::build(&ocfg);
        let mut m = Machine::new(&w.image, 0x4000);
        let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 23).expect("topa"));
        unit.start(w.image.entry(), 0x4000);
        m.trace = TraceUnit::Ipt(unit);
        let mut k = Kernel::with_input(&w.default_input);
        m.run(&mut k, 500_000_000);
        m.trace.as_ipt_mut().expect("ipt").flush();
        let bytes = m.trace.as_ipt().expect("ipt").trace_bytes();
        let scan = fg_ipt::fast::scan(&bytes).expect("scan");
        for pair in scan.tip_ips().windows(2) {
            assert!(
                itc.edge(pair[0], pair[1]).is_some(),
                "{}: TIP pair {:#x} → {:#x} must be an ITC edge",
                w.name,
                pair[0],
                pair[1]
            );
        }
    }
}

/// Full-decoder fidelity across the population: the instruction-flow
/// reconstruction reproduces the interpreter's branch log exactly.
#[test]
fn decoder_fidelity_on_real_workloads() {
    for w in all_benign_workloads().into_iter().take(8) {
        let mut m = Machine::new(&w.image, 0x4000);
        m.enable_branch_log();
        let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 23).expect("topa"));
        unit.start(w.image.entry(), 0x4000);
        m.trace = TraceUnit::Ipt(unit);
        let mut k = Kernel::with_input(&w.default_input);
        m.run(&mut k, 500_000_000);
        m.trace.as_ipt_mut().expect("ipt").flush();
        let bytes = m.trace.as_ipt().expect("ipt").trace_bytes();
        let flow = fg_ipt::flow::FlowDecoder::new(&w.image).decode(&bytes).expect("decodes");
        let log = m.branch_log.as_ref().expect("log");
        assert_eq!(flow.branches.len(), log.len(), "{}: branch counts", w.name);
        for (got, want) in flow.branches.iter().zip(log.iter()) {
            assert_eq!((got.from, got.to, got.kind), (want.from, want.to, want.kind), "{}", w.name);
        }
    }
}

/// All four attack routes of the evaluation are detected end to end, while
/// the same deployment keeps serving benign traffic.
#[test]
fn attack_detection_end_to_end() {
    let (w, d) = fg_attacks::trained_vulnerable_nginx();
    let g = fg_attacks::find_gadgets(&w.image);
    let attacks: Vec<(&str, Vec<u8>)> = vec![
        ("rop", fg_attacks::rop_write(&w.image, &g)),
        ("srop", fg_attacks::srop_execve(&w.image, &g)),
        ("ret2lib", fg_attacks::ret_to_lib(&w.image, &g)),
        ("flush", fg_attacks::history_flush(&w.image, &g, 12)),
    ];
    for (name, payload) in attacks {
        let r = fg_attacks::run_protected(&d, &payload, FlowGuardConfig::default());
        assert!(r.detected, "{name} must be detected");
        assert_eq!(r.stop, StopReason::Killed(fg_kernel::SIGKILL), "{name}");
    }
    let benign = fg_attacks::run_protected(&d, &w.default_input, FlowGuardConfig::default());
    assert!(!benign.detected);
}

/// The slow-path cache makes a repeated untrained run cheaper: second
/// serving of the same load does fewer slow-path upcalls than the first.
#[test]
fn slow_path_cache_warms_within_a_run() {
    let w = fg_workloads::nginx_patched();
    let d = Deployment::analyze(&w.image); // completely untrained
    let mut doubled = w.default_input.clone();
    doubled.extend_from_slice(&w.default_input);
    let mut p = d.launch(&doubled, FlowGuardConfig::default());
    let stop = p.run(500_000_000);
    assert!(matches!(stop, StopReason::Exited(0)), "{stop:?}");
    let s = p.stats.telemetry_snapshot();
    assert!(s.slow_invocations > 0, "untrained run must escalate at least once");
    assert!(
        s.fast_clean > s.slow_invocations,
        "cache should let most checks pass fast ({} clean vs {} slow)",
        s.fast_clean,
        s.slow_invocations
    );
}

/// An endpoint check scans at most one check window of trace: when more
/// was written since the previous check, the consumer skips the excess, or
/// cold-restarts inside the newest window after a wrap.
#[test]
fn endpoint_checks_scan_at_most_one_window() {
    let w = fg_workloads::vsftpd();
    let mut d = Deployment::analyze(&w.image);
    d.train(std::slice::from_ref(&w.default_input));
    let cfg = FlowGuardConfig::default();
    let window = (cfg.pkt_count * 24).max(512) as u64;
    let mut p = d.launch(&w.default_input, cfg);
    assert_eq!(p.run(500_000_000), StopReason::Exited(0));
    let events = p.stats.recent_events(usize::MAX);
    assert_eq!(events.len() as u64, p.stats.checks(), "every check event retained");
    for (i, ev) in &events {
        assert!(ev.delta_bytes <= window, "check {i} scanned {} > {window} bytes", ev.delta_bytes);
    }
    assert!(
        events.iter().any(|(_, ev)| ev.cold_restart),
        "the run wraps the ToPA past the consumer at least once"
    );
}

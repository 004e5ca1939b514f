//! Integration tests for the tier-0 entry-point bitset: the audit-extracted
//! dense policy probed on the fast path before any edge lookup.
//!
//! Two properties the audit pass promises (ISSUE 6 acceptance):
//!
//! 1. An attack whose hijacked target is not an ITC-CFG node is caught by
//!    the one-bit probe itself — `tier0_misses` counts the detection.
//! 2. A benign trained run never escalates through the probe: every TIP
//!    pair passes (`tier0_hits` grows), `tier0_misses` stays zero.

use fg_cpu::StopReason;
use flowguard::{Deployment, FlowGuardConfig};

/// A ROP payload pivots control into a mid-function gadget. That address is
/// no indirect-transfer target, so it is absent from the entry bitset and
/// the tier-0 probe alone must flag the window — before the node binary
/// search or edge resolution ever run.
#[test]
fn tier0_probe_detects_rop_attack() {
    let (w, d) = fg_attacks::trained_vulnerable_nginx();
    let g = fg_attacks::find_gadgets(&w.image);
    let payload = fg_attacks::rop_write(&w.image, &g);

    let mut p = d.launch(&payload, FlowGuardConfig::default());
    let stop = p.run(50_000_000);
    assert_eq!(stop, StopReason::Killed(fg_kernel::SIGKILL), "attack must be killed");
    assert!(p.violated(), "ROP payload must be detected");

    let ts = p.stats.telemetry_snapshot();
    assert!(
        ts.tier0_misses >= 1,
        "the hijacked target must miss the entry bitset (got {} misses)",
        ts.tier0_misses
    );
}

/// Without a bitset in the deployment, detection still happens (the edge
/// check is the backstop), but no tier-0 counters move — the bitset is a
/// pure acceleration layer, not a correctness dependency.
#[test]
fn attack_detected_even_with_tier0_disabled() {
    let (w, mut d) = fg_attacks::trained_vulnerable_nginx();
    let g = fg_attacks::find_gadgets(&w.image);
    let payload = fg_attacks::rop_write(&w.image, &g);

    d.entry_bitset = None;
    let mut p = d.launch(&payload, FlowGuardConfig::default());
    p.run(50_000_000);
    assert!(p.violated(), "detection must not depend on the bitset");

    let ts = p.stats.telemetry_snapshot();
    assert_eq!(ts.tier0_hits, 0, "no probes without a bitset");
    assert_eq!(ts.tier0_misses, 0, "no probes without a bitset");
}

/// A trained benign run exercises the probe on every checked TIP pair and
/// never escalates through it: zero false positives from tier 0.
#[test]
fn tier0_probe_has_zero_false_escalations_on_benign_run() {
    let w = fg_workloads::nginx_patched();
    let mut d = Deployment::analyze(&w.image);
    d.train(std::slice::from_ref(&w.default_input));

    let mut p = d.launch(&w.default_input, FlowGuardConfig::default());
    let stop = p.run(500_000_000);
    assert!(matches!(stop, StopReason::Exited(0)), "benign run exits cleanly, got {stop:?}");
    assert!(!p.violated(), "no violations on benign input");

    let ts = p.stats.telemetry_snapshot();
    assert!(ts.tier0_hits > 0, "the probe must actually run on checked pairs");
    assert_eq!(ts.tier0_misses, 0, "zero false escalations through tier 0");
    assert_eq!(ts.pairs_checked, ts.tier0_hits, "every checked pair is probed first");
}

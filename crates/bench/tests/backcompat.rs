//! Back-compat regression tests: checked-in fixtures of older on-disk
//! shapes must keep parsing as the telemetry event and snapshot schemas
//! grow and shed columns.
//!
//! The [`flowguard::CheckEvent`] wire format has grown across PRs — roughly
//! 12 words in the PR-3 era (fast-path counters only), 16 after the
//! checkpointed slow path landed (PR-4), and 18 once tier-0 probes were
//! split out (PR-7) — and every field is `#[serde(default)]` precisely so
//! that flight-recorder dumps and saved snapshots from older builds stay
//! loadable (`flowguard_cli stats --diff` reads saved snapshots).

use flowguard::{CheckEvent, CheckVerdict};

/// PR-3-era event: fast-path counters only, no slow-path or tier-0 words.
#[test]
fn pr3_era_check_event_parses_with_defaults() {
    let ev: CheckEvent =
        serde_json::from_str(include_str!("fixtures/checkevent_pr3.json")).unwrap();
    assert_eq!(ev.sysno, 59);
    assert_eq!(ev.verdict, CheckVerdict::FastClean);
    assert_eq!(ev.pairs_checked, 12);
    // Words that did not exist yet must default, not error.
    assert_eq!(ev.other_cycles, 0.0);
    assert_eq!(ev.slow_shards, 0);
    assert_eq!(ev.stitch_cycles, 0.0);
    assert_eq!(ev.tier0_hits, 0);
    assert!(!ev.streaming);
    assert_eq!(ev.total_cycles(), 512.0 + 96.0);
}

/// PR-4-era event: slow-path checkpoint/shard words present, tier-0 and
/// streaming words absent.
#[test]
fn pr4_era_check_event_parses_with_defaults() {
    let ev: CheckEvent =
        serde_json::from_str(include_str!("fixtures/checkevent_pr4.json")).unwrap();
    assert_eq!(ev.verdict, CheckVerdict::SlowClean);
    assert!(ev.checkpoint_hit);
    assert_eq!(ev.slow_shards, 4);
    assert_eq!(ev.slow_insns_decoded, 250_000);
    assert_eq!(ev.stitch_cycles, 0.0);
    assert_eq!(ev.tier0_misses, 0);
    assert_eq!(ev.frontier_lag, 0);
    assert_eq!(ev.drained_bytes, 0);
}

/// PR-7-era event: tier-0 words present, streaming words absent.
#[test]
fn pr7_era_check_event_parses_with_defaults() {
    let ev: CheckEvent =
        serde_json::from_str(include_str!("fixtures/checkevent_pr7.json")).unwrap();
    assert_eq!(ev.verdict, CheckVerdict::FastMalicious);
    assert_eq!(ev.tier0_hits, 5);
    assert!(!ev.streaming);
    assert_eq!(ev.drained_bytes, 0);
}

/// A current-era event survives a serialize → parse round trip, so dumps
/// written today become tomorrow's fixtures.
#[test]
fn current_check_event_round_trips() {
    let ev = CheckEvent {
        sysno: 59,
        verdict: CheckVerdict::SlowAttack,
        streaming: true,
        frontier_lag: 96,
        drained_bytes: 8192,
        tier0_misses: 1,
        ..Default::default()
    };
    let json = serde_json::to_string(&ev).unwrap();
    let back: CheckEvent = serde_json::from_str(&json).unwrap();
    assert_eq!(back.verdict, CheckVerdict::SlowAttack);
    assert_eq!(back.frontier_lag, 96);
    assert_eq!(back.drained_bytes, 8192);
}

/// A pre-fleet-era `TelemetrySnapshot` dump: it predates the fleet
/// scheduler's (since removed) `sched_*` counters, and words added later
/// must default rather than fail the parse.
#[test]
fn pre_fleet_telemetry_snapshot_parses_with_defaults() {
    let text = include_str!("fixtures/telemetry_snapshot_pr9.json");
    assert!(!text.contains("\"sched_"), "fixture must predate the fleet words");
    let s: flowguard::TelemetrySnapshot = serde_json::from_str(text).unwrap();
    assert_eq!(s.checks, 24);
    assert!(s.stream_drains > 0, "a streaming-era dump with drains recorded");
    // Zero-copy / consumer-thread era words (PR 10) default too.
    assert!(!text.contains("consumer_wakeups"), "fixture must predate the consumer words");
    assert_eq!(s.stream_copied_bytes, 0);
    assert_eq!(s.stream_seam_carries, 0);
    assert_eq!(s.copied_per_drained_kib(), 0.0);
}

/// A `TelemetrySnapshot` saved by `flowguard_cli stats --save` while the
/// fleet scheduler existed: its two `sched_*` counters no longer exist and
/// are ignored, so `stats --diff` still loads the file.
#[test]
fn scheduler_era_telemetry_snapshot_with_removed_counters_parses() {
    let text = include_str!("fixtures/telemetry_snapshot_scheduler_era.json");
    assert_eq!(text.matches("\"sched_").count(), 2, "fixture carries the removed counters");
    let s: flowguard::TelemetrySnapshot = serde_json::from_str(text).unwrap();
    assert_eq!(s.checks, 24);
    assert_eq!((s.stream_drains, s.stream_drained_bytes), (65_118, 378_655));
    assert!(s.stream_copied_bytes > 0, "the zero-copy words are present");
}

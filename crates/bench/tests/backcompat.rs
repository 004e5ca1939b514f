//! Back-compat regression tests: checked-in `TelemetrySnapshot` files saved
//! by older builds must keep parsing as the snapshot schema grows and
//! sheds counters, because `flowguard_cli stats --diff` reads saved
//! snapshots. Words added later default; words since removed are ignored.
//!
//! Snapshots are the only telemetry read back: a `CheckEvent` is written
//! out (the `events` listing, flowbench's probe) but never parsed, so it
//! has no fixtures here.

/// A pre-fleet-era `TelemetrySnapshot` dump: it predates the fleet
/// scheduler's (since removed) `sched_*` counters, and words added later
/// must default rather than fail the parse. It carries the since removed
/// `health` watchdog verdict, which is ignored.
#[test]
fn pre_fleet_telemetry_snapshot_parses_with_defaults() {
    let text = include_str!("fixtures/telemetry_snapshot_pr9.json");
    assert!(!text.contains("\"sched_"), "fixture must predate the fleet words");
    assert_eq!(text.matches("\"health\":").count(), 1, "fixture carries the removed verdict");
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
/// fleet scheduler existed: its two `sched_*` counters and its `health`
/// watchdog verdict no longer exist and are ignored, so `stats --diff`
/// still loads the file.
#[test]
fn scheduler_era_telemetry_snapshot_with_removed_counters_parses() {
    let text = include_str!("fixtures/telemetry_snapshot_scheduler_era.json");
    assert_eq!(text.matches("\"sched_").count(), 2, "fixture carries the removed counters");
    assert_eq!(text.matches("\"health\":").count(), 1, "fixture carries the removed verdict");
    let s: flowguard::TelemetrySnapshot = serde_json::from_str(text).unwrap();
    assert_eq!(s.checks, 24);
    assert_eq!((s.stream_drains, s.stream_drained_bytes), (65_118, 378_655));
    assert!(s.stream_copied_bytes > 0, "the zero-copy words are present");
}

//! Back-compat regression tests: checked-in fixtures of older on-disk
//! shapes must keep parsing as the telemetry event and `BENCH_*.json`
//! schemas grow and shed columns.
//!
//! The [`flowguard::CheckEvent`] wire format has grown across PRs — roughly
//! 12 words in the PR-3 era (fast-path counters only), 16 after the
//! checkpointed slow path landed (PR-4), and 18 once tier-0 probes were
//! split out (PR-7) — and every field is `#[serde(default)]` precisely so
//! that flight-recorder dumps and saved snapshots from older builds stay
//! loadable. The same policy covers the bench artifact schemas: columns
//! added later (`*_dist` histograms, observability metrics) default when
//! absent so checked-in baselines never need rewriting.

use fg_bench::experiments::{fastpath, fleet, slowpath, streaming};
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

/// A `BENCH_fastpath.json` from before the `*_dist` histogram columns must
/// load with defaulted distributions.
#[test]
fn pr4_era_bench_fastpath_parses() {
    let b: fastpath::FastpathBench =
        serde_json::from_str(include_str!("fixtures/bench_fastpath_pr4.json")).unwrap();
    assert!((b.edge_cache_hit_rate - 0.93).abs() < 1e-12);
    assert_eq!(b.check_cycles_dist.count, 0);
    assert_eq!(b.scan_cycles_dist.count, 0);
    assert_eq!(b.bytes_per_check_dist.count, 0);
}

/// A `BENCH_slowpath.json` from before the distribution columns and the
/// engine checkpoint-hit counter.
#[test]
fn pr7_era_bench_slowpath_parses() {
    let b: slowpath::SlowpathBench =
        serde_json::from_str(include_str!("fixtures/bench_slowpath_pr7.json")).unwrap();
    assert_eq!(b.shards, 28);
    assert!((b.checkpoint_hit_rate - 0.92).abs() < 1e-12);
    assert_eq!(b.slow_decode_cycles_dist.count, 0);
    assert_eq!(b.engine_checkpoint_hits, 0);
}

/// A `BENCH_streaming.json` from before the residue distribution column.
#[test]
fn pr7_era_bench_streaming_parses() {
    let b: streaming::StreamingBench =
        serde_json::from_str(include_str!("fixtures/bench_streaming_pr7.json")).unwrap();
    assert_eq!(b.residue_bytes_per_check_p50, 16);
    assert_eq!(b.residue_bytes_dist.count, 0);
}

/// A `BENCH_streaming.json` from just before the zero-copy / consumer
/// columns: the residue distribution is present, the segmented-scan and
/// consumer-thread words are not and must default.
#[test]
fn pr9_era_bench_streaming_parses() {
    let text = include_str!("fixtures/bench_streaming_pr9.json");
    assert!(!text.contains("consumer_wakeups"), "fixture must predate the consumer columns");
    let b: streaming::StreamingBench = serde_json::from_str(text).unwrap();
    assert!(b.residue_bytes_dist.count > 0, "distribution column is present in this era");
    assert_eq!(b.segmented_scan_mib_per_sec, 0.0);
    assert_eq!(b.segmented_vs_vectorized, 0.0);
    assert_eq!(b.copied_bytes_per_drained_kib, 0.0);
    // And it keeps working as the baseline side of the current gates.
    assert!(streaming::regressions(&b, &b, 2.0).is_empty());
}

/// A `BENCH_streaming.json` from the dedicated-consumer era: its
/// `consumer_*` columns no longer exist and are ignored, and it still feeds
/// the current gates, on either side of the comparison.
#[test]
fn consumer_era_bench_streaming_with_removed_columns_parses() {
    let text = include_str!("fixtures/bench_streaming_consumer_era.json");
    assert!(text.contains("consumer_wakeups"), "fixture carries the removed consumer columns");
    let b: streaming::StreamingBench = serde_json::from_str(text).unwrap();
    assert_eq!(b.residue_bytes_per_check_p99, 71);
    assert_eq!(b.stream_drains, 65_118);
    assert!(b.copied_bytes_per_drained_kib > 0.0, "the zero-copy columns are present");
    assert!(streaming::regressions(&b, &b, 2.0).is_empty());
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

/// A `BENCH_fleet.json` from the fleet-scheduler era: its drop, shed and
/// deferred-drain columns no longer exist and are ignored, and it feeds the
/// current gates on either side of a comparison with today's baseline.
#[test]
fn scheduler_era_bench_fleet_with_removed_columns_parses() {
    let text = include_str!("fixtures/bench_fleet_scheduler_era.json");
    assert!(text.contains("\"dropped_checks\""), "fixture carries the removed columns");
    let old: fleet::FleetBench = serde_json::from_str(text).unwrap();
    assert_eq!(old.checks_total, 512);
    assert_eq!(old.context_switches, 4997);
    let current: fleet::FleetBench =
        serde_json::from_str(include_str!("../baselines/BENCH_fleet.json")).unwrap();
    assert!(fleet::regressions(&old, &old, 2.0).is_empty());
    assert!(fleet::regressions(&current, &old, 2.0).is_empty());
    assert!(fleet::regressions(&old, &current, 2.0).is_empty());
}

/// Old checked-in baselines parse against the *current* regression gates —
/// the exact combination CI exercises after a schema change.
#[test]
fn old_baselines_feed_current_regression_gates() {
    let b: streaming::StreamingBench =
        serde_json::from_str(include_str!("fixtures/bench_streaming_pr7.json")).unwrap();
    // Comparing a shape-identical current run against the old baseline must
    // produce no spurious regressions.
    assert!(streaming::regressions(&b, &b, 2.0).is_empty());
}

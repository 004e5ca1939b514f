//! Golden values of the implementation benches. Each test runs one
//! experiment's deterministic half — the code `bench_gate` runs before it
//! times anything — and pins every key it produces: integers with
//! `assert_eq!`, floats bit for bit. The values were recorded from the
//! experiments as they stood before the five per-bench baseline gates were
//! folded into `bench_gate`. The fleet runs at 32 processes instead of the
//! bench's 64, to fit the debug profile, at values recorded the same way;
//! `bench_gate` holds the 64-process fleet to its table rows.
//!
//! A change to the engine, the cost model or a workload that moves one of
//! these numbers has to re-record it here and say why.

use fg_bench::experiments::{fastpath, fleet, observability, slowpath, streaming};
use fg_trace::HistogramSnapshot;

/// Asserts `actual` is the recorded `expected` bit for bit.
#[track_caller]
fn same(actual: f64, expected: f64) {
    assert_eq!(actual.to_bits(), expected.to_bits(), "{actual:?} is not the recorded {expected:?}");
}

/// Asserts a distribution: count, mean bit for bit, then p50, p90, p99 and
/// max.
#[track_caller]
fn dist(d: &HistogramSnapshot, count: u64, mean: f64, quantiles: [u64; 4]) {
    assert_eq!(d.count, count);
    same(d.mean, mean);
    assert_eq!([d.p50, d.p90, d.p99, d.max], quantiles);
}

#[test]
fn fastpath_bytes_per_check_and_cache_hits() {
    let b = fastpath::modeled();
    same(b.bytes_per_check_incremental, 188.375);
    same(b.bytes_per_check_cold, 629.625);
    same(b.bytes_per_check_ratio, 0.29918602342664286);
    same(b.edge_cache_hit_rate, 0.9730941704035875);
    dist(&b.check_cycles_dist, 24, 3472.625, [3327, 4607, 4778, 4778]);
    dist(&b.scan_cycles_dist, 24, 565.125, [255, 1471, 1758, 1758]);
    dist(&b.bytes_per_check_dist, 24, 188.375, [87, 479, 586, 586]);
}

#[test]
fn streaming_residue_drains_and_copies() {
    let b = streaming::modeled();
    assert_eq!(b.residue_bytes_per_check_p50, 17);
    assert_eq!(b.residue_bytes_per_check_p99, 71);
    assert_eq!(b.stream_drains, 65_118);
    assert_eq!(b.stream_drained_bytes, 378_655);
    dist(&b.residue_bytes_dist, 24, 24.125, [17, 53, 71, 71]);
    same(b.copied_bytes_per_drained_kib, 0.332122119852123);
}

#[test]
fn observability_attribution_and_phase_cycles() {
    let b = observability::modeled();
    same(b.attribution_coverage, 1.0);
    same(b.streaming_attribution_coverage, 1.0);
    assert_eq!(b.span_records, 120);
    same(b.intercept_cycles, 2880.0);
    same(b.tier0_probe_cycles, 4181.25);
    same(b.edge_probe_cycles, 60318.75);
    same(b.fast_scan_cycles, 13563.0);
    same(b.residue_scan_cycles, 1737.0);
    same(b.slow_decode_cycles, 0.0);
    same(b.shard_stitch_cycles, 0.0);
    same(b.verdict_cycles, 2400.0);
    same(b.stream_drain_cycles, 1_135_965.0);
}

#[test]
fn slowpath_sharding_and_checkpoints() {
    let b = slowpath::modeled();
    same(b.trace_mib, 0.3616752624511719);
    assert_eq!(b.shards, 689);
    assert_eq!(b.decode_workers, 4);
    same(b.sharded_decode_speedup, 3.2782707352592544);
    assert_eq!(b.checkpoint_windows, 8);
    assert_eq!(b.cold_insns_decoded, 18_961_846);
    assert_eq!(b.warm_insns_decoded, 4_166_533);
    same(b.checkpoint_insn_ratio, 0.2197324564285566);
    same(b.checkpoint_hit_rate, 0.875);
    dist(&b.slow_decode_cycles_dist, 4, 1_230_075.0, [102_399, 4_614_050, 4_614_050, 4_614_050]);
    dist(&b.slow_stitch_cycles_dist, 4, 58850.0, [1023, 232_020, 232_020, 232_020]);
    dist(&b.slow_shards_dist, 4, 2.0, [1, 6, 6, 6]);
    assert_eq!(b.engine_checkpoint_hits, 2);
    assert_eq!(b.engine_checkpoint_misses, 2);
}

#[test]
fn fleet_sharing_latency_and_attacks_at_32_processes() {
    let b = fleet::modeled(32);
    assert_eq!((b.processes, b.distinct_images), (32, 4));
    same(b.artifact_cache_hit_rate, 0.875);
    assert_eq!(b.checks_total, 256);
    assert_eq!(b.p99_check_latency_cycles, 4_980_735);
    assert_eq!(b.solo_p99_check_latency_cycles, 4_650_549);
    same(b.p99_latency_ratio, 1.0709993594304672);
    assert_eq!(b.context_switches, 2414);
    assert_eq!((b.attacks_detected, b.attacks_total), (5, 5));
    same(b.attacks_detected_fraction, 1.0);
}

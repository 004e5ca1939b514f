//! **Fleet-scale enforcement benchmarks** — 64 concurrent protected
//! processes under one [`FleetSupervisor`]: shared deployment artifacts and
//! per-CR3 tracing, measured end to end.
//!
//! Emits `BENCH_fleet.json`, tracked in CI against a checked-in baseline.
//! Absolute checks/sec is informational (wall-clock); the gated metrics are
//! deterministic properties of the fleet run:
//!
//! * artifact-cache hit rate ≥ 0.9 — 64 processes over 4 distinct images
//!   must share artifacts (60 of 64 lookups hit);
//! * p99 check latency (modeled cycles) within 2× of the solo baseline —
//!   the same four processes each run as a one-member fleet;
//! * 100% of fleet-wide attacks detected — five members running the five
//!   distinct `fg-attacks` payloads concurrently are all caught;
//! * `checks_total` equal to the baseline's — every request is checked.

use crate::table::{fmt, Table};
use fg_attacks::{
    find_gadgets, history_flush, kbouncer_evasion, ret_to_lib, rop_write, srop_execve,
    trained_vulnerable_nginx,
};
use fg_workloads::Workload;
use flowguard::{FleetConfig, FleetSupervisor};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The default artifact file name.
pub const JSON_PATH: &str = "BENCH_fleet.json";

/// Concurrent processes in the headline measurement.
pub const FLEET_SIZE: usize = 64;

/// Requests each member's seeded load stream carries.
const REQUESTS_PER_MEMBER: usize = 8;

/// One row of the scaling table (checks/sec vs process count).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Concurrent processes.
    pub processes: usize,
    /// Endpoint checks across the fleet.
    pub checks: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_sec: f64,
    /// Checks per wall-clock second (informational).
    pub checks_per_sec: f64,
}

/// One full measurement, serialised as `BENCH_fleet.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FleetBench {
    /// Concurrent processes in the headline run.
    pub processes: usize,
    /// Distinct binaries behind them.
    pub distinct_images: usize,
    /// Artifact-cache hit rate (gated ≥ 0.9).
    pub artifact_cache_hit_rate: f64,
    /// Endpoint checks across the headline fleet.
    pub checks_total: u64,
    /// Checks per wall-clock second at 64 processes (informational).
    pub checks_per_sec: f64,
    /// Fleet-wide p99 check latency, modeled cycles.
    pub p99_check_latency_cycles: u64,
    /// Solo baseline: the first four members (one per image) each run as
    /// a one-member fleet, latency histograms merged.
    pub solo_p99_check_latency_cycles: u64,
    /// `fleet p99 / solo p99` (gated ≤ 2.0).
    pub p99_latency_ratio: f64,
    /// Context switches across the headline run.
    pub context_switches: u64,
    /// Attack payloads launched concurrently in the detection fleet.
    pub attacks_total: usize,
    /// Attacks FlowGuard detected.
    pub attacks_detected: usize,
    /// `detected / total` (gated == 1.0).
    pub attacks_detected_fraction: f64,
    /// Checks/sec vs process count (1 / 8 / 64).
    #[serde(default)]
    pub scaling: Vec<ScalingRow>,
}

/// The four distinct images of the benchmark fleet.
fn images() -> Vec<Workload> {
    vec![
        fg_workloads::nginx_patched(),
        fg_workloads::vsftpd(),
        fg_workloads::openssh(),
        fg_workloads::exim(),
    ]
}

/// The fleet configuration under test: streaming engines (background
/// drains at every member's poll slots) with the multi-CR3 filter.
fn fleet_config() -> FleetConfig {
    let mut cfg = FleetConfig::default();
    cfg.flowguard.streaming = true;
    cfg
}

/// Builds and runs an `n`-process fleet over the four images (member `pid`
/// runs image `pid % 4` on a pid-seeded load stream). Returns the fleet
/// and the wall-clock seconds of the run loop.
fn run_fleet(n: usize) -> (FleetSupervisor, f64) {
    let ws = images();
    let mut fleet = FleetSupervisor::new(fleet_config());
    for pid in 0..n {
        let w = &ws[pid % ws.len()];
        let corpus = vec![w.default_input.clone()];
        let input = fg_workloads::load_input(REQUESTS_PER_MEMBER, pid as u64);
        fleet.spawn(&w.name, &w.image, &corpus, &input).expect("benign image admitted");
    }
    let start = Instant::now();
    fleet.run();
    let wall = start.elapsed().as_secs_f64();
    for m in fleet.members() {
        assert_eq!(
            m.stop,
            Some(fg_cpu::StopReason::Exited(0)),
            "benign member {} must exit clean",
            m.pid
        );
        assert!(!m.violated(), "benign member {} must not violate", m.pid);
    }
    (fleet, wall)
}

/// One scaling row at `n` processes.
fn scaling_row(n: usize) -> ScalingRow {
    let (fleet, wall) = run_fleet(n);
    let checks = fleet.snapshot().checks_total;
    ScalingRow { processes: n, checks, wall_sec: wall, checks_per_sec: checks as f64 / wall }
}

/// The solo baseline: each of the four images run alone as a one-member
/// fleet (same seeds as fleet members 0–3), latency histograms merged.
fn solo_p99() -> u64 {
    let merged = fg_trace::Histogram::new();
    for pid in 0..images().len() {
        let (fleet, _) = {
            let ws = images();
            let w = &ws[pid];
            let mut fleet = FleetSupervisor::new(fleet_config());
            let input = fg_workloads::load_input(REQUESTS_PER_MEMBER, pid as u64);
            fleet
                .spawn(&w.name, &w.image, std::slice::from_ref(&w.default_input), &input)
                .expect("benign image admitted");
            let start = Instant::now();
            fleet.run();
            (fleet, start.elapsed().as_secs_f64())
        };
        merged.merge_from(&fleet.merged_check_latency());
    }
    merged.quantile(0.99)
}

/// The concurrent attack fleet: five members, each running a distinct
/// `fg-attacks` payload against the shared vulnerable-nginx deployment.
/// Returns `(total, detected)`.
fn attack_fleet() -> (usize, usize) {
    let (w, d) = trained_vulnerable_nginx();
    let g = find_gadgets(&w.image);
    let payloads: Vec<(&'static str, Vec<u8>)> = vec![
        ("rop_write", rop_write(&w.image, &g)),
        ("srop_execve", srop_execve(&w.image, &g)),
        ("ret_to_lib", ret_to_lib(&w.image, &g)),
        ("history_flush", history_flush(&w.image, &g, 12)),
        ("kbouncer_evasion", kbouncer_evasion(&w.image, 12)),
    ];
    let mut fleet = FleetSupervisor::new(fleet_config());
    for (name, payload) in &payloads {
        fleet.spawn_deployment(name, d.clone(), payload).expect("vulnerable artifact is honest");
    }
    fleet.run();
    let detected = fleet.members().iter().filter(|m| m.violated()).count();
    (payloads.len(), detected)
}

/// Runs the whole measurement.
pub fn run() -> FleetBench {
    // Headline: 64 concurrent processes, 4 distinct images.
    let (fleet, wall) = run_fleet(FLEET_SIZE);
    let snap = fleet.snapshot();
    let cache = fleet.cache_stats();
    let p99 = fleet.merged_check_latency().quantile(0.99);
    let solo = solo_p99();
    let (attacks_total, attacks_detected) = attack_fleet();
    let scaling = vec![scaling_row(1), scaling_row(8), scaling_row(FLEET_SIZE)];

    FleetBench {
        processes: FLEET_SIZE,
        distinct_images: images().len(),
        artifact_cache_hit_rate: cache.hit_rate(),
        checks_total: snap.checks_total,
        checks_per_sec: snap.checks_total as f64 / wall,
        p99_check_latency_cycles: p99,
        solo_p99_check_latency_cycles: solo,
        p99_latency_ratio: p99 as f64 / solo as f64,
        context_switches: snap.switches,
        attacks_total,
        attacks_detected,
        attacks_detected_fraction: attacks_detected as f64 / attacks_total as f64,
        scaling,
    }
}

/// Prints the tables and writes `BENCH_fleet.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match write_json(&b, JSON_PATH) {
        Ok(()) => println!("\nwrote {JSON_PATH}"),
        Err(e) => eprintln!("\nfailed to write {JSON_PATH}: {e}"),
    }
}

/// Prints the metric tables for a measurement.
pub fn print_table(b: &FleetBench) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["processes".into(), b.processes.to_string()]);
    t.row(vec!["distinct images".into(), b.distinct_images.to_string()]);
    t.row(vec!["artifact-cache hit rate".into(), fmt(b.artifact_cache_hit_rate, 4)]);
    t.row(vec!["checks total".into(), b.checks_total.to_string()]);
    t.row(vec!["checks/sec (wall)".into(), fmt(b.checks_per_sec, 0)]);
    t.row(vec!["p99 check latency (cycles)".into(), b.p99_check_latency_cycles.to_string()]);
    t.row(vec!["solo p99 (cycles)".into(), b.solo_p99_check_latency_cycles.to_string()]);
    t.row(vec!["p99 ratio (fleet/solo)".into(), fmt(b.p99_latency_ratio, 3)]);
    t.row(vec!["context switches".into(), b.context_switches.to_string()]);
    t.row(vec!["attacks detected".into(), format!("{}/{}", b.attacks_detected, b.attacks_total)]);
    t.print("Fleet-scale enforcement (BENCH_fleet.json)");

    let mut s = Table::new(&["processes", "checks", "wall s", "checks/sec"]);
    for r in &b.scaling {
        s.row(vec![
            r.processes.to_string(),
            r.checks.to_string(),
            fmt(r.wall_sec, 2),
            fmt(r.checks_per_sec, 0),
        ]);
    }
    s.print("Fleet scaling (checks/sec vs process count)");
}

/// Serialises a measurement to `path`.
pub fn write_json(b: &FleetBench, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(b).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")
}

/// Compares `current` against a baseline, returning every gated metric
/// that fails. All fleet gates are absolute (the metrics are deterministic
/// properties of the run, not machine-dependent throughputs); the baseline
/// pins the deterministic counters exactly so silent behaviour drift shows
/// up in CI.
pub fn regressions(current: &FleetBench, baseline: &FleetBench, _factor: f64) -> Vec<String> {
    let mut out = Vec::new();
    if current.artifact_cache_hit_rate < 0.9 {
        out.push(format!(
            "artifact_cache_hit_rate too low: {:.4} (must stay >= 0.9)",
            current.artifact_cache_hit_rate
        ));
    }
    if current.p99_latency_ratio > 2.0 {
        out.push(format!(
            "p99_latency_ratio too high: {:.3} (fleet p99 must stay within 2x of solo)",
            current.p99_latency_ratio
        ));
    }
    if (current.attacks_detected_fraction - 1.0).abs() > f64::EPSILON {
        out.push(format!(
            "attacks_detected_fraction: {:.2} ({}/{}; every fleet-wide attack must be caught)",
            current.attacks_detected_fraction, current.attacks_detected, current.attacks_total
        ));
    }
    if current.checks_total != baseline.checks_total {
        out.push(format!(
            "checks_total drifted: {} vs baseline {} (deterministic workload)",
            current.checks_total, baseline.checks_total
        ));
    }
    if current.processes != baseline.processes
        || current.distinct_images != baseline.distinct_images
    {
        out.push(format!(
            "fleet shape drifted: {}p/{}i vs baseline {}p/{}i",
            current.processes,
            current.distinct_images,
            baseline.processes,
            baseline.distinct_images
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetBench {
        FleetBench {
            processes: 64,
            distinct_images: 4,
            artifact_cache_hit_rate: 0.9375,
            checks_total: 1000,
            checks_per_sec: 5000.0,
            p99_check_latency_cycles: 900,
            solo_p99_check_latency_cycles: 850,
            p99_latency_ratio: 900.0 / 850.0,
            context_switches: 640,
            attacks_total: 5,
            attacks_detected: 5,
            attacks_detected_fraction: 1.0,
            scaling: vec![ScalingRow {
                processes: 1,
                checks: 16,
                wall_sec: 0.1,
                checks_per_sec: 160.0,
            }],
        }
    }

    #[test]
    fn json_roundtrip_and_clean_sample_passes() {
        let b = sample();
        let s = serde_json::to_string(&b).unwrap();
        let r: FleetBench = serde_json::from_str(&s).unwrap();
        assert_eq!(r.checks_total, b.checks_total);
        assert_eq!(r.scaling.len(), 1);
        assert!(regressions(&b, &b, 2.0).is_empty());
    }

    #[test]
    fn regressions_flag_each_gate() {
        let base = sample();
        let mut bad = base.clone();
        bad.artifact_cache_hit_rate = 0.5;
        bad.p99_latency_ratio = 2.5;
        bad.attacks_detected = 4;
        bad.attacks_detected_fraction = 0.8;
        bad.checks_total = 999;
        let r = regressions(&bad, &base, 2.0);
        assert_eq!(r.len(), 4, "{r:?}");
    }

    // The full 64-process measurement runs in the bench binary and CI; this
    // smoke keeps the in-tree suite fast while proving the machinery.
    #[test]
    fn small_fleet_measurement_is_clean() {
        let (fleet, _) = run_fleet(8);
        let snap = fleet.snapshot();
        assert!(snap.checks_total > 0);
        let cache = fleet.cache_stats();
        assert!(cache.hit_rate() >= 0.5, "8 processes over 4 images: half the lookups hit");
        let (total, detected) = attack_fleet();
        assert_eq!(detected, total, "all concurrent attacks detected");
    }
}

//! **Fleet-scale enforcement benchmarks** — 64 concurrent protected
//! processes under one [`FleetSupervisor`]: shared deployment artifacts and
//! per-CR3 tracing, measured end to end.
//!
//! [`modeled`] is the deterministic half, at any fleet width:
//!
//! * the artifact-cache hit rate — the processes share the artifacts of 4
//!   distinct images (60 of 64 lookups hit at the bench's width);
//! * p99 check latency (modeled cycles) against the solo baseline — the
//!   first four processes each run as a one-member fleet;
//! * fleet-wide attack detection — five members running the five distinct
//!   `fg-attacks` payloads concurrently are all caught;
//! * `checks_total` and context switches.
//!
//! The root `bench_golden` test pins it exactly at 32 processes, and
//! `bench_gate` holds the 64-process fleet to its rows. [`timed`] is the
//! host-timed half: checks/sec at 1, 8 and 64 processes, informational.
//! Both land in `BENCH_fleet.json`.

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
    /// Artifact-cache hit rate.
    pub artifact_cache_hit_rate: f64,
    /// Endpoint checks across the headline fleet.
    pub checks_total: u64,
    /// Checks per wall-clock second at 64 processes (the last scaling
    /// row; informational).
    pub checks_per_sec: f64,
    /// Fleet-wide p99 check latency, modeled cycles.
    pub p99_check_latency_cycles: u64,
    /// Solo baseline: the first four members (one per image) each run as
    /// a one-member fleet, latency histograms merged.
    pub solo_p99_check_latency_cycles: u64,
    /// `fleet p99 / solo p99`.
    pub p99_latency_ratio: f64,
    /// Context switches across the headline run.
    pub context_switches: u64,
    /// Attack payloads launched concurrently in the detection fleet.
    pub attacks_total: usize,
    /// Attacks FlowGuard detected.
    pub attacks_detected: usize,
    /// `detected / total`.
    pub attacks_detected_fraction: f64,
    /// Checks/sec vs process count (1 / 8 / 64).
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
    let mut merged = fg_trace::Histogram::new();
    for (pid, w) in images().iter().enumerate() {
        let mut fleet = FleetSupervisor::new(fleet_config());
        let input = fg_workloads::load_input(REQUESTS_PER_MEMBER, pid as u64);
        fleet
            .spawn(&w.name, &w.image, std::slice::from_ref(&w.default_input), &input)
            .expect("benign image admitted");
        fleet.run();
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

/// The deterministic half at `processes` members: cache sharing, check
/// and switch counts, p99 latency against solo, and the attack fleet. The
/// host-timed columns stay empty.
pub fn modeled(processes: usize) -> FleetBench {
    let (fleet, _) = run_fleet(processes);
    let snap = fleet.snapshot();
    let p99 = fleet.merged_check_latency().quantile(0.99);
    let solo = solo_p99();
    let (attacks_total, attacks_detected) = attack_fleet();
    FleetBench {
        processes,
        distinct_images: images().len(),
        artifact_cache_hit_rate: fleet.cache_stats().hit_rate(),
        checks_total: snap.checks_total,
        p99_check_latency_cycles: p99,
        solo_p99_check_latency_cycles: solo,
        p99_latency_ratio: p99 as f64 / solo as f64,
        context_switches: snap.switches,
        attacks_total,
        attacks_detected,
        attacks_detected_fraction: attacks_detected as f64 / attacks_total as f64,
        ..FleetBench::default()
    }
}

/// The host-timed half: checks/sec at 1, 8 and [`FLEET_SIZE`] processes.
pub fn timed(b: &mut FleetBench) {
    b.scaling = vec![scaling_row(1), scaling_row(8), scaling_row(FLEET_SIZE)];
    b.checks_per_sec = b.scaling[2].checks_per_sec;
}

/// Runs both halves once at [`FLEET_SIZE`] processes.
pub fn run() -> FleetBench {
    let mut b = modeled(FLEET_SIZE);
    timed(&mut b);
    b
}

/// Prints the tables and writes `BENCH_fleet.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match crate::measure::write_json(&b, JSON_PATH) {
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

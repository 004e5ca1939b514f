//! Fleet-enforcement integration tests: a process supervised inside a wide
//! fleet must behave exactly as it does alone — the same check events,
//! verdicts and drains, bit-identical forensic flight records — and a
//! fleet under concurrent attack must catch every payload.

use fg_cpu::StopReason;
use flowguard::{
    CheckEvent, Deployment, EngineTelemetry, FleetConfig, FleetSupervisor, FlightRecord,
    FlowGuardConfig, ViolationRecord,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Width of the equivalence fleet (the ISSUE's bar: solo == 64-wide).
const FLEET_WIDTH: u64 = 64;

fn fleet_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::default();
    // Streaming engines, so members drain at their poll slots and PMIs.
    cfg.flowguard.streaming = true;
    cfg
}

fn solo_cfg() -> FlowGuardConfig {
    FlowGuardConfig { streaming: true, ..Default::default() }
}

/// The outcome of one protected run: verdict counters, every check event
/// (whose `frontier_lag`/`delta_bytes` show each check found the same
/// residue), the drain and scan totals, the violation log, and the raw
/// flight records (whose `topa_window` bytes prove the per-process trace
/// itself is bit-identical).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    verdicts: [u64; 7],
    events: Vec<(u64, CheckEvent)>,
    bytes_scanned: u64,
    stream_drains: u64,
    stream_drained_bytes: u64,
    violations: Vec<ViolationRecord>,
    flight_records: Vec<FlightRecord>,
}

fn fingerprint(stats: &EngineTelemetry) -> Fingerprint {
    let s = stats.telemetry_snapshot();
    Fingerprint {
        verdicts: [
            s.checks,
            s.fast_clean,
            s.fast_malicious,
            s.slow_invocations,
            s.slow_attacks,
            s.insufficient,
            s.violations_total,
        ],
        events: stats.recent_events(usize::MAX),
        bytes_scanned: s.bytes_scanned,
        stream_drains: s.stream_drains,
        stream_drained_bytes: s.stream_drained_bytes,
        violations: s.violations,
        flight_records: s.flight_records,
    }
}

/// One trained deployment of the patched (benign) nginx, shared across
/// proptest cases.
fn patched_nginx() -> &'static Deployment {
    static D: OnceLock<Deployment> = OnceLock::new();
    D.get_or_init(|| {
        let w = fg_workloads::nginx_patched();
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    /// A process checked inside a 64-wide fleet produces bit-identical
    /// check events, drains, violations, and flight records to the same
    /// deployment and input run solo. Member 0 sits at the default CR3 (the
    /// one a solo launch uses), so even the CR3s embedded in PIP packets
    /// line up.
    #[test]
    fn fleet_member_matches_solo(
        seed in any::<u64>(),
        requests in 1usize..4,
    ) {
        let d = patched_nginx();
        let input = fg_workloads::load_input(requests, seed);

        let mut p = d.launch(&input, solo_cfg());
        let stop = p.run(500_000_000);
        prop_assert!(matches!(stop, StopReason::Exited(0)), "solo: {stop:?}");
        let solo = fingerprint(&p.stats);

        let mut fleet = FleetSupervisor::new(fleet_cfg());
        fleet.spawn_deployment("nginx", d.clone(), &input).expect("benign artifact admitted");
        for pid in 1..FLEET_WIDTH {
            fleet
                .spawn_deployment("nginx", d.clone(), &fg_workloads::load_input(1, pid))
                .expect("benign artifact admitted");
        }
        fleet.run();

        let m = &fleet.members()[0];
        prop_assert!(
            matches!(m.stop, Some(StopReason::Exited(0))),
            "member 0: {:?}",
            m.stop
        );
        prop_assert_eq!(solo, fingerprint(m.stats()), "fleet membership must not change outcomes");

        // The crowd itself stays clean, and the shared artifact cache
        // served every sibling spawn.
        prop_assert!(fleet.members().iter().all(|m| !m.violated()));
        let snap = fleet.snapshot();
        prop_assert_eq!(snap.cache.hits, FLEET_WIDTH - 1);
    }
}

/// An attacked member's forensic flight records — including the captured
/// ToPA window bytes — are bit-identical in a fleet and solo: per-CR3
/// sub-buffers mean neighbours never flush or overwrite a member's trace.
#[test]
fn attacked_member_flight_records_match_solo() {
    let (w, d) = fg_attacks::trained_vulnerable_nginx();
    let g = fg_attacks::find_gadgets(&w.image);
    let payload = fg_attacks::rop_write(&w.image, &g);

    let mut p = d.launch(&payload, solo_cfg());
    let _ = p.run(500_000_000);
    assert!(p.violated(), "solo run must detect the ROP chain");
    let solo = fingerprint(&p.stats);
    assert!(!solo.flight_records.is_empty(), "violation must capture a flight record");

    let mut fleet = FleetSupervisor::new(fleet_cfg());
    fleet.spawn_deployment("nginx-vuln", d.clone(), &payload).expect("artifact admitted");
    let benign = fg_workloads::nginx_patched();
    for pid in 1..8u64 {
        fleet
            .spawn(
                &benign.name,
                &benign.image,
                std::slice::from_ref(&benign.default_input),
                &fg_workloads::load_input(2, pid),
            )
            .expect("benign artifact admitted");
    }
    fleet.run();

    let m = &fleet.members()[0];
    assert!(m.violated(), "fleet run must detect the ROP chain");
    assert_eq!(solo, fingerprint(m.stats()), "flight records must be bit-identical");
}

/// Five fleet members each run a distinct attack payload against the same
/// shared vulnerable deployment, concurrently. Every one is detected and
/// killed; the artifact cache serves all but the first spawn.
#[test]
fn concurrent_attack_fleet_all_detected() {
    let (w, d) = fg_attacks::trained_vulnerable_nginx();
    let g = fg_attacks::find_gadgets(&w.image);
    let payloads: Vec<(&str, Vec<u8>)> = vec![
        ("rop", fg_attacks::rop_write(&w.image, &g)),
        ("srop", fg_attacks::srop_execve(&w.image, &g)),
        ("ret2lib", fg_attacks::ret_to_lib(&w.image, &g)),
        ("flush", fg_attacks::history_flush(&w.image, &g, 12)),
        ("kbouncer", fg_attacks::kbouncer_evasion(&w.image, 12)),
    ];
    let total = payloads.len();

    let mut fleet = FleetSupervisor::new(fleet_cfg());
    for (name, payload) in &payloads {
        fleet.spawn_deployment(name, d.clone(), payload).expect("artifact admitted");
    }
    fleet.run();

    for m in fleet.members() {
        assert!(m.violated(), "attack `{}` must be detected inside the fleet", m.name);
        assert!(
            matches!(m.stop, Some(StopReason::Killed(_))),
            "attack `{}` must be killed: {:?}",
            m.name,
            m.stop
        );
    }

    let snap = fleet.snapshot();
    assert!(snap.violations_total as usize >= total, "one violation per member minimum");
    assert_eq!(snap.cache.hits as usize, total - 1, "shared artifact: one miss, rest hits");
}

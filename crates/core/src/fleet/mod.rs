//! # Fleet-scale enforcement: one supervisor, many protected processes
//!
//! FlowGuard's per-process pipeline (analyse → train → verify → trace →
//! check) is exercised everywhere else in this suite one process at a time.
//! Real deployments protect a *fleet*: dozens of processes, most of them
//! instances of a handful of binaries, sharing finite tracing hardware.
//! This module adds the two pieces that make that shape efficient, built on
//! the paper's §6 hardware suggestions and §7.2.4 multi-process findings:
//!
//! * **Shared deployment artifacts** ([`ArtifactCache`]) — deployments are
//!   content-addressed by image hash, admission-gated by `fg-verify`, and
//!   shared (`Arc`) by every instance of the same binary; verdicts —
//!   including rejections — are cached.
//! * **Per-CR3 tracing** ([`fg_cpu::MultiIptUnit`]) — the simulated core
//!   carries one trace unit with per-CR3 ToPA sub-buffers and the
//!   configurable multi-CR3 filter the paper calls for, so a context
//!   switch selects a sub-buffer instead of flushing the trace and
//!   re-programming `IA32_RTIT_CR3_MATCH`. The stock single-CR3 hardware
//!   remains available ([`FleetConfig::multi_cr3`] = false) and charges the
//!   flush + MSR rewrite + PSB+ re-sync cost on every switch.
//!
//! Everything else is the solo path. Each member is a [`ProtectedProcess`]
//! launched by [`Deployment::launch_with`] under its own CR3, and the
//! [`FleetSupervisor`] time-slices the members round-robin, each slice a
//! [`ProtectedProcess::run`] with the core's trace unit swapped in. A
//! member's engine therefore drains at its own trace-poll slots and PMIs
//! and checks at its own syscalls exactly as it would alone: a process
//! checked inside a fleet produces a bit-identical check-event stream to
//! the same process run alone (the root `tests/fleet.rs` suite proves it).

pub mod artifacts;

pub use artifacts::{image_hash, ArtifactCache, ArtifactCacheStats};

use crate::config::FlowGuardConfig;
use crate::deploy::{Deployment, ProtectedProcess, DEFAULT_CR3};
use crate::telemetry::{EngineTelemetry, TelemetrySnapshot};
use fg_cpu::machine::StopReason;
use fg_cpu::trace::{MultiIptUnit, TraceUnit};
use fg_cpu::CostModel;
use fg_isa::image::Image;
use fg_trace::{Histogram, HistogramSnapshot, PromText};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-process engine configuration.
    pub flowguard: FlowGuardConfig,
    /// Use the suggested configurable multi-CR3 filter (per-CR3 ToPA
    /// sub-buffers, zero-cost switches). `false` models stock single-CR3
    /// hardware: every switch flushes, rewrites the MSR and re-syncs.
    pub multi_cr3: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig { flowguard: FlowGuardConfig::default(), multi_cr3: true }
    }
}

/// Time slice, in instructions.
const SLICE_INSNS: u64 = 20_000;

/// Per-member total instruction budget (runaway guard).
const RUN_BUDGET_INSNS: u64 = 500_000_000;

/// One protected process under fleet supervision.
#[derive(Debug)]
pub struct FleetMember {
    /// Fleet process id (index into the member table).
    pub pid: u64,
    /// The process CR3 (`DEFAULT_CR3 + pid * 0x1000`; member 0 matches the
    /// solo launch path exactly).
    pub cr3: u64,
    /// Display name (workload label).
    pub name: String,
    /// Content hash of the protected image (artifact-cache key).
    pub image_hash: u64,
    /// How the process stopped, once it has.
    pub stop: Option<StopReason>,
    /// The solo-launched process; its trace unit lives in the core's
    /// multi-CR3 unit between slices.
    process: ProtectedProcess,
}

impl FleetMember {
    /// The member's engine telemetry.
    pub fn stats(&self) -> &EngineTelemetry {
        &self.process.stats
    }

    /// Whether a CFI violation was detected.
    pub fn violated(&self) -> bool {
        self.process.violated()
    }

    /// Instructions retired so far.
    pub fn insns_retired(&self) -> u64 {
        self.process.machine.insns_retired
    }
}

/// Per-process rollup inside a [`FleetSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessSnapshot {
    /// Fleet process id.
    pub pid: u64,
    /// Display name.
    pub name: String,
    /// Content hash of the protected image.
    pub image_hash: u64,
    /// Process CR3.
    pub cr3: u64,
    /// Instructions retired.
    pub insns_retired: u64,
    /// Whether a violation was detected.
    pub violated: bool,
    /// Stop reason, if stopped (`Debug` rendering).
    pub stop: Option<String>,
    /// Full per-engine telemetry.
    pub telemetry: TelemetrySnapshot,
}

/// The fleet-level telemetry rollup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Whether the multi-CR3 filter was in use.
    pub multi_cr3: bool,
    /// Per-process rollups, pid order.
    pub processes: Vec<ProcessSnapshot>,
    /// Artifact-cache statistics.
    pub cache: ArtifactCacheStats,
    /// Context switches performed by the supervisor.
    pub switches: u64,
    /// Cycles spent re-programming the trace filter (zero under multi-CR3).
    pub reconfig_cycles: f64,
    /// Total endpoint checks across the fleet.
    pub checks_total: u64,
    /// Total violations across the fleet.
    pub violations_total: u64,
    /// Fleet-wide check-latency distribution: every member's cumulative
    /// bucket histogram merged (the fixed bucket boundaries make per-process
    /// histograms addable).
    pub check_latency: HistogramSnapshot,
}

/// Supervises N protected processes: spawns them through the shared
/// artifact cache and time-slices them round-robin over one simulated core
/// with per-CR3 tracing.
#[derive(Debug)]
pub struct FleetSupervisor {
    cfg: FleetConfig,
    cache: ArtifactCache,
    members: Vec<FleetMember>,
    /// The core's trace unit, parked here between slices.
    unit: MultiIptUnit,
    /// The member that ran the previous slice (another one means a context
    /// switch).
    last_pid: Option<u64>,
    switches: u64,
    reconfig_cycles: f64,
}

impl FleetSupervisor {
    /// Creates an empty fleet.
    pub fn new(cfg: FleetConfig) -> FleetSupervisor {
        FleetSupervisor {
            cfg,
            cache: ArtifactCache::new(),
            members: Vec::new(),
            unit: MultiIptUnit::new(),
            last_pid: None,
            switches: 0,
            reconfig_cycles: 0.0,
        }
    }

    /// Spawns a protected instance of `image`, deploying (analyse → train
    /// on `corpus` → verify) through the artifact cache on first sight and
    /// sharing the cached artifact afterwards. Returns the member pid.
    ///
    /// # Errors
    ///
    /// Returns the verifier's report when the image's artifact fails the
    /// admission gate.
    pub fn spawn(
        &mut self,
        name: &str,
        image: &Image,
        corpus: &[Vec<u8>],
        input: &[u8],
    ) -> Result<u64, Arc<fg_verify::Report>> {
        let d = self.cache.deploy(image, corpus)?;
        Ok(self.attach(name, &d, input))
    }

    /// Spawns a protected instance of a pre-built deployment (e.g. loaded
    /// from a saved artifact), admitting it through the cache's
    /// verification gate.
    ///
    /// # Errors
    ///
    /// Returns the verifier's report when the deployment fails admission.
    pub fn spawn_deployment(
        &mut self,
        name: &str,
        d: Deployment,
        input: &[u8],
    ) -> Result<u64, Arc<fg_verify::Report>> {
        let d = self.cache.admit(d)?;
        Ok(self.attach(name, &d, input))
    }

    fn attach(&mut self, name: &str, d: &Arc<Deployment>, input: &[u8]) -> u64 {
        let pid = self.members.len() as u64;
        let cr3 = DEFAULT_CR3 + pid * 0x1000;
        // The solo launch under the member's own CR3. Its trace unit,
        // PSB+-synced at the image entry, becomes the member's per-CR3
        // sub-buffer in the core's filter.
        let mut process =
            d.launch_with(input, self.cfg.flowguard.clone(), CostModel::calibrated(), cr3);
        let TraceUnit::Ipt(unit) = std::mem::take(&mut process.machine.trace) else {
            unreachable!("launch installs an IPT unit")
        };
        assert!(self.unit.admit(unit), "CR3 {cr3:#x} admitted once");
        self.members.push(FleetMember {
            pid,
            cr3,
            name: name.to_owned(),
            image_hash: image_hash(&d.image),
            stop: None,
            process,
        });
        pid
    }

    /// Runs one time slice of member `idx`.
    fn slice(&mut self, idx: usize) {
        let m = &mut self.members[idx];
        let mut unit = std::mem::take(&mut self.unit);
        if self.last_pid != Some(m.pid) {
            self.switches += 1;
            if self.cfg.multi_cr3 {
                // Suggested hardware: the filter admits every member, each
                // CR3 owns a ToPA sub-buffer — switching selects it. No
                // flush, no MSR rewrite, no re-sync: the incoming process's
                // packet stream continues exactly as if it ran alone.
                assert!(unit.set_current(m.cr3), "member admitted at spawn");
            } else {
                // Stock hardware (§7.2.4): one CR3 filter slot. Flush the
                // incoming process's stale stream, re-program the MSR,
                // re-sync with a fresh PSB+ at its current pc, and charge
                // the reconfiguration cost.
                assert!(unit.restrict_to(m.cr3), "member admitted at spawn");
                let u = unit.unit_mut(m.cr3).expect("member admitted at spawn");
                u.flush();
                u.start(m.process.machine.cpu.pc, m.cr3);
                self.reconfig_cycles += m.process.machine.cost.trace_reconfig_cycles;
            }
            self.last_pid = Some(m.pid);
        }
        let p = &mut m.process;
        p.machine.trace = TraceUnit::MultiIpt(unit);
        let stop = p.run(SLICE_INSNS);
        let TraceUnit::MultiIpt(unit) = std::mem::take(&mut p.machine.trace) else {
            unreachable!("unit was installed above")
        };
        self.unit = unit;
        match stop {
            StopReason::InsnLimit if p.machine.insns_retired < RUN_BUDGET_INSNS => {}
            other => m.stop = Some(other),
        }
    }

    /// Runs the whole fleet to completion: round-robin time slices over the
    /// members until every member has stopped (or exhausted its instruction
    /// budget).
    pub fn run(&mut self) {
        loop {
            let mut any = false;
            for idx in 0..self.members.len() {
                if self.members[idx].stop.is_none() {
                    self.slice(idx);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// The members, pid order.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// Artifact-cache statistics.
    pub fn cache_stats(&self) -> ArtifactCacheStats {
        self.cache.stats()
    }

    /// Context switches performed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Cycles charged for trace-filter reconfiguration (zero under
    /// multi-CR3).
    pub fn reconfig_cycles(&self) -> f64 {
        self.reconfig_cycles
    }

    /// The merged fleet-wide check-latency histogram (live; fixed bucket
    /// boundaries make the per-process histograms addable).
    pub fn merged_check_latency(&self) -> Histogram {
        let mut merged = Histogram::new();
        for m in &self.members {
            m.stats().merge_check_latency_into(&mut merged);
        }
        merged
    }

    /// Takes the full fleet telemetry rollup.
    pub fn snapshot(&self) -> FleetSnapshot {
        let processes: Vec<ProcessSnapshot> = self
            .members
            .iter()
            .map(|m| ProcessSnapshot {
                pid: m.pid,
                name: m.name.clone(),
                image_hash: m.image_hash,
                cr3: m.cr3,
                insns_retired: m.insns_retired(),
                violated: m.violated(),
                stop: m.stop.map(|s| format!("{s:?}")),
                telemetry: m.stats().telemetry_snapshot(),
            })
            .collect();
        let checks_total = processes.iter().map(|p| p.telemetry.checks).sum();
        let violations_total = processes.iter().map(|p| p.telemetry.violations_total).sum();
        FleetSnapshot {
            multi_cr3: self.cfg.multi_cr3,
            cache: self.cache.stats(),
            switches: self.switches,
            reconfig_cycles: self.reconfig_cycles,
            checks_total,
            violations_total,
            check_latency: self.merged_check_latency().snapshot(),
            processes,
        }
    }

    /// Renders the fleet rollup as a Prometheus text exposition: fleet
    /// totals, the mergeable fleet-wide latency histogram, and per-process
    /// counter families labelled `process="<name>-<pid>"` for a fleet
    /// scraper to aggregate or slice.
    pub fn prometheus_text(&self) -> String {
        let snap = self.snapshot();
        let mut p = PromText::new();
        p.counter("fg_fleet_processes_total", "Protected processes supervised", {
            snap.processes.len() as u64
        })
        .counter("fg_fleet_checks_total", "Endpoint checks across the fleet", snap.checks_total)
        .counter(
            "fg_fleet_violations_total",
            "CFI violations detected across the fleet",
            snap.violations_total,
        )
        .counter(
            "fg_fleet_context_switches_total",
            "Context switches performed by the supervisor",
            snap.switches,
        )
        .gauge(
            "fg_fleet_trace_reconfig_cycles",
            "Cycles spent re-programming the CR3 trace filter (zero under multi-CR3)",
            snap.reconfig_cycles,
        )
        .counter(
            "fg_fleet_artifact_cache_hits_total",
            "Deployment lookups served from the artifact cache",
            snap.cache.hits,
        )
        .counter(
            "fg_fleet_artifact_cache_misses_total",
            "Deployment lookups that built a fresh artifact",
            snap.cache.misses,
        )
        .counter(
            "fg_fleet_artifact_cache_rejections_total",
            "Deployments refused by the verification gate",
            snap.cache.rejections,
        )
        .gauge(
            "fg_fleet_artifact_cache_hit_ratio",
            "Fraction of deployment lookups served from the cache",
            snap.cache.hit_rate(),
        );
        let merged = self.merged_check_latency();
        p.histogram(
            "fg_fleet_check_latency_cycles",
            "Fleet-wide distribution of per-check total cycles",
            &merged.cumulative_buckets(),
            merged.sum(),
            merged.count(),
        );
        // Per-process families, labelled for slicing by a fleet scraper.
        let labels: Vec<String> =
            snap.processes.iter().map(|pr| format!("{}-{}", pr.name, pr.pid)).collect();
        #[allow(clippy::cast_precision_loss)]
        let series = |f: &dyn Fn(&ProcessSnapshot) -> f64| -> Vec<(&str, f64)> {
            labels.iter().map(String::as_str).zip(snap.processes.iter().map(f)).collect()
        };
        #[allow(clippy::cast_precision_loss)]
        p.labeled_counter(
            "fg_process_checks_total",
            "Endpoint checks per protected process",
            "process",
            &series(&|pr| pr.telemetry.checks as f64),
        )
        .labeled_counter(
            "fg_process_violations_total",
            "CFI violations per protected process",
            "process",
            &series(&|pr| pr.telemetry.violations_total as f64),
        )
        .labeled_counter(
            "fg_process_stream_drains_total",
            "Background stream drains per protected process",
            "process",
            &series(&|pr| pr.telemetry.stream_drains as f64),
        )
        .labeled_counter(
            "fg_process_insns_total",
            "Instructions retired per protected process",
            "process",
            &series(&|pr| pr.insns_retired as f64),
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(n: usize, multi_cr3: bool) -> FleetSupervisor {
        let w = fg_workloads::nginx_patched();
        let mut fleet = FleetSupervisor::new(FleetConfig { multi_cr3, ..FleetConfig::default() });
        for _ in 0..n {
            fleet
                .spawn("nginx", &w.image, std::slice::from_ref(&w.default_input), &w.default_input)
                .expect("admitted");
        }
        fleet
    }

    #[test]
    fn fleet_runs_members_to_clean_exit() {
        let mut fleet = small_fleet(3, true);
        fleet.run();
        for m in fleet.members() {
            assert_eq!(m.stop, Some(StopReason::Exited(0)), "member {} exits clean", m.pid);
            assert!(!m.violated());
            assert!(m.stats().checks() > 0, "member {} was checked", m.pid);
        }
        // Three instances of one binary: one miss, two cache hits.
        let cs = fleet.cache_stats();
        assert_eq!((cs.hits, cs.misses), (2, 1));
        // Member 0 occupies the solo CR3.
        assert_eq!(fleet.members()[0].cr3, DEFAULT_CR3);
    }

    #[test]
    fn single_cr3_mode_charges_reconfig() {
        let mut multi = small_fleet(2, true);
        multi.run();
        let mut single = small_fleet(2, false);
        single.run();
        assert_eq!(multi.reconfig_cycles(), 0.0, "multi-CR3 switches are free");
        assert!(single.reconfig_cycles() > 0.0, "single-CR3 switches pay");
        assert!(multi.switches() > 0);
        for f in [&multi, &single] {
            for m in f.members() {
                assert_eq!(m.stop, Some(StopReason::Exited(0)));
                assert!(!m.violated(), "enforcement stays sound in both filter modes");
            }
        }
    }

    #[test]
    fn prometheus_exposition_is_lint_clean() {
        let mut fleet = small_fleet(2, true);
        fleet.run();
        let text = fleet.prometheus_text();
        let problems = fg_trace::export::lint(&text);
        assert!(problems.is_empty(), "lint: {problems:?}");
        assert!(text.contains("fg_fleet_checks_total"));
        assert!(text.contains("fg_process_checks_total{process=\"nginx-0\"}"));
        assert!(text.contains("fg_process_checks_total{process=\"nginx-1\"}"));
        assert!(text.contains("fg_fleet_check_latency_cycles_bucket"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut fleet = small_fleet(2, true);
        fleet.run();
        let snap = fleet.snapshot();
        let json = serde_json::to_string(&snap).expect("serialises");
        let back: FleetSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.processes.len(), 2);
        assert_eq!(back.checks_total, snap.checks_total);
        assert_eq!(back.switches, snap.switches);
        assert_eq!(back.check_latency, snap.check_latency);
    }
}

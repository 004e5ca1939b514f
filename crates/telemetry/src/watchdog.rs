//! Health watchdog — rolling-window evaluation of the runtime's vital
//! signs into structured verdicts.
//!
//! The engine already *exposes* everything needed to tell a healthy
//! deployment from a struggling one (escalation rates, cache hit rates,
//! streaming frontier lag, drain activity, checkpoint reuse); the watchdog
//! turns those raw counters into a [`HealthReport`]: feed it periodic
//! cumulative [`HealthSample`]s, and it evaluates a fixed rule set over the
//! retained window — each rule compares *deltas across the window*, so
//! absolute counter magnitudes (or process lifetime) never matter.
//!
//! Rules and their rationale:
//!
//! * **escalation-rate spike** — more than half the checks escalating to
//!   the slow path means the trained ITC-CFG no longer covers the workload
//!   (drift, an attack storm, or a bad artifact).
//! * **edge-cache hit-rate collapse** — the per-check edge cache absorbing
//!   almost nothing indicates pathological control-flow churn.
//! * **frontier-lag growth** — streaming lag increasing monotonically
//!   across the window means the consumer is falling behind the producer;
//!   past a critical size a wrap (and a cold restart) is imminent.
//! * **drain starvation** — streaming is on and checks are flowing but no
//!   background drain ran all window: the poll/PMI plumbing is broken.
//! * **checkpoint miss storm** — slow-path checkpoints almost never
//!   warm-starting means re-decode work is not being amortised.
//!
//! The thresholds are constants: every engine runs with the same rule set.
//! All comparisons are *strict*, so a signal sitting exactly at its
//! threshold is still [`HealthStatus::Healthy`] — thresholds are the first
//! value considered bad, not the last value considered good.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One cumulative reading of the engine's vital signs. Counters are
/// since-boot totals (the watchdog diffs them); `frontier_lag` is an
/// instantaneous gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSample {
    /// Total endpoint checks.
    pub checks: u64,
    /// Total slow-path escalations.
    pub slow_invocations: u64,
    /// Total per-check edge-cache hits.
    pub edge_cache_hits: u64,
    /// Total per-check edge-cache misses.
    pub edge_cache_misses: u64,
    /// Total slow-path checkpoint warm starts.
    pub checkpoint_hits: u64,
    /// Total slow-path checkpoint cold starts.
    pub checkpoint_misses: u64,
    /// Total background stream drains.
    pub stream_drains: u64,
    /// Streaming frontier lag at sample time, in bytes (gauge).
    pub frontier_lag: u64,
    /// Whether streaming consumption is enabled.
    pub streaming: bool,
}

/// Samples retained in the rolling window.
const WINDOW: usize = 8;
/// Minimum checks across the window before rate rules fire.
const MIN_CHECKS: u64 = 16;
/// Escalation rate strictly above this is `Degraded`.
const ESCALATION_DEGRADED: f64 = 0.5;
/// Escalation rate strictly above this is `Critical`.
const ESCALATION_CRITICAL: f64 = 0.9;
/// Edge-cache hit rate strictly below this is `Degraded`.
const EDGE_HIT_RATE_FLOOR: f64 = 0.5;
/// Minimum edge-cache probes across the window before the rate rule fires.
const MIN_EDGE_PROBES: u64 = 64;
/// Monotone lag growth ending strictly above this many bytes is `Degraded`.
const LAG_FLOOR_BYTES: u64 = 4096;
/// Monotone lag growth ending strictly above this many bytes is `Critical`
/// (a wrap is imminent).
const LAG_CRITICAL_BYTES: u64 = 1 << 20;
/// Checkpoint miss rate strictly above this is `Degraded`.
const CHECKPOINT_MISS_RATE: f64 = 0.9;
/// Minimum checkpoint lookups across the window before the miss rule fires.
const MIN_CHECKPOINT_LOOKUPS: u64 = 16;

/// The watchdog's overall verdict; ordered so `max` aggregates findings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthStatus {
    /// Every rule within thresholds (or not enough data to judge).
    #[default]
    Healthy,
    /// At least one rule tripped its degraded threshold.
    Degraded,
    /// At least one rule tripped its critical threshold.
    Critical,
}

impl HealthStatus {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }

    /// Numeric encoding for gauges: 0 healthy, 1 degraded, 2 critical.
    pub fn to_u64(self) -> u64 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Critical => 2,
        }
    }
}

/// One tripped rule inside a [`HealthReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthFinding {
    /// Stable rule identifier (`escalation_rate`, `edge_cache_hit_rate`,
    /// `frontier_lag_growth`, `drain_starvation`, `checkpoint_miss_storm`).
    pub rule: String,
    /// The severity this rule contributes.
    pub status: HealthStatus,
    /// Human-readable evidence (rates, byte counts, window size).
    pub detail: String,
}

/// The watchdog's structured verdict over its current window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Worst severity across all findings.
    #[serde(default)]
    pub status: HealthStatus,
    /// Every tripped rule; empty when healthy.
    #[serde(default)]
    pub findings: Vec<HealthFinding>,
    /// Samples in the window when the report was built.
    #[serde(default)]
    pub samples: usize,
    /// Checks observed across the window (first→last delta).
    #[serde(default)]
    pub window_checks: u64,
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "health: {} ({} samples, {} checks in window)",
            self.status.label(),
            self.samples,
            self.window_checks
        )?;
        for finding in &self.findings {
            writeln!(f, "  [{}] {}: {}", finding.status.label(), finding.rule, finding.detail)?;
        }
        Ok(())
    }
}

/// The rolling-window evaluator. Push one [`HealthSample`] per tick, read
/// a [`HealthReport`] whenever one is wanted.
#[derive(Debug, Clone)]
pub struct Watchdog {
    window: VecDeque<HealthSample>,
}

impl Default for Watchdog {
    fn default() -> Watchdog {
        Watchdog { window: VecDeque::with_capacity(WINDOW) }
    }
}

impl Watchdog {
    /// Appends a sample, evicting the oldest once the window is full.
    pub fn push(&mut self, sample: HealthSample) {
        if self.window.len() >= WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(sample);
    }

    /// Evaluates every rule over the current window.
    ///
    /// Fewer than two samples is always [`HealthStatus::Healthy`]: there is
    /// no delta to judge yet. Counter regressions (a restarted engine, a
    /// wrapped counter) saturate to zero-delta rather than firing rules on
    /// nonsense negative rates.
    pub fn report(&self) -> HealthReport {
        let samples = self.window.len();
        if samples < 2 {
            return HealthReport { samples, ..HealthReport::default() };
        }
        let first = self.window.front().expect("window has >= 2 samples");
        let last = self.window.back().expect("window has >= 2 samples");
        let d_checks = last.checks.saturating_sub(first.checks);
        let d_slow = last.slow_invocations.saturating_sub(first.slow_invocations);
        let d_hits = last.edge_cache_hits.saturating_sub(first.edge_cache_hits);
        let d_misses = last.edge_cache_misses.saturating_sub(first.edge_cache_misses);
        let d_ckpt_hits = last.checkpoint_hits.saturating_sub(first.checkpoint_hits);
        let d_ckpt_misses = last.checkpoint_misses.saturating_sub(first.checkpoint_misses);
        let d_drains = last.stream_drains.saturating_sub(first.stream_drains);

        let mut findings = Vec::new();

        // Escalation-rate spike.
        if d_checks >= MIN_CHECKS {
            let rate = d_slow as f64 / d_checks as f64;
            let status = if rate > ESCALATION_CRITICAL {
                Some(HealthStatus::Critical)
            } else if rate > ESCALATION_DEGRADED {
                Some(HealthStatus::Degraded)
            } else {
                None
            };
            if let Some(status) = status {
                findings.push(HealthFinding {
                    rule: "escalation_rate".to_owned(),
                    status,
                    detail: format!(
                        "{d_slow}/{d_checks} checks escalated ({rate:.2} > {:.2})",
                        if status == HealthStatus::Critical {
                            ESCALATION_CRITICAL
                        } else {
                            ESCALATION_DEGRADED
                        }
                    ),
                });
            }
        }

        // Edge-cache hit-rate collapse.
        let probes = d_hits + d_misses;
        if probes >= MIN_EDGE_PROBES {
            let hit_rate = d_hits as f64 / probes as f64;
            if hit_rate < EDGE_HIT_RATE_FLOOR {
                findings.push(HealthFinding {
                    rule: "edge_cache_hit_rate".to_owned(),
                    status: HealthStatus::Degraded,
                    detail: format!(
                        "hit rate {hit_rate:.2} < floor {EDGE_HIT_RATE_FLOOR:.2} over {probes} probes"
                    ),
                });
            }
        }

        // Frontier-lag growth: strictly increasing across every consecutive
        // pair, ending above the floor.
        let lags: Vec<u64> = self.window.iter().map(|s| s.frontier_lag).collect();
        let monotone_growth = lags.windows(2).all(|w| w[1] > w[0]);
        if monotone_growth && last.frontier_lag > LAG_FLOOR_BYTES {
            let status = if last.frontier_lag > LAG_CRITICAL_BYTES {
                HealthStatus::Critical
            } else {
                HealthStatus::Degraded
            };
            findings.push(HealthFinding {
                rule: "frontier_lag_growth".to_owned(),
                status,
                detail: format!(
                    "lag grew monotonically {} -> {} bytes over {samples} samples",
                    lags[0], last.frontier_lag
                ),
            });
        }

        // Drain starvation: streaming on, checks flowing, zero drains.
        if last.streaming && d_checks >= MIN_CHECKS && d_drains == 0 {
            findings.push(HealthFinding {
                rule: "drain_starvation".to_owned(),
                status: HealthStatus::Degraded,
                detail: format!("no background drain across {d_checks} checks"),
            });
        }

        // Checkpoint miss storm.
        let lookups = d_ckpt_hits + d_ckpt_misses;
        if lookups >= MIN_CHECKPOINT_LOOKUPS {
            let miss_rate = d_ckpt_misses as f64 / lookups as f64;
            if miss_rate > CHECKPOINT_MISS_RATE {
                findings.push(HealthFinding {
                    rule: "checkpoint_miss_storm".to_owned(),
                    status: HealthStatus::Degraded,
                    detail: format!(
                        "miss rate {miss_rate:.2} > {CHECKPOINT_MISS_RATE:.2} over {lookups} lookups"
                    ),
                });
            }
        }

        let status = findings.iter().map(|f| f.status).max().unwrap_or(HealthStatus::Healthy);
        HealthReport { status, findings, samples, window_checks: d_checks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(checks: u64) -> HealthSample {
        HealthSample { checks, edge_cache_hits: checks, ..HealthSample::default() }
    }

    #[test]
    fn empty_and_single_sample_windows_are_healthy() {
        let mut w = Watchdog::default();
        assert_eq!(w.report().status, HealthStatus::Healthy);
        assert_eq!(w.report().samples, 0);
        w.push(sample(100));
        let r = w.report();
        assert_eq!(r.status, HealthStatus::Healthy);
        assert_eq!(r.samples, 1);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn escalation_exactly_at_threshold_is_healthy_strictly_above_fires() {
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        // Exactly at the degraded threshold: 50 slow / 100 checks == 0.5.
        w.push(HealthSample {
            checks: 100,
            slow_invocations: (ESCALATION_DEGRADED * 100.0) as u64,
            edge_cache_hits: 100,
            ..HealthSample::default()
        });
        assert_eq!(w.report().status, HealthStatus::Healthy, "at-threshold stays healthy");

        // One more escalation tips it strictly above.
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample {
            checks: 100,
            slow_invocations: 51,
            edge_cache_hits: 100,
            ..HealthSample::default()
        });
        let r = w.report();
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.findings[0].rule, "escalation_rate");

        // And above critical.
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample {
            checks: 100,
            slow_invocations: 91,
            edge_cache_hits: 100,
            ..HealthSample::default()
        });
        assert_eq!(w.report().status, HealthStatus::Critical);
    }

    #[test]
    fn escalation_rule_needs_min_checks() {
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        // 15 checks all escalated, but below min_checks=16: no verdict.
        w.push(HealthSample { checks: 15, slow_invocations: 15, ..HealthSample::default() });
        assert_eq!(w.report().status, HealthStatus::Healthy);
    }

    #[test]
    fn counter_wrap_saturates_to_zero_delta() {
        let mut w = Watchdog::default();
        // A restarted engine reports smaller cumulative counters; the delta
        // saturates to 0 instead of underflowing into an absurd rate.
        w.push(HealthSample { checks: 1000, slow_invocations: 900, ..HealthSample::default() });
        w.push(HealthSample { checks: 50, slow_invocations: 0, ..HealthSample::default() });
        let r = w.report();
        assert_eq!(r.status, HealthStatus::Healthy);
        assert_eq!(r.window_checks, 0);
    }

    #[test]
    fn edge_cache_collapse_fires_below_floor_only_with_enough_probes() {
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample {
            checks: 100,
            edge_cache_hits: 10,
            edge_cache_misses: 90,
            ..HealthSample::default()
        });
        let r = w.report();
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.findings[0].rule, "edge_cache_hit_rate");

        // Exactly at the floor (0.5) is healthy.
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample {
            checks: 100,
            edge_cache_hits: 50,
            edge_cache_misses: 50,
            ..HealthSample::default()
        });
        assert_eq!(w.report().status, HealthStatus::Healthy);

        // Too few probes: silent.
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample {
            checks: 100,
            edge_cache_hits: 1,
            edge_cache_misses: 62,
            ..HealthSample::default()
        });
        assert_eq!(w.report().status, HealthStatus::Healthy);
    }

    #[test]
    fn frontier_lag_growth_requires_monotone_window() {
        let grow = |lags: &[u64]| {
            let mut w = Watchdog::default();
            for &lag in lags {
                w.push(HealthSample {
                    streaming: true,
                    frontier_lag: lag,
                    stream_drains: 1,
                    ..HealthSample::default()
                });
            }
            w.report()
        };
        // Monotone growth ending above the 4096-byte floor: degraded.
        let r = grow(&[100, 2000, 9000]);
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.findings[0].rule, "frontier_lag_growth");
        // Ending exactly at the floor: healthy.
        assert_eq!(grow(&[100, 2000, 4096]).status, HealthStatus::Healthy);
        // A dip anywhere breaks the trend: healthy.
        assert_eq!(grow(&[100, 9000, 8000]).status, HealthStatus::Healthy);
        // Past the critical bound: critical.
        assert_eq!(grow(&[100, 5000, (1 << 20) + 1]).status, HealthStatus::Critical);
    }

    #[test]
    fn drain_starvation_fires_only_when_streaming_with_traffic() {
        let mut w = Watchdog::default();
        w.push(HealthSample { streaming: true, ..HealthSample::default() });
        w.push(HealthSample { streaming: true, checks: 100, ..HealthSample::default() });
        let r = w.report();
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.findings[0].rule, "drain_starvation");

        // Not streaming: the rule never fires.
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample { checks: 100, ..HealthSample::default() });
        assert_eq!(w.report().status, HealthStatus::Healthy);

        // One drain anywhere in the window clears it.
        let mut w = Watchdog::default();
        w.push(HealthSample { streaming: true, ..HealthSample::default() });
        w.push(HealthSample {
            streaming: true,
            checks: 100,
            stream_drains: 1,
            ..HealthSample::default()
        });
        assert_eq!(w.report().status, HealthStatus::Healthy);
    }

    #[test]
    fn checkpoint_miss_storm_thresholds() {
        let storm = |hits: u64, misses: u64| {
            let mut w = Watchdog::default();
            w.push(HealthSample::default());
            w.push(HealthSample {
                checkpoint_hits: hits,
                checkpoint_misses: misses,
                ..HealthSample::default()
            });
            w.report()
        };
        // 95% misses over 20 lookups: degraded.
        assert_eq!(storm(1, 19).status, HealthStatus::Degraded);
        // Exactly at the 0.9 threshold: healthy.
        assert_eq!(storm(2, 18).status, HealthStatus::Healthy);
        // Below min lookups: healthy regardless.
        assert_eq!(storm(0, 15).status, HealthStatus::Healthy);
    }

    #[test]
    fn window_is_bounded_and_status_is_worst_finding() {
        let mut w = Watchdog::default();
        for i in 0..(WINDOW as u64 + 3) {
            w.push(sample(i * 10));
        }
        assert_eq!(w.report().samples, WINDOW);

        // Two rules at different severities: report carries the worst.
        let mut w = Watchdog::default();
        w.push(HealthSample { streaming: true, ..HealthSample::default() });
        w.push(HealthSample {
            streaming: true,
            checks: 100,
            slow_invocations: 95,      // critical escalation
            ..HealthSample::default()  // and zero drains: degraded starvation
        });
        let r = w.report();
        assert_eq!(r.status, HealthStatus::Critical);
        assert_eq!(r.findings.len(), 2);
    }

    #[test]
    fn report_round_trips_through_json_and_displays() {
        let mut w = Watchdog::default();
        w.push(HealthSample::default());
        w.push(HealthSample { checks: 100, slow_invocations: 99, ..HealthSample::default() });
        let r = w.report();
        let json = serde_json::to_string(&r).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let text = r.to_string();
        assert!(text.contains("critical"));
        assert!(text.contains("escalation_rate"));
    }

    #[test]
    fn status_ordering_and_encoding() {
        assert!(HealthStatus::Critical > HealthStatus::Degraded);
        assert!(HealthStatus::Degraded > HealthStatus::Healthy);
        let encoded = [HealthStatus::Healthy, HealthStatus::Degraded, HealthStatus::Critical]
            .map(HealthStatus::to_u64);
        assert_eq!(encoded, [0, 1, 2]);
    }
}

//! FlowGuard runtime configuration (§7.1.1's `pkt_count` and `cred_ratio`).

use fg_kernel::SensitiveSet;
use serde::{Deserialize, Serialize};

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowGuardConfig {
    /// Lower bound on the number of TIP packets checked at an endpoint.
    /// "We choose 30 as the lower-bound of pkt_count such that at least 30
    /// TIP packets are checked" (§7.1.1) — defeats history-flushing attacks.
    pub pkt_count: usize,
    /// Credit-ratio threshold: the fraction of checked edges that must be
    /// high-credit for the fast path to pass. "We set cred_ratio to 1 so
    /// that any high-credit CFG edge violation leads to slow path" (§7.1.1).
    pub cred_ratio: f64,
    /// Require the checked window to stride across more than one module,
    /// with at least one TIP inside the executable (§5.3) — defeats
    /// return-to-lib endpoint laundering.
    pub require_module_stride: bool,
    /// Cache negative slow-path results as fast-path high credits (§7.1.1:
    /// "makes the performance better and better").
    pub cache_slow_path_results: bool,
    /// Checkpoint the slow path's flow decode between escalations: when the
    /// next slow window extends the previous one, only the appended bytes
    /// are decoded (the flow machine and shadow stack park between checks,
    /// guarded by state hashes). Off, every escalation decodes its window
    /// cold — the reference mode the checkpoint is validated against.
    #[serde(default = "default_slow_checkpoint")]
    pub slow_checkpoint: bool,
    /// Stream-consume the ToPA concurrently with execution: besides the
    /// drain every check performs, the [`fg_ipt::StreamConsumer`] also
    /// drains the buffer at the machine's periodic trace-poll slots and at
    /// region-fill PMIs, so an endpoint check degenerates to a frontier
    /// compare plus a scan of the few residue bytes written since the last
    /// drain. Off, the buffer is consumed at endpoint checks only — the
    /// paper's mode and the reference streaming is validated against.
    #[serde(default = "default_streaming")]
    pub streaming: bool,
    /// Also run a full-buffer check at every trace-buffer PMI — the paper's
    /// worst-case fallback against endpoint-pruning attacks (§7.1.2).
    pub pmi_endpoints: bool,
    /// Context-sensitive fast path: consecutive edge pairs must match a
    /// trained high-credit path gram — the paper's §7.1.2 future-work
    /// extension ("may introduce larger number of slow path checking").
    pub path_matching: bool,
    /// Record runtime telemetry (counters, latency histograms, the check
    /// event ring). Off, every hot-path record collapses to one
    /// predictable-not-taken branch; violations and flight records are
    /// still captured.
    #[serde(default = "default_telemetry")]
    pub telemetry: bool,
    /// Record per-phase cycle-attribution spans (intercept, tier-0 probe,
    /// edge probe, scans, slow decode, stitch, verdict) in the span
    /// profiler. Only takes effect when `telemetry` is on; off, every span
    /// record collapses to one predictable-not-taken branch.
    #[serde(default = "default_profile_spans")]
    pub profile_spans: bool,
    /// The sensitive-syscall endpoint set.
    #[serde(skip, default = "SensitiveSet::patharmor_default")]
    pub endpoints: SensitiveSet,
    /// ToPA region size per core (the paper's default config uses ~16 KiB
    /// total across two regions).
    pub topa_region_bytes: usize,
}

fn default_slow_checkpoint() -> bool {
    true
}

fn default_streaming() -> bool {
    false
}

fn default_telemetry() -> bool {
    true
}

fn default_profile_spans() -> bool {
    true
}

impl Default for FlowGuardConfig {
    fn default() -> FlowGuardConfig {
        FlowGuardConfig {
            pkt_count: 30,
            cred_ratio: 1.0,
            require_module_stride: true,
            cache_slow_path_results: true,
            slow_checkpoint: true,
            streaming: false,
            pmi_endpoints: false,
            path_matching: false,
            telemetry: true,
            profile_spans: true,
            endpoints: SensitiveSet::patharmor_default(),
            topa_region_bytes: 8192,
        }
    }
}

impl FlowGuardConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if `cred_ratio` is outside `[0, 1]` or `pkt_count` is zero.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.cred_ratio), "cred_ratio must be within [0,1]");
        assert!(self.pkt_count > 0, "pkt_count must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FlowGuardConfig::default();
        assert_eq!(c.pkt_count, 30);
        assert_eq!(c.cred_ratio, 1.0);
        assert!(c.require_module_stride);
        assert!(c.cache_slow_path_results);
        assert!(c.slow_checkpoint);
        assert!(!c.streaming, "streaming is opt-in; the paper's checks consume at endpoints");
        assert!(c.telemetry);
        assert!(c.profile_spans, "span attribution rides on telemetry by default");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cred_ratio")]
    fn bad_ratio_rejected() {
        FlowGuardConfig { cred_ratio: 1.2, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "pkt_count")]
    fn zero_pkt_count_rejected() {
        FlowGuardConfig { pkt_count: 0, ..Default::default() }.validate();
    }
}

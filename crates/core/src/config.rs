//! FlowGuard runtime configuration (§7.1.1's `pkt_count` and `cred_ratio`).

use fg_ipt::topa::TopaRegion;
use fg_kernel::SensitiveSet;
use serde::{Deserialize, Serialize};
use std::fmt;

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
    /// event ring, the per-phase span profiler). On, each check and each
    /// background drain takes the telemetry's one lock once; off, they
    /// record nothing and take no lock (one predictable-not-taken branch).
    /// Violations and flight records are still captured.
    #[serde(default = "default_telemetry")]
    pub telemetry: bool,
    /// The sensitive-syscall endpoint set.
    #[serde(skip, default = "SensitiveSet::patharmor_default")]
    pub endpoints: SensitiveSet,
    /// ToPA region size per core (the paper's default config uses ~16 KiB
    /// total across two regions).
    pub topa_region_bytes: usize,
}

fn default_streaming() -> bool {
    false
}

fn default_telemetry() -> bool {
    true
}

impl Default for FlowGuardConfig {
    fn default() -> FlowGuardConfig {
        FlowGuardConfig {
            pkt_count: 30,
            cred_ratio: 1.0,
            require_module_stride: true,
            cache_slow_path_results: true,
            streaming: false,
            pmi_endpoints: false,
            path_matching: false,
            telemetry: true,
            endpoints: SensitiveSet::patharmor_default(),
            topa_region_bytes: 8192,
        }
    }
}

/// The largest `pkt_count` [`FlowGuardConfig::validate`] accepts: the
/// engine sizes its windows as multiples of it — the drain budget (×24),
/// the module-stride reach (×4), the retained scan (×8) and the slow-path
/// window (×110) — and every product must fit in a `usize`.
pub const MAX_PKT_COUNT: usize = usize::MAX / 110;

/// A configuration value the engine cannot run with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `cred_ratio` is outside `[0, 1]`.
    CredRatio(f64),
    /// `pkt_count` is zero or above [`MAX_PKT_COUNT`].
    PktCount(usize),
    /// `topa_region_bytes` is not a ToPA region size
    /// ([`fg_ipt::topa::TopaRegion::valid_size`]).
    TopaRegionBytes(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CredRatio(r) => write!(f, "cred_ratio must be within [0,1], got {r}"),
            ConfigError::PktCount(n) => {
                write!(f, "pkt_count must be within [1,{MAX_PKT_COUNT}], got {n}")
            }
            ConfigError::TopaRegionBytes(n) => {
                write!(f, "topa_region_bytes must be a power of two of at least 4096, got {n}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl FlowGuardConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns the first field, in declaration order, whose value the
    /// engine cannot run with.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.cred_ratio) {
            return Err(ConfigError::CredRatio(self.cred_ratio));
        }
        if !(1..=MAX_PKT_COUNT).contains(&self.pkt_count) {
            return Err(ConfigError::PktCount(self.pkt_count));
        }
        if !TopaRegion::valid_size(self.topa_region_bytes) {
            return Err(ConfigError::TopaRegionBytes(self.topa_region_bytes));
        }
        Ok(())
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
        assert!(!c.streaming, "streaming is opt-in; the paper's checks consume at endpoints");
        assert!(c.telemetry);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn bad_ratio_rejected() {
        let c = FlowGuardConfig { cred_ratio: 1.2, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::CredRatio(1.2)));
    }

    #[test]
    fn zero_pkt_count_rejected() {
        let c = FlowGuardConfig { pkt_count: 0, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::PktCount(0)));
    }

    /// One row per validated field: a refused value with its error, and
    /// the accepted value at the edge of the range.
    #[test]
    fn each_field_has_its_error() {
        let d = FlowGuardConfig::default;
        let rows: [(FlowGuardConfig, Result<(), ConfigError>); 9] = [
            (FlowGuardConfig { cred_ratio: -0.1, ..d() }, Err(ConfigError::CredRatio(-0.1))),
            (FlowGuardConfig { cred_ratio: 0.0, ..d() }, Ok(())),
            (
                FlowGuardConfig { pkt_count: usize::MAX / 16, ..d() },
                Err(ConfigError::PktCount(usize::MAX / 16)),
            ),
            (
                FlowGuardConfig { pkt_count: MAX_PKT_COUNT + 1, ..d() },
                Err(ConfigError::PktCount(MAX_PKT_COUNT + 1)),
            ),
            (FlowGuardConfig { pkt_count: MAX_PKT_COUNT, ..d() }, Ok(())),
            (
                FlowGuardConfig { topa_region_bytes: 100, ..d() },
                Err(ConfigError::TopaRegionBytes(100)),
            ),
            (
                FlowGuardConfig { topa_region_bytes: 6144, ..d() },
                Err(ConfigError::TopaRegionBytes(6144)),
            ),
            (
                FlowGuardConfig { topa_region_bytes: 2048, ..d() },
                Err(ConfigError::TopaRegionBytes(2048)),
            ),
            (FlowGuardConfig { topa_region_bytes: 4096, ..d() }, Ok(())),
        ];
        for (c, want) in rows {
            assert_eq!(c.validate(), want, "{c:?}");
        }
        let nan = FlowGuardConfig { cred_ratio: f64::NAN, ..d() };
        assert!(matches!(nan.validate(), Err(ConfigError::CredRatio(r)) if r.is_nan()));
        // Every product the engine forms from the largest accepted count fits.
        assert!(MAX_PKT_COUNT.checked_mul(110).is_some());
    }
}

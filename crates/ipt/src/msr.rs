//! The `IA32_RTIT_*` model-specific register interface.
//!
//! IPT "configuration can only be done by the privileged agents (e.g., OS)
//! using certain model-specific registers" (§2). The FlowGuard kernel module
//! programs exactly the bits modelled here (§5.1): `TraceEn`, `BranchEn`,
//! `OS`, `User`, `CR3Filter`, `FabricEn`, `ToPA`, plus `DisRETC` (return
//! compression is disabled so every `ret` produces a TIP — a prerequisite
//! for return-edge checking) and the `IA32_RTIT_CR3_MATCH` filter value.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Bit positions within `IA32_RTIT_CTL`.
pub mod ctl_bits {
    /// Master trace enable.
    pub const TRACE_EN: u64 = 1 << 0;
    /// Trace ring-0 execution.
    pub const OS: u64 = 1 << 2;
    /// Trace ring-3 execution.
    pub const USER: u64 = 1 << 3;
    /// Route output to the trace fabric instead of memory.
    pub const FABRIC_EN: u64 = 1 << 6;
    /// Enable CR3 filtering against `IA32_RTIT_CR3_MATCH`.
    pub const CR3_FILTER: u64 = 1 << 7;
    /// Use the ToPA output scheme (vs. single range).
    pub const TOPA: u64 = 1 << 8;
    /// Disable return compression (every `ret` emits a TIP).
    pub const DIS_RETC: u64 = 1 << 11;
    /// Enable COFI-based packet generation (TNT/TIP).
    pub const BRANCH_EN: u64 = 1 << 13;
    /// ADDR0 filter configuration (bit 32 of the 35:32 `ADDR0_CFG` field):
    /// trace only within `[IA32_RTIT_ADDR0_A, IA32_RTIT_ADDR0_B]`.
    pub const ADDR0_FILTER: u64 = 1 << 32;
}

/// The `IA32_RTIT_CTL` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RtitCtl(pub u64);

impl RtitCtl {
    /// FlowGuard's §5.1 configuration: `TraceEn | BranchEn | User | CR3Filter
    /// | ToPA | DisRETC`, with `OS` and `FabricEn` clear.
    pub fn flowguard_default() -> RtitCtl {
        RtitCtl(
            ctl_bits::TRACE_EN
                | ctl_bits::BRANCH_EN
                | ctl_bits::USER
                | ctl_bits::CR3_FILTER
                | ctl_bits::TOPA
                | ctl_bits::DIS_RETC,
        )
    }

    #[inline]
    fn get(self, bit: u64) -> bool {
        self.0 & bit != 0
    }

    fn set(&mut self, bit: u64, on: bool) {
        if on {
            self.0 |= bit;
        } else {
            self.0 &= !bit;
        }
    }

    /// Master trace enable.
    #[inline]
    pub fn trace_en(self) -> bool {
        self.get(ctl_bits::TRACE_EN)
    }

    /// Sets the master trace enable.
    pub fn set_trace_en(&mut self, on: bool) {
        self.set(ctl_bits::TRACE_EN, on);
    }

    /// Trace kernel (CPL 0) execution.
    #[inline]
    pub fn os(self) -> bool {
        self.get(ctl_bits::OS)
    }

    /// Sets kernel-mode tracing.
    pub fn set_os(&mut self, on: bool) {
        self.set(ctl_bits::OS, on);
    }

    /// Trace user (CPL 3) execution.
    #[inline]
    pub fn user(self) -> bool {
        self.get(ctl_bits::USER)
    }

    /// Sets user-mode tracing.
    pub fn set_user(&mut self, on: bool) {
        self.set(ctl_bits::USER, on);
    }

    /// CR3 filtering enabled.
    #[inline]
    pub fn cr3_filter(self) -> bool {
        self.get(ctl_bits::CR3_FILTER)
    }

    /// Sets CR3 filtering.
    pub fn set_cr3_filter(&mut self, on: bool) {
        self.set(ctl_bits::CR3_FILTER, on);
    }

    /// ToPA output scheme selected.
    #[inline]
    pub fn topa(self) -> bool {
        self.get(ctl_bits::TOPA)
    }

    /// Sets ToPA output.
    pub fn set_topa(&mut self, on: bool) {
        self.set(ctl_bits::TOPA, on);
    }

    /// Trace-fabric output selected.
    #[inline]
    pub fn fabric_en(self) -> bool {
        self.get(ctl_bits::FABRIC_EN)
    }

    /// Sets fabric output.
    pub fn set_fabric_en(&mut self, on: bool) {
        self.set(ctl_bits::FABRIC_EN, on);
    }

    /// Return compression disabled.
    #[inline]
    pub fn dis_retc(self) -> bool {
        self.get(ctl_bits::DIS_RETC)
    }

    /// Sets return-compression disable.
    pub fn set_dis_retc(&mut self, on: bool) {
        self.set(ctl_bits::DIS_RETC, on);
    }

    /// COFI packet generation enabled.
    #[inline]
    pub fn branch_en(self) -> bool {
        self.get(ctl_bits::BRANCH_EN)
    }

    /// Sets COFI packet generation.
    pub fn set_branch_en(&mut self, on: bool) {
        self.set(ctl_bits::BRANCH_EN, on);
    }

    /// ADDR0 IP-range filtering enabled.
    #[inline]
    pub fn addr0_filter(self) -> bool {
        self.get(ctl_bits::ADDR0_FILTER)
    }

    /// Sets ADDR0 IP-range filtering.
    pub fn set_addr0_filter(&mut self, on: bool) {
        self.set(ctl_bits::ADDR0_FILTER, on);
    }
}

impl fmt::Display for RtitCtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (name, on) in [
            ("TraceEn", self.trace_en()),
            ("BranchEn", self.branch_en()),
            ("OS", self.os()),
            ("User", self.user()),
            ("CR3Filter", self.cr3_filter()),
            ("ToPA", self.topa()),
            ("FabricEn", self.fabric_en()),
            ("DisRETC", self.dis_retc()),
        ] {
            if on {
                parts.push(name);
            }
        }
        write!(f, "RTIT_CTL{{{}}}", parts.join("|"))
    }
}

/// The per-core IPT MSR file.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IptMsrs {
    /// `IA32_RTIT_CTL`.
    pub ctl: RtitCtl,
    /// `IA32_RTIT_STATUS` (bit 5 = error, bit 4 = stopped).
    pub status: u64,
    /// `IA32_RTIT_CR3_MATCH` — the CR3 filter value.
    pub cr3_match: u64,
    /// `IA32_RTIT_OUTPUT_BASE` — ToPA base (opaque handle here).
    pub output_base: u64,
    /// `IA32_RTIT_OUTPUT_MASK_PTRS` — current table/offset pointers.
    pub output_mask_ptrs: u64,
    /// `IA32_RTIT_ADDR0_A` — IP-filter range start (inclusive).
    pub addr0_a: u64,
    /// `IA32_RTIT_ADDR0_B` — IP-filter range end (inclusive).
    pub addr0_b: u64,
    /// Additional CR3 values admitted by the filter — the §7.2.4
    /// hardware-extension ablation: a *configurable multi-CR3 filter* so the
    /// kernel module stops rewriting `IA32_RTIT_CR3_MATCH` (flush + PSB+
    /// resync + `trace_reconfig_cycles`) on every context switch. Empty on
    /// stock hardware; `serde(default)` keeps pre-fleet serialized MSR files
    /// loadable.
    #[serde(default)]
    pub cr3_match_extra: Vec<u64>,
}

impl IptMsrs {
    /// Whether packets should currently be generated for the given execution
    /// context.
    ///
    /// Implements the filtering matrix of §2: master enable, CPL filtering
    /// (`OS`/`User` bits) and CR3 filtering.
    #[inline]
    pub fn should_trace(&self, cpl_user: bool, cr3: u64) -> bool {
        if !self.ctl.trace_en() || !self.ctl.branch_en() {
            return false;
        }
        if cpl_user && !self.ctl.user() {
            return false;
        }
        if !cpl_user && !self.ctl.os() {
            return false;
        }
        if self.ctl.cr3_filter() && !self.cr3_admitted(cr3) {
            return false;
        }
        true
    }

    /// Whether a CR3 value passes the (possibly multi-valued) CR3 filter.
    ///
    /// Stock hardware compares against the single `IA32_RTIT_CR3_MATCH`;
    /// with the modelled multi-CR3 extension any value in `cr3_match_extra`
    /// is also admitted.
    #[inline]
    pub fn cr3_admitted(&self, cr3: u64) -> bool {
        cr3 == self.cr3_match || self.cr3_match_extra.contains(&cr3)
    }

    /// Whether an instruction pointer passes the ADDR0 range filter (§2's
    /// "certain instruction pointer (IP) ranges"). Unfiltered when the
    /// `ADDR0_CFG` bit is clear.
    ///
    /// This model filters packet generation by the CoFI's source IP — a
    /// simplification of the hardware's PGE/PGD range toggling.
    #[inline]
    pub fn ip_in_filter(&self, ip: u64) -> bool {
        !self.ctl.addr0_filter() || (ip >= self.addr0_a && ip <= self.addr0_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowguard_default_matches_section_5_1() {
        let ctl = RtitCtl::flowguard_default();
        assert!(ctl.trace_en() && ctl.branch_en(), "TraceEn and BranchEn set");
        assert!(!ctl.os() && ctl.user(), "OS cleared, User set");
        assert!(ctl.cr3_filter(), "CR3Filter set");
        assert!(!ctl.fabric_en(), "FabricEn cleared (output to memory)");
        assert!(ctl.topa(), "ToPA output scheme");
        assert!(ctl.dis_retc(), "rets must produce TIPs");
    }

    #[test]
    fn bit_setters_roundtrip() {
        let mut ctl = RtitCtl::default();
        assert!(!ctl.trace_en());
        ctl.set_trace_en(true);
        ctl.set_os(true);
        ctl.set_user(true);
        ctl.set_cr3_filter(true);
        ctl.set_topa(true);
        ctl.set_fabric_en(true);
        ctl.set_dis_retc(true);
        ctl.set_branch_en(true);
        assert!(ctl.trace_en() && ctl.os() && ctl.user() && ctl.cr3_filter());
        assert!(ctl.topa() && ctl.fabric_en() && ctl.dis_retc() && ctl.branch_en());
        ctl.set_os(false);
        assert!(!ctl.os() && ctl.user());
    }

    #[test]
    fn filtering_matrix() {
        let mut msrs = IptMsrs { ctl: RtitCtl::flowguard_default(), ..Default::default() };
        msrs.cr3_match = 0x5000;
        assert!(msrs.should_trace(true, 0x5000), "user + matching CR3");
        assert!(!msrs.should_trace(true, 0x6000), "CR3 mismatch filtered");
        assert!(!msrs.should_trace(false, 0x5000), "kernel filtered (OS clear)");

        msrs.ctl.set_trace_en(false);
        assert!(!msrs.should_trace(true, 0x5000), "master disable");

        let mut all = IptMsrs::default();
        all.ctl.set_trace_en(true);
        all.ctl.set_branch_en(true);
        all.ctl.set_user(true);
        all.ctl.set_os(true);
        assert!(all.should_trace(true, 0xabc) && all.should_trace(false, 0xabc), "no CR3 filter");
    }

    #[test]
    fn multi_cr3_filter_admits_extra_values() {
        let mut msrs = IptMsrs { ctl: RtitCtl::flowguard_default(), ..Default::default() };
        msrs.cr3_match = 0x4000;
        msrs.cr3_match_extra = vec![0x5000, 0x6000];
        assert!(msrs.should_trace(true, 0x4000), "primary match still admitted");
        assert!(msrs.should_trace(true, 0x5000) && msrs.should_trace(true, 0x6000));
        assert!(!msrs.should_trace(true, 0x7000), "unlisted CR3 filtered");
        assert!(msrs.cr3_admitted(0x5000) && !msrs.cr3_admitted(0x7000));
    }

    #[test]
    fn msrs_without_extra_cr3_field_still_deserialize() {
        // A pre-fleet serialized MSR file has no `cr3_match_extra` key.
        let legacy = r#"{"ctl":2185,"status":0,"cr3_match":16384,"output_base":0,
                         "output_mask_ptrs":0,"addr0_a":0,"addr0_b":0}"#;
        let msrs: IptMsrs = serde_json::from_str(legacy).unwrap();
        assert!(msrs.cr3_match_extra.is_empty());
        assert!(msrs.cr3_admitted(16384));
    }

    #[test]
    fn addr0_range_filtering() {
        let mut msrs = IptMsrs { ctl: RtitCtl::flowguard_default(), ..Default::default() };
        assert!(msrs.ip_in_filter(0x1234), "no filter configured");
        msrs.ctl.set_addr0_filter(true);
        msrs.addr0_a = 0x40_0000;
        msrs.addr0_b = 0x4f_ffff;
        assert!(msrs.ip_in_filter(0x40_0000), "range start inclusive");
        assert!(msrs.ip_in_filter(0x4f_ffff), "range end inclusive");
        assert!(!msrs.ip_in_filter(0x3f_fff8));
        assert!(!msrs.ip_in_filter(0x1000_0000), "library code filtered out");
    }

    #[test]
    fn display_lists_set_bits() {
        let s = RtitCtl::flowguard_default().to_string();
        assert!(s.contains("TraceEn") && s.contains("CR3Filter") && !s.contains("FabricEn"));
    }
}

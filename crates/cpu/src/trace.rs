//! Per-core hardware trace units: IPT, BTS, and LBR.
//!
//! These are the three mechanisms of the paper's Table 1. Each receives the
//! same CoFI event stream from the interpreter and records it with its own
//! fidelity/cost trade-off:
//!
//! * **IPT** compresses through [`fg_ipt::encode::PacketEncoder`] into a
//!   ToPA buffer, honouring the `IA32_RTIT_*` MSR filters;
//! * **BTS** stores a full 24-byte from/to record for *every* transfer
//!   (high overhead, no decode needed);
//! * **LBR** rotates the most recent 16/32 from/to pairs through a register
//!   stack (cheap, but tiny history and coarse filtering).

use crate::cost::CostModel;
use fg_ipt::encode::PacketEncoder;
use fg_ipt::msr::IptMsrs;
use fg_ipt::topa::Topa;
use fg_isa::insn::CofiKind;
use serde::{Deserialize, Serialize};

/// A BTS branch record (from, to) — 24 bytes in hardware (from, to, flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtsRecord {
    /// Source address of the transfer.
    pub from: u64,
    /// Destination address.
    pub to: u64,
}

/// Branch Trace Store unit: full fidelity, no decoding, very high overhead.
#[derive(Debug, Clone, Default)]
pub struct BtsUnit {
    records: Vec<BtsRecord>,
    capacity: usize,
}

impl BtsUnit {
    /// Creates a BTS unit with a circular buffer of `capacity` records.
    pub fn new(capacity: usize) -> BtsUnit {
        BtsUnit { records: Vec::with_capacity(capacity.min(4096)), capacity }
    }

    /// Records a transfer.
    pub fn record(&mut self, from: u64, to: u64) {
        if self.records.len() == self.capacity {
            self.records.remove(0);
        }
        self.records.push(BtsRecord { from, to });
    }

    /// The recorded transfers, oldest first.
    pub fn records(&self) -> &[BtsRecord] {
        &self.records
    }
}

/// Which CoFI classes an LBR filter admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbrFilter {
    /// Record conditional branches.
    pub cond: bool,
    /// Record near returns.
    pub rets: bool,
    /// Record indirect jumps/calls.
    pub indirect: bool,
    /// Record direct jumps/calls.
    pub direct: bool,
}

impl LbrFilter {
    /// The filter the kBouncer/ROPecker line of work uses: indirect branches
    /// and returns only.
    pub fn indirect_only() -> LbrFilter {
        LbrFilter { cond: false, rets: true, indirect: true, direct: false }
    }

    /// Admit everything.
    pub fn all() -> LbrFilter {
        LbrFilter { cond: true, rets: true, indirect: true, direct: true }
    }

    /// Whether a CoFI class passes the filter.
    pub fn admits(&self, kind: CofiKind) -> bool {
        match kind {
            CofiKind::CondBranch => self.cond,
            CofiKind::Ret => self.rets,
            CofiKind::IndJmp | CofiKind::IndCall => self.indirect,
            CofiKind::DirectJmp | CofiKind::DirectCall => self.direct,
            CofiKind::FarTransfer | CofiKind::None => false,
        }
    }
}

/// Last Branch Record stack: 16 or 32 most recent pairs.
#[derive(Debug, Clone)]
pub struct LbrUnit {
    stack: Vec<BtsRecord>,
    depth: usize,
    filter: LbrFilter,
}

impl LbrUnit {
    /// Creates an LBR with the given depth (16 or 32 on real parts).
    pub fn new(depth: usize, filter: LbrFilter) -> LbrUnit {
        LbrUnit { stack: Vec::with_capacity(depth), depth, filter }
    }

    /// Records a transfer if the filter admits it.
    pub fn record(&mut self, kind: CofiKind, from: u64, to: u64) {
        if !self.filter.admits(kind) {
            return;
        }
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(BtsRecord { from, to });
    }

    /// The register stack, oldest first (at most `depth` entries —
    /// "it can only record 16 or 32 most recent branch pairs", §2).
    pub fn stack(&self) -> &[BtsRecord] {
        &self.stack
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Depth of the hardware RET-compression stack.
const RET_STACK_DEPTH: usize = 64;

/// The IPT unit: MSR file + packet encoder writing into a ToPA.
#[derive(Debug)]
pub struct IptUnit {
    /// The `IA32_RTIT_*` register file.
    pub msrs: IptMsrs,
    enc: PacketEncoder<Topa>,
    psb_period: u64,
    /// The hardware RET-compression stack (active when `DisRETC` is clear):
    /// a `ret` whose target matches the recorded call site compresses to a
    /// single taken-TNT bit instead of a TIP.
    ret_stack: Vec<u64>,
}

impl IptUnit {
    /// Creates an IPT unit with FlowGuard's §5.1 configuration: user-only
    /// CoFI tracing, CR3-filtered to `cr3`, ToPA output with two regions.
    pub fn flowguard(cr3: u64, topa: Topa) -> IptUnit {
        let msrs = IptMsrs {
            ctl: fg_ipt::msr::RtitCtl::flowguard_default(),
            cr3_match: cr3,
            ..Default::default()
        };
        IptUnit { msrs, enc: PacketEncoder::new(topa), psb_period: 512, ret_stack: Vec::new() }
    }

    /// Creates a unit with explicit MSRs (for non-FlowGuard configurations).
    pub fn with_msrs(msrs: IptMsrs, topa: Topa) -> IptUnit {
        IptUnit { msrs, enc: PacketEncoder::new(topa), psb_period: 1024, ret_stack: Vec::new() }
    }

    /// Sets the PSB cadence in trace bytes.
    pub fn set_psb_period(&mut self, bytes: u64) {
        self.psb_period = bytes;
    }

    /// Whether this unit traces the given context.
    pub fn active(&self, cpl_user: bool, cr3: u64) -> bool {
        self.msrs.should_trace(cpl_user, cr3) && !self.enc.sink().stopped()
    }

    /// Emits the trace-start PSB+ (also used for periodic re-sync).
    pub fn start(&mut self, ip: u64, cr3: u64) {
        self.enc.psb_plus(Some(ip), Some(cr3));
    }

    /// Total packet bytes emitted.
    pub fn bytes_emitted(&self) -> u64 {
        self.enc.bytes_emitted()
    }

    /// Flushes the internal TNT shift register to the ToPA — what clearing
    /// `TraceEn` does on real hardware. The kernel module calls this before
    /// reading the buffer at a checkpoint.
    pub fn flush(&mut self) {
        self.enc.flush_tnt();
    }

    /// Access to the ToPA buffer (what the kernel module reads at check
    /// time).
    pub fn topa(&self) -> &Topa {
        self.enc.sink()
    }

    /// Mutable access to the ToPA (PMI acknowledge).
    pub fn topa_mut(&mut self) -> &mut Topa {
        self.enc.sink_mut()
    }

    /// The retained trace as chronological borrowed region slices — the
    /// zero-copy view the engine's drain path consumes
    /// ([`Topa::segments`]). Building it allocates nothing.
    pub fn trace_segments(&self) -> fg_ipt::topa::Segments<'_> {
        self.enc.sink().segments()
    }

    /// The trace bytes in chronological order, assembled from the
    /// segmented view. A convenience for tests and cold consumers (slow
    /// path, flight records); runtime drains use [`IptUnit::trace_segments`]
    /// and never linearise.
    pub fn trace_bytes(&self) -> Vec<u8> {
        let topa = self.enc.sink();
        let mut out = Vec::with_capacity(topa.retained_len());
        topa.chronological_into(&mut out);
        out
    }

    fn maybe_psb(&mut self, next_ip: u64, cr3: u64) {
        if self.enc.bytes_since_psb() >= self.psb_period {
            self.enc.psb_plus(Some(next_ip), Some(cr3));
        }
    }
}

/// Encodes one CoFI event into an IPT unit (the Table 3 packet taxonomy),
/// returning the tracing cost in cycles. Shared by the single-process
/// [`TraceUnit::Ipt`] path and the per-CR3 routing of
/// [`TraceUnit::MultiIpt`].
fn ipt_on_cofi(
    u: &mut IptUnit,
    cost: &CostModel,
    kind: CofiKind,
    from: u64,
    to: u64,
    taken: bool,
    cr3: u64,
) -> f64 {
    if !u.active(true, cr3) || !u.msrs.ip_in_filter(from) {
        return 0.0;
    }
    let before = u.enc.bytes_emitted();
    let retc = !u.msrs.ctl.dis_retc();
    match kind {
        CofiKind::CondBranch => u.enc.tnt_bit(taken),
        CofiKind::IndCall | CofiKind::DirectCall if retc => {
            // Track the call for RET compression.
            if u.ret_stack.len() == RET_STACK_DEPTH {
                u.ret_stack.remove(0);
            }
            u.ret_stack.push(from + fg_isa::insn::INSN_SIZE);
            if kind == CofiKind::IndCall {
                u.enc.tip(to);
            }
        }
        CofiKind::Ret if retc => {
            // Compressed return: a matching target is one taken
            // TNT bit; a mismatch emits a full TIP.
            if u.ret_stack.last() == Some(&to) {
                u.ret_stack.pop();
                u.enc.tnt_bit(true);
            } else {
                u.ret_stack.pop();
                u.enc.tip(to);
            }
        }
        CofiKind::IndJmp | CofiKind::IndCall | CofiKind::Ret => u.enc.tip(to),
        CofiKind::FarTransfer => {
            u.enc.fup(from);
            u.enc.tip_pgd(None);
        }
        CofiKind::DirectJmp | CofiKind::DirectCall | CofiKind::None => {}
    }
    u.maybe_psb(to, cr3);
    (u.enc.bytes_emitted() - before) as f64 * cost.ipt_byte_cycles
}

/// Per-core multi-process IPT front-end — the §7.2.4 "configurable multi-CR3
/// filter" hardware extension made concrete.
///
/// One core-level MSR file admits a *set* of CR3 values
/// ([`IptMsrs::cr3_match_extra`]) and the packet stream is demultiplexed
/// into per-CR3 ToPA buffers, each a full [`IptUnit`] with its own encoder,
/// PSB cadence and RET-compression stack. A context switch therefore
/// reduces to updating the `current` selector: no TNT flush, no
/// `IA32_RTIT_CR3_MATCH` rewrite, no PSB+ resync, no
/// `trace_reconfig_cycles` charge — and each process's trace bytes are
/// bit-identical to what a dedicated single-process unit would have
/// produced.
#[derive(Debug, Default)]
pub struct MultiIptUnit {
    /// The core-level filter: `cr3_match` holds the first admitted CR3,
    /// `cr3_match_extra` the rest.
    msrs: IptMsrs,
    units: Vec<(u64, IptUnit)>,
    current: usize,
}

impl MultiIptUnit {
    /// Creates an empty multi-CR3 unit with FlowGuard's §5.1 CTL bits.
    pub fn new() -> MultiIptUnit {
        let msrs = IptMsrs { ctl: fg_ipt::msr::RtitCtl::flowguard_default(), ..Default::default() };
        MultiIptUnit { msrs, units: Vec::new(), current: 0 }
    }

    /// Admits a CR3 into the filter and allocates its private ToPA buffer.
    /// Returns `false` (and ignores the buffer) if the CR3 is already
    /// admitted.
    pub fn admit(&mut self, cr3: u64, topa: Topa) -> bool {
        if self.units.iter().any(|(c, _)| *c == cr3) {
            return false;
        }
        if self.units.is_empty() {
            self.msrs.cr3_match = cr3;
        } else {
            self.msrs.cr3_match_extra.push(cr3);
        }
        self.units.push((cr3, IptUnit::flowguard(cr3, topa)));
        true
    }

    /// Selects the running process. This is the entire context-switch cost
    /// under the multi-CR3 extension. Returns `false` if the CR3 was never
    /// admitted.
    pub fn set_current(&mut self, cr3: u64) -> bool {
        match self.units.iter().position(|(c, _)| *c == cr3) {
            Some(i) => {
                self.current = i;
                true
            }
            None => false,
        }
    }

    /// Restricts the core filter to a single CR3 — the stock-hardware
    /// fallback where the kernel module rewrites `IA32_RTIT_CR3_MATCH` at
    /// every context switch (§7.2.4's bottleneck). Clears
    /// `cr3_match_extra`; the per-CR3 output buffers stay (the module
    /// saves/restores `OUTPUT_BASE` alongside). The caller models the rest
    /// of the switch cost: TNT flush, PSB+ resync and
    /// `trace_reconfig_cycles`. Returns `false` if the CR3 was never
    /// admitted.
    pub fn restrict_to(&mut self, cr3: u64) -> bool {
        if !self.set_current(cr3) {
            return false;
        }
        self.msrs.cr3_match = cr3;
        self.msrs.cr3_match_extra.clear();
        true
    }

    /// The CR3 currently selected, if any process was admitted.
    pub fn current_cr3(&self) -> Option<u64> {
        self.units.get(self.current).map(|(c, _)| *c)
    }

    /// The admitted CR3 values, in admission order.
    pub fn admitted(&self) -> Vec<u64> {
        self.units.iter().map(|(c, _)| *c).collect()
    }

    /// The core-level MSR file (primary + extra CR3 filter values).
    pub fn msrs(&self) -> &IptMsrs {
        &self.msrs
    }

    /// The per-CR3 sub-unit, if admitted.
    pub fn unit(&self, cr3: u64) -> Option<&IptUnit> {
        self.units.iter().find(|(c, _)| *c == cr3).map(|(_, u)| u)
    }

    /// Mutable access to a per-CR3 sub-unit.
    pub fn unit_mut(&mut self, cr3: u64) -> Option<&mut IptUnit> {
        self.units.iter_mut().find(|(c, _)| *c == cr3).map(|(_, u)| u)
    }

    fn current_unit(&self) -> Option<&IptUnit> {
        self.units.get(self.current).map(|(_, u)| u)
    }

    fn current_unit_mut(&mut self) -> Option<&mut IptUnit> {
        self.units.get_mut(self.current).map(|(_, u)| u)
    }
}

/// A per-core trace unit configuration.
#[derive(Debug, Default)]
pub enum TraceUnit {
    /// Tracing disabled.
    #[default]
    Off,
    /// Intel Processor Trace.
    Ipt(IptUnit),
    /// Intel PT with the §7.2.4 multi-CR3 filter and per-CR3 ToPA buffers.
    MultiIpt(MultiIptUnit),
    /// Branch Trace Store.
    Bts(BtsUnit),
    /// Last Branch Record.
    Lbr(LbrUnit),
}

impl TraceUnit {
    /// Handles a CoFI event, returning the tracing cost in cycles.
    ///
    /// `next_ip` is the address of the next instruction to execute after the
    /// transfer (used for PSB sync points).
    pub fn on_cofi(
        &mut self,
        cost: &CostModel,
        kind: CofiKind,
        from: u64,
        to: u64,
        taken: bool,
        cr3: u64,
    ) -> f64 {
        match self {
            TraceUnit::Off => 0.0,
            TraceUnit::Ipt(u) => ipt_on_cofi(u, cost, kind, from, to, taken, cr3),
            TraceUnit::MultiIpt(m) => {
                // The core-level multi-CR3 filter decides admission; the
                // event's CR3 then selects the per-process ToPA buffer.
                if !m.msrs.should_trace(true, cr3) {
                    return 0.0;
                }
                match m.unit_mut(cr3) {
                    Some(u) => ipt_on_cofi(u, cost, kind, from, to, taken, cr3),
                    None => 0.0,
                }
            }
            TraceUnit::Bts(u) => {
                if kind == CofiKind::None {
                    return 0.0;
                }
                u.record(from, to);
                cost.bts_record_cycles
            }
            TraceUnit::Lbr(u) => {
                u.record(kind, from, to);
                cost.lbr_rotate_cycles
            }
        }
    }

    /// Handles syscall *return* to user mode (TIP.PGE for IPT).
    pub fn on_syscall_resume(&mut self, cost: &CostModel, resume_ip: u64, cr3: u64) -> f64 {
        let u = match self {
            TraceUnit::Ipt(u) => u,
            TraceUnit::MultiIpt(m) if m.msrs.should_trace(true, cr3) => match m.unit_mut(cr3) {
                Some(u) => u,
                None => return 0.0,
            },
            _ => return 0.0,
        };
        if !u.active(true, cr3) {
            return 0.0;
        }
        let before = u.enc.bytes_emitted();
        u.enc.tip_pge(resume_ip);
        u.maybe_psb(resume_ip, cr3);
        (u.enc.bytes_emitted() - before) as f64 * cost.ipt_byte_cycles
    }

    /// The IPT unit, if that is what is configured. For a multi-CR3 unit
    /// this is the *currently selected* process's sub-unit, so the machine
    /// run loop (PMI pending, trace-poll slots) and the engine's drain path
    /// work unchanged under fleet scheduling.
    pub fn as_ipt(&self) -> Option<&IptUnit> {
        match self {
            TraceUnit::Ipt(u) => Some(u),
            TraceUnit::MultiIpt(m) => m.current_unit(),
            _ => None,
        }
    }

    /// Mutable IPT access (current sub-unit for a multi-CR3 configuration).
    pub fn as_ipt_mut(&mut self) -> Option<&mut IptUnit> {
        match self {
            TraceUnit::Ipt(u) => Some(u),
            TraceUnit::MultiIpt(m) => m.current_unit_mut(),
            _ => None,
        }
    }

    /// The multi-CR3 unit, if that is what is configured.
    pub fn as_multi_ipt(&self) -> Option<&MultiIptUnit> {
        match self {
            TraceUnit::MultiIpt(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable multi-CR3 access (context-switch selector, admission).
    pub fn as_multi_ipt_mut(&mut self) -> Option<&mut MultiIptUnit> {
        match self {
            TraceUnit::MultiIpt(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_ipt::fast;

    fn ipt_unit(cr3: u64) -> TraceUnit {
        TraceUnit::Ipt(IptUnit::flowguard(cr3, Topa::two_regions(8192).unwrap()))
    }

    #[test]
    fn ipt_emits_table3_taxonomy() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        t.as_ipt_mut().unwrap().start(0x40_0000, 0x1000);
        // direct call: no output
        let c0 = t.on_cofi(&cost, CofiKind::DirectCall, 0x40_0000, 0x40_0100, false, 0x1000);
        assert_eq!(c0, 0.0);
        // conditional: TNT bit (buffered, zero bytes until flush)
        t.on_cofi(&cost, CofiKind::CondBranch, 0x40_0100, 0x40_0110, true, 0x1000);
        // indirect: TIP
        let c2 = t.on_cofi(&cost, CofiKind::IndCall, 0x40_0110, 0x50_0000, false, 0x1000);
        assert!(c2 > 0.0);
        let bytes = t.as_ipt().unwrap().trace_bytes();
        let scan = fast::scan(&bytes).unwrap();
        assert_eq!(scan.tip_count(), 1);
        assert_eq!(scan.tip_ips()[0], 0x50_0000);
        assert_eq!(scan.tnt_vec(0), vec![true]);
    }

    #[test]
    fn trace_segments_are_borrowed_and_chronological() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        t.as_ipt_mut().unwrap().start(0x40_0000, 0x1000);
        for i in 0..40u64 {
            t.on_cofi(&cost, CofiKind::IndCall, 0x40_0110 + i, 0x50_0000 + 8 * i, false, 0x1000);
        }
        let u = t.as_ipt().unwrap();
        // The segmented view concatenates to the linearised bytes, scans
        // identically, and borrows the ToPA regions directly.
        let segs: Vec<&[u8]> = u.trace_segments().collect();
        assert_eq!(segs.concat(), u.trace_bytes());
        let seg_scan = fast::scan_vectorized_segments(&segs).unwrap();
        let lin_scan = fast::scan(&u.trace_bytes()).unwrap();
        assert_eq!(seg_scan.tip_events(), lin_scan.tip_events());
        assert!(std::ptr::eq(
            segs.last().unwrap().as_ptr(),
            u.topa().regions()[0].contents().as_ptr()
        ));
    }

    #[test]
    fn ipt_addr0_filter_suppresses_out_of_range_branches() {
        let cost = CostModel::calibrated();
        let mut msrs = fg_ipt::msr::IptMsrs {
            ctl: fg_ipt::msr::RtitCtl::flowguard_default(),
            cr3_match: 0x1000,
            addr0_a: 0x40_0000,
            addr0_b: 0x4f_ffff,
            ..Default::default()
        };
        msrs.ctl.set_addr0_filter(true);
        let mut t = TraceUnit::Ipt(IptUnit::with_msrs(msrs, Topa::two_regions(8192).unwrap()));
        // In range: traced.
        let c1 = t.on_cofi(&cost, CofiKind::IndJmp, 0x40_0100, 0x50_0000, false, 0x1000);
        assert!(c1 > 0.0);
        // Source outside the range: suppressed.
        let before = t.as_ipt().unwrap().bytes_emitted();
        let c2 = t.on_cofi(&cost, CofiKind::IndJmp, 0x1000_0000, 0x40_0000, false, 0x1000);
        assert_eq!(c2, 0.0);
        assert_eq!(t.as_ipt().unwrap().bytes_emitted(), before);
    }

    #[test]
    fn ipt_cr3_filter_suppresses_other_processes() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        let c = t.on_cofi(&cost, CofiKind::IndJmp, 0x40_0000, 0x50_0000, false, 0x2000);
        assert_eq!(c, 0.0);
        assert_eq!(t.as_ipt().unwrap().bytes_emitted(), 0);
    }

    #[test]
    fn ipt_syscall_group() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        t.as_ipt_mut().unwrap().start(0x40_0000, 0x1000);
        t.on_cofi(&cost, CofiKind::FarTransfer, 0x40_0010, 0, false, 0x1000);
        t.on_syscall_resume(&cost, 0x40_0018, 0x1000);
        let bytes = t.as_ipt().unwrap().trace_bytes();
        let scan = fast::scan(&bytes).unwrap();
        use fg_ipt::fast::Boundary;
        assert!(scan.boundaries.iter().any(|(_, b)| matches!(b, Boundary::Fup { ip: 0x40_0010 })));
        assert!(scan
            .boundaries
            .iter()
            .any(|(_, b)| matches!(b, Boundary::PauseEnd { ip: 0x40_0018 })));
    }

    #[test]
    fn ipt_periodic_psb() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        let u = t.as_ipt_mut().unwrap();
        u.set_psb_period(64);
        u.start(0x40_0000, 0x1000);
        for i in 0..100u64 {
            t.on_cofi(&cost, CofiKind::IndJmp, 0x40_0000 + i * 8, 0x50_0000 + i * 8, false, 0x1000);
        }
        let bytes = t.as_ipt().unwrap().trace_bytes();
        let psbs = fg_ipt::PacketParser::psb_offsets(&bytes);
        assert!(psbs.len() >= 3, "periodic PSB+ every ~64 bytes, got {}", psbs.len());
    }

    fn multi_unit(cr3s: &[u64]) -> TraceUnit {
        let mut m = MultiIptUnit::new();
        for &cr3 in cr3s {
            assert!(m.admit(cr3, Topa::two_regions(8192).unwrap()));
            m.unit_mut(cr3).unwrap().start(0x40_0000, cr3);
        }
        m.set_current(cr3s[0]);
        TraceUnit::MultiIpt(m)
    }

    #[test]
    fn multi_cr3_admission_and_selection() {
        let mut t = multi_unit(&[0x4000, 0x5000]);
        let m = t.as_multi_ipt_mut().unwrap();
        assert_eq!(m.admitted(), vec![0x4000, 0x5000]);
        assert_eq!(m.msrs().cr3_match, 0x4000);
        assert_eq!(m.msrs().cr3_match_extra, vec![0x5000]);
        assert!(!m.admit(0x5000, Topa::two_regions(8192).unwrap()), "double admit rejected");
        assert!(m.set_current(0x5000) && !m.set_current(0x7777));
        assert_eq!(m.current_cr3(), Some(0x5000));
        // as_ipt now resolves to the selected process's sub-unit.
        assert_eq!(t.as_ipt().unwrap().msrs.cr3_match, 0x5000);
    }

    #[test]
    fn multi_cr3_routes_by_event_cr3_and_filters_strangers() {
        let cost = CostModel::calibrated();
        let mut t = multi_unit(&[0x4000, 0x5000]);
        let c1 = t.on_cofi(&cost, CofiKind::IndJmp, 0x40_0100, 0x50_0000, false, 0x4000);
        let c2 = t.on_cofi(&cost, CofiKind::IndJmp, 0x40_0200, 0x50_0008, false, 0x5000);
        assert!(c1 > 0.0 && c2 > 0.0);
        // A CR3 outside the filter set produces nothing.
        let c3 = t.on_cofi(&cost, CofiKind::IndJmp, 0x40_0300, 0x50_0010, false, 0x6000);
        assert_eq!(c3, 0.0);
        let m = t.as_multi_ipt().unwrap();
        let scan_a = fast::scan(&m.unit(0x4000).unwrap().trace_bytes()).unwrap();
        let scan_b = fast::scan(&m.unit(0x5000).unwrap().trace_bytes()).unwrap();
        assert_eq!(scan_a.tip_ips(), &[0x50_0000], "per-CR3 demux");
        assert_eq!(scan_b.tip_ips(), &[0x50_0008]);
    }

    #[test]
    fn multi_cr3_interleaved_trace_is_bit_identical_to_solo() {
        // The whole point of the extension: context switches stop flushing
        // trace state, so an interleaved schedule yields each process the
        // exact byte stream a dedicated unit would have produced.
        let cost = CostModel::calibrated();
        let mut solo = ipt_unit(0x4000);
        solo.as_ipt_mut().unwrap().start(0x40_0000, 0x4000);
        let mut fleet = multi_unit(&[0x4000, 0x5000]);

        let events = [
            (CofiKind::CondBranch, 0x40_0100u64, 0x40_0110u64, true),
            (CofiKind::IndCall, 0x40_0110, 0x41_0000, false),
            (CofiKind::CondBranch, 0x41_0000, 0x41_0010, false),
            (CofiKind::Ret, 0x41_0010, 0x40_0118, false),
            (CofiKind::IndJmp, 0x40_0118, 0x42_0000, false),
        ];
        for (i, &(kind, from, to, taken)) in events.iter().enumerate() {
            solo.on_cofi(&cost, kind, from, to, taken, 0x4000);
            fleet.as_multi_ipt_mut().unwrap().set_current(0x4000);
            fleet.on_cofi(&cost, kind, from, to, taken, 0x4000);
            // Interleave a context switch + stranger activity between every
            // event of the process under test.
            fleet.as_multi_ipt_mut().unwrap().set_current(0x5000);
            fleet.on_cofi(
                &cost,
                CofiKind::IndJmp,
                0x43_0000 + i as u64 * 8,
                0x44_0000,
                false,
                0x5000,
            );
        }
        solo.as_ipt_mut().unwrap().flush();
        let m = fleet.as_multi_ipt_mut().unwrap();
        m.unit_mut(0x4000).unwrap().flush();
        assert_eq!(
            solo.as_ipt().unwrap().trace_bytes(),
            m.unit(0x4000).unwrap().trace_bytes(),
            "per-CR3 buffer must match a dedicated unit byte-for-byte"
        );
    }

    #[test]
    fn bts_records_everything_at_high_cost() {
        let cost = CostModel::calibrated();
        let mut t = TraceUnit::Bts(BtsUnit::new(1024));
        let c1 = t.on_cofi(&cost, CofiKind::DirectJmp, 1, 2, false, 0);
        let c2 = t.on_cofi(&cost, CofiKind::CondBranch, 3, 4, true, 0);
        assert_eq!(c1, cost.bts_record_cycles);
        assert_eq!(c2, cost.bts_record_cycles);
        if let TraceUnit::Bts(u) = &t {
            assert_eq!(u.records(), &[BtsRecord { from: 1, to: 2 }, BtsRecord { from: 3, to: 4 }]);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn bts_buffer_is_circular() {
        let mut u = BtsUnit::new(2);
        u.record(1, 1);
        u.record(2, 2);
        u.record(3, 3);
        assert_eq!(u.records().len(), 2);
        assert_eq!(u.records()[0].from, 2, "oldest evicted");
    }

    #[test]
    fn lbr_filters_and_rotates() {
        let cost = CostModel::calibrated();
        let mut t = TraceUnit::Lbr(LbrUnit::new(16, LbrFilter::indirect_only()));
        let c = t.on_cofi(&cost, CofiKind::CondBranch, 1, 2, true, 0);
        assert_eq!(c, 0.0);
        t.on_cofi(&cost, CofiKind::Ret, 3, 4, false, 0);
        t.on_cofi(&cost, CofiKind::DirectCall, 5, 6, false, 0);
        if let TraceUnit::Lbr(u) = &t {
            assert_eq!(u.stack().len(), 1, "only the ret admitted");
            assert_eq!(u.depth(), 16);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn lbr_depth_limit() {
        let mut u = LbrUnit::new(4, LbrFilter::all());
        for i in 0..10 {
            u.record(CofiKind::Ret, i, i + 1);
        }
        assert_eq!(u.stack().len(), 4, "only 16/32 most recent pairs in hardware; 4 here");
        assert_eq!(u.stack()[0].from, 6);
    }

    #[test]
    fn off_unit_is_free() {
        let cost = CostModel::calibrated();
        let mut t = TraceUnit::Off;
        assert_eq!(t.on_cofi(&cost, CofiKind::IndJmp, 1, 2, false, 0), 0.0);
        assert!(t.as_ipt().is_none());
    }
}

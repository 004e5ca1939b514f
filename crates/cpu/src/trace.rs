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
    /// The newest `capacity` records are the buffer; older ones are evicted
    /// in bulk once `records` reaches twice that, so recording costs O(1)
    /// amortised instead of a shift per branch.
    records: Vec<BtsRecord>,
    capacity: usize,
}

impl BtsUnit {
    /// Creates a BTS unit with a circular buffer of `capacity` records. A
    /// zero-capacity buffer retains nothing.
    pub fn new(capacity: usize) -> BtsUnit {
        BtsUnit { records: Vec::with_capacity(capacity.min(4096)), capacity }
    }

    /// Records a transfer.
    pub fn record(&mut self, from: u64, to: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == 2 * self.capacity {
            self.records.drain(..self.capacity);
        }
        self.records.push(BtsRecord { from, to });
    }

    /// The retained transfers (at most `capacity`, the newest), oldest
    /// first.
    pub fn records(&self) -> &[BtsRecord] {
        &self.records[self.records.len().saturating_sub(self.capacity)..]
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
    /// The `IA32_RTIT_*` register file, fixed when the unit is created, so
    /// the admission decisions below cannot go stale.
    msrs: IptMsrs,
    /// The source IPs, `lo..=hi`, whose CoFIs `msrs` traces: the ADDR0
    /// range when that filter is on, else every address.
    ip_range: (u64, u64),
    /// `msrs.should_trace(true, cr3)` for the last CR3 it was asked about,
    /// decided when the CR3 changes rather than on every CoFI.
    traces_cr3: (u64, bool),
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
        IptUnit::new(msrs, topa, 512)
    }

    /// Creates a unit with explicit MSRs (for non-FlowGuard configurations).
    pub fn with_msrs(msrs: IptMsrs, topa: Topa) -> IptUnit {
        IptUnit::new(msrs, topa, 1024)
    }

    fn new(msrs: IptMsrs, topa: Topa, psb_period: u64) -> IptUnit {
        let ip_range =
            if msrs.ctl.addr0_filter() { (msrs.addr0_a, msrs.addr0_b) } else { (0, u64::MAX) };
        IptUnit {
            ip_range,
            traces_cr3: (msrs.cr3_match, msrs.should_trace(true, msrs.cr3_match)),
            msrs,
            enc: PacketEncoder::new(topa),
            psb_period,
            ret_stack: Vec::new(),
        }
    }

    /// Sets the PSB cadence in trace bytes.
    pub fn set_psb_period(&mut self, bytes: u64) {
        self.psb_period = bytes;
    }

    /// Whether this unit traces user-mode execution under `cr3` now: the
    /// MSRs admit it and no ToPA STOP region has filled.
    #[inline]
    fn traces(&mut self, cr3: u64) -> bool {
        if self.traces_cr3.0 != cr3 {
            self.traces_cr3 = (cr3, self.msrs.should_trace(true, cr3));
        }
        self.traces_cr3.1 && !self.enc.sink().stopped()
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

    /// Charges the bytes written since the encoder had emitted `before` to
    /// `cycles`, returning whether there were any. A write-free event does
    /// no floating-point work: adding `0.0` would not change the sum.
    #[inline]
    fn charge_since(&self, before: u64, cost: &CostModel, cycles: &mut f64) -> bool {
        let bytes = self.enc.bytes_emitted() - before;
        if bytes == 0 {
            return false;
        }
        *cycles += bytes as f64 * cost.ipt_byte_cycles;
        true
    }

    /// Encodes one CoFI event (the Table 3 packet taxonomy) and charges its
    /// bytes to `cycles`, returning whether it wrote any. Shared by the
    /// single-process [`TraceUnit::Ipt`] path and the per-CR3 routing of
    /// [`TraceUnit::MultiIpt`]. The events that usually write nothing — a
    /// direct jump or call, a TNT bit short of a full packet — take an
    /// inlined path; the rest are encoded out of line.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn on_cofi(
        &mut self,
        cost: &CostModel,
        cycles: &mut f64,
        kind: CofiKind,
        from: u64,
        to: u64,
        taken: bool,
        cr3: u64,
    ) -> bool {
        let (lo, hi) = self.ip_range;
        if !self.traces(cr3) || from < lo || from > hi {
            return false;
        }
        let before = self.enc.bytes_emitted();
        match kind {
            CofiKind::CondBranch => self.enc.tnt_bit(taken),
            CofiKind::DirectJmp | CofiKind::None => {}
            CofiKind::DirectCall if self.msrs.ctl.dis_retc() => {}
            _ => self.encode_packet(kind, from, to),
        }
        self.maybe_psb(to, cr3);
        self.charge_since(before, cost, cycles)
    }

    /// Encodes a call, return, indirect jump or far transfer.
    #[inline(never)]
    fn encode_packet(&mut self, kind: CofiKind, from: u64, to: u64) {
        let retc = !self.msrs.ctl.dis_retc();
        match kind {
            CofiKind::IndCall | CofiKind::DirectCall if retc => {
                // Track the call for RET compression.
                if self.ret_stack.len() == RET_STACK_DEPTH {
                    self.ret_stack.remove(0);
                }
                self.ret_stack.push(from + fg_isa::insn::INSN_SIZE);
                if kind == CofiKind::IndCall {
                    self.enc.tip(to);
                }
            }
            CofiKind::Ret if retc => {
                // Compressed return: a matching target is one taken
                // TNT bit; a mismatch emits a full TIP.
                if self.ret_stack.last() == Some(&to) {
                    self.ret_stack.pop();
                    self.enc.tnt_bit(true);
                } else {
                    self.ret_stack.pop();
                    self.enc.tip(to);
                }
            }
            CofiKind::IndJmp | CofiKind::IndCall | CofiKind::Ret => self.enc.tip(to),
            CofiKind::FarTransfer => {
                self.enc.fup(from);
                self.enc.tip_pgd(None);
            }
            // Encoded inline by `on_cofi`.
            CofiKind::CondBranch | CofiKind::DirectJmp | CofiKind::DirectCall | CofiKind::None => {}
        }
    }
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
    /// Whether `msrs` traces the selected CR3; recomputed whenever either
    /// changes, so routing the running process's events skips both linear
    /// CR3 searches.
    current_traced: bool,
}

impl MultiIptUnit {
    /// Creates an empty multi-CR3 unit with FlowGuard's §5.1 CTL bits.
    pub fn new() -> MultiIptUnit {
        let msrs = IptMsrs { ctl: fg_ipt::msr::RtitCtl::flowguard_default(), ..Default::default() };
        MultiIptUnit { msrs, units: Vec::new(), current: 0, current_traced: false }
    }

    fn refresh_current_traced(&mut self) {
        self.current_traced = self.current_cr3().is_some_and(|c| self.msrs.should_trace(true, c));
    }

    /// The sub-unit that receives `cr3`'s events, if the core filter traces
    /// that CR3: the selected process's in O(1), any other by search.
    #[inline]
    fn route_mut(&mut self, cr3: u64) -> Option<&mut IptUnit> {
        if self.current_cr3() == Some(cr3) {
            let traced = self.current_traced;
            return self.current_unit_mut().filter(|_| traced);
        }
        if !self.msrs.should_trace(true, cr3) {
            return None;
        }
        self.unit_mut(cr3)
    }

    /// Admits a process's IPT unit — CR3-filtered to the process
    /// (`unit.msrs.cr3_match`), writing its private ToPA buffer — into the
    /// core filter. Returns `false` (and drops the unit) if the CR3 is
    /// already admitted.
    pub fn admit(&mut self, unit: IptUnit) -> bool {
        let cr3 = unit.msrs.cr3_match;
        if self.units.iter().any(|(c, _)| *c == cr3) {
            return false;
        }
        if self.units.is_empty() {
            self.msrs.cr3_match = cr3;
        } else {
            self.msrs.cr3_match_extra.push(cr3);
        }
        self.units.push((cr3, unit));
        self.refresh_current_traced();
        true
    }

    /// Selects the running process. This is the entire context-switch cost
    /// under the multi-CR3 extension. Returns `false` if the CR3 was never
    /// admitted.
    pub fn set_current(&mut self, cr3: u64) -> bool {
        match self.units.iter().position(|(c, _)| *c == cr3) {
            Some(i) => {
                self.current = i;
                self.refresh_current_traced();
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
        self.refresh_current_traced();
        true
    }

    /// The CR3 currently selected, if any process was admitted.
    #[inline]
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

    #[inline]
    fn current_unit(&self) -> Option<&IptUnit> {
        self.units.get(self.current).map(|(_, u)| u)
    }

    #[inline]
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
    /// Records a CoFI from `from` to `to` (`taken` for a conditional
    /// branch) and adds its tracing cycles to `cycles`. Returns whether it
    /// wrote IPT bytes, the only writes that can raise a PMI.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_cofi(
        &mut self,
        cost: &CostModel,
        cycles: &mut f64,
        kind: CofiKind,
        from: u64,
        to: u64,
        taken: bool,
        cr3: u64,
    ) -> bool {
        match self {
            TraceUnit::Off => false,
            TraceUnit::Ipt(u) => u.on_cofi(cost, cycles, kind, from, to, taken, cr3),
            // The core-level multi-CR3 filter decides admission; the event's
            // CR3 then selects the per-process ToPA buffer.
            TraceUnit::MultiIpt(m) => match m.route_mut(cr3) {
                Some(u) => u.on_cofi(cost, cycles, kind, from, to, taken, cr3),
                None => false,
            },
            TraceUnit::Bts(u) => {
                u.record(from, to);
                *cycles += cost.bts_record_cycles;
                false
            }
            TraceUnit::Lbr(u) => {
                u.record(kind, from, to);
                *cycles += cost.lbr_rotate_cycles;
                false
            }
        }
    }

    /// Handles syscall *return* to user mode (TIP.PGE for IPT), adding its
    /// tracing cycles to `cycles`.
    pub(crate) fn on_syscall_resume(
        &mut self,
        cost: &CostModel,
        cycles: &mut f64,
        resume_ip: u64,
        cr3: u64,
    ) {
        let u = match self {
            TraceUnit::Ipt(u) => u,
            TraceUnit::MultiIpt(m) => match m.route_mut(cr3) {
                Some(u) => u,
                None => return,
            },
            _ => return,
        };
        if u.traces(cr3) {
            let before = u.enc.bytes_emitted();
            u.enc.tip_pge(resume_ip);
            u.maybe_psb(resume_ip, cr3);
            u.charge_since(before, cost, cycles);
        }
    }

    /// The IPT unit, if that is what is configured. For a multi-CR3 unit
    /// this is the *currently selected* process's sub-unit, so the machine
    /// run loop (PMI pending, trace-poll slots) and the engine's drain path
    /// work unchanged while fleet members take turns on one core.
    #[inline]
    pub fn as_ipt(&self) -> Option<&IptUnit> {
        match self {
            TraceUnit::Ipt(u) => Some(u),
            TraceUnit::MultiIpt(m) => m.current_unit(),
            _ => None,
        }
    }

    /// Mutable IPT access (current sub-unit for a multi-CR3 configuration).
    #[inline]
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

    /// [`TraceUnit::on_cofi`], returning the cycles it charged.
    fn cofi(
        t: &mut TraceUnit,
        cost: &CostModel,
        kind: CofiKind,
        from: u64,
        to: u64,
        taken: bool,
        cr3: u64,
    ) -> f64 {
        let mut cycles = 0.0;
        t.on_cofi(cost, &mut cycles, kind, from, to, taken, cr3);
        cycles
    }

    /// [`TraceUnit::on_syscall_resume`], returning the cycles it charged.
    fn resume(t: &mut TraceUnit, cost: &CostModel, resume_ip: u64, cr3: u64) -> f64 {
        let mut cycles = 0.0;
        t.on_syscall_resume(cost, &mut cycles, resume_ip, cr3);
        cycles
    }

    fn ipt_unit(cr3: u64) -> TraceUnit {
        TraceUnit::Ipt(IptUnit::flowguard(cr3, Topa::two_regions(8192).unwrap()))
    }

    #[test]
    fn ipt_emits_table3_taxonomy() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        t.as_ipt_mut().unwrap().start(0x40_0000, 0x1000);
        // direct call: no output
        let c0 = cofi(&mut t, &cost, CofiKind::DirectCall, 0x40_0000, 0x40_0100, false, 0x1000);
        assert_eq!(c0, 0.0);
        // conditional: TNT bit (buffered, zero bytes until flush)
        cofi(&mut t, &cost, CofiKind::CondBranch, 0x40_0100, 0x40_0110, true, 0x1000);
        // indirect: TIP
        let c2 = cofi(&mut t, &cost, CofiKind::IndCall, 0x40_0110, 0x50_0000, false, 0x1000);
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
            cofi(&mut t, &cost, CofiKind::IndCall, 0x40_0110 + i, 0x50_0000 + 8 * i, false, 0x1000);
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
        let c1 = cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0100, 0x50_0000, false, 0x1000);
        assert!(c1 > 0.0);
        // Source outside the range: suppressed.
        let before = t.as_ipt().unwrap().bytes_emitted();
        let c2 = cofi(&mut t, &cost, CofiKind::IndJmp, 0x1000_0000, 0x40_0000, false, 0x1000);
        assert_eq!(c2, 0.0);
        assert_eq!(t.as_ipt().unwrap().bytes_emitted(), before);
    }

    #[test]
    fn ipt_cr3_filter_suppresses_other_processes() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        let c = cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0000, 0x50_0000, false, 0x2000);
        assert_eq!(c, 0.0);
        assert_eq!(t.as_ipt().unwrap().bytes_emitted(), 0);
    }

    #[test]
    fn ipt_admission_follows_the_cr3() {
        // The admission decision is cached per CR3: switching away and back
        // must re-decide it both times.
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        for (cr3, traced) in [(0x1000, true), (0x2000, false), (0x1000, true), (0x2000, false)] {
            let before = t.as_ipt().unwrap().bytes_emitted();
            cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0000, 0x50_0000, false, cr3);
            assert_eq!(t.as_ipt().unwrap().bytes_emitted() > before, traced, "cr3 {cr3:#x}");
            assert_eq!(resume(&mut t, &cost, 0x40_0008, cr3) > 0.0, traced, "cr3 {cr3:#x}");
        }
    }

    #[test]
    fn ipt_syscall_group() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        t.as_ipt_mut().unwrap().start(0x40_0000, 0x1000);
        cofi(&mut t, &cost, CofiKind::FarTransfer, 0x40_0010, 0, false, 0x1000);
        resume(&mut t, &cost, 0x40_0018, 0x1000);
        let bytes = t.as_ipt().unwrap().trace_bytes();
        use fg_ipt::packet::Packet;
        let packets: Vec<Packet> =
            fg_ipt::decode::decode_all(&bytes).unwrap().into_iter().map(|p| p.packet).collect();
        let group = [
            Packet::Fup { ip: 0x40_0010 },
            Packet::TipPgd { ip: None },
            Packet::TipPge { ip: 0x40_0018 },
        ];
        assert!(packets.windows(3).any(|w| w == group), "no syscall group in {packets:?}");
    }

    #[test]
    fn ipt_periodic_psb() {
        let cost = CostModel::calibrated();
        let mut t = ipt_unit(0x1000);
        let u = t.as_ipt_mut().unwrap();
        u.set_psb_period(64);
        u.start(0x40_0000, 0x1000);
        for i in 0..100u64 {
            cofi(
                &mut t,
                &cost,
                CofiKind::IndJmp,
                0x40_0000 + i * 8,
                0x50_0000 + i * 8,
                false,
                0x1000,
            );
        }
        let bytes = t.as_ipt().unwrap().trace_bytes();
        let psbs = fg_ipt::PacketParser::psb_offsets(&bytes);
        assert!(psbs.len() >= 3, "periodic PSB+ every ~64 bytes, got {}", psbs.len());
    }

    fn multi_unit(cr3s: &[u64]) -> TraceUnit {
        let mut m = MultiIptUnit::new();
        for &cr3 in cr3s {
            let mut u = IptUnit::flowguard(cr3, Topa::two_regions(8192).unwrap());
            u.start(0x40_0000, cr3);
            assert!(m.admit(u));
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
        let twin = IptUnit::flowguard(0x5000, Topa::two_regions(8192).unwrap());
        assert!(!m.admit(twin), "double admit rejected");
        assert!(m.set_current(0x5000) && !m.set_current(0x7777));
        assert_eq!(m.current_cr3(), Some(0x5000));
        // as_ipt now resolves to the selected process's sub-unit.
        assert_eq!(t.as_ipt().unwrap().msrs.cr3_match, 0x5000);
    }

    #[test]
    fn multi_cr3_routes_by_event_cr3_and_filters_strangers() {
        let cost = CostModel::calibrated();
        let mut t = multi_unit(&[0x4000, 0x5000]);
        let c1 = cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0100, 0x50_0000, false, 0x4000);
        let c2 = cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0200, 0x50_0008, false, 0x5000);
        assert!(c1 > 0.0 && c2 > 0.0);
        // A CR3 outside the filter set produces nothing.
        let c3 = cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0300, 0x50_0010, false, 0x6000);
        assert_eq!(c3, 0.0);
        let m = t.as_multi_ipt().unwrap();
        let scan_a = fast::scan(&m.unit(0x4000).unwrap().trace_bytes()).unwrap();
        let scan_b = fast::scan(&m.unit(0x5000).unwrap().trace_bytes()).unwrap();
        assert_eq!(scan_a.tip_ips(), &[0x50_0000], "per-CR3 demux");
        assert_eq!(scan_b.tip_ips(), &[0x50_0008]);
    }

    #[test]
    fn selected_process_still_obeys_the_core_filter() {
        // restrict_to narrows the core filter to one CR3; selecting another
        // process afterwards must not let its events through.
        let cost = CostModel::calibrated();
        let mut t = multi_unit(&[0x4000, 0x5000]);
        let m = t.as_multi_ipt_mut().unwrap();
        assert!(m.restrict_to(0x4000) && m.set_current(0x5000));
        let before = m.unit(0x5000).unwrap().bytes_emitted();
        assert_eq!(cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0100, 0x50_0000, false, 0x5000), 0.0);
        assert_eq!(resume(&mut t, &cost, 0x40_0108, 0x5000), 0.0);
        let m = t.as_multi_ipt_mut().unwrap();
        assert_eq!(m.unit(0x5000).unwrap().bytes_emitted(), before);
        // The restricted CR3 is traced, though not selected.
        assert!(cofi(&mut t, &cost, CofiKind::IndJmp, 0x40_0100, 0x50_0000, false, 0x4000) > 0.0);
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
            cofi(&mut solo, &cost, kind, from, to, taken, 0x4000);
            fleet.as_multi_ipt_mut().unwrap().set_current(0x4000);
            cofi(&mut fleet, &cost, kind, from, to, taken, 0x4000);
            // Interleave a context switch + stranger activity between every
            // event of the process under test.
            fleet.as_multi_ipt_mut().unwrap().set_current(0x5000);
            cofi(
                &mut fleet,
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
        let c1 = cofi(&mut t, &cost, CofiKind::DirectJmp, 1, 2, false, 0);
        let c2 = cofi(&mut t, &cost, CofiKind::CondBranch, 3, 4, true, 0);
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
        let mut u = BtsUnit::new(3);
        for i in 1..=20u64 {
            u.record(i, i + 100);
            let kept: Vec<u64> = u.records().iter().map(|r| r.from).collect();
            let want: Vec<u64> = (i.saturating_sub(2).max(1)..=i).collect();
            assert_eq!(kept, want, "the newest 3 records, oldest first, after {i}");
        }
        assert_eq!(u.records()[2], BtsRecord { from: 20, to: 120 });
    }

    #[test]
    fn zero_capacity_bts_retains_nothing() {
        let cost = CostModel::calibrated();
        let mut t = TraceUnit::Bts(BtsUnit::new(0));
        let c = cofi(&mut t, &cost, CofiKind::IndJmp, 1, 2, false, 0);
        assert_eq!(c, cost.bts_record_cycles, "the store is still charged");
        let TraceUnit::Bts(u) = &t else { unreachable!() };
        assert!(u.records().is_empty());
        assert!(BtsUnit::default().records().is_empty());
    }

    #[test]
    fn lbr_filters_and_rotates() {
        let cost = CostModel::calibrated();
        let mut t = TraceUnit::Lbr(LbrUnit::new(16, LbrFilter::indirect_only()));
        let c = cofi(&mut t, &cost, CofiKind::CondBranch, 1, 2, true, 0);
        assert_eq!(c, 0.0);
        cofi(&mut t, &cost, CofiKind::Ret, 3, 4, false, 0);
        cofi(&mut t, &cost, CofiKind::DirectCall, 5, 6, false, 0);
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
        assert_eq!(cofi(&mut t, &cost, CofiKind::IndJmp, 1, 2, false, 0), 0.0);
        assert!(t.as_ipt().is_none());
    }
}

//! Baseline detectors from the related-work lineage the paper positions
//! itself against (§8.2):
//!
//! * [`KBouncerLike`] — kBouncer/ROPecker-style heuristics over the
//!   16-entry LBR stack at sensitive syscalls: returns must target
//!   *call-preceded* locations, and chains of consecutive short gadgets are
//!   flagged. No CFG, near-zero overhead — and evadable with call-preceded
//!   long gadgets (Carlini & Wagner, "ROP is still dangerous"; Göktaş,
//!   "size does matter"), which is exactly the motivation for FlowGuard's
//!   CFG-grounded checking.
//! * [`CfimonLike`] — CFIMon-style checking of full BTS records against a
//!   conservative CFG: precise, but pays BTS's ~50× tracing cost (Table 1).

use fg_cfg::OCfg;
use fg_cpu::machine::SyscallCtx;
use fg_cpu::trace::{BtsRecord, TraceUnit};
use fg_isa::image::Image;
use fg_isa::insn::{Insn, INSN_SIZE};
use fg_kernel::{InterceptVerdict, SensitiveSet, SyscallInterceptor, Sysno, SIGKILL};
use std::sync::Arc;

/// kBouncer/ROPecker-style LBR heuristics.
pub struct KBouncerLike {
    image: Image,
    endpoints: SensitiveSet,
    cr3: u64,
    /// Minimum run of consecutive short gadgets considered an attack.
    pub chain_min: usize,
    /// Gadget length (instructions) below which a snippet is "short".
    pub gadget_max_insns: u64,
}

impl KBouncerLike {
    /// Creates the detector with kBouncer's published thresholds
    /// (chains of ≥ 8 gadgets shorter than 20 instructions).
    pub fn new(image: Image, cr3: u64) -> KBouncerLike {
        KBouncerLike {
            image,
            endpoints: SensitiveSet::patharmor_default(),
            cr3,
            chain_min: 8,
            gadget_max_insns: 20,
        }
    }

    /// Whether `to` is a call-preceded location (the instruction before it
    /// is a call) — kBouncer's return-target policy.
    fn call_preceded(&self, to: u64) -> bool {
        matches!(
            self.image.insn_at(to.wrapping_sub(INSN_SIZE)),
            Some(Insn::Call { .. }) | Some(Insn::CallInd { .. })
        )
    }

    /// Runs the two heuristics over an LBR snapshot (oldest first).
    pub fn inspect(&self, records: &[BtsRecord]) -> Option<String> {
        // 1. Every recorded return must land call-preceded. The LBR filter
        //    records returns and indirect branches; indirect branches may
        //    legitimately target function entries, so only flag records
        //    whose *source* is a ret instruction.
        for r in records {
            if matches!(self.image.insn_at(r.from), Some(Insn::Ret)) && !self.call_preceded(r.to) {
                return Some(format!("return {:#x} → {:#x} is not call-preceded", r.from, r.to));
            }
        }
        // 2. Gadget-chain heuristic: consecutive records where fewer than
        //    `gadget_max_insns` instructions ran between entry and exit.
        let mut run = 0usize;
        for w in records.windows(2) {
            let len_insns = w[1].from.wrapping_sub(w[0].to) / INSN_SIZE;
            if len_insns <= self.gadget_max_insns {
                run += 1;
                if run + 1 >= self.chain_min {
                    return Some(format!("chain of {} short gadgets", run + 1));
                }
            } else {
                run = 0;
            }
        }
        None
    }
}

impl SyscallInterceptor for KBouncerLike {
    fn protects(&self, cr3: u64) -> bool {
        cr3 == self.cr3
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.endpoints.contains(nr)
    }

    fn check(&mut self, _nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        let TraceUnit::Lbr(lbr) = &*ctx.trace else {
            return InterceptVerdict::Allow; // needs an LBR-configured core
        };
        if self.inspect(lbr.stack()).is_some() {
            return InterceptVerdict::Kill(SIGKILL);
        }
        InterceptVerdict::Allow
    }
}

/// CFIMon-style full-record checking over BTS.
pub struct CfimonLike {
    ocfg: Arc<OCfg>,
    endpoints: SensitiveSet,
    cr3: u64,
}

impl CfimonLike {
    /// Creates the detector.
    pub fn new(ocfg: Arc<OCfg>, cr3: u64) -> CfimonLike {
        CfimonLike { ocfg, endpoints: SensitiveSet::patharmor_default(), cr3 }
    }

    /// Checks every record against the conservative CFG.
    pub fn inspect(&self, records: &[BtsRecord]) -> Option<String> {
        for r in records {
            let Some(bi) = self.ocfg.disasm.block_containing(r.from) else {
                return Some(format!("transfer from non-code {:#x}", r.from));
            };
            let block = &self.ocfg.disasm.blocks[bi];
            // Only terminator records are judgeable (fall-through splits are
            // direct edges); far transfers enter the kernel, outside the CFG.
            if block.last_insn() != r.from {
                continue;
            }
            if matches!(block.term, fg_cfg::BlockEnd::Terminator(Insn::Syscall)) {
                continue;
            }
            if !self.ocfg.admits(bi, r.to) {
                return Some(format!("off-CFG transfer {:#x} → {:#x}", r.from, r.to));
            }
        }
        None
    }
}

impl SyscallInterceptor for CfimonLike {
    fn protects(&self, cr3: u64) -> bool {
        cr3 == self.cr3
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.endpoints.contains(nr)
    }

    fn check(&mut self, _nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        let TraceUnit::Bts(bts) = &*ctx.trace else {
            return InterceptVerdict::Allow;
        };
        if self.inspect(bts.records()).is_some() {
            return InterceptVerdict::Kill(SIGKILL);
        }
        InterceptVerdict::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cpu::machine::{Machine, StopReason};
    use fg_cpu::trace::{BtsUnit, LbrFilter, LbrUnit};

    fn lbr_machine(image: &fg_isa::image::Image, cr3: u64) -> Machine {
        let mut m = Machine::new(image, cr3);
        m.trace = TraceUnit::Lbr(LbrUnit::new(16, LbrFilter::indirect_only()));
        m
    }

    #[test]
    fn kbouncer_passes_benign_server_traffic() {
        let w = fg_workloads::nginx_patched();
        let mut m = lbr_machine(&w.image, 0x4000);
        let mut k = fg_kernel::Kernel::with_input(&w.default_input);
        k.install_interceptor(Box::new(KBouncerLike::new(w.image.clone(), 0x4000)));
        let stop = m.run(&mut k, 200_000_000);
        assert_eq!(stop, StopReason::Exited(0), "no false positives");
        assert!(!k.violated());
    }

    #[test]
    fn kbouncer_catches_naive_rop() {
        let w = fg_workloads::nginx();
        let g = fg_attacks_gadgets(&w.image);
        let attack = fg_attacks_rop(&w.image, &g);
        let mut m = lbr_machine(&w.image, 0x4000);
        let mut k = fg_kernel::Kernel::with_input(&attack);
        k.install_interceptor(Box::new(KBouncerLike::new(w.image.clone(), 0x4000)));
        let stop = m.run(&mut k, 200_000_000);
        assert_eq!(stop, StopReason::Killed(SIGKILL), "pop/ret chains are not call-preceded");
    }

    #[test]
    fn cfimon_catches_naive_rop() {
        let w = fg_workloads::nginx();
        let ocfg = Arc::new(OCfg::build(&w.image));
        let g = fg_attacks_gadgets(&w.image);
        let attack = fg_attacks_rop(&w.image, &g);
        let mut m = Machine::new(&w.image, 0x4000);
        m.trace = TraceUnit::Bts(BtsUnit::new(1 << 16));
        let mut k = fg_kernel::Kernel::with_input(&attack);
        k.install_interceptor(Box::new(CfimonLike::new(ocfg, 0x4000)));
        let stop = m.run(&mut k, 200_000_000);
        assert_eq!(stop, StopReason::Killed(SIGKILL));
    }

    #[test]
    fn cfimon_passes_benign_traffic() {
        let w = fg_workloads::nginx_patched();
        let ocfg = Arc::new(OCfg::build(&w.image));
        let mut m = Machine::new(&w.image, 0x4000);
        m.trace = TraceUnit::Bts(BtsUnit::new(1 << 16));
        let mut k = fg_kernel::Kernel::with_input(&w.default_input);
        k.install_interceptor(Box::new(CfimonLike::new(ocfg, 0x4000)));
        let stop = m.run(&mut k, 400_000_000);
        assert_eq!(stop, StopReason::Exited(0));
        assert!(!k.violated());
    }

    // Minimal local reimplementations to avoid a dev-dependency cycle with
    // fg-attacks (which depends on this crate): the classic pop/ret chain.
    fn fg_attacks_gadgets(image: &fg_isa::image::Image) -> std::collections::BTreeMap<usize, u64> {
        let mut pops = std::collections::BTreeMap::new();
        for m in image.modules() {
            let mut va = m.base;
            while va + INSN_SIZE < m.exec_end {
                if let (Some(Insn::Pop { rd }), Some(Insn::Ret)) =
                    (image.insn_at(va), image.insn_at(va + INSN_SIZE))
                {
                    pops.entry(rd.index()).or_insert(va);
                }
                va += INSN_SIZE;
            }
        }
        pops
    }

    fn fg_attacks_rop(
        image: &fg_isa::image::Image,
        pops: &std::collections::BTreeMap<usize, u64>,
    ) -> Vec<u8> {
        // Overflow chain: ret-to-lib write_out(msg, 4), then exit — triggers
        // the write endpoint mid-chain so the monitor gets to look. r2/r3
        // come from libc's `restore2` epilogue (`pop r2; pop r3; ret`),
        // located one slot before the discovered `pop r3; ret` tail.
        let write_out = image.symbol("write_out").expect("write_out");
        let exit = image.symbol("exit").expect("exit");
        let pop23 = pops[&3] - INSN_SIZE;
        let chain = [
            pops[&1],
            0x6000_0000, // r1 = request buffer (readable)
            pop23,
            4, // r2 = len
            0, // r3 junk
            write_out,
            pops[&1],
            0,
            exit,
        ];
        let mut payload = vec![b'A'; 32];
        for w in chain {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let mut req = vec![1u8, payload.len() as u8];
        req.extend_from_slice(&payload);
        req
    }
}

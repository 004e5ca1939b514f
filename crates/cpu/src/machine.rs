//! The CPU interpreter.
//!
//! Executes a linked [`Image`] inside an [`AddressSpace`] with a per-core
//! [`TraceUnit`] attached, accounting simulated cycles through the
//! [`CostModel`]. The interpreter is used in three roles:
//!
//! 1. **protected execution** — IPT tracing on, the kernel module
//!    intercepting syscalls (the runtime FlowGuard deployment);
//! 2. **QEMU-style emulation** — coverage instrumentation on, for the
//!    fuzzing/training phase;
//! 3. **ground truth** — the branch log records exactly what executed, which
//!    property tests compare against the decoded trace.
//!
//! Control-flow hijacks are *real* here: a stack overflow that overwrites a
//! return address genuinely diverts `ret`, and DEP faults on attempts to
//! execute injected code, forcing code-reuse attacks as in the paper.

use crate::cost::{CostModel, CycleAccount};
use crate::coverage::CoverageMap;
use crate::mem::{AddressSpace, MemFault};
use crate::trace::TraceUnit;
use fg_ipt::flow::BranchEvent;
use fg_isa::image::Image;
use fg_isa::insn::{CofiKind, Insn, Reg, Width, INSN_SIZE};
use std::fmt;

/// Architectural register state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// General-purpose registers.
    pub regs: [u64; Reg::COUNT],
    /// Program counter.
    pub pc: u64,
    /// Signed three-way result of the last compare.
    pub flags: i64,
}

impl Cpu {
    /// Creates a CPU at `entry` with the stack pointer set.
    pub fn new(entry: u64, sp: u64) -> Cpu {
        let mut regs = [0; Reg::COUNT];
        regs[Reg::SP.index()] = sp;
        Cpu { regs, pc: entry, flags: 0 }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// The stack pointer.
    pub fn sp(&self) -> u64 {
        self.regs[Reg::SP.index()]
    }
}

/// Outcome of a syscall as decided by the handler (the simulated kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOutcome {
    /// Continue executing the process.
    Continue,
    /// Process exited with the given code.
    Exit(i64),
    /// Process killed by the kernel with the given signal (e.g. 9 when
    /// FlowGuard detects a CFI violation).
    Kill(u32),
}

/// Execution context handed to the syscall handler.
///
/// Exposes the trace unit because FlowGuard's kernel module reads the ToPA
/// buffer *during* syscall interception.
pub struct SyscallCtx<'a> {
    /// Register state (the handler may rewrite `pc`, e.g. `sigreturn`).
    pub cpu: &'a mut Cpu,
    /// Process memory.
    pub mem: &'a mut AddressSpace,
    /// The core's trace unit.
    pub trace: &'a mut TraceUnit,
    /// The process CR3.
    pub cr3: u64,
    /// Extra cycles the handler wants accounted as "other" overhead.
    pub extra_cycles: &'a mut CycleAccount,
}

/// How often [`Machine::run`] offers the kernel a trace-poll slot: once
/// every this many retired instructions (when an IPT unit is attached).
/// This stands in for the slice of CPU a background trace consumer gets on
/// real hardware; FlowGuard's streaming mode drains the ToPA residue here
/// so syscall-time checks find an almost fully consumed buffer.
pub const TRACE_POLL_PERIOD: u64 = 64;

/// The simulated kernel's syscall entry point.
pub trait SyscallHandler {
    /// Handles the syscall whose number is in `r0` (arguments `r1`–`r5`),
    /// writing the result to `r0`.
    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome;

    /// Handles a performance-monitoring interrupt raised by the trace
    /// buffer (a ToPA `INT` region filled). The default acknowledges and
    /// continues; FlowGuard's PMI-endpoint mode runs a full flow check here.
    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        if let Some(u) = ctx.trace.as_ipt_mut() {
            u.topa_mut().take_pmi();
        }
        SysOutcome::Continue
    }

    /// Periodic trace-poll slot, offered every [`TRACE_POLL_PERIOD`]
    /// retired instructions while an IPT unit is attached. Unlike
    /// [`SyscallHandler::pmi`] this cannot stop the process — it only lets
    /// a streaming consumer drain the trace concurrently with execution.
    /// The default does nothing.
    fn trace_poll(&mut self, _ctx: &mut SyscallCtx<'_>) {}
}

/// A no-op kernel: every syscall returns 0 except `exit` (number 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullKernel;

impl SyscallHandler for NullKernel {
    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        if ctx.cpu.regs[0] == 0 {
            SysOutcome::Exit(ctx.cpu.regs[1] as i64)
        } else {
            ctx.cpu.regs[0] = 0;
            SysOutcome::Continue
        }
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `halt` executed.
    Halted,
    /// `exit` syscall.
    Exited(i64),
    /// Killed by the kernel (signal number).
    Killed(u32),
    /// Instruction budget exhausted.
    InsnLimit,
    /// Memory fault (segfault / DEP violation) — a crash.
    Fault(MemFault),
    /// Undecodable instruction reached.
    BadInsn { pc: u64 },
}

impl StopReason {
    /// Whether this is a crash (fuzzers treat these as findings).
    pub fn is_crash(&self) -> bool {
        matches!(self, StopReason::Fault(_) | StopReason::BadInsn { .. })
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Halted => write!(f, "halted"),
            StopReason::Exited(c) => write!(f, "exited({c})"),
            StopReason::Killed(s) => write!(f, "killed by signal {s}"),
            StopReason::InsnLimit => write!(f, "instruction limit reached"),
            StopReason::Fault(e) => write!(f, "fault: {e}"),
            StopReason::BadInsn { pc } => write!(f, "undecodable instruction at {pc:#x}"),
        }
    }
}

/// A single-core machine executing one process image.
#[derive(Debug)]
pub struct Machine {
    /// Register state.
    pub cpu: Cpu,
    /// Process memory.
    pub mem: AddressSpace,
    /// The core's hardware trace unit.
    pub trace: TraceUnit,
    /// The cost model for cycle accounting.
    pub cost: CostModel,
    /// The process CR3 (page-table base), used for trace filtering.
    pub cr3: u64,
    /// Cycle accounting, split by phase.
    pub account: CycleAccount,
    /// Retired instruction count.
    pub insns_retired: u64,
    /// Retired CoFI count (branch density statistics).
    pub cofi_retired: u64,
    /// Optional AFL-style coverage instrumentation.
    pub coverage: Option<CoverageMap>,
    /// Optional ground-truth branch log.
    pub branch_log: Option<Vec<BranchEvent>>,
}

impl Machine {
    /// Creates a machine for a linked image with a fresh address space.
    /// The initial stack pointer leaves 4 KiB of argv/env headroom below
    /// the stack top.
    pub fn new(image: &Image, cr3: u64) -> Machine {
        let mem = AddressSpace::from_image(image);
        let cpu = Cpu::new(image.entry(), crate::mem::STACK_TOP - 4096);
        Machine {
            cpu,
            mem,
            trace: TraceUnit::Off,
            cost: CostModel::calibrated(),
            cr3,
            account: CycleAccount::default(),
            insns_retired: 0,
            cofi_retired: 0,
            coverage: None,
            branch_log: None,
        }
    }

    /// Turns on AFL-style coverage collection (the "QEMU instrumentation").
    pub fn enable_coverage(&mut self) -> &mut Machine {
        self.coverage = Some(CoverageMap::new());
        self
    }

    /// Turns on the ground-truth branch log.
    pub fn enable_branch_log(&mut self) -> &mut Machine {
        self.branch_log = Some(Vec::new());
        self
    }

    fn on_branch(&mut self, kind: CofiKind, from: u64, to: u64, taken: bool) {
        self.cofi_retired += 1;
        let c = self.trace.on_cofi(&self.cost, kind, from, to, taken, self.cr3);
        self.account.trace += c;
        if let Some(cov) = &mut self.coverage {
            cov.record(to);
        }
        if let Some(log) = &mut self.branch_log {
            let taken = matches!(kind, CofiKind::CondBranch).then_some(taken);
            log.push(BranchEvent { from, to, kind, taken });
        }
    }

    /// Runs until a stop condition, with an instruction budget.
    ///
    /// A pending trace-buffer PMI is delivered after the instruction during
    /// which it was raised, or after a run's first instruction if it was
    /// raised before the run. Only trace-byte writes raise one, and only a
    /// CoFI (syscalls included) or a kernel callback writes trace bytes, so
    /// the loop looks for a PMI only after those.
    pub fn run(&mut self, kernel: &mut dyn SyscallHandler, max_insns: u64) -> StopReason {
        let start = self.insns_retired;
        let mut pmi_check = true;
        loop {
            if self.insns_retired - start >= max_insns {
                return StopReason::InsnLimit;
            }
            let cofis = self.cofi_retired;
            match self.step(kernel) {
                Ok(None) => {}
                Ok(Some(stop)) => return stop,
                Err(fault) => return StopReason::Fault(fault),
            }
            pmi_check |= self.cofi_retired != cofis;
            // Deliver a pending trace-buffer PMI (ToPA INT region filled).
            if std::mem::take(&mut pmi_check)
                && self.trace.as_ipt().is_some_and(|u| u.topa().pmi_pending())
            {
                // The handler may leave the PMI pending or write more bytes.
                pmi_check = true;
                let mut extra = CycleAccount::default();
                let outcome = {
                    let mut ctx = SyscallCtx {
                        cpu: &mut self.cpu,
                        mem: &mut self.mem,
                        trace: &mut self.trace,
                        cr3: self.cr3,
                        extra_cycles: &mut extra,
                    };
                    kernel.pmi(&mut ctx)
                };
                self.account.absorb(&extra);
                match outcome {
                    SysOutcome::Continue => {}
                    SysOutcome::Exit(code) => return StopReason::Exited(code),
                    SysOutcome::Kill(sig) => return StopReason::Killed(sig),
                }
            }
            // Periodic trace-poll slot for the streaming consumer.
            if self.insns_retired.is_multiple_of(TRACE_POLL_PERIOD) && self.trace.as_ipt().is_some()
            {
                let mut extra = CycleAccount::default();
                let mut ctx = SyscallCtx {
                    cpu: &mut self.cpu,
                    mem: &mut self.mem,
                    trace: &mut self.trace,
                    cr3: self.cr3,
                    extra_cycles: &mut extra,
                };
                kernel.trace_poll(&mut ctx);
                self.account.absorb(&extra);
                pmi_check = true;
            }
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the [`MemFault`] of a crashing access.
    pub fn step(
        &mut self,
        kernel: &mut dyn SyscallHandler,
    ) -> Result<Option<StopReason>, MemFault> {
        let pc = self.cpu.pc;
        let Ok(insn) = self.mem.fetch_insn(pc)? else {
            return Ok(Some(StopReason::BadInsn { pc }));
        };
        self.insns_retired += 1;
        self.account.exec += self.cost.insn_cycles;
        let next = pc + INSN_SIZE;

        match insn {
            Insn::Nop => self.cpu.pc = next,
            Insn::Halt => return Ok(Some(StopReason::Halted)),
            Insn::MovImm { rd, imm } => {
                self.cpu.set_reg(rd, imm as i64 as u64);
                self.cpu.pc = next;
            }
            Insn::Mov { rd, rs } => {
                let v = self.cpu.reg(rs);
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next;
            }
            Insn::Alu { op, rd, rs } => {
                let v = op.apply(self.cpu.reg(rd), self.cpu.reg(rs));
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next;
            }
            Insn::AluImm { op, rd, imm } => {
                let v = op.apply(self.cpu.reg(rd), imm as i64 as u64);
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next;
            }
            Insn::Cmp { rs1, rs2 } => {
                self.cpu.flags = (self.cpu.reg(rs1) as i64) - (self.cpu.reg(rs2) as i64);
                self.cpu.pc = next;
            }
            Insn::CmpImm { rs, imm } => {
                self.cpu.flags = (self.cpu.reg(rs) as i64) - imm as i64;
                self.cpu.pc = next;
            }
            Insn::Load { w, rd, base, off } => {
                let va = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let v = match w {
                    Width::B8 => self.mem.read_u64(va)?,
                    Width::B1 => self.mem.read_u8(va)? as u64,
                };
                self.cpu.set_reg(rd, v);
                self.cpu.pc = next;
            }
            Insn::Store { w, rs, base, off } => {
                let va = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let v = self.cpu.reg(rs);
                match w {
                    Width::B8 => self.mem.write_u64(va, v)?,
                    Width::B1 => self.mem.write_u8(va, v as u8)?,
                }
                self.cpu.pc = next;
            }
            Insn::Push { rs } => {
                let sp = self.cpu.sp() - 8;
                self.mem.write_u64(sp, self.cpu.reg(rs))?;
                self.cpu.set_reg(Reg::SP, sp);
                self.cpu.pc = next;
            }
            Insn::Pop { rd } => {
                let sp = self.cpu.sp();
                let v = self.mem.read_u64(sp)?;
                self.cpu.set_reg(rd, v);
                self.cpu.set_reg(Reg::SP, sp + 8);
                self.cpu.pc = next;
            }
            Insn::Jmp { target } => {
                self.on_branch(CofiKind::DirectJmp, pc, target, false);
                self.cpu.pc = target;
            }
            Insn::Jcc { cc, target } => {
                let taken = cc.eval(self.cpu.flags);
                let to = if taken { target } else { next };
                self.on_branch(CofiKind::CondBranch, pc, to, taken);
                self.cpu.pc = to;
            }
            Insn::JmpInd { rs } => {
                let to = self.cpu.reg(rs);
                self.on_branch(CofiKind::IndJmp, pc, to, false);
                self.cpu.pc = to;
            }
            Insn::Call { target } => {
                let sp = self.cpu.sp() - 8;
                self.mem.write_u64(sp, next)?;
                self.cpu.set_reg(Reg::SP, sp);
                self.on_branch(CofiKind::DirectCall, pc, target, false);
                self.cpu.pc = target;
            }
            Insn::CallInd { rs } => {
                let to = self.cpu.reg(rs);
                let sp = self.cpu.sp() - 8;
                self.mem.write_u64(sp, next)?;
                self.cpu.set_reg(Reg::SP, sp);
                self.on_branch(CofiKind::IndCall, pc, to, false);
                self.cpu.pc = to;
            }
            Insn::Ret => {
                let sp = self.cpu.sp();
                let to = self.mem.read_u64(sp)?;
                self.cpu.set_reg(Reg::SP, sp + 8);
                self.on_branch(CofiKind::Ret, pc, to, false);
                self.cpu.pc = to;
            }
            Insn::Syscall => {
                // FUP + TIP.PGD: tracing pauses for the kernel.
                self.cofi_retired += 1;
                let c =
                    self.trace.on_cofi(&self.cost, CofiKind::FarTransfer, pc, 0, false, self.cr3);
                self.account.trace += c;
                self.cpu.pc = next;
                let mut extra = CycleAccount::default();
                let outcome = {
                    let mut ctx = SyscallCtx {
                        cpu: &mut self.cpu,
                        mem: &mut self.mem,
                        trace: &mut self.trace,
                        cr3: self.cr3,
                        extra_cycles: &mut extra,
                    };
                    kernel.syscall(&mut ctx)
                };
                self.account.absorb(&extra);
                match outcome {
                    SysOutcome::Continue => {
                        // TIP.PGE at the resume address (the handler may have
                        // redirected pc, e.g. sigreturn). The branch log
                        // records the actual resume target — exactly what the
                        // flow decoder reconstructs from the PGE packet.
                        let c = self.trace.on_syscall_resume(&self.cost, self.cpu.pc, self.cr3);
                        self.account.trace += c;
                        if let Some(cov) = &mut self.coverage {
                            cov.record(self.cpu.pc);
                        }
                        if let Some(log) = &mut self.branch_log {
                            log.push(BranchEvent {
                                from: pc,
                                to: self.cpu.pc,
                                kind: CofiKind::FarTransfer,
                                taken: None,
                            });
                        }
                    }
                    // Terminating syscalls never resume: no PGE, no log entry
                    // (matching the decoder's view of the trace).
                    SysOutcome::Exit(code) => return Ok(Some(StopReason::Exited(code))),
                    SysOutcome::Kill(sig) => return Ok(Some(StopReason::Killed(sig))),
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::IptUnit;
    use fg_ipt::topa::Topa;
    use fg_isa::asm::Asm;
    use fg_isa::image::Linker;
    use fg_isa::insn::regs::*;
    use fg_isa::insn::Cond;

    fn build(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        f(&mut a);
        Linker::new(a.finish().unwrap()).link().unwrap()
    }

    #[test]
    fn arithmetic_and_loop() {
        // Sum 1..=5 in r1.
        let img = build(|a| {
            a.movi(R0, 5);
            a.movi(R1, 0);
            a.label("loop");
            a.add(R1, R0);
            a.addi(R0, -1);
            a.cmpi(R0, 0);
            a.jcc(Cond::Gt, "loop");
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        assert_eq!(m.run(&mut NullKernel, 1000), StopReason::Halted);
        assert_eq!(m.cpu.regs[1], 15);
        assert_eq!(m.cofi_retired, 5);
        assert!(m.insns_retired > 10);
    }

    #[test]
    fn call_ret_roundtrip() {
        let img = build(|a| {
            a.call("f");
            a.halt();
            a.label("f");
            a.movi(R2, 99);
            a.ret();
        });
        let mut m = Machine::new(&img, 0x1000);
        assert_eq!(m.run(&mut NullKernel, 100), StopReason::Halted);
        assert_eq!(m.cpu.regs[2], 99);
    }

    #[test]
    fn indirect_call_through_table() {
        let img = build(|a| {
            a.lea(R1, "table");
            a.ld(R2, R1, 0);
            a.calli(R2);
            a.halt();
            a.label("f");
            a.movi(R3, 7);
            a.ret();
            a.data_ptrs("table", &["f"]);
        });
        let mut m = Machine::new(&img, 0x1000);
        assert_eq!(m.run(&mut NullKernel, 100), StopReason::Halted);
        assert_eq!(m.cpu.regs[3], 7);
    }

    #[test]
    fn stack_overflow_hijacks_return_for_real() {
        // f writes past its local buffer and overwrites its own return
        // address with &gadget; ret then lands in the gadget.
        let img = build(|a| {
            a.call("f");
            a.label("after");
            a.halt();
            a.label("f");
            // Overwrite [sp] (the return address) with &gadget.
            a.lea(R1, "gadget");
            a.st(R1, SP, 0);
            a.ret();
            a.label("gadget");
            a.movi(R5, 0x41);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        m.enable_branch_log();
        assert_eq!(m.run(&mut NullKernel, 100), StopReason::Halted);
        assert_eq!(m.cpu.regs[5], 0x41, "gadget executed");
        // The ret's target is the gadget, not `after`.
        let log = m.branch_log.as_ref().unwrap();
        let ret = log.iter().find(|b| b.kind == CofiKind::Ret).unwrap();
        assert_eq!(ret.to, img.symbol("gadget").unwrap_or(0).max(ret.to));
    }

    #[test]
    fn dep_blocks_stack_execution() {
        // Jump to the stack → NX fault.
        let img = build(|a| {
            a.mov(R1, SP);
            a.jmpi(R1);
        });
        let mut m = Machine::new(&img, 0x1000);
        let stop = m.run(&mut NullKernel, 100);
        assert!(matches!(stop, StopReason::Fault(MemFault::NotExecutable { .. })), "{stop:?}");
        assert!(stop.is_crash());
    }

    #[test]
    fn syscall_exit_stops() {
        let img = build(|a| {
            a.movi(R0, 0); // exit
            a.movi(R1, 42);
            a.syscall();
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        assert_eq!(m.run(&mut NullKernel, 100), StopReason::Exited(42));
    }

    #[test]
    fn insn_limit_enforced() {
        let img = build(|a| {
            a.label("spin");
            a.jmp("spin");
        });
        let mut m = Machine::new(&img, 0x1000);
        assert_eq!(m.run(&mut NullKernel, 50), StopReason::InsnLimit);
        assert!(m.insns_retired <= 51);
    }

    #[test]
    fn traced_run_decodes_to_ground_truth() {
        // The IPT trace, fully decoded, must equal the machine's branch log.
        let img = build(|a| {
            a.movi(R0, 3);
            a.label("loop");
            a.call("work");
            a.addi(R0, -1);
            a.cmpi(R0, 0);
            a.jcc(Cond::Gt, "loop");
            a.halt();
            a.label("work");
            a.lea(R1, "table");
            a.ld(R2, R1, 0);
            a.calli(R2);
            a.ret();
            a.label("leaf");
            a.movi(R4, 1);
            a.ret();
            a.data_ptrs("table", &["leaf"]);
        });
        let mut m = Machine::new(&img, 0x2000);
        m.enable_branch_log();
        let mut unit = IptUnit::flowguard(0x2000, Topa::two_regions(65536).unwrap());
        unit.start(img.entry(), 0x2000);
        m.trace = TraceUnit::Ipt(unit);
        assert_eq!(m.run(&mut NullKernel, 10_000), StopReason::Halted);

        m.trace.as_ipt_mut().unwrap().flush();
        let bytes = m.trace.as_ipt().unwrap().trace_bytes();
        let flow = fg_ipt::flow::FlowDecoder::new(&img).decode(&bytes).unwrap();
        let log = m.branch_log.as_ref().unwrap();
        // Compare branch-for-branch, ignoring the syscall-less tail.
        assert_eq!(flow.branches.len(), log.len());
        for (got, want) in flow.branches.iter().zip(log.iter()) {
            assert_eq!(got.from, want.from);
            assert_eq!(got.to, want.to, "at {:#x}", want.from);
            assert_eq!(got.kind, want.kind);
        }
        assert!(m.account.trace > 0.0, "tracing cycles accounted");
        assert!(m.account.exec > 0.0);
    }

    #[test]
    fn ret_compressed_trace_decodes_to_ground_truth() {
        // With DisRETC = 0 matching returns become TNT bits; the decoder
        // mirrors the hardware call stack and still reconstructs exactly.
        let img = build(|a| {
            a.movi(R0, 4);
            a.label("loop");
            a.call("work");
            a.addi(R0, -1);
            a.cmpi(R0, 0);
            a.jcc(Cond::Gt, "loop");
            a.halt();
            a.label("work");
            a.lea(R1, "table");
            a.ld(R2, R1, 0);
            a.calli(R2);
            a.ret();
            a.label("leaf");
            a.movi(R4, 1);
            a.ret();
            a.data_ptrs("table", &["leaf"]);
        });
        let mut m = Machine::new(&img, 0x2000);
        m.enable_branch_log();
        let mut ctl = fg_ipt::msr::RtitCtl::flowguard_default();
        ctl.set_dis_retc(false); // enable RET compression
        let msrs = fg_ipt::msr::IptMsrs { ctl, cr3_match: 0x2000, ..Default::default() };
        let mut unit = IptUnit::with_msrs(msrs, Topa::two_regions(65536).unwrap());
        unit.start(img.entry(), 0x2000);
        m.trace = TraceUnit::Ipt(unit);
        assert_eq!(m.run(&mut NullKernel, 10_000), StopReason::Halted);
        m.trace.as_ipt_mut().unwrap().flush();
        let bytes = m.trace.as_ipt().unwrap().trace_bytes();

        // The compressed trace hides the returns from the TIP stream...
        let scan = fg_ipt::fast::scan(&bytes).unwrap();
        let log = m.branch_log.as_ref().unwrap();
        let rets = log.iter().filter(|b| b.kind == CofiKind::Ret).count();
        let tips_logged = log
            .iter()
            .filter(|b| matches!(b.kind, CofiKind::IndCall | CofiKind::IndJmp | CofiKind::Ret))
            .count();
        assert_eq!(scan.tip_count(), tips_logged - rets, "all returns compressed away");

        // ...but the compression-aware decoder reconstructs everything.
        let flow = fg_ipt::flow::FlowDecoder::with_ret_compression(&img).decode(&bytes).unwrap();
        assert_eq!(flow.branches.len(), log.len());
        for (got, want) in flow.branches.iter().zip(log.iter()) {
            assert_eq!((got.from, got.to, got.kind), (want.from, want.to, want.kind));
        }
    }

    #[test]
    fn tracing_overhead_is_small() {
        // IPT tracing overhead on a branchy loop stays in single digits —
        // Table 1's "Low (3%)".
        let img = build(|a| {
            a.movi(R0, 2000);
            a.label("loop");
            a.movi(R1, 1);
            a.movi(R2, 2);
            a.add(R1, R2);
            a.mov(R3, R1);
            a.addi(R3, 5);
            a.addi(R0, -1);
            a.cmpi(R0, 0);
            a.jcc(Cond::Gt, "loop");
            a.halt();
        });
        let mut m = Machine::new(&img, 0x2000);
        let mut unit = IptUnit::flowguard(0x2000, Topa::two_regions(65536).unwrap());
        unit.start(img.entry(), 0x2000);
        m.trace = TraceUnit::Ipt(unit);
        m.run(&mut NullKernel, 1_000_000);
        let overhead = m.account.trace / m.account.exec;
        assert!(overhead < 0.05, "IPT tracing overhead {overhead:.3} should be <5%");
        assert!(overhead > 0.0);
    }

    #[test]
    fn coverage_instrumentation_records_edges() {
        let img = build(|a| {
            a.movi(R0, 3);
            a.label("loop");
            a.addi(R0, -1);
            a.cmpi(R0, 0);
            a.jcc(Cond::Gt, "loop");
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        m.enable_coverage();
        m.run(&mut NullKernel, 1000);
        assert!(m.coverage.as_ref().unwrap().edges_hit() > 0);
    }
}

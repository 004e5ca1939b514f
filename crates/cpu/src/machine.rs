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
    ///
    /// A launch copies and predecodes the image's segments and nothing
    /// more: the stack and the heap are materialised page by page as the
    /// process first writes them (see [`AddressSpace`]).
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

    /// Runs until a stop condition, with an instruction budget.
    ///
    /// Each round executes a straight-line run of predecoded instructions
    /// and the CoFI (or `halt`) ending it, with one fetch lookup and one
    /// round of bookkeeping. A round is cut short of the run's end by the
    /// budget, by the next trace-poll slot, and to one instruction when a
    /// PMI check is due. A pending trace-buffer PMI is delivered after the
    /// instruction during which it was raised, or after a run's first
    /// instruction if it was raised before the run. Only trace-byte writes
    /// raise one, and only a CoFI (syscalls included) or a kernel callback
    /// writes trace bytes, so the loop looks for a PMI only after those.
    pub fn run(&mut self, kernel: &mut dyn SyscallHandler, max_insns: u64) -> StopReason {
        let mut retired = self.insns_retired;
        let mut left = max_insns;
        let mut pmi_check = true;
        let stop = loop {
            if left == 0 {
                break StopReason::InsnLimit;
            }
            let cap = if pmi_check {
                1
            } else {
                left.min(TRACE_POLL_PERIOD - retired % TRACE_POLL_PERIOD)
            };
            let (executed, flow) = self.execute_run(self.cpu.pc, cap);
            retired += executed;
            left -= executed;
            match flow {
                Ok(Flow::Next { wrote_trace }) => pmi_check |= wrote_trace,
                Ok(Flow::Halt) => break StopReason::Halted,
                Ok(Flow::Syscall { pc }) => {
                    if let Some(stop) = self.syscall(kernel, pc) {
                        break stop;
                    }
                    pmi_check = true;
                }
                Err(stop) => break stop,
            }
            // Deliver a pending trace-buffer PMI (ToPA INT region filled).
            if std::mem::take(&mut pmi_check)
                && self.trace.as_ipt().is_some_and(|u| u.topa().pmi_pending())
            {
                // The handler may leave the PMI pending or write more bytes.
                pmi_check = true;
                if let Some(stop) = stop_for(self.callback(|ctx| kernel.pmi(ctx))) {
                    break stop;
                }
            }
            // Periodic trace-poll slot for the streaming consumer.
            if retired.is_multiple_of(TRACE_POLL_PERIOD) && self.trace.as_ipt().is_some() {
                self.callback(|ctx| kernel.trace_poll(ctx));
                pmi_check = true;
            }
        };
        self.insns_retired = retired;
        stop
    }

    /// Executes at most `cap` instructions from `pc` with one fetch lookup:
    /// the straight-line run starting there, then, if `cap` leaves room,
    /// the instruction ending it. Returns how many instructions retired, a
    /// faulting one included, and what the last one left to do.
    #[inline(always)]
    fn execute_run(&mut self, pc: u64, cap: u64) -> (u64, Result<Flow, StopReason>) {
        let Some((seg, slot, run)) = self.mem.code_slot(pc) else {
            // Not a predecoded slot: fetch and decode the word.
            return match self.mem.fetch(pc).map(|word| Insn::decode(word, pc)) {
                Ok(Ok(insn)) => (1, self.exec(insn, pc).map_err(StopReason::Fault)),
                Ok(Err(_)) => (0, Err(StopReason::BadInsn { pc })),
                Err(fault) => (0, Err(StopReason::Fault(fault))),
            };
        };
        let m = run.min(cap);
        // The run, then, if it was not cut, the instruction ending it.
        let end = if m < cap { m + 1 } else { m };
        let mut done = 0;
        loop {
            let Some(insn) = self.mem.slot_insn(seg, slot + done as usize) else {
                // The run ends at an undecodable word or the segment's
                // end: the next round's lookup reports it.
                return (done, Ok(Flow::Next { wrote_trace: false }));
            };
            let flow = match self.exec(insn, pc + done * INSN_SIZE) {
                Ok(flow) => flow,
                Err(fault) => return (done + 1, Err(StopReason::Fault(fault))),
            };
            done += 1;
            if done == end {
                return (done, Ok(flow));
            }
        }
    }

    /// Executes `insn`, fetched from `pc`, and charges its exec cycles:
    /// the one place instruction semantics live. A faulting instruction is
    /// charged and leaves `pc` on itself.
    #[inline(always)]
    fn exec(&mut self, insn: Insn, pc: u64) -> Result<Flow, MemFault> {
        self.account.exec += self.cost.insn_cycles;
        let next = pc + INSN_SIZE;
        match insn {
            Insn::Nop => {}
            Insn::Halt => return Ok(Flow::Halt),
            Insn::MovImm { rd, imm } => self.cpu.set_reg(rd, imm as i64 as u64),
            Insn::Mov { rd, rs } => self.cpu.set_reg(rd, self.cpu.reg(rs)),
            Insn::Alu { op, rd, rs } => {
                self.cpu.set_reg(rd, op.apply(self.cpu.reg(rd), self.cpu.reg(rs)));
            }
            Insn::AluImm { op, rd, imm } => {
                self.cpu.set_reg(rd, op.apply(self.cpu.reg(rd), imm as i64 as u64));
            }
            Insn::Cmp { rs1, rs2 } => {
                self.cpu.flags = signed_order(self.cpu.reg(rs1), self.cpu.reg(rs2) as i64);
            }
            Insn::CmpImm { rs, imm } => {
                self.cpu.flags = signed_order(self.cpu.reg(rs), i64::from(imm));
            }
            Insn::Load { w, rd, base, off } => {
                let va = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let v = match w {
                    Width::B8 => self.mem.read_u64(va)?,
                    Width::B1 => u64::from(self.mem.read_u8(va)?),
                };
                self.cpu.set_reg(rd, v);
            }
            Insn::Store { w, rs, base, off } => {
                let va = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let v = self.cpu.reg(rs);
                match w {
                    Width::B8 => self.mem.write_u64(va, v)?,
                    Width::B1 => self.mem.write_u8(va, v as u8)?,
                }
            }
            Insn::Push { rs } => self.push(self.cpu.reg(rs))?,
            Insn::Pop { rd } => {
                let sp = self.cpu.sp();
                let v = self.mem.read_u64(sp)?;
                self.cpu.set_reg(rd, v);
                self.cpu.set_reg(Reg::SP, sp.wrapping_add(8));
            }
            Insn::Jmp { target } => return Ok(self.branch(CofiKind::DirectJmp, pc, target, false)),
            Insn::Jcc { cc, target } => {
                let taken = cc.eval(self.cpu.flags);
                let to = if taken { target } else { next };
                return Ok(self.branch(CofiKind::CondBranch, pc, to, taken));
            }
            Insn::JmpInd { rs } => {
                return Ok(self.branch(CofiKind::IndJmp, pc, self.cpu.reg(rs), false));
            }
            Insn::Call { target } => {
                self.push(next)?;
                return Ok(self.branch(CofiKind::DirectCall, pc, target, false));
            }
            Insn::CallInd { rs } => {
                let to = self.cpu.reg(rs);
                self.push(next)?;
                return Ok(self.branch(CofiKind::IndCall, pc, to, false));
            }
            Insn::Ret => {
                let sp = self.cpu.sp();
                let to = self.mem.read_u64(sp)?;
                self.cpu.set_reg(Reg::SP, sp.wrapping_add(8));
                return Ok(self.branch(CofiKind::Ret, pc, to, false));
            }
            Insn::Syscall => {
                // FUP + TIP.PGD: tracing pauses for the kernel.
                self.cofi_retired += 1;
                let (cost, cycles) = (&self.cost, &mut self.account.trace);
                self.trace.on_cofi(cost, cycles, CofiKind::FarTransfer, pc, 0, false, self.cr3);
                self.cpu.pc = next;
                return Ok(Flow::Syscall { pc });
            }
        }
        self.cpu.pc = next;
        Ok(Flow::Next { wrote_trace: false })
    }

    /// Pushes `v`. The store comes first, so a faulting push leaves `sp`
    /// as it was.
    #[inline(always)]
    fn push(&mut self, v: u64) -> Result<(), MemFault> {
        let sp = self.cpu.sp().wrapping_sub(8);
        self.mem.write_u64(sp, v)?;
        self.cpu.set_reg(Reg::SP, sp);
        Ok(())
    }

    /// Retires a CoFI from `from` to `to`: the trace unit, the coverage
    /// map and the branch log see it, and `pc` moves to `to`.
    #[inline(always)]
    fn branch(&mut self, kind: CofiKind, from: u64, to: u64, taken: bool) -> Flow {
        self.cofi_retired += 1;
        let cycles = &mut self.account.trace;
        let wrote_trace = self.trace.on_cofi(&self.cost, cycles, kind, from, to, taken, self.cr3);
        if let Some(cov) = &mut self.coverage {
            cov.record(to);
        }
        if let Some(log) = &mut self.branch_log {
            let taken = matches!(kind, CofiKind::CondBranch).then_some(taken);
            log.push(BranchEvent { from, to, kind, taken });
        }
        self.cpu.pc = to;
        Flow::Next { wrote_trace }
    }

    /// Hands the `syscall` retired at `pc` to the kernel. On resume, the
    /// trace unit sees the return to user mode (TIP.PGE) at the pc the
    /// kernel left (it may redirect it, e.g. `sigreturn`), and the branch
    /// log records that actual resume target — exactly what the flow
    /// decoder reconstructs from the PGE packet.
    fn syscall(&mut self, kernel: &mut dyn SyscallHandler, pc: u64) -> Option<StopReason> {
        // Terminating syscalls never resume: no PGE, no log entry (matching
        // the decoder's view of the trace).
        let stop = stop_for(self.callback(|ctx| kernel.syscall(ctx)));
        if stop.is_none() {
            let to = self.cpu.pc;
            self.trace.on_syscall_resume(&self.cost, &mut self.account.trace, to, self.cr3);
            if let Some(cov) = &mut self.coverage {
                cov.record(to);
            }
            if let Some(log) = &mut self.branch_log {
                log.push(BranchEvent { from: pc, to, kind: CofiKind::FarTransfer, taken: None });
            }
        }
        stop
    }

    /// Runs a kernel callback on this machine and charges the cycles it
    /// reports.
    fn callback<T>(&mut self, f: impl FnOnce(&mut SyscallCtx<'_>) -> T) -> T {
        let mut extra = CycleAccount::default();
        let out = f(&mut SyscallCtx {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            trace: &mut self.trace,
            cr3: self.cr3,
            extra_cycles: &mut extra,
        });
        self.account.absorb(&extra);
        out
    }
}

/// What an executed instruction leaves for [`Machine::run`] to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Execution continues at `cpu.pc`. `wrote_trace` is set when the
    /// instruction wrote trace bytes, which may have raised a PMI.
    Next { wrote_trace: bool },
    /// `halt` retired.
    Halt,
    /// The `syscall` at `pc` retired; the kernel handles it next.
    Syscall { pc: u64 },
}

/// The run's stop reason for a kernel outcome, if it ends the run.
fn stop_for(outcome: SysOutcome) -> Option<StopReason> {
    match outcome {
        SysOutcome::Continue => None,
        SysOutcome::Exit(code) => Some(StopReason::Exited(code)),
        SysOutcome::Kill(sig) => Some(StopReason::Killed(sig)),
    }
}

/// The flags a compare of `a` with `b` leaves: their signed ordering, -1,
/// 0 or 1. (A difference could overflow.)
fn signed_order(a: u64, b: i64) -> i64 {
    (a as i64).cmp(&b) as i64
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

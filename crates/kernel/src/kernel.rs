//! The simulated kernel: syscall dispatch, in-memory filesystem, signal
//! frames, and the interception hook the FlowGuard kernel module installs.
//!
//! "FlowGuard chooses to intercept these security-sensitive syscalls by
//! temporarily modifying the syscall table and installing one alternative
//! syscall handler for each of them" (§5.2) — modelled by the
//! [`SyscallInterceptor`] installed into the [`Kernel`]: the dispatch path
//! consults it before executing a sensitive syscall, and a
//! [`InterceptVerdict::Kill`] delivers SIGKILL to the process.

use crate::syscalls::{SensitiveSet, Sysno};
use fg_cpu::machine::{SysOutcome, SyscallCtx, SyscallHandler};
use std::collections::{HashMap, VecDeque};

/// SIGKILL, delivered on CFI violation.
pub const SIGKILL: u32 = 9;
/// SIGSYS, delivered on invalid syscall numbers.
pub const SIGSYS: u32 = 31;

/// Verdict of the FlowGuard kernel module for an intercepted syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterceptVerdict {
    /// Forward to the original handler.
    Allow,
    /// Kill the process with the given signal and report the violation.
    Kill(u32),
}

/// The interface of the runtime-protection kernel module (implemented by
/// `flowguard`'s engine).
pub trait SyscallInterceptor {
    /// Whether this process (by CR3) is protected.
    fn protects(&self, cr3: u64) -> bool;

    /// Whether the syscall is a configured endpoint.
    fn is_sensitive(&self, nr: Sysno) -> bool;

    /// Runs the flow check at an endpoint. `ctx` exposes the trace unit so
    /// the checker can read the ToPA buffer.
    fn check(&mut self, nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict;

    /// Runs at a trace-buffer PMI (the paper's worst-case fallback endpoint,
    /// §7.1.2). Default: allow.
    fn on_pmi(&mut self, _ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        InterceptVerdict::Allow
    }

    /// Runs at the machine's periodic trace-poll slot (see
    /// [`fg_cpu::machine::TRACE_POLL_PERIOD`]). The streaming consumer
    /// drains the ToPA residue here, concurrently with execution; it cannot
    /// render a verdict. Default: nothing.
    fn on_trace_poll(&mut self, _ctx: &mut SyscallCtx<'_>) {}
}

/// Number of u64 words in a signal frame: `pc` plus 16 registers.
pub const SIGFRAME_WORDS: usize = 17;

/// The simulated kernel state for one process.
pub struct Kernel {
    /// De-socketed input stream (fd 0) — the preeny/desock substitution:
    /// network programs read their requests from here.
    pub input: VecDeque<u8>,
    /// Collected output (fd 1 and any file writes).
    pub output: Vec<u8>,
    /// In-memory filesystem.
    pub files: HashMap<String, Vec<u8>>,
    /// Monotone clock returned by `gettimeofday`.
    pub time: u64,
    /// Process id returned by `getpid`.
    pub pid: u64,
    /// Log of `(syscall, pc-after-syscall)` pairs, for tests and evaluation.
    pub syscall_log: Vec<(Sysno, u64)>,
    /// Log of `execve` paths (attack-goal detection in the evaluation).
    pub execve_log: Vec<String>,
    /// Next anonymous-mapping address for `mmap`.
    next_mmap: u64,
    /// The installed FlowGuard kernel module, if any.
    interceptor: Option<Box<dyn SyscallInterceptor>>,
    /// Violations reported (endpoint syscall names).
    pub violations: Vec<&'static str>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("pid", &self.pid)
            .field("input_len", &self.input.len())
            .field("output_len", &self.output.len())
            .field("syscalls", &self.syscall_log.len())
            .field("protected", &self.interceptor.is_some())
            .finish()
    }
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

impl Kernel {
    /// Creates a kernel with empty input.
    pub fn new() -> Kernel {
        Kernel {
            input: VecDeque::new(),
            output: Vec::new(),
            files: HashMap::new(),
            time: 0,
            pid: 1,
            syscall_log: Vec::new(),
            execve_log: Vec::new(),
            next_mmap: 0x5000_0000,
            interceptor: None,
            violations: Vec::new(),
        }
    }

    /// Creates a kernel whose fd 0 serves `input`.
    pub fn with_input(input: &[u8]) -> Kernel {
        let mut k = Kernel::new();
        k.input.extend(input);
        k
    }

    /// Installs the FlowGuard kernel module ("enabled by a user-level
    /// software", §7).
    pub fn install_interceptor(&mut self, module: Box<dyn SyscallInterceptor>) {
        self.interceptor = Some(module);
    }

    /// Removes the kernel module, returning it (to read statistics).
    pub fn take_interceptor(&mut self) -> Option<Box<dyn SyscallInterceptor>> {
        self.interceptor.take()
    }

    /// Whether any CFI violation was reported.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    fn read_str(ctx: &SyscallCtx<'_>, ptr: u64, len: u64) -> Option<String> {
        let bytes = ctx.mem.read_bytes(ptr, len as usize).ok()?;
        String::from_utf8(bytes).ok()
    }
}

impl SyscallHandler for Kernel {
    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        // Acknowledge the interrupt, then give the kernel module a chance to
        // run its PMI-endpoint check.
        if let Some(u) = ctx.trace.as_ipt_mut() {
            u.topa_mut().take_pmi();
        }
        if let Some(mut module) = self.interceptor.take() {
            let verdict =
                if module.protects(ctx.cr3) { module.on_pmi(ctx) } else { InterceptVerdict::Allow };
            self.interceptor = Some(module);
            if let InterceptVerdict::Kill(sig) = verdict {
                self.violations.push("pmi");
                return SysOutcome::Kill(sig);
            }
        }
        SysOutcome::Continue
    }

    fn trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        // Not a check: no verdict and no violation accounting — this models
        // the background consumer's slice of CPU, not interception work.
        if let Some(mut module) = self.interceptor.take() {
            if module.protects(ctx.cr3) {
                module.on_trace_poll(ctx);
            }
            self.interceptor = Some(module);
        }
    }

    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        let nr_raw = ctx.cpu.regs[0];
        let Some(nr) = Sysno::from_u64(nr_raw) else {
            return SysOutcome::Kill(SIGSYS);
        };
        self.syscall_log.push((nr, ctx.cpu.pc));

        // --- FlowGuard interception (§5.2) ---------------------------------
        if let Some(mut module) = self.interceptor.take() {
            let verdict = if module.protects(ctx.cr3) && module.is_sensitive(nr) {
                module.check(nr, ctx)
            } else {
                InterceptVerdict::Allow
            };
            self.interceptor = Some(module);
            if let InterceptVerdict::Kill(sig) = verdict {
                self.violations.push(nr.name());
                return SysOutcome::Kill(sig);
            }
        }

        // --- original handlers --------------------------------------------
        let (a1, a2, a3) = (ctx.cpu.regs[1], ctx.cpu.regs[2], ctx.cpu.regs[3]);
        match nr {
            Sysno::Exit => return SysOutcome::Exit(a1 as i64),
            Sysno::Read => {
                let mut n = 0u64;
                for i in 0..a3 {
                    let Some(b) = self.input.pop_front() else { break };
                    if ctx.mem.write_u8(a2 + i, b).is_err() {
                        break;
                    }
                    n += 1;
                }
                ctx.cpu.regs[0] = n;
            }
            Sysno::Write => {
                match ctx.mem.read_bytes(a2, a3 as usize) {
                    Ok(bytes) => {
                        self.output.extend_from_slice(&bytes);
                        ctx.cpu.regs[0] = a3;
                    }
                    Err(_) => ctx.cpu.regs[0] = u64::MAX, // -EFAULT
                }
            }
            Sysno::Open => {
                let fd = match Kernel::read_str(ctx, a1, a2) {
                    Some(path) => {
                        self.files.entry(path).or_default();
                        3 + self.files.len() as u64
                    }
                    None => u64::MAX,
                };
                ctx.cpu.regs[0] = fd;
            }
            Sysno::Close | Sysno::Mprotect => ctx.cpu.regs[0] = 0,
            Sysno::Mmap => {
                // Page-rounded; a length whose rounding overflows, or a
                // range that is already taken, fails with MAP_FAILED.
                let va = self.next_mmap;
                let len = a2.max(1).checked_next_multiple_of(0x1000);
                match len.and_then(|len| usize::try_from(len).ok()) {
                    Some(len) if ctx.mem.map_anon(va, len).is_ok() => {
                        self.next_mmap = (va + len as u64).saturating_add(0x1000);
                        ctx.cpu.regs[0] = va;
                    }
                    _ => ctx.cpu.regs[0] = u64::MAX,
                }
            }
            Sysno::Execve => {
                if let Some(path) = Kernel::read_str(ctx, a1, a2) {
                    self.execve_log.push(path);
                }
                ctx.cpu.regs[0] = 0;
            }
            Sysno::Sigreturn => {
                // Restore the signal frame at sp: [pc, r0..r15].
                let sp = ctx.cpu.sp();
                let mut words = [0u64; SIGFRAME_WORDS];
                for (i, w) in words.iter_mut().enumerate() {
                    match ctx.mem.read_u64(sp + 8 * i as u64) {
                        Ok(v) => *w = v,
                        Err(_) => return SysOutcome::Kill(SIGKILL),
                    }
                }
                ctx.cpu.pc = words[0];
                ctx.cpu.regs.copy_from_slice(&words[1..]);
            }
            Sysno::Gettimeofday => {
                self.time += 1;
                ctx.cpu.regs[0] = self.time;
            }
            Sysno::Getpid => ctx.cpu.regs[0] = self.pid,
        }
        SysOutcome::Continue
    }
}

/// A convenience interceptor that kills on every sensitive syscall —
/// useful for tests of the interception plumbing.
#[derive(Debug)]
pub struct DenyAll {
    /// The endpoint set to deny.
    pub sensitive: SensitiveSet,
    /// The protected CR3.
    pub cr3: u64,
}

impl SyscallInterceptor for DenyAll {
    fn protects(&self, cr3: u64) -> bool {
        cr3 == self.cr3
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.sensitive.contains(nr)
    }

    fn check(&mut self, _nr: Sysno, _ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        InterceptVerdict::Kill(SIGKILL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cpu::machine::{Machine, StopReason};
    use fg_cpu::mem::HEAP_BASE;
    use fg_isa::asm::Asm;
    use fg_isa::image::{Image, Linker};
    use fg_isa::insn::regs::*;

    fn build(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        f(&mut a);
        Linker::new(a.finish().unwrap()).link().unwrap()
    }

    #[test]
    fn read_write_roundtrip() {
        // read 5 bytes from stdin to heap, write them back out.
        let img = build(|a| {
            a.movi(R0, Sysno::Read as i32);
            a.movi(R1, 0);
            a.movi(R2, HEAP_BASE as i32);
            a.movi(R3, 5);
            a.syscall();
            a.movi(R0, Sysno::Write as i32);
            a.movi(R1, 1);
            a.syscall();
            a.movi(R0, 0);
            a.movi(R1, 0);
            a.syscall();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::with_input(b"hello");
        assert_eq!(m.run(&mut k, 1000), StopReason::Exited(0));
        assert_eq!(k.output, b"hello");
        assert_eq!(k.syscall_log.len(), 3);
    }

    #[test]
    fn read_returns_count_and_eof() {
        let img = build(|a| {
            a.movi(R0, Sysno::Read as i32);
            a.movi(R1, 0);
            a.movi(R2, HEAP_BASE as i32);
            a.movi(R3, 100);
            a.syscall();
            a.mov(R10, R0); // first read: 3
            a.movi(R0, Sysno::Read as i32);
            a.movi(R3, 100);
            a.syscall();
            a.mov(R11, R0); // second read: 0 (EOF)
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::with_input(b"abc");
        assert_eq!(m.run(&mut k, 1000), StopReason::Halted);
        assert_eq!(m.cpu.regs[10], 3);
        assert_eq!(m.cpu.regs[11], 0);
    }

    #[test]
    fn mmap_maps_usable_memory() {
        let img = build(|a| {
            a.movi(R0, Sysno::Mmap as i32);
            a.movi(R1, 0);
            a.movi(R2, 4096);
            a.syscall();
            a.mov(R9, R0);
            a.movi(R5, 77);
            a.st(R5, R9, 0); // store into the new mapping
            a.ld(R6, R9, 0);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        assert_eq!(m.run(&mut k, 1000), StopReason::Halted);
        assert_eq!(m.cpu.regs[6], 77);
    }

    #[test]
    fn mmap_fails_cleanly_on_overlap_and_overflow() {
        // 512 MiB from the first mmap address runs into the heap; a length
        // of -1 overflows the page rounding. Both return MAP_FAILED and
        // leave the next mapping where it was.
        let img = build(|a| {
            a.movi(R0, Sysno::Mmap as i32);
            a.movi(R1, 0);
            a.movi(R2, 0x2000_0000);
            a.syscall();
            a.mov(R9, R0);
            a.movi(R0, Sysno::Mmap as i32);
            a.movi(R2, -1);
            a.syscall();
            a.mov(R10, R0);
            a.movi(R0, Sysno::Mmap as i32);
            a.movi(R2, 8192);
            a.syscall();
            a.mov(R11, R0);
            a.movi(R5, 77);
            a.st(R5, R11, 8184); // last word of the new mapping
            a.ld(R6, R11, 8184);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        assert_eq!(m.run(&mut k, 1000), StopReason::Halted);
        assert_eq!(m.cpu.regs[9], u64::MAX, "overlapping the heap");
        assert_eq!(m.cpu.regs[10], u64::MAX, "length overflows");
        assert_eq!(m.cpu.regs[11], 0x5000_0000, "failures leave next_mmap alone");
        assert_eq!(m.cpu.regs[6], 77);
    }

    #[test]
    fn a_large_mmap_materialises_nothing_until_written() {
        // 16 MiB: the mapping itself costs nothing; a store into its last
        // word materialises one page and reads back, and the untouched
        // middle reads zero.
        let img = build(|a| {
            a.movi(R0, Sysno::Mmap as i32);
            a.movi(R1, 0);
            a.movi(R2, 0x100_0000);
            a.syscall();
            a.mov(R9, R0);
            a.movi(R5, 77);
            a.st(R5, R9, 0xff_fff8);
            a.ld(R6, R9, 0xff_fff8);
            a.ld(R7, R9, 0x80_0000);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        let (mapped, materialised) = (m.mem.mapped_bytes(), m.mem.materialised_bytes());
        assert_eq!(m.run(&mut k, 5), StopReason::InsnLimit);
        assert_eq!(m.cpu.regs[9], 0x5000_0000);
        assert_eq!(m.mem.mapped_bytes(), mapped + 0x100_0000);
        assert_eq!(m.mem.materialised_bytes(), materialised);
        assert_eq!(m.run(&mut k, 1000), StopReason::Halted);
        assert_eq!((m.cpu.regs[6], m.cpu.regs[7]), (77, 0));
        assert_eq!(m.mem.materialised_bytes(), materialised + 0x1000);
    }

    #[test]
    fn a_length_past_the_end_of_the_address_space_faults() {
        // write(1, heap + 16, -1) and open(heap + 16, -1): the guest's
        // length runs past 2^64. Both fail cleanly, under either build
        // profile.
        let img = build(|a| {
            a.movi(R0, Sysno::Write as i32);
            a.movi(R1, 1);
            a.movi(R2, HEAP_BASE as i32 + 16);
            a.movi(R3, -1);
            a.syscall();
            a.mov(R9, R0);
            a.movi(R0, Sysno::Open as i32);
            a.movi(R1, HEAP_BASE as i32 + 16);
            a.movi(R2, -1);
            a.syscall();
            a.mov(R10, R0);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        assert_eq!(m.run(&mut k, 1000), StopReason::Halted);
        assert_eq!((m.cpu.regs[9], m.cpu.regs[10]), (u64::MAX, u64::MAX));
        assert!(k.output.is_empty());
    }

    #[test]
    fn sigreturn_restores_forged_frame() {
        // Push a frame redirecting pc to `target` with r5 = 0x42.
        let img = build(|a| {
            // Build frame on the stack: sp -= 17*8, fill.
            a.alui(fg_isa::insn::AluOp::Add, SP, -(8 * SIGFRAME_WORDS as i32));
            a.lea(R1, "target");
            a.st(R1, SP, 0); // pc
            a.movi(R2, 0x42);
            a.st(R2, SP, 8 * 6); // regs[5]
                                 // new sp must be sane: store current sp as regs[14].
            a.mov(R3, SP);
            a.st(R3, SP, 8 * 15);
            a.movi(R0, Sysno::Sigreturn as i32);
            a.syscall();
            a.halt(); // never reached
            a.label("target");
            a.mov(R10, R5);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        assert_eq!(m.run(&mut k, 1000), StopReason::Halted);
        assert_eq!(m.cpu.regs[10], 0x42, "context switched to forged frame");
    }

    #[test]
    fn invalid_syscall_kills() {
        let img = build(|a| {
            a.movi(R0, 999);
            a.syscall();
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        assert_eq!(m.run(&mut Kernel::new(), 100), StopReason::Killed(SIGSYS));
    }

    #[test]
    fn interceptor_kills_sensitive_syscall_for_protected_process() {
        let img = build(|a| {
            a.movi(R0, Sysno::Mprotect as i32);
            a.syscall();
            a.halt();
        });
        let mut m = Machine::new(&img, 0x7000);
        let mut k = Kernel::new();
        k.install_interceptor(Box::new(DenyAll {
            sensitive: SensitiveSet::patharmor_default(),
            cr3: 0x7000,
        }));
        assert_eq!(m.run(&mut k, 100), StopReason::Killed(SIGKILL));
        assert!(k.violated());
        assert_eq!(k.violations, vec!["mprotect"]);
    }

    #[test]
    fn interceptor_ignores_other_processes() {
        let img = build(|a| {
            a.movi(R0, Sysno::Mprotect as i32);
            a.syscall();
            a.halt();
        });
        let mut m = Machine::new(&img, 0x8000); // different CR3
        let mut k = Kernel::new();
        k.install_interceptor(Box::new(DenyAll {
            sensitive: SensitiveSet::patharmor_default(),
            cr3: 0x7000,
        }));
        assert_eq!(m.run(&mut k, 100), StopReason::Halted);
        assert!(!k.violated());
    }

    #[test]
    fn interceptor_ignores_non_sensitive_syscalls() {
        let img = build(|a| {
            a.movi(R0, Sysno::Gettimeofday as i32);
            a.syscall();
            a.halt();
        });
        let mut m = Machine::new(&img, 0x7000);
        let mut k = Kernel::new();
        k.install_interceptor(Box::new(DenyAll {
            sensitive: SensitiveSet::patharmor_default(),
            cr3: 0x7000,
        }));
        assert_eq!(m.run(&mut k, 100), StopReason::Halted);
    }

    #[test]
    fn execve_logged() {
        let img = build(|a| {
            a.lea(R1, "path");
            a.movi(R2, 7);
            a.movi(R0, Sysno::Execve as i32);
            a.syscall();
            a.halt();
            a.data_bytes("path", b"/bin/sh");
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        assert_eq!(m.run(&mut k, 100), StopReason::Halted);
        assert_eq!(k.execve_log, vec!["/bin/sh".to_string()]);
    }

    #[test]
    fn gettimeofday_monotonic() {
        let img = build(|a| {
            a.movi(R0, Sysno::Gettimeofday as i32);
            a.syscall();
            a.mov(R9, R0);
            a.movi(R0, Sysno::Gettimeofday as i32);
            a.syscall();
            a.mov(R10, R0);
            a.halt();
        });
        let mut m = Machine::new(&img, 0x1000);
        let mut k = Kernel::new();
        m.run(&mut k, 100);
        assert!(m.cpu.regs[10] > m.cpu.regs[9]);
    }
}

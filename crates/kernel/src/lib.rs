//! # fg-kernel — the simulated OS substrate
//!
//! FlowGuard's runtime protection lives in a kernel module (§5): it
//! configures IPT per core, intercepts security-sensitive syscalls, runs the
//! flow check, and SIGKILLs violating processes. This crate provides the OS
//! side of that contract:
//!
//! * [`syscalls`] — the syscall ABI and the PathArmor-style sensitive set;
//! * [`kernel`] — the [`kernel::Kernel`] syscall handler (de-socketed I/O,
//!   in-memory filesystem, `sigreturn` signal frames, `mmap`) and the
//!   [`kernel::SyscallInterceptor`] hook the FlowGuard engine installs.
//!
//! Input is served from an in-memory stream rather than a socket — the
//! reproduction's equivalent of the paper's preeny/`desock` trick for
//! fuzzing network servers (§7).

#![deny(unsafe_code)]

pub mod kernel;
pub mod syscalls;

pub use kernel::{
    DenyAll, InterceptVerdict, Kernel, SyscallInterceptor, SIGFRAME_WORDS, SIGKILL, SIGSYS,
};
pub use syscalls::{SensitiveSet, Sysno};

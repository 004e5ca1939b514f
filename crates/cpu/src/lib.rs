//! # fg-cpu — the simulated core: interpreter + hardware trace units
//!
//! Executes programs built with [`fg_isa`] and attaches the three hardware
//! control-flow tracing mechanisms the paper compares (Table 1):
//!
//! * [`trace::IptUnit`] — Intel Processor Trace (packet compression via
//!   `fg-ipt`, ToPA output, MSR-controlled CR3/CPL filtering);
//! * [`trace::BtsUnit`] — Branch Trace Store (full records, ~50× overhead);
//! * [`trace::LbrUnit`] — Last Branch Record (16/32-entry stack, cheap but
//!   short-sighted).
//!
//! The [`machine::Machine`] also hosts the AFL-style coverage hook
//! ([`coverage::CoverageMap`]) used by the fuzzing/training phase, and the
//! calibrated [`cost::CostModel`] that converts hardware events into
//! simulated cycles so the paper's overhead tables can be regenerated.

#![deny(unsafe_code)]

pub mod cost;
pub mod coverage;
pub mod machine;
pub mod mem;
pub mod trace;

pub use cost::{CostModel, CycleAccount};
pub use coverage::{CoverageMap, VirginMap};
pub use machine::{
    Cpu, Machine, NullKernel, StopReason, SysOutcome, SyscallCtx, SyscallHandler, TRACE_POLL_PERIOD,
};
pub use mem::{AddressSpace, MapError, MemFault};
pub use trace::{BtsRecord, BtsUnit, IptUnit, LbrFilter, LbrUnit, MultiIptUnit, TraceUnit};

//! # flowguard — transparent and efficient CFI enforcement with (simulated)
//! Intel Processor Trace
//!
//! A reproduction of *FlowGuard* (Liu et al., HPCA 2017). FlowGuard enforces
//! control-flow integrity on unmodified binaries by reusing Intel Processor
//! Trace: the offline phase reconstructs a conservative CFG into the
//! IPT-compatible **ITC-CFG** and labels its edges with credits via
//! coverage-oriented fuzzing; the online phase intercepts security-sensitive
//! syscalls and checks the trace buffer against the labeled graph — a
//! **fast path** that never touches the binary, and a rare, precise **slow
//! path** with full flow reconstruction, TypeArmor forward edges, and a
//! shadow stack.
//!
//! Modules, following the paper's structure:
//!
//! * [`config`] — `pkt_count`, `cred_ratio`, endpoints (§5.2, §7.1.1);
//! * [`fastpath`] — credit-labeled ITC-CFG matching (§5.3 "fast path");
//! * [`slowpath`] — instruction-flow decoding + fine-grained policy (§5.3
//!   "slow path");
//! * [`shadow`] — the slow path's shadow stack;
//! * [`engine`] — the kernel-module interceptor with slow-path result
//!   caching (§5.2, §7.1.1);
//! * [`reference`](mod@reference) — the cold tail-window scan, kept as the oracle the
//!   engine's trace consumer is measured against;
//! * [`deploy`] — the end-to-end pipeline (Figure 1's steps ①–⑤);
//! * [`baselines`] — kBouncer-style (LBR) and CFIMon-style (BTS) baseline
//!   detectors from the related-work lineage (§8.2);
//! * [`telemetry`] — runtime telemetry as plain data behind one lock
//!   (counters, latency histograms, a per-check event ring), the per-phase
//!   span profiler, the health watchdog, and the violation flight recorder,
//!   read through one [`TelemetrySnapshot`] type.
//!
//! # Examples
//!
//! Protect a workload end to end:
//!
//! ```
//! use flowguard::{Deployment, FlowGuardConfig};
//!
//! let app = fg_workloads::nginx_patched();
//! let mut deployment = Deployment::analyze(&app.image);
//! deployment.train(&[app.default_input.clone()]);
//! let mut process = deployment.launch(&app.default_input, FlowGuardConfig::default());
//! let stop = process.run(50_000_000);
//! assert!(!process.violated());
//! # let _ = stop;
//! ```

#![deny(unsafe_code)]

pub mod baselines;
pub mod config;
pub mod deploy;
pub mod engine;
pub mod fastpath;
pub mod fleet;
pub mod pool;
pub mod reference;
pub mod shadow;
pub mod slowpath;
pub mod telemetry;

pub use baselines::{CfimonLike, KBouncerLike};
pub use config::{ConfigError, FlowGuardConfig};
pub use deploy::{ArtifactError, Deployment, ProtectedProcess, DEFAULT_CR3};
pub use engine::FlowGuardEngine;
pub use fastpath::{CheckScratch, FastPathResult, FastVerdict, SlowPathCache, Violation};
pub use fleet::{
    ArtifactCache, ArtifactCacheStats, FleetConfig, FleetMember, FleetSnapshot, FleetSupervisor,
};
pub use pool::WorkerPool;
pub use shadow::{ShadowOutcome, ShadowStack};
pub use slowpath::{SlowPathResult, SlowScratch, SlowVerdict, SlowViolation};
pub use telemetry::{
    CheckEvent, CheckVerdict, EngineTelemetry, TelemetrySnapshot, ViolationRecord,
};

// Observability-plane types shared with `fg-trace`.
pub use fg_trace::{FlightRecord, HealthReport, HealthStatus, PhaseSpan, SpanSnapshot};

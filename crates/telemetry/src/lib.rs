//! `fg-trace` — structured runtime telemetry for the FlowGuard suite.
//!
//! Every recorder here is plain data written through `&mut self`: the
//! engine that owns them is the only writer, so a record is a few field
//! updates. A shared owner provides its own synchronisation (`flowguard`'s
//! `EngineTelemetry` keeps them behind one lock).
//!
//! * [`Histogram`] — fixed-size log-linear latency histograms with bounded
//!   quantile error and exact bucket-wise merge ([`hist`]).
//! * [`EventRing`] — a bounded ring with overwrite-oldest semantics that
//!   allocates its capacity up front ([`ring`]).
//! * [`FlightRecorder`] — serialisable forensic capture of CFI violations
//!   ([`flight`]).
//! * [`PromText`] — linted Prometheus/OpenMetrics text rendering with
//!   mergeable cumulative-bucket histograms ([`export`]).
//! * [`SpanProfiler`] — per-phase cycle attribution over the check
//!   pipeline, with measured self-overhead ([`span`]).
//!
//! The crate is deliberately engine-agnostic: `flowguard` defines what an
//! event *is* and its one snapshot type (`TelemetrySnapshot`); `fg-trace`
//! defines how it is kept.

#![deny(unsafe_code)]

pub mod export;
pub mod flight;
pub mod hist;
pub mod ring;
pub mod span;

pub use export::PromText;
pub use flight::{FlightRecord, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS, SUB_BUCKETS};
pub use ring::EventRing;
pub use span::{PhaseSpan, ProfilerOverhead, SpanProfiler, SpanSnapshot, PHASE_COUNT};

//! # fg-fuzz — coverage-oriented fuzzing and ITC-CFG training
//!
//! The dynamic half of FlowGuard's offline phase (§4.3):
//!
//! 1. [`mutate`] — AFL's deterministic and havoc mutation strategies;
//! 2. [`fuzzer`] — the coverage-guided campaign, running targets in the
//!    `fg-cpu` emulator with the AFL bitmap (the "QEMU user emulation mode"
//!    substitution), input served from the de-socketed stream;
//! 3. [`train`](mod@train) — replaying the discovered corpus under real IPT tracing and
//!    labeling ITC-CFG edges with high credits and TNT signatures.
//!
//! "The security of FlowGuard does not rely on the path coverage, though a
//! higher coverage usually leads to better performance" — the trainer only
//! raises credits; unlabeled edges stay low-credit and route to the slow
//! path.

#![deny(unsafe_code)]

pub mod fuzzer;
pub mod mutate;
pub mod train;

pub use fuzzer::{FuzzConfig, Fuzzer, QueueEntry, Snapshot};
pub use train::{train, TrainConfig, TrainStats};

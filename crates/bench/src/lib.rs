//! # fg-bench — the harness regenerating every table and figure of the paper
//!
//! Shared measurement infrastructure for the `table*`, `fig5*`, `sec2_*`,
//! `micro_*`, `param_sweep`, `hw_extensions`, and `attacks_eval` binaries.
//! Each binary prints the corresponding table/series of the HPCA 2017
//! FlowGuard paper; `run_all` chains them and is what `EXPERIMENTS.md`
//! records. `bench_gate` runs the implementation benches against the
//! [`gate`] table.

#![deny(unsafe_code)]

pub mod experiments;
pub mod gate;
pub mod measure;
pub mod table;

pub use measure::{
    geomean, run_baseline, run_protected, run_traced, trained_deployment, Mechanism,
    ProtectedMetrics, RunMetrics,
};
pub use table::Table;

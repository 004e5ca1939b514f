//! # fg-workloads — the evaluation applications
//!
//! Synthetic programs reproducing the control-flow shapes of the paper's
//! evaluation population (§7):
//!
//! * [`servers`](mod@servers) — nginx / vsftpd / OpenSSH / exim alikes: request parsing,
//!   function-pointer handler dispatch, shared libraries, VDSO use, and (in
//!   the nginx-alike) the implanted stack-overflow vulnerability of §7.1.2;
//! * [`utils`] — `tar`, `dd`, `make`, `scp` one-shot utilities (Figure 5b);
//! * [`spec`] — the 12 SPECCPU-2006 C-benchmark profiles (Figure 5c),
//!   including the `h264ref` indirect-call outlier;
//! * [`libc`] — the shared library (with the `pop rN; ret` gadget material
//!   real libcs provide) and the VDSO module.

#![deny(unsafe_code)]

pub mod libc;
pub mod servers;
pub mod spec;
pub mod utils;

use fg_isa::image::Image;

/// The kind of workload, mirroring the paper's three evaluation categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Long-running request-serving daemons (Figure 5a).
    Server,
    /// Execute-once Linux utilities (Figure 5b).
    Utility,
    /// CPU-intensive SPEC profiles (Figure 5c).
    Spec,
}

/// A linked evaluation program plus a representative benign input.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name (matches the paper's tables).
    pub name: String,
    /// The linked image.
    pub image: Image,
    /// Benign input served on fd 0.
    pub default_input: Vec<u8>,
    /// Evaluation category.
    pub category: Category,
}

pub use servers::{
    benign_input, build_server, exim, load_input, nginx, nginx_patched, openssh, request, servers,
    vsftpd, ServerParams,
};
pub use spec::{spec_by_name, spec_program, spec_suite, SpecParams, SPEC_TABLE};
pub use utils::{dd, make, scp, tar, utilities};

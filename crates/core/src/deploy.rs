//! High-level deployment API: the full FlowGuard pipeline in three calls.
//!
//! ```text
//! Deployment::analyze(&image)      // ① static analysis → O-CFG, ITC-CFG
//!     .train(&corpus)              // ② fuzzing-derived credit labeling
//!     .launch(&input)              // ③④⑤ traced, intercepted execution
//! ```

use crate::config::FlowGuardConfig;
use crate::engine::FlowGuardEngine;
use crate::telemetry::EngineTelemetry;
use fg_cfg::{EntryBitset, ItcCfg, OCfg};
use fg_cpu::machine::{Machine, StopReason};
use fg_cpu::trace::{IptUnit, TraceUnit};
use fg_fuzz::{train, FuzzConfig, Fuzzer, TrainConfig, TrainStats};
use fg_ipt::topa::Topa;
use fg_isa::image::Image;
use fg_kernel::Kernel;
use std::sync::Arc;

/// Default CR3 assigned to protected processes.
pub const DEFAULT_CR3: u64 = 0x4000;

/// Errors saving/loading deployment artifacts.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed artifact file.
    Format(serde_json::Error),
    /// Syntactically valid but semantically inconsistent artifact: the
    /// static verifier found error-severity rule violations.
    Invalid(fg_verify::Report),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::Format(e) => write!(f, "artifact format error: {e}"),
            ArtifactError::Invalid(report) => {
                write!(f, "artifact failed verification: {report}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Format(e) => Some(e),
            ArtifactError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

impl From<serde_json::Error> for ArtifactError {
    fn from(e: serde_json::Error) -> ArtifactError {
        ArtifactError::Format(e)
    }
}

/// The serialisable form of a deployment.
#[derive(serde::Serialize, serde::Deserialize)]
struct Artifact {
    image: Image,
    ocfg: OCfg,
    itc: ItcCfg,
    train_stats: Option<TrainStats>,
    #[serde(default)]
    entry_bitset: Option<EntryBitset>,
    #[serde(default)]
    pruned_itc: Option<ItcCfg>,
}

/// An analysed (and optionally trained) protection artifact for one binary.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The protected image.
    pub image: Image,
    /// The conservative O-CFG (slow-path policy).
    pub ocfg: Arc<OCfg>,
    /// The credit-labeled ITC-CFG (fast-path structure).
    pub itc: ItcCfg,
    /// Statistics of the last training run.
    pub train_stats: Option<TrainStats>,
    /// Tier-0 policy: the dense valid-entry-point bitset extracted from the
    /// ITC node set (probed by the fast path ahead of the edge lookup).
    pub entry_bitset: Option<EntryBitset>,
    /// Reachability-pruned ITC-CFG variant emitted by the audit pass
    /// (`fg-audit`), when one was attached. Carried for cross-artifact
    /// verification; the engine enforces the full graph.
    pub pruned_itc: Option<ItcCfg>,
}

impl Deployment {
    /// Step ① — static analysis: builds the O-CFG and reconstructs the
    /// ITC-CFG.
    pub fn analyze(image: &Image) -> Deployment {
        let ocfg = OCfg::build(image);
        let itc = ItcCfg::build(&ocfg);
        let entry_bitset = Some(EntryBitset::from_itc(image, &itc));
        Deployment {
            image: image.clone(),
            ocfg: Arc::new(ocfg),
            itc,
            train_stats: None,
            entry_bitset,
            pruned_itc: None,
        }
    }

    /// Step ② — labels ITC edges from a replay corpus (see
    /// [`Deployment::fuzz_train`] to generate one).
    pub fn train(&mut self, corpus: &[Vec<u8>]) -> TrainStats {
        let stats = train(&mut self.itc, &self.image, corpus, TrainConfig::default());
        self.train_stats = Some(stats);
        stats
    }

    /// Step ② with corpus discovery: runs a coverage-oriented fuzzing
    /// campaign from `seeds` for `execs` target executions, then trains on
    /// the discovered corpus. Returns the training stats and the fuzzer's
    /// progress history (the Figure 5d curve).
    pub fn fuzz_train(
        &mut self,
        seeds: Vec<Vec<u8>>,
        execs: u64,
        fuzz_cfg: FuzzConfig,
    ) -> (TrainStats, Vec<fg_fuzz::Snapshot>) {
        let (corpus, history) = {
            let mut fuzzer = Fuzzer::new(&self.image, seeds, fuzz_cfg);
            fuzzer.run(execs);
            (fuzzer.corpus(), fuzzer.history.clone())
        };
        let stats = self.train(&corpus);
        (stats, history)
    }

    /// Serialises the analysed-and-trained artifact to a file — "before the
    /// distribution of the protected software, the static CFG generation and
    /// dynamic training are securely conducted" (§3.3): this is the artifact
    /// that ships alongside the binary.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on I/O or serialisation failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ArtifactError> {
        let artifact = Artifact {
            image: self.image.clone(),
            ocfg: (*self.ocfg).clone(),
            itc: self.itc.clone(),
            train_stats: self.train_stats,
            entry_bitset: self.entry_bitset.clone(),
            pruned_itc: self.pruned_itc.clone(),
        };
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), &artifact)?;
        Ok(())
    }

    /// Loads a previously [`Deployment::save`]d artifact and verifies it:
    /// an artifact the static checker rejects never reaches the engine.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on I/O or deserialisation failure, and
    /// [`ArtifactError::Invalid`] with the full diagnostic list when the
    /// artifact parses but fails verification.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Deployment, ArtifactError> {
        let d = Self::load_unchecked(path)?;
        let report = d.verify();
        if report.has_errors() {
            return Err(ArtifactError::Invalid(report));
        }
        Ok(d)
    }

    /// Loads an artifact without running the verifier. Only for tooling
    /// that wants to inspect a rejected artifact; the engine should go
    /// through [`Deployment::load`].
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on I/O or deserialisation failure.
    pub fn load_unchecked(path: impl AsRef<std::path::Path>) -> Result<Deployment, ArtifactError> {
        let file = std::fs::File::open(path)?;
        let artifact: Artifact = serde_json::from_reader(std::io::BufReader::new(file))?;
        Ok(Deployment {
            image: artifact.image,
            ocfg: Arc::new(artifact.ocfg),
            itc: artifact.itc,
            train_stats: artifact.train_stats,
            entry_bitset: artifact.entry_bitset,
            pruned_itc: artifact.pruned_itc,
        })
    }

    /// Runs the `fg-verify` rule catalogue over this deployment, including
    /// the `FG-X*` cross-artifact rules for whichever derived artifacts
    /// (tier-0 bitset, pruned graph) it ships.
    pub fn verify(&self) -> fg_verify::Report {
        fg_verify::verify_deployment(
            &self.image,
            &self.ocfg,
            &self.itc,
            self.entry_bitset.as_ref(),
            self.pruned_itc.as_ref(),
        )
    }

    /// Builds the runtime engine for a process with the given CR3.
    pub fn engine(
        &self,
        cfg: FlowGuardConfig,
        cr3: u64,
    ) -> (FlowGuardEngine, Arc<EngineTelemetry>) {
        let mut engine = FlowGuardEngine::new(
            self.image.clone(),
            Arc::clone(&self.ocfg),
            self.itc.clone(),
            cfg,
            cr3,
        );
        engine.set_tier0(self.entry_bitset.clone());
        let stats = engine.stats_handle();
        (engine, stats)
    }

    /// Steps ③–⑤ — launches a protected process: IPT configured and
    /// CR3-filtered, the kernel module installed, input on fd 0.
    pub fn launch(&self, input: &[u8], cfg: FlowGuardConfig) -> ProtectedProcess {
        self.launch_with(input, cfg, fg_cpu::CostModel::calibrated(), DEFAULT_CR3)
    }

    /// [`Deployment::launch`] with an explicit cost model (the §7.2.4
    /// hardware-extension ablations zero individual cost terms) and page
    /// table: fleet members each run under their own CR3.
    pub fn launch_with(
        &self,
        input: &[u8],
        cfg: FlowGuardConfig,
        cost: fg_cpu::CostModel,
        cr3: u64,
    ) -> ProtectedProcess {
        let (mut engine, stats) = self.engine(cfg.clone(), cr3);
        engine.set_cost_model(cost);
        let mut machine = Machine::new(&self.image, cr3);
        machine.cost = cost;
        let mut unit = IptUnit::flowguard(
            cr3,
            Topa::two_regions(cfg.topa_region_bytes).expect("valid ToPA size"),
        );
        unit.start(self.image.entry(), cr3);
        machine.trace = TraceUnit::Ipt(unit);
        let mut kernel = Kernel::with_input(input);
        kernel.install_interceptor(Box::new(engine));
        ProtectedProcess { machine, kernel, stats }
    }
}

/// A running protected process.
#[derive(Debug)]
pub struct ProtectedProcess {
    /// The traced machine.
    pub machine: Machine,
    /// The kernel with the FlowGuard module installed.
    pub kernel: Kernel,
    /// Shared engine telemetry (snapshot via
    /// [`EngineTelemetry::telemetry_snapshot`]).
    pub stats: Arc<EngineTelemetry>,
}

impl ProtectedProcess {
    /// Runs to completion (or the instruction budget).
    pub fn run(&mut self, max_insns: u64) -> StopReason {
        self.machine.run(&mut self.kernel, max_insns)
    }

    /// Whether a CFI violation was detected.
    pub fn violated(&self) -> bool {
        self.kernel.violated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_protects_benign_run() {
        let w = fg_workloads::nginx_patched();
        let mut d = Deployment::analyze(&w.image);
        let stats = d.train(std::slice::from_ref(&w.default_input));
        assert!(stats.edges_labeled > 0);
        let mut p = d.launch(&w.default_input, FlowGuardConfig::default());
        assert_eq!(p.run(50_000_000), StopReason::Exited(0));
        assert!(!p.violated());
        assert!(p.stats.checks() > 0);
    }

    #[test]
    fn artifact_roundtrip_preserves_protection() {
        let w = fg_workloads::vsftpd();
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        let path = std::env::temp_dir().join("fg_artifact_test.json");
        d.save(&path).expect("save");
        let d2 = Deployment::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(d2.itc.node_count(), d.itc.node_count());
        assert_eq!(d2.itc.edge_count(), d.itc.edge_count());
        assert_eq!(d2.itc.high_credit_fraction(), d.itc.high_credit_fraction());
        assert_eq!(d2.train_stats, d.train_stats);
        // The reloaded artifact still protects.
        let mut p = d2.launch(&w.default_input, FlowGuardConfig::default());
        assert_eq!(p.run(500_000_000), StopReason::Exited(0));
        assert!(!p.violated());
    }

    #[test]
    fn load_rejects_inconsistent_artifact() {
        // A parseable artifact with a truncated credit table must be
        // rejected by the verifying load with the diagnostic list, while
        // the unchecked load still parses it for inspection.
        let w = fg_workloads::nginx_patched();
        let mut d = Deployment::analyze(&w.image);
        let v = d.itc.raw_view();
        let (nodes, ranges, targets, mut credits, tnt) = (
            v.node_addrs.to_vec(),
            v.ranges.to_vec(),
            v.targets.to_vec(),
            v.credits.to_vec(),
            v.tnt.to_vec(),
        );
        credits.pop().expect("artifact has edges");
        d.itc = fg_cfg::ItcCfg::from_raw_parts(nodes, ranges, targets, credits, tnt);
        let path = std::env::temp_dir().join("fg_artifact_inconsistent.json");
        d.save(&path).expect("save");
        let err = Deployment::load(&path).unwrap_err();
        let ArtifactError::Invalid(report) = &err else {
            panic!("expected Invalid, got {err}");
        };
        assert!(report.contains(fg_verify::Rule::LabelArity), "{report}");
        assert!(Deployment::load_unchecked(&path).is_ok(), "unchecked load still parses");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn honest_deployment_verifies_clean() {
        let w = fg_workloads::vsftpd();
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        let report = d.verify();
        assert!(!report.has_errors(), "honest trained artifact must pass:\n{report}");
    }

    #[test]
    fn artifact_load_rejects_garbage() {
        let path = std::env::temp_dir().join("fg_artifact_garbage.json");
        std::fs::write(&path, b"not an artifact").expect("write");
        let err = Deployment::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, super::ArtifactError::Format(_)));
        assert!(err.to_string().contains("format"));
    }

    #[test]
    fn fuzz_train_produces_history() {
        let w = fg_workloads::nginx_patched();
        let mut d = Deployment::analyze(&w.image);
        let seeds = vec![fg_workloads::request(0, b"seed")];
        let (stats, history) = d.fuzz_train(seeds, 200, FuzzConfig::default());
        assert!(stats.inputs >= 1);
        assert!(!history.is_empty());
        assert!(d.itc.high_credit_fraction() > 0.0);
    }
}

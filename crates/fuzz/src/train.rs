//! Training-phase step 3 (§4.3): replay the fuzzing corpus on the "real
//! hardware" (the IPT-tracing machine), and label ITC-CFG edges.
//!
//! "FlowGuard collects the test cases generated in step 2, uses them as
//! inputs to feed the trained application running on the real hardware,
//! leverages IPT to trace its execution flow, and finally labels the edges
//! in ITC-CFG with high credits based on these traced data" — plus the TNT
//! association that repairs the Figure 4 AIA derogation.

use fg_cfg::ItcCfg;
use fg_cpu::machine::Machine;
use fg_cpu::trace::{IptUnit, TraceUnit};
use fg_ipt::fast;
use fg_ipt::topa::Topa;
use fg_isa::image::Image;
use serde::{Deserialize, Serialize};

/// Statistics from a training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// Inputs replayed.
    pub inputs: usize,
    /// Consecutive-TIP pairs observed.
    pub pairs: u64,
    /// Distinct ITC edges raised to high credit.
    pub edges_labeled: usize,
    /// TIP pairs that were *not* ITC edges (must stay 0 — the §4.2
    /// soundness theorem).
    pub unmatched_pairs: u64,
    /// Resulting high-credit fraction of the ITC-CFG.
    pub cred_fraction: f64,
}

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// CR3 assigned to the replayed process.
    pub cr3: u64,
    /// ToPA region size (large, to avoid wrap during replay).
    pub topa_region: usize,
    /// Instruction budget per input.
    pub insn_budget: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig { cr3: 0x4000, topa_region: 1 << 22, insn_budget: 500_000_000 }
    }
}

/// Replays `corpus` against `image`, labeling `itc` edges with high credits
/// and TNT signatures.
pub fn train(itc: &mut ItcCfg, image: &Image, corpus: &[Vec<u8>], cfg: TrainConfig) -> TrainStats {
    let mut stats = TrainStats { inputs: corpus.len(), ..Default::default() };
    let mut labeled = std::collections::BTreeSet::new();

    for input in corpus {
        let mut m = Machine::new(image, cfg.cr3);
        let mut unit =
            IptUnit::flowguard(cfg.cr3, Topa::two_regions(cfg.topa_region).expect("topa"));
        unit.start(image.entry(), cfg.cr3);
        m.trace = TraceUnit::Ipt(unit);
        let mut kernel = fg_kernel::Kernel::with_input(input);
        let _ = m.run(&mut kernel, cfg.insn_budget);
        let ipt = m.trace.as_ipt_mut().expect("ipt unit");
        ipt.flush();
        // Scanned in place from the ToPA's regions, like the engine's drains.
        let segs: Vec<&[u8]> = ipt.trace_segments().collect();
        let Ok(scan) = fast::scan_vectorized_segments(&segs) else { continue };
        let mut prev_edge: Option<fg_cfg::EdgeIdx> = None;
        let tips = scan.tip_ips();
        for i in 0..tips.len().saturating_sub(1) {
            stats.pairs += 1;
            match itc.edge(tips[i], tips[i + 1]) {
                Some(e) => {
                    itc.set_high(e);
                    itc.add_tnt(e, &scan.tnt_vec(i + 1));
                    if let Some(p) = prev_edge {
                        itc.add_path_gram(p, e);
                    }
                    prev_edge = Some(e);
                    labeled.insert(e);
                }
                None => {
                    stats.unmatched_pairs += 1;
                    prev_edge = None;
                }
            }
        }
    }
    stats.edges_labeled = labeled.len();
    stats.cred_fraction = itc.high_credit_fraction();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cfg::{Credit, OCfg};

    #[test]
    fn training_labels_exercised_edges_only() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let mut itc = ItcCfg::build(&ocfg);
        let corpus = vec![w.default_input.clone()];
        let stats = train(&mut itc, &w.image, &corpus, TrainConfig::default());
        assert!(stats.pairs > 10, "benign run produces many TIP pairs");
        assert_eq!(stats.unmatched_pairs, 0, "soundness: every runtime TIP pair is an ITC edge");
        assert!(stats.edges_labeled > 0);
        assert!(stats.cred_fraction > 0.0 && stats.cred_fraction < 1.0);
        // Some edge is high, some low.
        let mut high = 0;
        let mut low = 0;
        for (_, _, e) in itc.iter_edges() {
            match itc.credit(e) {
                Credit::High => high += 1,
                Credit::Low => low += 1,
            }
        }
        assert!(high > 0 && low > 0);
    }

    #[test]
    fn training_attaches_tnt_signatures() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let mut itc = ItcCfg::build(&ocfg);
        train(&mut itc, &w.image, std::slice::from_ref(&w.default_input), TrainConfig::default());
        let trained_tnt = itc.iter_edges().filter(|&(_, _, e)| itc.tnt(e).is_trained()).count();
        assert!(trained_tnt > 0, "edges should carry TNT info after training");
    }

    #[test]
    fn more_corpus_more_coverage() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);

        let mut itc_small = ItcCfg::build(&ocfg);
        let small = vec![fg_workloads::request(0, b"a")];
        let s1 = train(&mut itc_small, &w.image, &small, TrainConfig::default());

        let mut itc_big = ItcCfg::build(&ocfg);
        let big: Vec<Vec<u8>> = (0u8..4)
            .map(|c| {
                let mut v = fg_workloads::request(c, b"abcdef");
                v.extend(fg_workloads::request((c + 1) % 4, b"xyz"));
                v
            })
            .collect();
        let s2 = train(&mut itc_big, &w.image, &big, TrainConfig::default());
        assert!(
            s2.edges_labeled > s1.edges_labeled,
            "wider corpus labels more edges ({} vs {})",
            s2.edges_labeled,
            s1.edges_labeled
        );
    }
}

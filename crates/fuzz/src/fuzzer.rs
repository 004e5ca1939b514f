//! The coverage-oriented fuzzer (§4.3, steps 1–2).
//!
//! "The trained application runs in QEMU with the instrumentation logics on
//! top of it … test cases in the queue are fetched one by one, and mutated
//! … if any mutated test case results in a new state transition as observed
//! by the QEMU, it will be added to the queue." The emulator here is
//! `fg-cpu` with its AFL bitmap instrumentation; the input channel is the
//! kernel's de-socketed fd 0 (the preeny substitution for network servers).

use crate::mutate;
use fg_cpu::coverage::VirginMap;
use fg_cpu::machine::Machine;
use fg_isa::image::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A corpus entry.
#[derive(Debug, Clone)]
pub struct QueueEntry {
    /// The input bytes.
    pub input: Vec<u8>,
    /// Whether the deterministic stage already ran for this entry.
    pub det_done: bool,
    /// Execution number at which the entry was discovered.
    pub found_at: u64,
}

/// Progress snapshot (drives the Figure 5d curve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Total target executions so far ("training time").
    pub execs: u64,
    /// Queue size (distinct coverage-increasing paths).
    pub paths: usize,
    /// Crashing inputs found.
    pub crashes: usize,
}

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// RNG seed (campaigns are deterministic given a seed).
    pub seed: u64,
    /// Maximum input length.
    pub max_len: usize,
    /// Havoc mutations per queue cycle entry.
    pub havoc_per_entry: usize,
    /// Per-execution instruction budget.
    pub insn_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { seed: 0x1, max_len: 256, havoc_per_entry: 32, insn_budget: 2_000_000 }
    }
}

/// The campaign state.
pub struct Fuzzer<'a> {
    image: &'a Image,
    cfg: FuzzConfig,
    rng: StdRng,
    virgin: VirginMap,
    /// The corpus queue.
    pub queue: Vec<QueueEntry>,
    /// Crashing inputs (stack smashes the coverage run detects as faults).
    pub crashes: Vec<Vec<u8>>,
    /// Total executions performed.
    pub execs: u64,
    /// Snapshots taken after every queue cycle.
    pub history: Vec<Snapshot>,
}

impl<'a> Fuzzer<'a> {
    /// Creates a fuzzer for `image` with initial seed inputs.
    pub fn new(image: &'a Image, seeds: Vec<Vec<u8>>, cfg: FuzzConfig) -> Fuzzer<'a> {
        let mut f = Fuzzer {
            image,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            virgin: VirginMap::new(),
            queue: Vec::new(),
            crashes: Vec::new(),
            execs: 0,
            history: Vec::new(),
        };
        for s in seeds {
            f.try_input(&s);
        }
        f
    }

    /// Executes one input in the emulator, returning whether it produced
    /// new coverage; queue and crash lists are updated.
    fn try_input(&mut self, input: &[u8]) -> bool {
        self.execs += 1;
        let mut m = Machine::new(self.image, 0xf000);
        m.enable_coverage();
        let mut kernel = fg_kernel::Kernel::with_input(input);
        let stop = m.run(&mut kernel, self.cfg.insn_budget);
        if stop.is_crash() {
            self.crashes.push(input.to_vec());
        }
        let cov = m.coverage.as_ref().expect("coverage enabled");
        let new = cov.merge_into(&mut self.virgin);
        if new {
            self.queue.push(QueueEntry {
                input: input.to_vec(),
                det_done: false,
                found_at: self.execs,
            });
        }
        new
    }

    /// Runs queue cycles until at least `max_execs` executions have
    /// happened, recording a [`Snapshot`] after each cycle.
    pub fn run(&mut self, max_execs: u64) {
        while self.execs < max_execs {
            if self.queue.is_empty() {
                // Nothing interesting yet: random bootstrap.
                let len = self.rng.gen_range(1..=16);
                let input: Vec<u8> = (0..len).map(|_| self.rng.gen()).collect();
                self.try_input(&input);
                continue;
            }
            for qi in 0..self.queue.len() {
                if self.execs >= max_execs {
                    break;
                }
                let entry = self.queue[qi].clone();
                if !entry.det_done {
                    for m in mutate::deterministic(&entry.input) {
                        if self.execs >= max_execs {
                            break;
                        }
                        self.try_input(&m);
                    }
                    self.queue[qi].det_done = true;
                }
                for _ in 0..self.cfg.havoc_per_entry {
                    if self.execs >= max_execs {
                        break;
                    }
                    let m = if self.queue.len() > 1 && self.rng.gen_bool(0.2) {
                        let other = self.rng.gen_range(0..self.queue.len());
                        mutate::splice(
                            &mut self.rng,
                            &entry.input,
                            &self.queue[other].input.clone(),
                            self.cfg.max_len,
                        )
                    } else {
                        mutate::havoc(&mut self.rng, &entry.input, self.cfg.max_len)
                    };
                    self.try_input(&m);
                }
            }
            self.history.push(Snapshot {
                execs: self.execs,
                paths: self.queue.len(),
                crashes: self.crashes.len(),
            });
        }
    }

    /// The discovered corpus (inputs that increased coverage).
    pub fn corpus(&self) -> Vec<Vec<u8>> {
        self.queue.iter().map(|e| e.input.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nginx_like() -> fg_workloads::Workload {
        fg_workloads::nginx_patched()
    }

    #[test]
    fn seeds_enter_queue() {
        let w = nginx_like();
        let f = Fuzzer::new(&w.image, vec![w.default_input.clone()], FuzzConfig::default());
        assert_eq!(f.queue.len(), 1);
        assert_eq!(f.execs, 1);
    }

    #[test]
    fn campaign_discovers_new_paths() {
        let w = nginx_like();
        let seed = fg_workloads::request(0, b"hi");
        let mut f = Fuzzer::new(
            &w.image,
            vec![seed],
            FuzzConfig { havoc_per_entry: 16, ..Default::default() },
        );
        f.run(400);
        assert!(
            f.queue.len() > 1,
            "mutations should discover new handlers, queue = {}",
            f.queue.len()
        );
        assert!(!f.history.is_empty());
        // Paths monotonically nondecreasing over snapshots.
        for w2 in f.history.windows(2) {
            assert!(w2[1].paths >= w2[0].paths);
            assert!(w2[1].execs >= w2[0].execs);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let w = nginx_like();
        let seed = fg_workloads::request(1, b"abc");
        let mut f1 = Fuzzer::new(&w.image, vec![seed.clone()], FuzzConfig::default());
        f1.run(200);
        let mut f2 = Fuzzer::new(&w.image, vec![seed], FuzzConfig::default());
        f2.run(200);
        assert_eq!(f1.queue.len(), f2.queue.len());
        assert_eq!(f1.corpus(), f2.corpus());
    }

    #[test]
    fn fuzzer_finds_the_implanted_overflow() {
        // The vulnerable nginx parser crashes (or hijacks into a fault) when
        // a long payload smashes the stack; the fuzzer should stumble into
        // crashing inputs.
        let w = fg_workloads::nginx();
        let seed = fg_workloads::request(3, &[b'x'; 20]);
        let mut f = Fuzzer::new(
            &w.image,
            vec![seed],
            FuzzConfig { havoc_per_entry: 24, ..Default::default() },
        );
        f.run(1500);
        assert!(
            !f.crashes.is_empty(),
            "AFL-style campaign should crash the implanted overflow (paths={})",
            f.queue.len()
        );
    }

    #[test]
    fn bootstraps_without_seeds() {
        let w = nginx_like();
        let mut f = Fuzzer::new(&w.image, vec![], FuzzConfig::default());
        f.run(100);
        assert!(f.execs >= 100);
    }
}

//! The bench gate table: every host-timed ratio the experiments gate, each
//! judged on the median of [`RUNS`] runs of its experiment's timed half,
//! plus the 64-process fleet's rows, which are deterministic but too slow
//! for the tier-1 golden test. The golden test (`tests/bench_golden.rs`)
//! pins every other deterministic key exactly. `bench_gate` runs the table.

use serde::Value;

/// Runs of each experiment's timed half. Odd, so the median is a sample.
pub const RUNS: usize = 5;

/// Which side of its bound a row's median must fall on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better: the median must be ≥ the bound.
    AtLeast,
    /// Lower is better: the median must be ≤ the bound.
    AtMost,
    /// A deterministic count: the median must equal the bound.
    Exactly,
}

/// One gated key: `bench.field` of a `BENCH_<bench>.json` file.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// `<bench>.<field>`, e.g. `fastpath.edge_lookup_speedup`.
    pub key: &'static str,
    /// Which side of `bound` passes.
    pub direction: Direction,
    /// The bound the median is held to.
    pub bound: f64,
}

const fn row(key: &'static str, direction: Direction, bound: f64) -> Row {
    Row { key, direction, bound }
}

/// The gate table.
pub const TABLE: [Row; 10] = [
    // CSR edge tables against the pre-interning BTreeMap, same lookups.
    row("fastpath.edge_lookup_speedup", Direction::AtLeast, 2.5),
    // SWAR/table-driven scanner against the scalar reference, same trace.
    row("streaming.vectorized_speedup", Direction::AtLeast, 2.5),
    // Zero-copy scan of the ToPA's region slices against the linearized
    // vectorized scan: near 1 unless the segmented path starts copying.
    row("streaming.segmented_vs_vectorized", Direction::AtLeast, 0.85),
    // Wall clock of a fully-profiled run over a telemetry-off run.
    row("observability.profiling_overhead", Direction::AtMost, 1.25),
    // The 64-process fleet over 4 images: every request checked, artifacts
    // shared, fleet p99 close to solo, every concurrent attack caught.
    row("fleet.processes", Direction::Exactly, 64.0),
    row("fleet.distinct_images", Direction::Exactly, 4.0),
    row("fleet.checks_total", Direction::Exactly, 512.0),
    row("fleet.artifact_cache_hit_rate", Direction::AtLeast, 0.9375),
    row("fleet.p99_latency_ratio", Direction::AtMost, 1.1),
    row("fleet.attacks_detected_fraction", Direction::Exactly, 1.0),
];

impl Row {
    /// The bench (`BENCH_<bench>.json`) and field this row reads.
    pub fn bench_field(&self) -> (&'static str, &'static str) {
        self.key.split_once('.').expect("row keys are <bench>.<field>")
    }

    /// Whether `median` is on the passing side of the bound.
    pub fn passes(&self, median: f64) -> bool {
        match self.direction {
            Direction::AtLeast => median >= self.bound,
            Direction::AtMost => median <= self.bound,
            Direction::Exactly => median == self.bound,
        }
    }

    /// The bound as the report prints it: `>= 2`, `<= 1.5`, `== 64`.
    pub fn describe(&self) -> String {
        let op = match self.direction {
            Direction::AtLeast => ">=",
            Direction::AtMost => "<=",
            Direction::Exactly => "==",
        };
        format!("{op} {}", self.bound)
    }
}

/// `[q1, median, q3]` of `samples` (nearest rank; the median of an odd
/// count is its middle sample).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    [s[n / 4], s[n / 2], s[(3 * n) / 4]]
}

/// A numeric leaf of a bench document as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(x) => Some(x as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

/// The key-by-key median of same-shaped bench documents: numeric leaves
/// take their median sample, objects and arrays recurse, and anything else
/// keeps the first document's value.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_doc(docs: &[Value]) -> Value {
    let first = docs.first().expect("median of no documents");
    match first {
        Value::U64(_) | Value::F64(_) => {
            let mut leaves: Vec<&Value> = docs.iter().collect();
            leaves.sort_by(|a, b| {
                number(a).partial_cmp(&number(b)).expect("numeric leaves are not NaN")
            });
            leaves[leaves.len() / 2].clone()
        }
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, _)| {
                    let column: Vec<Value> =
                        docs.iter().filter_map(|d| d.get(k)).cloned().collect();
                    (k.clone(), median_doc(&column))
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(
            (0..items.len())
                .map(|i| {
                    let column: Vec<Value> = docs
                        .iter()
                        .filter_map(|d| match d {
                            Value::Array(a) => a.get(i).cloned(),
                            _ => None,
                        })
                        .collect();
                    median_doc(&column)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fastpath, fleet, observability, slowpath, streaming};
    use serde::Serialize;

    /// Each row passes with its median exactly at the bound and fails one
    /// representable step past it.
    #[test]
    fn each_row_passes_at_its_bound_and_fails_one_step_past() {
        for row in &TABLE {
            assert!(row.passes(row.bound), "{} must pass at {}", row.key, row.describe());
            let past: &[f64] = match row.direction {
                Direction::AtLeast => &[row.bound.next_down()],
                Direction::AtMost => &[row.bound.next_up()],
                Direction::Exactly => &[row.bound.next_down(), row.bound.next_up()],
            };
            for &p in past {
                assert!(!row.passes(p), "{} must fail at {p:e} ({})", row.key, row.describe());
            }
        }
    }

    /// Every row names a field its bench writes.
    #[test]
    fn each_row_names_a_bench_field() {
        for row in &TABLE {
            let doc = match row.bench_field().0 {
                "fastpath" => fastpath::FastpathBench::default().to_value(),
                "streaming" => streaming::StreamingBench::default().to_value(),
                "observability" => observability::ObservabilityBench::default().to_value(),
                "slowpath" => slowpath::SlowpathBench::default().to_value(),
                "fleet" => fleet::FleetBench::default().to_value(),
                other => panic!("{}: no bench named {other}", row.key),
            };
            let field = doc.get(row.bench_field().1);
            assert!(field.and_then(number).is_some(), "{} is not a numeric field", row.key);
        }
    }

    /// `bench_gate` writes each bench back from a median document.
    #[test]
    fn every_bench_round_trips_through_a_median() {
        fn round_trip<B: Default + Serialize + serde::Deserialize>() {
            let doc = B::default().to_value();
            let back = B::from_value(&median_doc(&[doc.clone(), doc.clone(), doc.clone()]));
            assert_eq!(back.expect("median keeps the shape").to_value(), doc);
        }
        round_trip::<fastpath::FastpathBench>();
        round_trip::<streaming::StreamingBench>();
        round_trip::<observability::ObservabilityBench>();
        round_trip::<slowpath::SlowpathBench>();
        round_trip::<fleet::FleetBench>();
    }

    #[test]
    fn quartiles_of_five_are_the_second_third_and_fourth_samples() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn median_doc_takes_each_leaf_median_and_keeps_the_rest() {
        let doc = |x: f64, n: u64| {
            Value::Object(vec![
                ("ratio".into(), Value::F64(x)),
                ("rows".into(), Value::Array(vec![Value::U64(n)])),
                ("status".into(), Value::Str("healthy".into())),
            ])
        };
        let docs = [doc(3.0, 9), doc(1.0, 7), doc(2.0, 8)];
        assert_eq!(median_doc(&docs), doc(2.0, 8));
    }
}

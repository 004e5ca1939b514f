//! Property tests for the telemetry primitives: histogram quantiles bracket
//! the true order statistics, merge equals recording the union, and the
//! event ring's overwrite-oldest discipline preserves ordering and counts
//! across arbitrary wraparound.

use fg_trace::{EventRing, Histogram, SUB_BUCKETS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_samples(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Span many magnitudes so both the exact (< SUB_BUCKETS) and
            // log-linear regimes get exercised.
            let bits = rng.gen_range(0u32..40);
            rng.gen_range(0..=(1u64 << bits))
        })
        .collect()
}

proptest! {
    /// Every reported quantile lies between the true order statistic and
    /// that statistic inflated by one sub-bucket of relative error.
    #[test]
    fn quantiles_bracket_truth(seed in any::<u64>(), n in 1usize..4000) {
        let mut vals = random_samples(seed, n);
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let truth = vals[rank - 1];
            let got = h.quantile(q);
            prop_assert!(got >= truth, "q={q}: reported {got} < true {truth}");
            let bound = truth + truth / SUB_BUCKETS as u64 + 1;
            prop_assert!(got <= bound, "q={q}: reported {got} > bound {bound} (true {truth})");
        }
        prop_assert_eq!(h.count(), n as u64);
        prop_assert_eq!(h.max(), *vals.last().unwrap());
    }

    /// `merge(a, b)` is bucket-exactly `record(a ∪ b)`: identical bucket
    /// vectors, counts, sums, maxima, and therefore identical snapshots.
    #[test]
    fn merge_equals_union(seed_a in any::<u64>(), seed_b in any::<u64>(),
                          na in 0usize..1500, nb in 0usize..1500) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for v in random_samples(seed_a, na) {
            a.record(v);
            union.record(v);
        }
        for v in random_samples(seed_b, nb) {
            b.record(v);
            union.record(v);
        }
        a.merge_from(&b);
        prop_assert_eq!(a.bucket_counts(), union.bucket_counts());
        prop_assert_eq!(a.count(), union.count());
        prop_assert_eq!(a.sum(), union.sum());
        prop_assert_eq!(a.max(), union.max());
        prop_assert_eq!(a.snapshot(), union.snapshot());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Marker(u64);

proptest! {
    /// After any number of pushes, the ring holds exactly
    /// `min(pushed, capacity)` events — the most recent ones, oldest first,
    /// with absolute indices agreeing with their payloads.
    #[test]
    fn ring_wraparound_keeps_order_and_counts(
        cap in 1usize..64,
        pushes in 0usize..300,
    ) {
        let mut ring: EventRing<Marker> = EventRing::new(cap);
        for i in 0..pushes as u64 {
            ring.push(&Marker(i));
        }
        prop_assert_eq!(ring.pushed(), pushes as u64);
        let snap = ring.last(usize::MAX);
        let expect = pushes.min(ring.capacity());
        prop_assert_eq!(snap.len(), expect);
        let first = pushes as u64 - expect as u64;
        for (k, (idx, ev)) in snap.iter().enumerate() {
            prop_assert_eq!(*idx, first + k as u64);
            prop_assert_eq!(ev.0, first + k as u64);
        }
        // last(n) is always the suffix of everything retained.
        let last3 = ring.last(3);
        let tail: Vec<_> = snap.iter().rev().take(3).rev().copied().collect();
        prop_assert_eq!(last3, tail);
    }
}

#[test]
fn flight_record_round_trips_through_json() {
    use fg_trace::FlightRecorder;

    let mut rec = FlightRecorder::new(8, 64);
    rec.capture(
        "sysno 59",
        "edge 0x401000 -> 0xdeadbeef not in ITC-CFG",
        true,
        Some((0x401000, 0xdeadbeef)),
        &[0x02, 0x82, 0x02, 0x82, 0x0d, 0x3a, 0x12],
        vec!["PSB".into(), "TIP 0x40123a".into(), "TNT(TTN)".into()],
    );
    let json = serde_json::to_string(&rec.records().to_vec()).unwrap();
    let back: Vec<fg_trace::FlightRecord> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rec.records());
    assert_eq!(back[0].edge, Some((0x401000, 0xdeadbeef)));
    assert_eq!(back[0].topa_window.len(), 7);
}

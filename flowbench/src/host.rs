//! Host clock and speed probes, and the order statistics every metric uses.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host cost of one `Instant::now()` call, in ns: the overhead one timed
/// region (`now()` before and after the call) adds to the time it reports.
/// The median over 64 batches of 1,000 calls.
pub fn timer_overhead_ns() -> f64 {
    let mut batches: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..1000 {
                black_box(Instant::now());
            }
            secs(t0.elapsed()) * 1e9 / 1000.0
        })
        .collect();
    median(&mut batches)
}

/// Steps of the reference loop.
pub const REF_STEPS: u64 = 500_000;

/// The reference loop's time on the nominal host every end-to-end time is
/// scaled to: [`REF_STEPS`] steps in exactly 1 ms.
pub const NOMINAL_REF_NS: f64 = 1e6;

/// Host speed probe: host ns of [`REF_STEPS`] steps of a fixed bytecode
/// interpreter — table dispatch, data-dependent branches, loads and stores
/// over 256 KiB — the same kind of work as the simulator, in code that
/// never changes between commits. Its time moves with the host's clock
/// and with what other tenants take from the core, much as the
/// simulator's does.
pub fn reference_loop_ns() -> f64 {
    #[allow(clippy::cast_possible_truncation)]
    let code: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    let mut mem: Vec<u64> = (0..1u64 << 15).collect();
    let len = mem.len();
    let t0 = Instant::now();
    let (mut acc, mut pc) = (black_box(1u64), 0usize);
    for _ in 0..black_box(REF_STEPS) {
        let op = code[pc];
        #[allow(clippy::cast_possible_truncation)]
        let slot = acc as usize % len;
        match op & 7 {
            0 => acc = acc.wrapping_add(mem[slot]),
            1 => acc ^= acc << 7,
            2 => mem[(slot * 31) % len] = acc,
            3 if acc & 1 == 1 => pc = (pc + 3) % code.len(),
            4 => acc = acc.rotate_left(5).wrapping_mul(0x9e37_79b9),
            5 => acc = acc.wrapping_sub(mem[pc * 7 % len]),
            6 => acc = if acc & 4 == 0 { acc.wrapping_add(3) } else { acc ^ 0x55 },
            _ => acc = acc.wrapping_add(u64::from(op)),
        }
        pc = (pc + 1) % code.len();
    }
    black_box(acc);
    secs(t0.elapsed()) * 1e9
}

/// The median of three reference loops, in ms. Taken at the start and
/// the end of a run; a difference of more than [`DRIFT_LIMIT`] means the
/// host's speed changed while the run measured.
pub fn reference_ms() -> f64 {
    median(&mut [reference_loop_ns(), reference_loop_ns(), reference_loop_ns()]) / 1e6
}

/// How much slower the host ran than the nominal host, from a reference
/// loop timed beside the measurement: divide times by it, multiply rates
/// by it.
pub fn host_scale(ref_ns: f64) -> f64 {
    ref_ns / NOMINAL_REF_NS
}

/// Relative change of the reference loop beyond which a run prints `DRIFT`.
pub const DRIFT_LIMIT: f64 = 0.10;

/// A duration in seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nanoseconds from `from` to `to` (zero if `to` is earlier).
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The median (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` quantile of `xs`; 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (xs.len() as f64 * q).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
    }

    #[test]
    fn probes_measure_something() {
        assert!(timer_overhead_ns() > 0.0);
        assert!(reference_ms() > 0.0);
        assert_eq!(host_scale(2.0 * NOMINAL_REF_NS), 2.0);
    }
}

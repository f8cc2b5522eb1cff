//! Order statistics, the isolated-op timer and the input PRNG.

use std::time::{Duration, Instant};

/// Median of `values` (sorts in place). 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Mean of the middle half of `values` (sorts in place): as deaf to
/// outliers as the median, but not a single integer-nanosecond sample.
pub fn midmean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) — the rule the acceptance driver applies to the
/// ten runs of a workload. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    assert!(len >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Typical cost in nanoseconds of one `op`, timed from outside.
///
/// Ops here range from 20 ns (encode an `I32`) to 300 µs (echo 256 KiB),
/// so a single `Instant` pair per op would drown the small ones in clock
/// overhead: ops are timed in batches sized to about 50 µs, each batch
/// yields one per-op mean, and the midmean over batches is returned.
pub fn per_op_ns(budget: Duration, mut op: impl FnMut()) -> f64 {
    // The first call pays for cold caches and must not size the batch.
    op();
    let probe = Instant::now();
    op();
    let one = probe.elapsed().as_nanos().max(1);
    let batch = (50_000 / one).clamp(1, 10_000) as u32;
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    midmean(&mut samples)
}

/// SplitMix64: every input the workloads see is drawn from one of these,
/// seeded by `--seed`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias is irrelevant
    /// for payload generation).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(midmean(&mut [9.0, 1.0, 2.0, 4.0]), 3.0);
        assert_eq!(midmean(&mut [5.0]), 5.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(SplitMix64::new(8).next_u64(), SplitMix64::new(7).next_u64());
    }
}

//! Counters, gauges and fixed-bucket log-scale histograms.
//!
//! Everything here is atomics: recording never blocks, and the types can
//! either live stand-alone (e.g. `parc-core`'s per-runtime
//! `RuntimeStats`) or be registered in the process-wide registry
//! ([`crate::counter`] & friends) that the exporters render.
//!
//! The histogram is log-linear: one octave per power of two with four
//! linear sub-buckets, giving ~25 % relative resolution from 1 ns up to
//! ~2⁶³ ns — plenty for the ~273 µs-scale remoting latencies the paper
//! measures, in 252 fixed buckets with no allocation on the record path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A named monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A named signed gauge (set/add semantics).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    pub fn adjust(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Buckets: values 0–3 map to their own bucket; from the octave starting
/// at 4 upward each power of two is split into 4 linear sub-buckets.
pub const BUCKETS: usize = 252;

/// Shards per histogram. A thread records into shard
/// `thread_id % SHARDS`, so threads running at once seldom write the same
/// cache lines: on 2 vCPUs two threads recording into one shared set of
/// atomics paid ~360 ns a sample against ~47 ns alone.
const SHARDS: usize = 4;

/// One thread group's share of a histogram; aligned so no two shards
/// share a cache line (or its prefetch pair).
#[repr(align(128))]
struct Shard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-linear histogram of `u64` samples (typically nanoseconds).
/// Readers merge the shards, so a read racing a record may see a sample
/// in `count` before its bucket, as it could before the shards.
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Maps a sample to its bucket index (monotone in `v`).
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 2
    let sub = ((v >> (msb - 2)) & 0b11) as usize; // two bits after the leading 1
    4 * (msb - 1) + sub
}

/// The largest value a bucket covers (inclusive).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < 4 {
        return index as u64;
    }
    let msb = index / 4 + 1;
    let sub = (index % 4) as u64;
    // Next sub-bucket's first value, minus one. msb ≤ 63 ⇒ no overflow
    // except at the very top, which saturates.
    let base = 1u64 << msb;
    let step = 1u64 << (msb - 2);
    base.saturating_add(step * (sub + 1)).saturating_sub(1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram { shards: (0..SHARDS).map(|_| Shard::new()).collect() }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let shard = &self.shards[crate::thread_id() as usize % SHARDS];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.min.fetch_min(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// One field read from every shard.
    fn merged<'a>(
        &'a self,
        field: impl Fn(&Shard) -> &AtomicU64 + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        self.shards.iter().map(move |s| field(s).load(Ordering::Relaxed))
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.merged(|s| &s.count).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.merged(|s| &s.sum).fold(0, u64::wrapping_add)
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        self.merged(|s| &s.min).min().filter(|&v| v != u64::MAX)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.merged(|s| &s.max).max().unwrap_or(0)
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate percentile (`0.0 ..= 100.0`): the upper bound of the
    /// bucket holding the nearest-rank sample, clamped to the exact
    /// recorded min/max. Zero when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.merged(|s| &s.buckets[i]).sum::<u64>();
            if seen >= target {
                return bucket_upper_bound(i)
                    .clamp(self.min().unwrap_or(0), self.max());
            }
        }
        self.max()
    }

    /// Resets everything to empty.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            for b in shard.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
            shard.count.store(0, Ordering::Relaxed);
            shard.sum.store(0, Ordering::Relaxed);
            shard.min.store(u64::MAX, Ordering::Relaxed);
            shard.max.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.percentile(50.0))
            .field("p95", &self.percentile(95.0))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(10);
        g.adjust(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_is_monotone_and_exact_at_boundaries() {
        // Small values get exact buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
        // Octave boundaries: 4 starts bucket 4; each power of two starts a
        // fresh group of four.
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(1 << 20), 4 * 19);
        // Monotone over a wide sweep, and upper bounds bracket the value.
        let mut sweep: Vec<u64> = (0..63u32)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        sweep.sort_unstable();
        let mut last = 0usize;
        for v in sweep {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            assert!(bucket_upper_bound(idx) >= v, "upper bound covers {v}");
            last = idx;
        }
    }

    #[test]
    fn upper_bound_is_the_last_value_in_its_bucket() {
        for idx in 4..200usize {
            let ub = bucket_upper_bound(idx);
            assert_eq!(bucket_index(ub), idx, "ub {ub} of bucket {idx}");
            assert_eq!(bucket_index(ub + 1), idx + 1, "{} after bucket {idx}", ub + 1);
        }
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), 1000);
        // ~25% bucket resolution: p50 of 1..=1000 is ~500, within one
        // sub-bucket (here [448, 511]).
        let p50 = h.percentile(50.0);
        assert!((448..=640).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((960..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(100.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let h = Histogram::new();
        h.record(273_000); // the paper's 273 µs, in ns
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!((273_000..=273_000 + 273_000 / 4).contains(&v), "p{p} = {v}");
        }
        // min/max clamp keeps the estimate inside the observed range.
        assert!(h.percentile(50.0) <= h.max());
    }

    #[test]
    fn samples_from_many_threads_merge_across_shards() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..(2 * SHARDS as u64 + 1) {
                let h = &h;
                scope.spawn(move || {
                    for v in 1..=100u64 {
                        h.record(t * 1000 + v);
                    }
                });
            }
        });
        let threads = 2 * SHARDS as u64 + 1;
        assert_eq!(h.count(), threads * 100);
        assert_eq!(h.sum(), (0..threads).map(|t| t * 100_000 + 5050).sum::<u64>());
        assert_eq!((h.min(), h.max()), (Some(1), (threads - 1) * 1000 + 100));
        assert_eq!(h.percentile(100.0), h.max());
        h.reset();
        assert_eq!((h.count(), h.min(), h.max()), (0, None, 0));
    }

    #[test]
    fn reset_empties() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }
}

//! Fixed log2-bucket latency histograms.
//!
//! A [`Histogram`] is a lock-free array of atomic counters, one per
//! power-of-two bucket: an observation `v` lands in bucket
//! `floor(log2(v))` (bucket 0 also takes 0 and 1). Recording is a
//! handful of relaxed atomic adds — cheap enough for per-round chase
//! hooks — and readers take a [`Snapshot`] that supports merging and
//! percentile estimation with linear interpolation inside the hit
//! bucket, so p50/p95/p99 are exact up to bucket resolution.
//!
//! Values are unitless `u64`s; the stack records nanoseconds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: `le` bounds 2^0 .. 2^39 plus the implicit +Inf of
/// the last bucket. 2^39 ns ≈ 550 s — beyond any phase this stack times;
/// larger values clamp into the last bucket.
pub const BUCKETS: usize = 40;

/// A fixed-bucket histogram with atomic counters (see module docs).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket an observation lands in: `ceil(log2(v))` (0 and 1 share
/// bucket 0), clamped to the last bucket — so bucket `i` covers the
/// half-open range `(2^(i-1), 2^i]` and [`bucket_le`] is its inclusive
/// upper bound, matching Prometheus `le` semantics.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    ((64 - (v - 1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The inclusive upper bound (`le`) of bucket `i`: `2^i`. The last
/// bucket is rendered as `+Inf` by the Prometheus exposition, but its
/// nominal bound still anchors percentile interpolation.
#[inline]
pub fn bucket_le(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation (relaxed atomics; safe from any thread).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent observers may
    /// land between the bucket and total reads; the snapshot reconciles
    /// by trusting the buckets (count = Σ buckets).
    pub fn snapshot(&self) -> Snapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        Snapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            count: counts.iter().sum(),
        }
    }
}

/// An owned, mergeable copy of a histogram's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub counts: [u64; BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Total observations (kept equal to Σ `counts`).
    pub count: u64,
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot {
            counts: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl Snapshot {
    /// Folds another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), estimated by walking the
    /// cumulative bucket counts to the target rank and interpolating
    /// linearly inside the hit bucket. Exact up to bucket resolution:
    /// the result always lies within the bucket holding the true
    /// rank-`⌈q·n⌉` observation. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, at least 1.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = if i == 0 { 0 } else { bucket_le(i - 1) };
                let hi = bucket_le(i);
                let into = target - cum; // 1 ..= c
                let width = hi - lo;
                return lo + (width as u128 * into as u128 / c as u128) as u64;
            }
            cum += c;
        }
        // Unreachable when count = Σ counts; be defensive anyway.
        bucket_le(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_ceil_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Each bucket's `le` bound is its inclusive maximum.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_le(i)), i);
            assert_eq!(bucket_of(bucket_le(i) + 1), i + 1);
        }
    }

    #[test]
    fn observe_and_snapshot() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1000, 1_000_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1 + 2 + 3 + 1000 + 1_000_000);
        assert_eq!(s.counts[bucket_of(1000)], 1);
        assert_eq!(s.counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(10);
        a.observe(100);
        b.observe(100);
        b.observe(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 1210);
        assert_eq!(m.counts[bucket_of(100)], 2);
    }

    #[test]
    fn percentiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        // 90 fast observations (~64ns bucket), 10 slow (~1µs bucket).
        for _ in 0..90 {
            h.observe(64);
        }
        for _ in 0..10 {
            h.observe(1024);
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.50);
        let p95 = s.percentile(0.95);
        let p99 = s.percentile(0.99);
        assert!((32..=64).contains(&p50), "p50 = {p50}");
        assert!((512..=1024).contains(&p95), "p95 = {p95}");
        assert!((512..=1024).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");
    }

    #[test]
    fn percentile_interpolates_within_bucket() {
        let h = Histogram::new();
        // 4 observations all in bucket [512, 1024): ranks split the
        // bucket's width into quarters.
        for _ in 0..4 {
            h.observe(700);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.25), 512 + 128);
        assert_eq!(s.percentile(1.0), 1024);
    }

    #[test]
    fn empty_and_single() {
        let s = Snapshot::default();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0);
        let h = Histogram::new();
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.percentile(0.99) <= 1);
    }
}

//! Histograms: the distribution-shaped half of `twq-prof`.
//!
//! [`Histogram`] is log₂-bucketed, for quantities with large dynamic range
//! (latencies in nanoseconds, step counts). Quantiles are exact to within
//! one power-of-two bucket (the property the proptest suite pins down);
//! `min`/`max`/`count`/`sum` are exact. Histograms merge bucket-wise, so
//! per-worker recordings fold into one aggregate exactly as a serial
//! recording would.

use crate::json::Json;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k - 1]`, so 65 buckets cover all of `u64`.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Recording is two adds and a `leading_zeros`; the struct is a fixed
/// ~½ KiB with no heap allocation, so per-worker instances are cheap and
/// merge deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in: 0 for 0, else the value's bit
    /// length (`⌊log₂ v⌋ + 1`).
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive `(low, high)` bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << (i - 1)) + ((1u64 << (i - 1)) - 1))
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples at once.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index by [`Histogram::bucket_of`]).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), estimated by linear interpolation
    /// inside the bucket holding the `⌈q·count⌉`-th sample and clamped to
    /// the exact `[min, max]` range. The estimate lands in the same or an
    /// adjacent power-of-two bucket as the exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme order statistics are tracked exactly.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                // Position of the rank within this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
                return Some((est as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one. Merging is commutative and
    /// associative (bucket-wise addition, min/max of extrema), so any
    /// merge tree over per-worker histograms yields the serial result.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `p50=… p90=… p99=… max=… (n=…)` in the given unit suffix.
    pub fn summary(&self, unit: &str) -> String {
        match self.count {
            0 => "empty".to_owned(),
            _ => format!(
                "p50={}{unit} p90={}{unit} p99={}{unit} max={}{unit} (n={})",
                self.p50().unwrap_or(0),
                self.p90().unwrap_or(0),
                self.p99().unwrap_or(0),
                self.max,
                self.count
            ),
        }
    }

    /// The histogram as a JSON object with sparse buckets.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![(i as u64).into(), n.into()]))
            .collect();
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", if self.count > 0 { self.min } else { 0 }.into()),
            ("max", self.max.into()),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    /// Parse a histogram serialized by [`Histogram::to_json`].
    pub fn from_json(j: &Json) -> Option<Histogram> {
        let mut h = Histogram::new();
        h.count = j.get("count")?.as_i64()? as u64;
        h.sum = j.get("sum")?.as_i64()? as u64;
        h.max = j.get("max")?.as_i64()? as u64;
        h.min = if h.count > 0 {
            j.get("min")?.as_i64()? as u64
        } else {
            u64::MAX
        };
        for pair in j.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            let i = pair.first()?.as_i64()? as usize;
            if i >= BUCKETS {
                return None;
            }
            h.buckets[i] = pair.get(1)?.as_i64()? as u64;
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(3), (4, 7));
        for v in [0u64, 1, 2, 3, 5, 17, 1023, 1024, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn exact_stats_and_quantiles() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(1000));
        // p50's exact order statistic is 30 (bucket 5); the estimate must
        // land within one bucket of it.
        let p50 = h.p50().unwrap();
        assert!(Histogram::bucket_of(p50).abs_diff(Histogram::bucket_of(30)) <= 1);
        // p99 rank is the maximum sample.
        assert_eq!(h.p99(), Some(1000));
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(h.quantile(0.0), Some(10));
        assert!(Histogram::new().p50().is_none());
    }

    #[test]
    fn merge_equals_serial() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 5, 9] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 5, 4096] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn json_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 77, 1 << 40] {
            h.record(v);
        }
        let j = h.to_json();
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(Histogram::from_json(&parsed), Some(h));
        let empty = Histogram::new();
        let back = Histogram::from_json(&Json::parse(&empty.to_json().render()).unwrap());
        assert_eq!(back, Some(empty));
    }

    #[test]
    fn summary_formats() {
        let mut h = Histogram::new();
        h.record(1000);
        let s = h.summary("ns");
        assert!(s.contains("max=1000ns") && s.contains("(n=1)"), "{s}");
        assert_eq!(Histogram::new().summary("ns"), "empty");
    }
}

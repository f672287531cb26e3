//! Global metrics registry: monotonic counters and log-scale histograms.
//!
//! Like the span recorder, the registry is gated on the global enable
//! flag: [`counter_add`] and [`observe`] return after one relaxed atomic
//! load when recording is off. Histograms use power-of-two buckets, so
//! percentile estimates are exact at bucket boundaries and within a
//! factor of two elsewhere (min/max/count/sum are always exact).
//!
//! **Percentiles are cumulative-since-start.** A [`Histogram`] never
//! forgets: every sample since process start (or the last reset) weighs
//! on `p50/p95/p99` forever, so a latency regression that begins after a
//! long healthy run is averaged away and can stay invisible in the
//! cumulative view for a long time. Live monitoring should read the
//! sliding-window view ([`crate::window::WindowedHistogram`]) alongside
//! the cumulative one; the window-vs-cumulative divergence regression
//! test in `crates/obs/tests` pins down exactly this failure mode.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::recorder::is_enabled;

/// Number of histogram buckets: bucket 0 holds values `<= 0`, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`.
const BUCKETS: usize = 65;

struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    f(&mut REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Add `delta` to the monotonic counter `name`, creating it at zero
/// first if needed. No-op while recording is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    with_registry(|reg| {
        if let Some(c) = reg.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            reg.counters.insert(name.to_owned(), delta);
        }
    });
}

/// Record `value` into the histogram `name`, creating it if needed.
/// No-op while recording is disabled.
pub fn observe(name: &str, value: i64) {
    if !is_enabled() {
        return;
    }
    with_registry(|reg| {
        if let Some(h) = reg.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            reg.histograms.insert(name.to_owned(), h);
        }
    });
}

/// Fold a locally accumulated histogram into the registry histogram
/// `name`, creating it if needed. Hot loops record into a private
/// [`Histogram`] and flush once per batch through this, taking the
/// registry lock once instead of once per sample. The registry ends up
/// with the same buckets, count, min and max as per-sample [`observe`]
/// calls, and the same sum unless it saturates. An empty `local` is
/// ignored (no entry is created). No-op while recording is disabled.
pub fn merge_histogram(name: &str, local: &Histogram) {
    if !is_enabled() || local.count == 0 {
        return;
    }
    with_registry(|reg| {
        if let Some(h) = reg.histograms.get_mut(name) {
            h.merge(local);
        } else {
            reg.histograms.insert(name.to_owned(), local.clone());
        }
    });
}

/// Record a duration (as nanoseconds) into the histogram `name`.
/// No-op while recording is disabled.
pub fn observe_duration(name: &str, duration: disparity_model::time::Duration) {
    observe(name, duration.as_nanos());
}

/// Record a closed span's duration into the auto-histogram `span.<name>`.
/// Called by the recorder; spans only close while a guard is live, so
/// this does not re-check the enable flag (disabling mid-span still
/// records the tail, which keeps reports consistent with the trace).
pub(crate) fn observe_span_duration(span_name: &str, dur_ns: i64) {
    with_registry(|reg| {
        let key = format!("span.{span_name}");
        if let Some(h) = reg.histograms.get_mut(&key) {
            h.record(dur_ns);
        } else {
            let mut h = Histogram::new();
            h.record(dur_ns);
            reg.histograms.insert(key, h);
        }
    });
}

/// Discard every counter and histogram.
pub(crate) fn clear() {
    with_registry(|reg| {
        reg.counters.clear();
        reg.histograms.clear();
    });
}

/// Point-in-time copy of the registry, taken with [`snapshot`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → accumulated value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → summary statistics, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Copy the current counters and histogram summaries (non-draining).
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|reg| MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect(),
    })
}

/// A log-scale histogram over `i64` samples.
///
/// Standalone use (e.g. the bench shim summarising samples without
/// touching the global registry) is supported: [`Histogram::new`],
/// [`Histogram::record`], [`Histogram::summary`].
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: i64,
    min: i64,
    max: i64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("sum", &self.sum)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    fn bucket_index(value: i64) -> usize {
        if value <= 0 {
            0
        } else {
            64 - (value as u64).leading_zeros() as usize
        }
    }

    /// Upper bound of bucket `i` (inclusive); `0` for the `<= 0` bucket.
    fn bucket_upper(index: usize) -> i64 {
        if index == 0 {
            0
        } else if index >= 63 {
            i64::MAX
        } else {
            (1i64 << index) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: i64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another histogram into this one (bucket-wise sum; min/max
    /// widen, `sum` saturates). Used by the sliding-window view to
    /// combine its interval buckets into one summarisable histogram.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Returns the inclusive upper bound of the bucket holding the
    /// rank-`ceil(q * count)` sample, clamped into `[min, max]` — hence
    /// exact whenever every sample in that bucket shares one value or
    /// the bucket is the min/max bucket.
    pub fn quantile(&self, q: f64) -> i64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_upper(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Summarise into exact min/max/count/sum plus p50/p95/p99 estimates.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: if self.count == 0 { 0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Summary statistics exported for one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: i64,
    /// Exact minimum (0 when empty).
    pub min: i64,
    /// Exact maximum (0 when empty).
    pub max: i64,
    /// Median estimate (exact at bucket boundaries).
    pub p50: i64,
    /// 95th-percentile estimate.
    pub p95: i64,
    /// 99th-percentile estimate.
    pub p99: i64,
}

#[cfg(test)]
mod tests {
    use super::Histogram;

    #[test]
    fn empty_histogram_summarises_to_zeros() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!((s.min, s.max, s.sum), (0, 0, 0));
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));
    }

    #[test]
    fn single_value_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(8);
        }
        let s = h.summary();
        assert_eq!((s.min, s.max), (8, 8));
        assert_eq!((s.p50, s.p95, s.p99), (8, 8, 8));
        assert_eq!(s.sum, 80);
    }

    #[test]
    fn quantiles_are_exact_at_bucket_boundaries() {
        // 1 lands in bucket [1,1], 2 in bucket [2,3]: the p50 rank hits
        // the first bucket exactly, the p99 rank hits the second, whose
        // upper bound (3) clamps to the observed max (2).
        let mut h = Histogram::new();
        h.record(1);
        h.record(2);
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.99), 2);

        // Power-of-two boundary: [4,7] bucket upper bound is 7 exactly.
        let mut h = Histogram::new();
        for v in [4, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.quantile(0.25), 7); // one shared bucket for all four
        assert_eq!(h.summary().min, 4);
    }

    #[test]
    fn bucket_upper_bounds_stay_within_factor_two() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        // rank(0.5 * 4) = 2 → bucket [2,3] → estimate 3 (true median 2.5).
        assert_eq!(h.quantile(0.5), 3);
        // rank 1 → bucket [1,1] → exact.
        assert_eq!(h.quantile(0.1), 1);
        // rank 4 → bucket [4,7] clamped to max.
        assert_eq!(h.quantile(1.0), 4);
    }

    #[test]
    fn non_positive_values_share_the_floor_bucket() {
        let mut h = Histogram::new();
        h.record(-5);
        h.record(0);
        let s = h.summary();
        assert_eq!((s.min, s.max), (-5, 0));
        // Floor-bucket estimates clamp into [min, max].
        assert!(s.p50 >= -5 && s.p50 <= 0);
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let mut h = Histogram::new();
        h.record(i64::MAX);
        h.record(i64::MAX);
        assert_eq!(h.summary().sum, i64::MAX);
        assert_eq!(h.count(), 2);
    }
}

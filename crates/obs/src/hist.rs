//! Fixed-size, lock-free, log₂-bucketed latency histograms.
//!
//! Histograms live in the crate's one interned registry, like spans and
//! counters: they are named by `&'static str`, slots are claimed on first
//! use and never freed, and a full registry degrades gracefully — new
//! names record nothing and bump the [`dropped`] tally while existing
//! names keep working. A slot's cells are the count, the sum and the
//! [`BUCKETS`] bucket counts. A [`record`] is one registry scan plus three
//! relaxed updates (bucket, count, saturating sum) — no locks on the hot
//! path.
//!
//! Values are bucketed by magnitude: bucket 0 holds exact zeros and
//! bucket `k` (1..=64) holds values in `[2^(k-1), 2^k)`, so the full
//! `u64` range — including `u64::MAX` — lands in a bucket and quantiles
//! are exact to within one power-of-two bucket width. Snapshots return
//! [`HistStat`] values that [`HistStat::merge`] across registries and
//! answer [`HistStat::quantile`] queries; the run report
//! ([`crate::report`]) nests them under a `"hists"` key.

use std::sync::atomic::Ordering;

use crate::registry::{Registry, ROOT};

/// Maximum distinct histogram names; later names are dropped.
pub const MAX_HISTS: usize = 64;

/// Bucket count: bucket 0 for zero, buckets 1..=64 for each power-of-two
/// magnitude, so every `u64` value has a home.
pub const BUCKETS: usize = 65;

/// The bucket index `value` falls into: 0 for zero, otherwise the
/// position of the highest set bit plus one (`[2^(k-1), 2^k)` → `k`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `i` admits (its inclusive upper bound): 0,
/// then `2^i - 1`, saturating at `u64::MAX` for the last bucket.
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Cells of a histogram slot: count, saturating sum, then the buckets.
const COUNT: usize = 0;
const SUM: usize = 1;
const FIRST_BUCKET: usize = 2;

static HISTS: Registry<{ FIRST_BUCKET + BUCKETS }, MAX_HISTS> = Registry::new();

/// Snapshot of live slot `i`.
fn stat(i: usize) -> HistStat {
    let v = HISTS.values(i);
    HistStat {
        name: HISTS.name(i).to_string(),
        count: v[COUNT].load(Ordering::Relaxed),
        sum: v[SUM].load(Ordering::Relaxed),
        buckets: std::array::from_fn(|b| v[FIRST_BUCKET + b].load(Ordering::Relaxed)),
    }
}

/// Record one sample into the histogram `name` (interned on first use).
/// A no-op when recording is disabled or the registry is full.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    let Some(i) = HISTS.intern(name, ROOT) else {
        return;
    };
    let v = HISTS.values(i);
    v[FIRST_BUCKET + bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    v[COUNT].fetch_add(1, Ordering::Relaxed);
    // Saturate the running sum so a pathological stream of huge values
    // degrades to "pinned at max" instead of wrapping.
    let _ = v[SUM].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some(s.saturating_add(value))
    });
}

/// Snapshot the histogram `name`, or `None` if it was never touched.
pub fn get(name: &str) -> Option<HistStat> {
    HISTS.find(name, ROOT).map(stat)
}

/// All histograms with at least one sample, sorted by name.
pub fn snapshot() -> Vec<HistStat> {
    let mut out: Vec<HistStat> = (0..HISTS.len()).map(stat).filter(|s| s.count > 0).collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// How many records were refused because the registry was full.
pub fn dropped() -> u64 {
    HISTS.dropped()
}

/// Zero every histogram plus the dropped tally (names stay interned).
pub fn reset() {
    HISTS.reset();
}

/// One histogram's snapshot: immutable to the registry, but usable as a
/// standalone accumulator via [`HistStat::observe`] (the bench harness
/// builds local histograms this way to cross-check exact percentiles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistStat {
    /// Histogram name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts ([`bucket_index`] layout).
    pub buckets: [u64; BUCKETS],
}

impl HistStat {
    /// An empty histogram named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        HistStat {
            name: name.into(),
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Add one sample to this local accumulator.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other`'s samples into `self` (saturating). Merging is
    /// commutative up to saturation; the caller pairs histograms by name.
    pub fn merge(&mut self, other: &HistStat) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// The nearest-rank `q`-quantile (`q` in `(0, 1]`), reported as the
    /// inclusive upper bound of the bucket holding that sample — exact to
    /// within one log₂ bucket width. `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(BUCKETS - 1))
    }

    /// Mean sample value (0 when empty). Saturation in `sum` makes this a
    /// lower bound for pathological streams.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket boundary: 2^k - 1 stays in bucket k, 2^k opens k+1.
        for k in 1..63usize {
            let low = 1u64 << k;
            assert_eq!(bucket_index(low - 1), k, "2^{k}-1");
            assert_eq!(bucket_index(low), k + 1, "2^{k}");
            assert_eq!(bucket_bound(k), low - 1);
        }
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = HistStat::new("hist_test_empty");
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.mean(), 0.0);
        // Never-touched names are absent from the registry too.
        assert_eq!(get("hist_test_never"), None);
    }

    #[test]
    fn single_sample_defines_every_quantile() {
        let mut h = HistStat::new("hist_test_single");
        h.observe(100);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 100);
        let bound = bucket_bound(bucket_index(100));
        assert_eq!(h.quantile(0.01), Some(bound));
        assert_eq!(h.quantile(0.5), Some(bound));
        assert_eq!(h.quantile(1.0), Some(bound));
        // The quantile brackets the sample within one bucket.
        assert!((100..200).contains(&bound), "{bound}");
    }

    #[test]
    fn u64_max_saturates_without_wrapping() {
        let mut h = HistStat::new("hist_test_max");
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.buckets[BUCKETS - 1], 2);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn quantiles_track_the_sample_distribution() {
        let mut h = HistStat::new("hist_test_dist");
        // 90 fast samples (~8), 10 slow (~1000).
        for _ in 0..90 {
            h.observe(8);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert_eq!(p50, bucket_bound(bucket_index(8)), "p50 in the fast bucket");
        assert_eq!(
            p99,
            bucket_bound(bucket_index(1000)),
            "p99 in the slow bucket"
        );
        assert!(p99 > p50);
    }

    #[test]
    fn merge_sums_counts_and_buckets() {
        let mut a = HistStat::new("hist_test_merge");
        a.observe(10);
        let mut b = HistStat::new("hist_test_merge");
        b.observe(5000);
        b.observe(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, u64::MAX, "the sum saturates");
        assert_eq!(a.buckets[bucket_index(10)], 1);
        assert_eq!(a.buckets[bucket_index(5000)], 1);
        assert_eq!(a.buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn global_registry_records_and_snapshots_sorted() {
        let _l = crate::test_lock();
        record("hist_test_global_b", 2);
        record("hist_test_global_a", 9);
        let snap = snapshot();
        for w in snap.windows(2) {
            assert!(w[0].name < w[1].name);
        }
        let h = get("hist_test_global_a").unwrap();
        assert!(h.count >= 1);
        assert!(h.sum >= 9);
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = crate::test_lock();
        crate::set_enabled(false);
        record("hist_test_disabled", 1);
        crate::set_enabled(true);
        assert_eq!(get("hist_test_disabled"), None);
    }

    #[test]
    fn concurrent_records_do_not_lose_samples() {
        let _l = crate::test_lock();
        let before = get("hist_test_mt").map_or(0, |h| h.count);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        record("hist_test_mt", i);
                    }
                });
            }
        });
        assert_eq!(get("hist_test_mt").unwrap().count, before + 4000);
    }

    #[test]
    fn dropped_tally_is_zero_on_the_global_registry() {
        let _l = crate::test_lock();
        assert_eq!(dropped(), 0);
    }
}

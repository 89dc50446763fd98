//! Per-kernel service-latency series for the Prometheus exposition.
//!
//! `run_job` records each job's service time against the kernel it
//! simulated; `/v1/metrics` exposes the result as one histogram family,
//! `tta_serve_job_kernel_service_us{kernel="..."}`, on top of the
//! unlabeled `serve.job.service_us` aggregate.
//!
//! Labels are the classic cardinality foot-gun: a misbehaving client
//! naming thousands of kernels must not inflate every scrape forever.
//! The budget is therefore enforced at *scrape time*: the top
//! [`ServerConfig::kernel_series_budget`](crate::ServerConfig) kernels by
//! sample count keep their own series, and everything past the budget is
//! merged into one `kernel="_other"` series — total counts are preserved
//! (the sum over all series always equals the number of jobs recorded),
//! only attribution coarsens. Recording stays cheap and unbounded-safe:
//! one mutex-guarded map keyed by kernel name, log₂ buckets per entry.

use std::collections::HashMap;
use std::sync::Mutex;

use tta_obs::hist::HistStat;
use tta_obs::prom;

/// Metric family name for the per-kernel service-time histograms.
pub const KERNEL_SERVICE_METRIC: &str = "serve.job.kernel_service_us";

/// Label value absorbing every kernel past the scrape-time budget.
pub const OTHER_LABEL: &str = "_other";

/// Default scrape-time series budget: covers the full CHStone-style
/// suite with room to spare while capping a hostile label set.
pub const DEFAULT_KERNEL_SERIES_BUDGET: usize = 12;

static BY_KERNEL: Mutex<Option<HashMap<String, HistStat>>> = Mutex::new(None);

/// Record one job's service time (µs) against `kernel`.
pub fn record_kernel_service(kernel: &str, us: u64) {
    let mut guard = BY_KERNEL.lock().unwrap();
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry(kernel.to_string())
        .or_insert_with(|| HistStat::new(KERNEL_SERVICE_METRIC))
        .observe(us);
}

/// Snapshot the per-kernel series under a scrape-time cardinality
/// budget: the `budget` highest-count kernels keep their own series
/// (sorted by count descending, name ascending — deterministic), the
/// rest merge into [`OTHER_LABEL`]. A zero budget folds everything into
/// `_other`.
pub fn kernel_series(budget: usize) -> Vec<(String, HistStat)> {
    let guard = BY_KERNEL.lock().unwrap();
    let Some(map) = guard.as_ref() else {
        return Vec::new();
    };
    let mut series: Vec<(String, HistStat)> =
        map.iter().map(|(k, h)| (k.clone(), h.clone())).collect();
    series.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
    if series.len() > budget {
        let mut other = HistStat::new(KERNEL_SERVICE_METRIC);
        for (_, h) in series.drain(budget..) {
            other.merge(&h);
        }
        series.push((OTHER_LABEL.to_string(), other));
    }
    series
}

/// Render the per-kernel family as exposition text (empty when nothing
/// was recorded yet).
pub fn kernel_exposition(budget: usize) -> String {
    let mut out = String::new();
    prom::push_labeled_hist(
        &mut out,
        KERNEL_SERVICE_METRIC,
        "kernel",
        &kernel_series(budget),
    );
    out
}

/// Drop all recorded series (test isolation).
#[doc(hidden)]
pub fn reset() {
    *BY_KERNEL.lock().unwrap() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    // One static registry, several tests: serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn budget_keeps_top_kernels_and_folds_the_rest() {
        let _l = TEST_LOCK.lock().unwrap();
        reset();
        for _ in 0..5 {
            record_kernel_service("sha", 10);
        }
        for _ in 0..3 {
            record_kernel_service("aes", 20);
        }
        record_kernel_service("gsm", 30);
        record_kernel_service("mips", 40);

        let series = kernel_series(2);
        assert_eq!(series.len(), 3, "two named + _other");
        assert_eq!(series[0].0, "sha");
        assert_eq!(series[1].0, "aes");
        assert_eq!(series[2].0, OTHER_LABEL);
        assert_eq!(series[2].1.count, 2, "gsm + mips folded");
        let total: u64 = series.iter().map(|(_, h)| h.count).sum();
        assert_eq!(total, 10, "folding preserves total sample count");

        // A generous budget names everything; zero folds everything.
        assert_eq!(kernel_series(10).len(), 4);
        let all_other = kernel_series(0);
        assert_eq!(all_other.len(), 1);
        assert_eq!(all_other[0].0, OTHER_LABEL);
        assert_eq!(all_other[0].1.count, 10);
        reset();
    }

    #[test]
    fn exposition_renders_the_labeled_family() {
        let _l = TEST_LOCK.lock().unwrap();
        reset();
        record_kernel_service("sha", 100);
        let text = kernel_exposition(DEFAULT_KERNEL_SERIES_BUDGET);
        assert!(text.contains("# TYPE tta_serve_job_kernel_service_us histogram"));
        assert!(text.contains("tta_serve_job_kernel_service_us_count{kernel=\"sha\"} 1"));
        reset();
        assert!(kernel_exposition(DEFAULT_KERNEL_SERIES_BUDGET).is_empty());
    }
}

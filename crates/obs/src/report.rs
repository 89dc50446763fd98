//! The machine-readable run report.
//!
//! Schema (stable; version-bumped on breaking change):
//!
//! ```json
//! {
//!   "obs_version": 1,
//!   "spans": [ {"path": "eval/compile", "total_s": 0.134, "count": 104} ],
//!   "counters": { "sim.transports": 123456 },
//!   "gauges": { "eval.threads": 8 },
//!   "hists": [ {"name": "serve.job.service_us", "count": 8, "sum": 910,
//!               "p50": 127, "p99": 255, "buckets": {"7": 5, "8": 3}} ],
//!   "obs_dropped": { "spans": 0, "counters": 0, "gauges": 0, "hists": 0 }
//! }
//! ```
//!
//! Histograms were added *additively* under the new `"hists"` key (and a
//! fourth `obs_dropped` tally): `obs_version` deliberately stays 1, since
//! every pre-existing key keeps its exact shape — consumers of version 1
//! that ignore unknown keys keep working. The choice is pinned by
//! `report_schema_stays_version_1_with_additive_hists`. `hists` buckets
//! are sparse (log₂ bucket index → count, zero buckets omitted); `p50`/
//! `p99` are bucket-upper-bound quantiles, `null` when empty.
//!
//! `obs_dropped` counts probe updates refused because a fixed-capacity
//! registry was full — all zeros in a healthy run; anything else means
//! the report has blind spots (see the crate docs on the one registry
//! behind spans, counters, gauges and histograms).
//!
//! Spans are sorted by path, counters and gauges by name, so two reports
//! from the same workload diff cleanly. The bench binaries embed this
//! object under an `"obs"` key in `BENCH_*.json`.

use crate::json::Json;

/// Current report schema version.
pub const OBS_VERSION: u64 = 1;

/// Snapshot the registries into a report object.
pub fn to_json() -> Json {
    let spans = crate::span::snapshot()
        .into_iter()
        .map(|s| {
            Json::Obj(vec![
                ("path".into(), Json::Str(s.path)),
                ("total_s".into(), Json::Num(round6(s.total_s))),
                ("count".into(), Json::Num(s.count as f64)),
            ])
        })
        .collect();
    let counters = crate::counter::snapshot()
        .into_iter()
        .map(|(n, v)| (n, Json::Num(v as f64)))
        .collect();
    let gauges = crate::counter::snapshot_gauges()
        .into_iter()
        .map(|(n, v)| (n, Json::Num(v as f64)))
        .collect();
    let hists = crate::hist::snapshot().iter().map(hist_json).collect();
    let dropped = Json::Obj(vec![
        ("spans".into(), Json::Num(crate::span::dropped() as f64)),
        (
            "counters".into(),
            Json::Num(crate::counter::dropped() as f64),
        ),
        (
            "gauges".into(),
            Json::Num(crate::counter::dropped_gauges() as f64),
        ),
        ("hists".into(), Json::Num(crate::hist::dropped() as f64)),
    ]);
    Json::Obj(vec![
        ("obs_version".into(), Json::Num(OBS_VERSION as f64)),
        ("spans".into(), Json::Arr(spans)),
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("hists".into(), Json::Arr(hists)),
        ("obs_dropped".into(), dropped),
    ])
}

/// One histogram as its run-report object (sparse buckets, bucket-bound
/// quantiles).
pub fn hist_json(h: &crate::hist::HistStat) -> Json {
    let q = |v: Option<u64>| v.map_or(Json::Null, |b| Json::Num(b as f64));
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i.to_string(), Json::Num(c as f64)))
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(h.name.clone())),
        ("count".into(), Json::Num(h.count as f64)),
        ("sum".into(), Json::Num(h.sum as f64)),
        ("p50".into(), q(h.quantile(0.50))),
        ("p99".into(), q(h.quantile(0.99))),
        ("buckets".into(), Json::Obj(buckets)),
    ])
}

/// Render the report as pretty JSON.
pub fn render_json() -> String {
    to_json().to_pretty()
}

/// Round to microsecond precision: keeps reports tidy and diffs stable.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_recorded_data_and_parses_back() {
        let _l = crate::test_lock();
        {
            let _s = crate::span("report_test_span");
            crate::counter::add("report_test_counter", 41);
            crate::counter::set_gauge("report_test_gauge", -5);
        }
        let text = render_json();
        let v = crate::json::parse(&text).expect("report is valid JSON");
        assert_eq!(
            v.get("obs_version").unwrap().as_f64(),
            Some(OBS_VERSION as f64)
        );
        let spans = match v.get("spans").unwrap() {
            Json::Arr(items) => items,
            other => panic!("spans not an array: {other:?}"),
        };
        assert!(spans
            .iter()
            .any(|s| s.get("path").unwrap().as_str() == Some("report_test_span")));
        assert!(
            v.get("counters")
                .unwrap()
                .get("report_test_counter")
                .unwrap()
                .as_f64()
                .unwrap()
                >= 41.0
        );
        assert_eq!(
            v.get("gauges").unwrap().get("report_test_gauge"),
            Some(&Json::Num(-5.0))
        );
        let dropped = v.get("obs_dropped").expect("report has obs_dropped");
        for kind in ["spans", "counters", "gauges", "hists"] {
            assert_eq!(
                dropped.get(kind).unwrap().as_f64(),
                Some(0.0),
                "{kind} dropped in a healthy run"
            );
        }
    }

    /// Pins the schema decision for histograms: the version stays 1 and
    /// histograms ride under the *new* `hists` key (plus a fourth
    /// `obs_dropped` tally) — every pre-existing key keeps its shape.
    #[test]
    fn report_schema_stays_version_1_with_additive_hists() {
        let _l = crate::test_lock();
        crate::hist::record("report_test_hist", 100);
        crate::hist::record("report_test_hist", 3);
        let v = crate::json::parse(&render_json()).unwrap();
        assert_eq!(OBS_VERSION, 1, "additive change must not bump the version");
        assert_eq!(v.get("obs_version").unwrap().as_f64(), Some(1.0));
        let Some(Json::Arr(hists)) = v.get("hists") else {
            panic!("hists must be an array");
        };
        let h = hists
            .iter()
            .find(|h| h.get("name").unwrap().as_str() == Some("report_test_hist"))
            .expect("recorded histogram appears in the report");
        assert!(h.get("count").unwrap().as_f64().unwrap() >= 2.0);
        assert!(h.get("sum").unwrap().as_f64().unwrap() >= 103.0);
        assert!(h.get("p50").unwrap().as_f64().is_some());
        assert!(h.get("p99").unwrap().as_f64().is_some());
        let Some(Json::Obj(buckets)) = h.get("buckets") else {
            panic!("buckets must be a sparse object");
        };
        assert!(!buckets.is_empty());
        // Sparse: every listed bucket is a non-zero count at a valid index.
        for (k, c) in buckets {
            let idx: usize = k.parse().expect("bucket keys are indices");
            assert!(idx < crate::hist::BUCKETS);
            assert!(c.as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn empty_histograms_render_null_quantiles() {
        let h = crate::hist::HistStat::new("report_test_empty_hist");
        let j = hist_json(&h);
        assert_eq!(j.get("p50"), Some(&Json::Null));
        assert_eq!(j.get("p99"), Some(&Json::Null));
        assert_eq!(j.get("count").unwrap().as_f64(), Some(0.0));
    }
}

//! Prometheus text-exposition rendering of the obs registries.
//!
//! [`render`] serialises every counter, gauge, and histogram into the
//! Prometheus text format (version 0.0.4): dotted obs names are
//! [`sanitize`]d to metric-name charset and prefixed `tta_`, sections
//! come in a fixed order (counters, gauges, histograms), and each section
//! is sorted by name — so two scrapes of the same state are
//! byte-identical and diffs between scrapes are minimal.
//!
//! Histograms use the cumulative `_bucket{le="..."}` / `_sum` / `_count`
//! convention with the log₂ bucket bounds of [`crate::hist`]; the last
//! bucket renders as `le="+Inf"`. All exported values are integers — the
//! format never contains `NaN` or a bare `Inf`.

use crate::hist::{self, HistStat, BUCKETS};

/// Rewrite an obs probe name into the Prometheus metric-name charset:
/// every character outside `[a-zA-Z0-9_]` becomes `_`, and a leading
/// digit is escaped with `_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_counter(out: &mut String, name: &str, value: u64) {
    let m = format!("tta_{}", sanitize(name));
    out.push_str(&format!("# TYPE {m} counter\n{m} {value}\n"));
}

fn push_gauge(out: &mut String, name: &str, value: i64) {
    let m = format!("tta_{}", sanitize(name));
    out.push_str(&format!("# TYPE {m} gauge\n{m} {value}\n"));
}

/// Write one histogram series of metric `m`: cumulative `_bucket` lines,
/// then `_sum` and `_count`. `label` is `key="value"` or empty. Bounds are
/// emitted only up to the first bucket that already holds every sample,
/// which keeps the exposition compact while still spanning the recorded
/// range, plus the mandatory `+Inf`.
fn push_series(out: &mut String, m: &str, label: &str, h: &HistStat) {
    let (le_prefix, braced) = if label.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{label},"), format!("{{{label}}}"))
    };
    let mut cumulative = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        cumulative = cumulative.saturating_add(b);
        let last = i == BUCKETS - 1;
        if !last {
            let le = hist::bucket_bound(i);
            out.push_str(&format!(
                "{m}_bucket{{{le_prefix}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        if last || (cumulative == h.count && h.buckets[i + 1..].iter().all(|&b| b == 0)) {
            out.push_str(&format!(
                "{m}_bucket{{{le_prefix}le=\"+Inf\"}} {cumulative}\n"
            ));
            break;
        }
    }
    out.push_str(&format!(
        "{m}_sum{braced} {}\n{m}_count{braced} {}\n",
        h.sum, h.count
    ));
}

/// Escape a label *value* for the exposition format: backslash, double
/// quote, and newline get backslash-escaped (label values, unlike metric
/// names, may carry arbitrary text).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render one histogram metric split into labeled series: a single
/// `# TYPE` header for `name`, then cumulative `_bucket`/`_sum`/`_count`
/// lines per `(label_value, stat)` entry, each carrying
/// `{<label_key>="<label_value>"}`. Series render in the given order —
/// pass them pre-sorted for deterministic scrapes. Empty `series`
/// renders nothing (no dangling header).
pub fn push_labeled_hist(
    out: &mut String,
    name: &str,
    label_key: &str,
    series: &[(String, HistStat)],
) {
    if series.is_empty() {
        return;
    }
    let m = format!("tta_{}", sanitize(name));
    let k = sanitize(label_key);
    out.push_str(&format!("# TYPE {m} histogram\n"));
    for (value, h) in series {
        let label = format!("{k}=\"{}\"", escape_label_value(value));
        push_series(out, &m, &label, h);
    }
}

/// Render `counters`, `gauges`, and `hists` (each already sorted by
/// name) into one exposition document — the pure core of [`render`].
pub fn render_parts(
    counters: &[(String, u64)],
    gauges: &[(String, i64)],
    hists: &[HistStat],
) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        push_counter(&mut out, name, *value);
    }
    for (name, value) in gauges {
        push_gauge(&mut out, name, *value);
    }
    for h in hists {
        let m = format!("tta_{}", sanitize(&h.name));
        out.push_str(&format!("# TYPE {m} histogram\n"));
        push_series(&mut out, &m, "", h);
    }
    out
}

/// Render the global registries (counters, then gauges, then histograms,
/// each sorted by name) as one Prometheus text-exposition document.
pub fn render() -> String {
    render_parts(
        &crate::counter::snapshot(),
        &crate::counter::snapshot_gauges(),
        &hist::snapshot(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal exposition-format checker: every non-comment line is
    /// `name[{labels}] value` with a finite numeric value; returns the
    /// metric names in order of first appearance.
    fn check_exposition(text: &str) -> Vec<String> {
        let mut names = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') {
                let mut parts = line.split_whitespace();
                assert_eq!(parts.next(), Some("#"));
                assert_eq!(parts.next(), Some("TYPE"), "{line}");
                assert!(parts.next().is_some(), "{line}");
                assert!(
                    matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                    "{line}"
                );
                continue;
            }
            assert!(!line.trim().is_empty(), "no blank lines in the body");
            let (name_part, value_part) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("{line:?}"));
            let value: f64 = value_part
                .parse()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
            assert!(value.is_finite(), "non-finite value in {line:?}");
            let base = name_part.split('{').next().unwrap().to_string();
            assert!(
                base.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {base:?}"
            );
            if names.last() != Some(&base) {
                names.push(base);
            }
        }
        names
    }

    #[test]
    fn sanitize_maps_to_metric_charset() {
        assert_eq!(sanitize("serve.requests.batch"), "serve_requests_batch");
        assert_eq!(sanitize("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("already_fine_1"), "already_fine_1");
    }

    #[test]
    fn parts_render_parseable_and_ordered() {
        let counters = vec![("serve.a".to_string(), 3u64), ("serve.b".to_string(), 9)];
        let gauges = vec![("queue.depth".to_string(), -2i64)];
        let mut h = HistStat::new("job.us");
        h.observe(0);
        h.observe(5);
        h.observe(1000);
        let text = render_parts(&counters, &gauges, &[h]);
        let names = check_exposition(&text);
        // Fixed section order, sorted within sections; histogram expands
        // into its three series.
        assert_eq!(
            names,
            [
                "tta_serve_a",
                "tta_serve_b",
                "tta_queue_depth",
                "tta_job_us_bucket",
                "tta_job_us_sum",
                "tta_job_us_count"
            ]
        );
        assert!(text.contains("tta_queue_depth -2\n"));
        // Cumulative buckets: le="0" holds the zero sample, +Inf all.
        assert!(text.contains("tta_job_us_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("tta_job_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("tta_job_us_sum 1005\n"));
        assert!(text.contains("tta_job_us_count 3\n"));
        // Buckets are cumulative and monotonic.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn rendering_is_deterministic_and_truncates_empty_tail() {
        let mut h = HistStat::new("short.us");
        h.observe(7);
        let a = render_parts(&[], &[], std::slice::from_ref(&h));
        let b = render_parts(&[], &[], std::slice::from_ref(&h));
        assert_eq!(a, b, "two renders of the same state are byte-identical");
        // The tail above the largest sample is elided but +Inf remains.
        assert!(a.contains("le=\"7\""));
        assert!(!a.contains("le=\"15\""), "{a}");
        assert!(a.contains("le=\"+Inf\"} 1"));
    }

    #[test]
    fn labeled_hist_renders_one_header_and_per_label_series() {
        let mut fast = HistStat::new("ignored");
        fast.observe(3);
        fast.observe(5);
        let mut slow = HistStat::new("ignored");
        slow.observe(4000);
        let mut out = String::new();
        push_labeled_hist(
            &mut out,
            "serve.job.kernel_us",
            "kernel",
            &[("sha".into(), fast), ("aes".into(), slow)],
        );
        check_exposition(&out);
        assert_eq!(
            out.matches("# TYPE tta_serve_job_kernel_us histogram")
                .count(),
            1,
            "one TYPE header for the whole family:\n{out}"
        );
        assert!(out.contains("tta_serve_job_kernel_us_bucket{kernel=\"sha\",le=\"+Inf\"} 2"));
        assert!(out.contains("tta_serve_job_kernel_us_bucket{kernel=\"aes\",le=\"+Inf\"} 1"));
        assert!(out.contains("tta_serve_job_kernel_us_sum{kernel=\"sha\"} 8"));
        assert!(out.contains("tta_serve_job_kernel_us_count{kernel=\"aes\"} 1"));
        // Series order follows input order (deterministic scrapes).
        let sha_at = out.find("kernel=\"sha\"").unwrap();
        let aes_at = out.find("kernel=\"aes\"").unwrap();
        assert!(sha_at < aes_at);
    }

    #[test]
    fn labeled_hist_escapes_values_and_elides_empty_input() {
        let mut out = String::new();
        push_labeled_hist(&mut out, "x.y", "kernel", &[]);
        assert!(out.is_empty(), "no dangling header for empty series");
        let mut h = HistStat::new("ignored");
        h.observe(1);
        push_labeled_hist(&mut out, "x.y", "kernel", &[("a\"b\\c".into(), h)]);
        assert!(out.contains("kernel=\"a\\\"b\\\\c\""), "{out}");
    }

    #[test]
    fn global_render_reflects_recorded_probes() {
        let _l = crate::test_lock();
        crate::counter::add("prom_test_counter", 2);
        crate::counter::set_gauge("prom_test_gauge", 5);
        crate::hist::record("prom_test_hist", 100);
        let text = render();
        check_exposition(&text);
        assert!(text.contains("tta_prom_test_counter"));
        assert!(text.contains("tta_prom_test_gauge 5"));
        assert!(text.contains("tta_prom_test_hist_count"));
        assert!(!text.contains("NaN"));
    }
}

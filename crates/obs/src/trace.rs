//! Chrome trace-event export (Perfetto / `about:tracing`).
//!
//! Builds a `.trace.json` document in the Trace Event Format: a single
//! object with a `traceEvents` array of `"X"` (complete) and `"C"`
//! (counter) events, plus `"M"` metadata events naming processes and
//! threads. The output loads directly in <https://ui.perfetto.dev> or
//! `chrome://tracing`.
//!
//! Two producers feed one file:
//!
//! * **Host spans** ([`TraceBuilder::add_host_spans`]) — the aggregate
//!   span registry is rendered as a synthetic flame layout: each span
//!   slot becomes one `"X"` event whose duration is its *total*
//!   thread-seconds, laid out left-to-right inside its parent's window.
//!   This visualises where toolchain time went, not a faithful
//!   chronology (the registry stores totals, not individual enters).
//! * **Guest activity** ([`TraceBuilder::counter`]) — per-cycle-bucket
//!   counter tracks (bus moves, RF port traffic, FU issue) emitted by
//!   the profiling pipeline in `crates/explore`, on a timeline where one
//!   simulated cycle is one microsecond.
//!
//! Timestamps are in microseconds, per the format.

use crate::json::Json;
use std::collections::HashMap;

/// Incrementally builds one Chrome trace-event document.
#[derive(Default)]
pub struct TraceBuilder {
    events: Vec<Json>,
}

/// Shorthand for an ordered JSON object.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Metadata event naming process `pid` in the viewer.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Metadata event naming thread `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        self.events.push(obj(vec![
            ("name", Json::Str(kind.into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(tid as f64)),
            ("args", obj(vec![("name", Json::Str(name.into()))])),
        ]));
    }

    /// A complete (`"X"`) event: `name` ran on `pid`/`tid` from `ts_us`
    /// for `dur_us` microseconds. Extra `args` become the event's args
    /// object.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(&str, Json)>,
    ) {
        self.events.push(obj(vec![
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(tid as f64)),
            ("ts", Json::Num(ts_us)),
            ("dur", Json::Num(dur_us.max(0.0))),
            ("args", obj(args)),
        ]));
    }

    /// A counter (`"C"`) event: one sample of the named track's series
    /// at `ts_us`. Each `(series, value)` pair renders as a stacked area
    /// in the viewer.
    pub fn counter(&mut self, pid: u64, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        let args = series
            .iter()
            .map(|&(k, v)| (k, Json::Num(v)))
            .collect::<Vec<_>>();
        self.events.push(obj(vec![
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("C".into())),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(0.0)),
            ("ts", Json::Num(ts_us)),
            ("args", obj(args)),
        ]));
    }

    /// Render the current span-registry snapshot as a synthetic flame
    /// layout on process `pid`, thread 0 (see the module docs for what
    /// "synthetic" means). Returns the number of events added.
    pub fn add_host_spans(&mut self, pid: u64) -> usize {
        let snap = crate::span::snapshot();
        let before = self.events.len();
        // Snapshot order is sorted by path, so every parent precedes its
        // children (a parent path is a strict prefix).
        let mut start_us: HashMap<String, f64> = HashMap::new();
        let mut end_us: HashMap<String, f64> = HashMap::new();
        // Next free offset inside each parent's window.
        let mut cursor_us: HashMap<String, f64> = HashMap::new();
        for s in &snap {
            let (parent, leaf) = match s.path.rsplit_once('/') {
                Some((p, l)) => (p.to_string(), l),
                None => (String::new(), s.path.as_str()),
            };
            let parent_start = start_us.get(&parent).copied().unwrap_or(0.0);
            let cur = cursor_us.entry(parent.clone()).or_insert(0.0);
            let ts = parent_start + *cur;
            let mut dur = s.total_s * 1e6;
            // Children are thread-seconds and may sum past the parent's
            // wall window; clamp so the flame stays visually nested.
            if let Some(&pe) = end_us.get(&parent) {
                dur = dur.min((pe - ts).max(0.0));
            }
            *cur += dur;
            start_us.insert(s.path.clone(), ts);
            end_us.insert(s.path.clone(), ts + dur);
            self.complete(
                pid,
                0,
                leaf,
                ts,
                dur,
                vec![
                    ("path", Json::Str(s.path.clone())),
                    ("count", Json::Num(s.count as f64)),
                    ("total_s", Json::Num(s.total_s)),
                ],
            );
        }
        self.events.len() - before
    }

    /// The finished document: `{"displayTimeUnit": "ms", "traceEvents":
    /// [...]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(self.events.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural validity: what Perfetto's importer requires of each
    /// event (shared with the explore-side trace test).
    fn assert_valid_trace(doc: &Json) {
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(ev)) => ev,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        for ev in events {
            let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
            assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
            assert!(ev.get("pid").and_then(|p| p.as_f64()).is_some());
            assert!(ev.get("tid").and_then(|t| t.as_f64()).is_some());
            match ph {
                "M" => {}
                "X" => {
                    assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
                    let dur = ev.get("dur").and_then(|d| d.as_f64()).expect("dur");
                    assert!(dur >= 0.0);
                }
                "C" => {
                    assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
                    assert!(matches!(ev.get("args"), Some(Json::Obj(_))));
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
    }

    #[test]
    fn builder_emits_structurally_valid_events() {
        let mut t = TraceBuilder::new();
        t.process_name(1, "guest");
        t.thread_name(1, 0, "cycles");
        t.complete(
            1,
            0,
            "kernel",
            0.0,
            125.0,
            vec![("cycles", Json::Num(125.0))],
        );
        t.counter(1, "bus moves", 0.0, &[("bus0", 1.5), ("bus1", 0.25)]);
        t.counter(1, "bus moves", 64.0, &[("bus0", 2.0), ("bus1", 0.0)]);
        let doc = t.to_json();
        assert_valid_trace(&doc);
        // And the emitted text parses back identically.
        let text = doc.to_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn negative_durations_are_clamped() {
        let mut t = TraceBuilder::new();
        t.complete(0, 0, "x", 10.0, -5.0, vec![]);
        let doc = t.to_json();
        let ev = match doc.get("traceEvents") {
            Some(Json::Arr(ev)) => &ev[0],
            _ => unreachable!(),
        };
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn host_spans_render_as_a_nested_flame() {
        let _l = crate::test_lock();
        {
            let _a = crate::span("trace_test_root");
            let _b = crate::span("trace_test_mid");
            let _c = crate::span("trace_test_leaf");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let mut t = TraceBuilder::new();
        t.process_name(0, "host");
        let added = t.add_host_spans(0);
        assert!(added >= 3, "{added}");
        let doc = t.to_json();
        assert_valid_trace(&doc);

        let events = match doc.get("traceEvents") {
            Some(Json::Arr(ev)) => ev,
            _ => unreachable!(),
        };
        let window = |path: &str| -> (f64, f64) {
            let ev = events
                .iter()
                .find(|e| {
                    e.get("args")
                        .and_then(|a| a.get("path"))
                        .and_then(|p| p.as_str())
                        == Some(path)
                })
                .unwrap_or_else(|| panic!("no event for {path}"));
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            let dur = ev.get("dur").unwrap().as_f64().unwrap();
            (ts, ts + dur)
        };
        let root = window("trace_test_root");
        let mid = window("trace_test_root/trace_test_mid");
        let leaf = window("trace_test_root/trace_test_mid/trace_test_leaf");
        let eps = 1e-6;
        assert!(
            mid.0 >= root.0 - eps && mid.1 <= root.1 + eps,
            "{root:?} {mid:?}"
        );
        assert!(
            leaf.0 >= mid.0 - eps && leaf.1 <= mid.1 + eps,
            "{mid:?} {leaf:?}"
        );
        assert!(leaf.1 > leaf.0, "leaf has non-zero duration");
    }
}

//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions: name, start, end, parent, and the
//! id of the case or request they belong to. They stay in memory and are
//! written once, at exit, through `tta_obs::TraceBuilder` (Chrome
//! trace-event JSON).

use std::sync::Mutex;
use std::time::Instant;

use tta_obs::json::Json;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    id: u64,
    tid: u64,
}

/// In-memory span log shared by the benchmark's threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Rec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, id: u64, tid: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            tid,
        });
        spans.len() - 1
    }

    /// Close a span opened with [`Tracer::begin`]; returns its duration
    /// in seconds.
    pub fn end(&self, span: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        let rec = &mut spans[span];
        rec.end_ns = end_ns;
        (end_ns - rec.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span that is a child of `parent` and shares its
    /// id and thread.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let (id, tid) = {
            let spans = self.spans.lock().expect("tracer lock");
            (spans[parent].id, spans[parent].tid)
        };
        let s = self.begin(name, id, tid, Some(parent));
        let out = f();
        self.end(s);
        out
    }

    /// Self time of every span, ns: its duration minus its children's.
    fn self_ns(spans: &[Rec]) -> Vec<u64> {
        let mut child_ns = vec![0u64; spans.len()];
        for r in spans {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .map(|(r, c)| (r.end_ns - r.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-name totals: `(name, count, total seconds, self seconds)`.
    pub fn totals(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let spans = self.spans.lock().expect("tracer lock");
        let self_ns = Self::self_ns(&spans);
        let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (r, self_ns) in spans.iter().zip(self_ns) {
            let dur = r.end_ns - r.start_ns;
            match out.iter_mut().find(|t| t.0 == r.name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += dur as f64 * 1e-9;
                    t.3 += self_ns as f64 * 1e-9;
                }
                None => out.push((r.name, 1, dur as f64 * 1e-9, self_ns as f64 * 1e-9)),
            }
        }
        out
    }

    /// Total seconds and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.totals()
            .into_iter()
            .find(|t| t.0 == name)
            .map_or((0.0, 0), |t| (t.2, t.1))
    }

    /// Durations, seconds, of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock");
        spans
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Render every span as a Chrome trace-event document.
    pub fn to_json(&self, process: &str) -> Json {
        let spans = self.spans.lock().expect("tracer lock");
        let self_ns = Self::self_ns(&spans);
        let mut t = tta_obs::TraceBuilder::new();
        t.process_name(0, process);
        for (i, (r, self_ns)) in spans.iter().zip(self_ns).enumerate() {
            let parent = r.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            t.complete(
                0,
                r.tid,
                r.name,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                vec![
                    ("span", Json::Num(i as f64)),
                    ("parent", parent),
                    ("id", Json::Num(r.id as f64)),
                    ("self_us", Json::Num(self_ns as f64 / 1e3)),
                ],
            );
        }
        t.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = t.begin("case", 7, 0, None);
        t.time("child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let totals = t.totals();
        let case = totals.iter().find(|x| x.0 == "case").unwrap();
        let child = totals.iter().find(|x| x.0 == "child").unwrap();
        assert_eq!((case.1, child.1), (1, 1));
        assert!(child.2 >= 0.002);
        assert!((case.3 - (case.2 - child.2)).abs() < 1e-9);
        let doc = t.to_json("test");
        let text = doc.to_compact();
        assert!(text.contains("\"id\":7"), "{text}");
    }
}

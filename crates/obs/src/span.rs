//! Hierarchical timing spans.
//!
//! A span charges wall-clock time to a `(name, parent)` slot in a global
//! fixed-capacity registry, the crate's one interned table (counters and
//! histograms use the same one). Slots are interned on first use and never
//! freed; the hot path (enter/exit) is a registry scan plus two `Instant`
//! reads and two relaxed `fetch_add`s — no locks, no allocation. Totals
//! are *thread-seconds*: when several threads run under the same parent
//! (see [`attach`]), their durations sum, exactly like the eval
//! pipeline's historical per-stage accounting.
//!
//! Nesting is tracked with a per-thread stack: a span entered while
//! another is open becomes its child, and the report renders the full
//! `parent/child` path. To carry the hierarchy across a thread boundary,
//! capture [`current`] before spawning and either [`attach`] it in the
//! worker (adopting it as the ambient parent) or open children directly
//! with [`span_under`].
//!
//! Exhaustion degrades gracefully: once all [`MAX_SPANS`] slots are
//! claimed, further *new* `(name, parent)` keys record nothing and bump
//! the [`dropped`] tally (existing keys keep working). The run report
//! surfaces the tally under `obs_dropped` so a silent gap in the span
//! tree is visible as a number instead of a mystery.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::registry::{Registry, ROOT};

/// Maximum distinct `(name, parent)` span slots; later spans are dropped.
pub const MAX_SPANS: usize = 512;

/// Cells of a span slot.
const TOTAL_NS: usize = 0;
const COUNT: usize = 1;

/// The process-wide registry behind [`span`], [`snapshot`] and friends.
static REGISTRY: Registry<2, MAX_SPANS> = Registry::new();

/// The `/`-joined path of slot `i`, walking its parent chain (a slot's
/// parent always has a lower index, so the walk ends).
fn path_of(i: usize) -> String {
    let mut parts = vec![REGISTRY.name(i)];
    let mut at = REGISTRY.parent(i);
    while at != ROOT {
        parts.push(REGISTRY.name(at));
        at = REGISTRY.parent(at);
    }
    parts.reverse();
    parts.join("/")
}

/// Total seconds and count of slot `i`.
fn totals(i: usize) -> (f64, u64) {
    let v = REGISTRY.values(i);
    (
        v[TOTAL_NS].load(Ordering::Relaxed) as f64 * 1e-9,
        v[COUNT].load(Ordering::Relaxed),
    )
}

thread_local! {
    /// Stack of open span slot indices on this thread.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// A position in the span tree that can be sent to another thread (see
/// [`current`], [`span_under`], [`attach`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(usize);

impl SpanHandle {
    /// The root handle: spans opened under it have no parent.
    pub const ROOT: SpanHandle = SpanHandle(ROOT);
}

/// The innermost span currently open on this thread (or the root handle).
pub fn current() -> SpanHandle {
    STACK.with(|s| SpanHandle(s.borrow().last().copied().unwrap_or(ROOT)))
}

/// RAII timing guard returned by [`span`] / [`span_under`]. Charges the
/// elapsed wall time to its slot on drop. Not `Send`: a guard must drop
/// on the thread that opened it (the per-thread nesting stack).
pub struct Span {
    /// `(slot, enter time)`; `None` when disabled or the registry is full.
    open: Option<(usize, Instant)>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    const DISABLED: Span = Span {
        open: None,
        _not_send: std::marker::PhantomData,
    };

    fn enter(name: &'static str, parent: usize) -> Span {
        let Some(slot) = REGISTRY.intern(name, parent) else {
            return Span::DISABLED;
        };
        STACK.with(|s| s.borrow_mut().push(slot));
        Span {
            open: Some((slot, Instant::now())),
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((slot, start)) = self.open else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        let v = REGISTRY.values(slot);
        v[TOTAL_NS].fetch_add(ns, Ordering::Relaxed);
        v[COUNT].fetch_add(1, Ordering::Relaxed);
        // Guards drop in LIFO order (they are !Send and scope-bound), but
        // be defensive: remove our slot wherever it sits, and tolerate a
        // thread-local already torn down during thread exit.
        let _ = STACK.try_with(|s| {
            let mut st = s.borrow_mut();
            match st.last() {
                Some(&top) if top == slot => {
                    st.pop();
                }
                _ => {
                    if let Some(pos) = st.iter().rposition(|&x| x == slot) {
                        st.remove(pos);
                    }
                }
            }
        });
    }
}

/// Open a span named `name` under the innermost span open on this thread
/// (a nested call produces a `parent/child` path in the report).
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span::DISABLED;
    }
    Span::enter(name, current().0)
}

/// Open a span named `name` under an explicit parent captured with
/// [`current`] — typically on a different thread.
pub fn span_under(parent: SpanHandle, name: &'static str) -> Span {
    if !crate::enabled() {
        return Span::DISABLED;
    }
    Span::enter(name, parent.0)
}

/// RAII guard making `handle` this thread's ambient parent (see
/// [`attach`]).
pub struct Attach {
    pushed: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Attach {
    fn drop(&mut self) {
        if self.pushed {
            let _ = STACK.try_with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Adopt `handle` as this thread's ambient span without timing anything:
/// until the guard drops, plain [`span`] calls on this thread nest under
/// it. This is how a worker pool inherits the span of the thread that
/// spawned it.
pub fn attach(handle: SpanHandle) -> Attach {
    let pushed = handle.0 != ROOT && crate::enabled();
    if pushed {
        STACK.with(|s| s.borrow_mut().push(handle.0));
    }
    Attach {
        pushed,
        _not_send: std::marker::PhantomData,
    }
}

/// One span's aggregated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Full `parent/child` path.
    pub path: String,
    /// Total charged time in seconds (thread-seconds when several
    /// threads share the slot).
    pub total_s: f64,
    /// Number of completed enter/exit pairs.
    pub count: u64,
}

/// Snapshot every span with a non-zero count, sorted by path.
pub fn snapshot() -> Vec<SpanStat> {
    let mut out: Vec<SpanStat> = (0..REGISTRY.len())
        .map(|i| {
            let (total_s, count) = totals(i);
            SpanStat {
                path: path_of(i),
                total_s,
                count,
            }
        })
        .filter(|s| s.count > 0)
        .collect();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// Total seconds and completion count recorded for the span at `path`
/// (e.g. `"eval/compile"`), or `None` if no such span exists yet.
pub fn stat(path: &str) -> Option<(f64, u64)> {
    (0..REGISTRY.len())
        .find(|&i| path_of(i) == path)
        .map(totals)
}

/// How many span entries were refused because the registry was full.
pub fn dropped() -> u64 {
    REGISTRY.dropped()
}

/// Zero every span total, count and the dropped tally (slots stay
/// interned).
pub fn reset() {
    REGISTRY.reset();
}

/// Zero totals for the span at `prefix` and everything below it (path
/// equal to `prefix` or starting with `prefix/`).
pub fn reset_prefix(prefix: &str) {
    for i in 0..REGISTRY.len() {
        let p = path_of(i);
        if p.strip_prefix(prefix)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        {
            REGISTRY.clear(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_paths() {
        let _l = crate::test_lock();
        {
            let _a = span("span_test_outer");
            let _b = span("span_test_inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (outer_s, outer_n) = stat("span_test_outer").unwrap();
        let (inner_s, inner_n) = stat("span_test_outer/span_test_inner").unwrap();
        assert!(outer_n >= 1 && inner_n >= 1);
        assert!(outer_s >= inner_s, "{outer_s} < {inner_s}");
        assert!(inner_s > 0.0);
    }

    #[test]
    fn cross_thread_spans_aggregate_under_parent() {
        let _l = crate::test_lock();
        let handle = {
            let _root = span("span_test_xthread");
            let h = current();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _ctx = attach(h);
                        let _w = span("span_test_worker");
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    });
                }
            });
            h
        };
        assert_ne!(handle, SpanHandle::ROOT);
        let (s, n) = stat("span_test_xthread/span_test_worker").unwrap();
        assert_eq!(n, 2);
        // Two threads sleeping ~1ms each: thread-seconds, so ≥ ~2ms.
        assert!(s >= 0.002, "{s}");
    }

    #[test]
    fn span_under_does_not_need_attach() {
        let _l = crate::test_lock();
        {
            let _root = span("span_test_under");
            let h = current();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _w = span_under(h, "span_test_leaf");
                });
            });
        }
        assert!(stat("span_test_under/span_test_leaf").is_some());
    }

    #[test]
    fn reset_prefix_zeroes_subtree_only() {
        let _l = crate::test_lock();
        {
            let _a = span("span_test_rp_keep");
        }
        {
            let _a = span("span_test_rp_zap");
            let _b = span("span_test_rp_child");
        }
        reset_prefix("span_test_rp_zap");
        assert_eq!(stat("span_test_rp_zap").unwrap().1, 0);
        assert_eq!(stat("span_test_rp_zap/span_test_rp_child").unwrap().1, 0);
        assert!(stat("span_test_rp_keep").unwrap().1 >= 1);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = crate::test_lock();
        crate::set_enabled(false);
        {
            let _a = span("span_test_disabled");
        }
        crate::set_enabled(true);
        assert_eq!(stat("span_test_disabled"), None);
    }

    #[test]
    fn snapshot_is_sorted_and_nonempty_after_use() {
        let _l = crate::test_lock();
        {
            let _a = span("span_test_snap");
        }
        let snap = snapshot();
        assert!(snap.iter().any(|s| s.path == "span_test_snap"));
        for w in snap.windows(2) {
            assert!(w[0].path < w[1].path);
        }
    }

    #[test]
    fn dropped_tally_is_zero_on_the_global_registry() {
        let _l = crate::test_lock();
        // The whole test suite interns far fewer than MAX_SPANS keys; a
        // non-zero tally here would mean real spans are being lost.
        assert_eq!(dropped(), 0);
    }
}

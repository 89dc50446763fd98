//! # tta-obs — observability for the TTA soft-core pipeline
//!
//! A dependency-free instrumentation layer (std atomics only — the build
//! is offline). Spans, counters, gauges and histograms all live in one
//! kind of table: a fixed-capacity registry of slots keyed by a
//! `&'static str` name and a parent slot, claimed under a spinlock on
//! first use, scanned lock-free on every probe, and counting the probes it
//! refuses once full (`obs_dropped` in the run report). The pieces:
//!
//! * **Hierarchical timing spans** ([`span`](mod@span)) — RAII guards that
//!   charge wall time to a `(name, parent)` slot (512 slots).
//!   Nesting is tracked per thread; a parent can be carried across a
//!   thread boundary with [`span::current`] + [`span::attach`], so worker
//!   pools aggregate under the span that spawned them.
//! * **Monotonic counters and gauges** ([`counter`]) — named `u64`/`i64`
//!   cells (256 slots each), updated with relaxed atomics.
//! * **Log₂-bucketed histograms** ([`hist`]) — lock-free latency
//!   histograms (64 slots) with merge and quantile queries (the serve
//!   layer's per-job latencies).
//! * **A flight recorder** ([`flight`]) — a bounded ring buffer of
//!   recent structured events (request/job/shutdown transitions),
//!   dumpable to stderr on panic or timeout and servable as JSON.
//! * **A machine-readable run report** ([`report`]) — a stable JSON
//!   rendering of every span, counter, and histogram, embedded by the
//!   bench binaries into `BENCH_*.json` and diffed by `bench_report` in
//!   CI.
//! * **Prometheus text exposition** ([`prom`]) — the same registries
//!   rendered for a `GET /v1/metrics` scrape.
//! * **NDJSON framing** ([`ndjson`]) — one compact JSON document per
//!   line, the streaming form of the serve layer's per-job run reports.
//! * **A Chrome trace-event exporter** ([`trace`]) — serialises host
//!   spans and guest cycle activity into one `.trace.json` that loads in
//!   Perfetto / `about:tracing`.
//!
//! Instrumentation never changes *what* the instrumented code computes —
//! simulators flush their already-collected `SimStats` totals (`tta-sim`)
//! after a run instead of counting in the cycle loop — so cycle snapshots
//! stay bit-identical whether observability is enabled or not. The global
//! [`enabled`] switch (env: `TTA_OBS=0` via [`init_from_env`]) reduces
//! every probe to one relaxed atomic load for timing-purist runs.

#![warn(missing_docs)]

pub mod counter;
pub mod flight;
pub mod hist;
pub mod json;
pub mod ndjson;
pub mod prom;
mod registry;
pub mod report;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use span::{attach, current, span, span_under, Span, SpanHandle};
pub use trace::TraceBuilder;

/// Global on/off switch; `true` at startup.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is currently recording. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off process-wide. Disabling does not clear data
/// already recorded ([`reset`] does).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Apply the `TTA_OBS` environment variable: `0`, `off` or `false`
/// disables recording; anything else (or unset) leaves it enabled.
/// Binaries call this once at startup.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("TTA_OBS") {
        let v = v.trim().to_ascii_lowercase();
        set_enabled(!matches!(v.as_str(), "0" | "off" | "false"));
    }
}

/// Zero every span total, counter/gauge value, and histogram (slot names
/// stay interned, so handles remain valid).
pub fn reset() {
    span::reset();
    counter::reset();
    hist::reset();
}

/// Serialises this crate's own unit tests: they share one global
/// registry and one enabled flag, so tests that toggle or reset state
/// must not interleave.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_round_trips() {
        let _l = crate::test_lock();
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}

//! Monotonic counters and gauges in global lock-free registries.
//!
//! Counters ([`add`]) only grow; gauges ([`set_gauge`]) hold the last
//! value written. Both are named by `&'static str` and updated with
//! relaxed atomics: a probe is one registry scan plus one `fetch_add`
//! or `store`. Each kind has its own instance of the crate's one interned
//! registry (the one spans and histograms use): names are interned on
//! first use and never freed, a full table drops new names and counts
//! them, and [`reset`] zeroes values but keeps names.

use std::sync::atomic::Ordering;

use crate::registry::{Registry, ROOT};

/// Maximum distinct counter names and gauge names (each kind has its own
/// table); later names are dropped.
pub const MAX_CELLS: usize = 256;

/// One named `u64` per slot; gauges store their `i64` as its bits.
type Table = Registry<1, MAX_CELLS>;

static COUNTERS: Table = Table::new();
static GAUGES: Table = Table::new();

fn get_in(table: &Table, name: &str) -> Option<u64> {
    table
        .find(name, ROOT)
        .map(|i| table.values(i)[0].load(Ordering::Relaxed))
}

fn snapshot_of(table: &Table) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = (0..table.len())
        .map(|i| {
            (
                table.name(i).to_string(),
                table.values(i)[0].load(Ordering::Relaxed),
            )
        })
        .collect();
    out.sort();
    out
}

/// Add `delta` to the counter `name` (interned on first use). A no-op
/// when recording is disabled or the table is full.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    if let Some(i) = COUNTERS.intern(name, ROOT) {
        COUNTERS.values(i)[0].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Current value of the counter `name`, or `None` if it was never
/// touched.
pub fn get(name: &str) -> Option<u64> {
    get_in(&COUNTERS, name)
}

/// Set the gauge `name` to `value` (last write wins). A no-op when
/// recording is disabled or the table is full.
#[inline]
pub fn set_gauge(name: &'static str, value: i64) {
    if !crate::enabled() {
        return;
    }
    if let Some(i) = GAUGES.intern(name, ROOT) {
        GAUGES.values(i)[0].store(value as u64, Ordering::Relaxed);
    }
}

/// Current value of the gauge `name`, or `None` if it was never set.
pub fn get_gauge(name: &str) -> Option<i64> {
    get_in(&GAUGES, name).map(|v| v as i64)
}

/// All counters, sorted by name.
pub fn snapshot() -> Vec<(String, u64)> {
    snapshot_of(&COUNTERS)
}

/// All gauges, sorted by name.
pub fn snapshot_gauges() -> Vec<(String, i64)> {
    snapshot_of(&GAUGES)
        .into_iter()
        .map(|(n, v)| (n, v as i64))
        .collect()
}

/// How many counter updates were refused because the table was full.
pub fn dropped() -> u64 {
    COUNTERS.dropped()
}

/// How many gauge updates were refused because the table was full.
pub fn dropped_gauges() -> u64 {
    GAUGES.dropped()
}

/// Zero every counter and gauge plus the dropped tallies (names stay
/// interned).
pub fn reset() {
    COUNTERS.reset();
    GAUGES.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let _l = crate::test_lock();
        add("ctr_test_acc", 2);
        add("ctr_test_acc", 3);
        assert!(get("ctr_test_acc").unwrap() >= 5);
        assert_eq!(get("ctr_test_never"), None);
    }

    #[test]
    fn gauges_take_last_value() {
        let _l = crate::test_lock();
        set_gauge("gauge_test_last", 7);
        set_gauge("gauge_test_last", -3);
        assert_eq!(get_gauge("gauge_test_last"), Some(-3));
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _l = crate::test_lock();
        crate::set_enabled(false);
        add("ctr_test_disabled", 1);
        set_gauge("gauge_test_disabled", 1);
        crate::set_enabled(true);
        assert_eq!(get("ctr_test_disabled"), None);
        assert_eq!(get_gauge("gauge_test_disabled"), None);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let _l = crate::test_lock();
        let before = get("ctr_test_mt").unwrap_or(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        add("ctr_test_mt", 1);
                    }
                });
            }
        });
        assert_eq!(get("ctr_test_mt").unwrap(), before + 4000);
    }

    #[test]
    fn dropped_tallies_are_zero_on_the_global_tables() {
        let _l = crate::test_lock();
        // The suite interns far fewer than MAX_CELLS names; a non-zero
        // tally here would mean real counters are being lost.
        assert_eq!(dropped(), 0);
        assert_eq!(dropped_gauges(), 0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let _l = crate::test_lock();
        add("ctr_test_snap_b", 1);
        add("ctr_test_snap_a", 1);
        let snap = snapshot();
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}

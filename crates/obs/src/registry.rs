//! The one interned table behind spans, counters, gauges and histograms.
//!
//! A [`Registry`] holds up to `N` slots. Each slot is keyed by a
//! `&'static str` name and a parent slot index ([`ROOT`] for none) and
//! carries `K` relaxed `u64` cells. Slots are claimed densely from 0, under
//! a spinlock, the first time their key is probed, and are never freed;
//! lookups scan the claimed prefix without locking. Names compare by
//! content, so equal literals from different crates share a slot.
//!
//! A full registry claims nothing more: a probe of a new key records
//! nothing and bumps the dropped tally, while keys already interned keep
//! working. The run report surfaces each tally under `obs_dropped`, so a
//! blind spot shows up as a number instead of a mystery.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Parent index of a slot with no parent.
pub(crate) const ROOT: usize = usize::MAX;

/// One slot. Every field starts at zero, so a registry is all zero bits
/// and costs no resident memory until its slots are used.
struct Slot<const K: usize> {
    /// Pointer and length of the slot's `&'static str` name; the pointer
    /// stays null until the slot is claimed.
    name_ptr: AtomicPtr<u8>,
    name_len: AtomicUsize,
    parent: AtomicUsize,
    values: [AtomicU64; K],
}

impl<const K: usize> Slot<K> {
    /// Write the key of a slot. Called once per slot, under the claim
    /// lock.
    fn claim(&self, name: &'static str, parent: usize) {
        self.name_len.store(name.len(), Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
        self.name_ptr
            .store(name.as_ptr().cast_mut(), Ordering::Release);
    }

    /// The slot's name, or `None` while it is unclaimed.
    fn name(&self) -> Option<&'static str> {
        let ptr = self.name_ptr.load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        let len = self.name_len.load(Ordering::Relaxed);
        // SAFETY: only `claim` stores a non-null pointer, once per slot:
        // the pointer of a `&'static str` whose length it stored before
        // that Release store. This Acquire load saw the pointer, so it
        // sees that length too, and the pair is that same `&'static str`.
        Some(unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) })
    }

    /// Whether the slot is keyed `(name, parent)`. Compares the name
    /// first: most slots differ there, and counters and histograms all
    /// share one parent.
    fn is(&self, name: &str, parent: usize) -> bool {
        self.name() == Some(name) && self.parent.load(Ordering::Relaxed) == parent
    }
}

/// `N` interned slots of `K` cells each.
pub(crate) struct Registry<const K: usize, const N: usize> {
    slots: [Slot<K>; N],
    /// Claimed slots. A slot is claimed before `len` is released past
    /// it, so every slot below an acquired `len` is claimed.
    len: AtomicUsize,
    /// Serialises claiming only, so a key is claimed exactly once.
    lock: AtomicBool,
    /// Probes of new keys refused because the registry was full.
    dropped: AtomicU64,
}

impl<const K: usize, const N: usize> Registry<K, N> {
    pub(crate) const fn new() -> Self {
        Registry {
            slots: [const {
                Slot {
                    name_ptr: AtomicPtr::new(std::ptr::null_mut()),
                    name_len: AtomicUsize::new(0),
                    parent: AtomicUsize::new(0),
                    values: [const { AtomicU64::new(0) }; K],
                }
            }; N],
            len: AtomicUsize::new(0),
            lock: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of claimed slots; slots `0..len()` are live.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The slot keyed `(name, parent)`, if it was interned.
    pub(crate) fn find(&self, name: &str, parent: usize) -> Option<usize> {
        self.slots[..self.len()]
            .iter()
            .position(|s| s.is(name, parent))
    }

    /// The slot keyed `(name, parent)`, claimed on first use. `None` when
    /// the registry is full: the caller records nothing rather than
    /// charge someone else's slot.
    pub(crate) fn intern(&self, name: &'static str, parent: usize) -> Option<usize> {
        if let Some(i) = self.find(name, parent) {
            return Some(i);
        }
        while self
            .lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // Only lock holders move `len`, so this second scan is final.
        let got = self.find(name, parent).or_else(|| {
            let len = self.len();
            if len < N {
                self.slots[len].claim(name, parent);
                self.len.store(len + 1, Ordering::Release);
                Some(len)
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        });
        self.lock.store(false, Ordering::Release);
        got
    }

    /// The interned name of live slot `i`.
    pub(crate) fn name(&self, i: usize) -> &'static str {
        self.slots[i].name().expect("slots below len() are claimed")
    }

    /// The parent index of live slot `i` ([`ROOT`] for none).
    pub(crate) fn parent(&self, i: usize) -> usize {
        self.slots[i].parent.load(Ordering::Relaxed)
    }

    /// The cells of slot `i`.
    pub(crate) fn values(&self, i: usize) -> &[AtomicU64; K] {
        &self.slots[i].values
    }

    /// Zero the cells of slot `i`.
    pub(crate) fn clear(&self, i: usize) {
        for v in self.values(i) {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// Probes refused because the registry was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Zero every cell and the dropped tally; keys stay interned.
    pub(crate) fn reset(&self) {
        for i in 0..self.len() {
            self.clear(i);
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_registry_drops_new_keys_and_counts_them() {
        let r: Registry<2, 4> = Registry::new();
        assert_eq!(r.intern("a", ROOT), Some(0));
        assert_eq!(r.intern("b", ROOT), Some(1));
        // The parent is part of the key, and names compare by content.
        assert_eq!(r.intern("a", 0), Some(2));
        let copy: &'static str = String::from("a").leak();
        assert_eq!(r.intern(copy, ROOT), Some(0));
        assert_eq!(r.intern("c", 1), Some(3));
        assert_eq!((r.len(), r.dropped()), (4, 0));
        assert_eq!((r.name(2), r.parent(2)), ("a", 0));
        // Full: new keys degrade to drops...
        assert_eq!(r.intern("d", ROOT), None);
        assert_eq!(r.intern("b", 0), None);
        assert_eq!((r.len(), r.dropped()), (4, 2));
        assert_eq!(r.find("d", ROOT), None);
        // ...while interned keys keep working.
        assert_eq!(r.intern("c", 1), Some(3));
        r.values(3)[1].fetch_add(5, Ordering::Relaxed);
        assert_eq!(r.dropped(), 2);
        // `reset` zeroes cells and the tally and keeps the keys.
        r.reset();
        assert_eq!(
            (r.dropped(), r.values(3)[1].load(Ordering::Relaxed)),
            (0, 0)
        );
        assert_eq!(r.find("c", 1), Some(3));
    }
}

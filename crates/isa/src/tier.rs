//! Hotness-tiered promotion table for superblock execution.
//!
//! The simulators in `tta-sim` execute a program in tiers (DESIGN.md
//! §14): the program is decoded per run (tier 1) and interpreted a
//! superblock at a time (tier 2, [`crate::BlockMap`]), and in the TTA
//! engine superblocks whose entry pc crosses a hotness threshold are
//! *promoted* — compiled once into an array of resolved thunks and
//! executed directly from then on (tier 3). This module owns the
//! engine-independent half of that machinery: the per-pc heat counters,
//! the promote-once discipline and the environment configuration. The compiled-block representation
//! itself lives with the engine; the table is generic over it.
//!
//! The promotion-threshold invariant: the tier a block executes in is
//! *never observable* in simulation results. Cycles, `SimStats`, memory
//! images and error behaviour are bit-identical whether a block runs
//! interpreted forever (`TTA_JIT=0`), compiled from its first entry
//! (`TTA_JIT_THRESHOLD=0`) or promoted mid-run at any threshold in
//! between. `tests/tier_transitions.rs`, the cycle-snapshot suite and
//! the fuzz corpus enforce this in both forced modes.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Tiered-execution configuration, normally read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Whether the compiled tier is enabled at all (`TTA_JIT=0` clears).
    pub enabled: bool,
    /// Block entries at one pc before promotion (`TTA_JIT_THRESHOLD`).
    /// 0 promotes on first entry.
    pub threshold: u32,
}

impl TierConfig {
    /// Entries at one pc before promotion when `TTA_JIT_THRESHOLD` is
    /// unset: high enough that straight-through code stays interpreted,
    /// low enough that any loop promotes almost immediately.
    pub const DEFAULT_THRESHOLD: u32 = 8;

    /// The enabled default configuration.
    pub const fn default_on() -> TierConfig {
        TierConfig {
            enabled: true,
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }

    /// A disabled configuration (everything stays interpreted).
    pub const fn disabled() -> TierConfig {
        TierConfig {
            enabled: false,
            threshold: u32::MAX,
        }
    }

    /// An enabled configuration with an explicit promotion threshold.
    pub const fn with_threshold(threshold: u32) -> TierConfig {
        TierConfig {
            enabled: true,
            threshold,
        }
    }

    /// The process-wide configuration from `TTA_JIT` / `TTA_JIT_THRESHOLD`,
    /// read once and cached. `TTA_JIT=0|false|off` disables the compiled
    /// tier entirely; any other (or absent) value leaves it on.
    pub fn from_env() -> TierConfig {
        static CFG: OnceLock<TierConfig> = OnceLock::new();
        *CFG.get_or_init(|| {
            let enabled = !std::env::var("TTA_JIT").is_ok_and(|v| {
                matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "false" | "off"
                )
            });
            if !enabled {
                return TierConfig::disabled();
            }
            let threshold = std::env::var("TTA_JIT_THRESHOLD")
                .ok()
                .and_then(|v| v.trim().parse::<u32>().ok())
                .unwrap_or(Self::DEFAULT_THRESHOLD);
            TierConfig::with_threshold(threshold)
        })
    }
}

/// One pc's tier state: a heat counter until promotion, then the
/// compiled block. `OnceLock` gives the promote-once discipline for free
/// and lets tables be shared across evaluation worker threads.
#[derive(Debug, Default)]
struct Slot<B> {
    heat: AtomicU32,
    block: OnceLock<B>,
}

/// What a block-entry lookup found.
#[derive(Debug)]
pub enum TierEntry<'a, B> {
    /// A compiled block is installed at this pc: execute it.
    Compiled(&'a B),
    /// The heat counter just crossed the threshold: compile and
    /// [`TierTable::install`] now.
    Promote,
    /// Still cold: run interpreted.
    Cold,
}

/// Per-program promotion table: one slot per pc (any pc can start a
/// superblock — jump targets land mid-run), a shared threshold.
#[derive(Debug)]
pub struct TierTable<B> {
    slots: Vec<Slot<B>>,
    threshold: u32,
}

impl<B> TierTable<B> {
    /// An all-cold table for a program of `len` instructions.
    pub fn new(len: usize, threshold: u32) -> TierTable<B> {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || Slot {
            heat: AtomicU32::new(0),
            block: OnceLock::new(),
        });
        TierTable { slots, threshold }
    }

    /// Record one block entry at `pc` and report which tier should run
    /// it. Heat only accumulates until a block is installed.
    #[inline]
    pub fn entry(&self, pc: u32) -> TierEntry<'_, B> {
        let slot = &self.slots[pc as usize];
        if let Some(b) = slot.block.get() {
            return TierEntry::Compiled(b);
        }
        // Saturate so a never-promoted pc (e.g. threshold u32::MAX)
        // cannot wrap back below the threshold.
        let heat = slot.heat.load(Ordering::Relaxed);
        if heat < u32::MAX {
            slot.heat.store(heat + 1, Ordering::Relaxed);
        }
        if heat >= self.threshold {
            TierEntry::Promote
        } else {
            TierEntry::Cold
        }
    }

    /// Install the compiled block for `pc`. Returns whether this call
    /// installed it (a racing thread may have won; either block is
    /// equivalent — compilation is deterministic).
    pub fn install(&self, pc: u32, block: B) -> bool {
        self.slots[pc as usize].block.set(block).is_ok()
    }

    /// The compiled block at `pc`, if one was installed.
    #[inline]
    pub fn get(&self, pc: u32) -> Option<&B> {
        self.slots[pc as usize].block.get()
    }

    /// Number of pcs with an installed compiled block.
    pub fn compiled_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.block.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_promotion() {
        let t: TierTable<u64> = TierTable::new(4, 2);
        assert!(matches!(t.entry(1), TierEntry::Cold)); // heat 0
        assert!(matches!(t.entry(1), TierEntry::Cold)); // heat 1
        assert!(matches!(t.entry(1), TierEntry::Promote)); // heat 2
        assert!(matches!(t.entry(1), TierEntry::Promote)); // until installed
        assert!(t.install(1, 42));
        assert!(!t.install(1, 43), "second install must lose");
        match t.entry(1) {
            TierEntry::Compiled(&b) => assert_eq!(b, 42, "first install wins"),
            e => panic!("expected compiled, got {e:?}"),
        }
        assert_eq!(t.compiled_count(), 1);
    }

    #[test]
    fn threshold_zero_promotes_on_first_entry() {
        let t: TierTable<()> = TierTable::new(2, 0);
        assert!(matches!(t.entry(0), TierEntry::Promote));
    }

    #[test]
    fn per_pc_heat_is_independent() {
        let t: TierTable<()> = TierTable::new(3, 1);
        assert!(matches!(t.entry(0), TierEntry::Cold));
        assert!(matches!(t.entry(2), TierEntry::Cold));
        assert!(matches!(t.entry(0), TierEntry::Promote));
        assert!(matches!(t.entry(2), TierEntry::Promote));
    }

    #[test]
    fn config_constructors() {
        assert!(!TierConfig::disabled().enabled);
        assert!(TierConfig::default_on().enabled);
        assert_eq!(TierConfig::default_on().threshold, 8);
        assert_eq!(TierConfig::with_threshold(0).threshold, 0);
    }
}

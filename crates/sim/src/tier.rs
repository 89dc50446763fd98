//! Shared compiled-tier state: one promotion table per program.
//!
//! Only the TTA engine has a compiled tier. Its interpreted step routes
//! every move at run time, which threaded code removes; the VLIW and
//! scalar steps are already direct walks over predecoded arrays, where
//! threaded code measured no faster (DESIGN.md §14).
//!
//! [`Tiers`] holds the TTA promotion table for one program (one
//! `TierTable` of compiled whole superblocks), so the compiled blocks a
//! run promotes are reused by every later run through
//! [`crate::run_with_tiers`] — the steady state the evaluation pipeline
//! and the dispatch benchmark run in. [`crate::run`] builds a fresh
//! per-run table from the environment configuration instead, which keeps
//! it dependency-free but re-pays promotion each run.
//!
//! The promotion-threshold invariant (`tta_isa::tier`) holds across
//! shared tables too: a block promoted by run N executes compiled in run
//! N+1 with bit-identical results — `tests/tier_transitions.rs` pins
//! this boundary.

use crate::tta::TtaTiers;
use tta_isa::{Program, TierConfig};

/// Per-program compiled-tier state, shareable across runs (and across
/// threads — promotion is lock-free and promote-once). Holds no table
/// for VLIW and scalar programs, or when the tier is disabled.
pub struct Tiers {
    tta: Option<TtaTiers>,
    program_len: usize,
}

impl Tiers {
    /// Tier state for `program` using the environment configuration
    /// (`TTA_JIT`, `TTA_JIT_THRESHOLD`).
    pub fn for_program(program: &Program) -> Tiers {
        Self::with_config(program, &TierConfig::from_env())
    }

    /// Tier state for `program` with an explicit configuration.
    pub fn with_config(program: &Program, cfg: &TierConfig) -> Tiers {
        let program_len = program.len();
        let tta = (cfg.enabled && matches!(program, Program::Tta(_)))
            .then(|| TtaTiers::new(program_len, cfg.threshold));
        Tiers { tta, program_len }
    }

    /// Number of program counters with an installed compiled block.
    pub fn compiled_blocks(&self) -> usize {
        self.tta.as_ref().map_or(0, TtaTiers::compiled_count)
    }

    /// The TTA promotion table, if any, for a run of `program` (which
    /// must be the program this state was built for).
    pub(crate) fn tta_for(&self, program: &Program) -> Option<&TtaTiers> {
        assert_eq!(
            self.program_len,
            program.len(),
            "tier state was built for a different program"
        );
        self.tta.as_ref()
    }
}

/// Per-run tier event counts, flushed to the global observability
/// counters after the run (the hot loops never touch the registry).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TierCounts {
    /// Blocks this run compiled and installed (a block that lost the
    /// install race to another thread sharing the table is not counted).
    pub promotions: u64,
    /// Block entries dispatched to the compiled tier (tier 3).
    pub entries: u64,
    /// Clamped entries (by a pending jump's delay window, by fuel or by
    /// the I/O window) of a pc that has a compiled block, executed
    /// interpreted instead.
    pub fallbacks: u64,
}

impl TierCounts {
    pub fn flush(&self) {
        if (self.promotions | self.entries | self.fallbacks) != 0 && tta_obs::enabled() {
            use tta_obs::counter::add;
            add("sim.jit.promotions", self.promotions);
            // Counts compiled-block (tier-3) entries; the name predates
            // DESIGN.md's tier numbering and stays for existing scrapers.
            add("sim.jit.tier2_entries", self.entries);
            add("sim.jit.fallbacks", self.fallbacks);
        }
    }
}

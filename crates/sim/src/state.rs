//! Shared simulator state helpers: the flattened register file backing
//! all three cores and the trace-buffer sizing heuristic.
//!
//! Every machine's register files are stored as one contiguous `Vec<i32>`
//! with per-RF base offsets. Predecoding resolves each `RegRef` to its
//! flat index once per `run`, so the cycle loops index a single slice
//! instead of chasing a `Vec<Vec<i32>>` double indirection.

use tta_isa::OpSrc;
use tta_model::{Machine, RegRef};

/// Sentinel flat index for "no destination register" in decoded operations.
pub(crate) const NO_DST: u32 = u32::MAX;

/// A decoded operation operand: register references resolved to flat
/// indices (shared by the VLIW and scalar decoders).
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecOpSrc {
    None,
    Reg(u32),
    Imm(i32),
}

impl DecOpSrc {
    pub fn decode(rf: &FlatRf, s: Option<OpSrc>) -> Self {
        match s {
            None => DecOpSrc::None,
            Some(OpSrc::Reg(r)) => DecOpSrc::Reg(rf.flat(r)),
            Some(OpSrc::Imm(v)) => DecOpSrc::Imm(v),
        }
    }
}

/// All register files of a machine, flattened into one array.
#[derive(Debug, Clone)]
pub(crate) struct FlatRf {
    /// Register values, all RFs back to back, reset to zero.
    pub vals: Vec<i32>,
    /// Base offset of each RF within `vals`.
    base: Vec<u32>,
}

impl FlatRf {
    /// Zero-initialised register state for `m` (the reset state every
    /// simulator starts from).
    pub fn new(m: &Machine) -> Self {
        let mut base = Vec::with_capacity(m.rfs.len());
        let mut total = 0u32;
        for rf in &m.rfs {
            base.push(total);
            total += rf.regs as u32;
        }
        FlatRf {
            vals: vec![0; total as usize],
            base,
        }
    }

    /// Resolve a register reference to its flat index (decode-time only;
    /// the hot loops use the precomputed index directly).
    pub fn flat(&self, r: RegRef) -> u32 {
        self.base[r.rf.0 as usize] + r.index as u32
    }

    /// Total register count across all RFs.
    pub fn len(&self) -> usize {
        self.vals.len()
    }
}

/// Initial capacity for a PC trace: a cycles estimate from the static
/// program length (tight loops revisit instructions many times), clamped
/// so short programs don't over-reserve and long ones don't pre-commit
/// more than a few megabytes.
pub(crate) fn trace_capacity(program_len: usize) -> usize {
    (program_len * 32).clamp(1 << 12, 1 << 20)
}

//! Block layout, shared by the three code generators: a function's
//! scheduled blocks are laid out back to back in block order, and every
//! control transfer gets its target block's absolute start address.
//!
//! A code generator emits each control transfer with a placeholder target
//! and records a [`Patch`] naming the field that must hold the address;
//! `lay_out` fills them in once every block's length is known. Where that
//! field sits inside an instruction is the one thing that differs between
//! the styles, and the `Patchable` trait says it.

use tta_ir::BlockId;
use tta_isa::{OpSrc, ScalarInst, TtaInst, VliwBundle, VliwSlot};

/// A scheduled block: its instructions, indexed from the block start, and
/// the fields in them that await a block's address.
#[derive(Debug, Clone)]
pub struct Block<I> {
    /// The instructions (TTA instructions, VLIW bundles or scalar
    /// instructions).
    pub insts: Vec<I>,
    /// Branch-target patches.
    pub patches: Vec<Patch>,
}

/// A field that must hold the absolute start address of `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patch {
    /// The instruction's index within its block.
    pub at: u32,
    /// Which field of the instruction: unused on a TTA, the issue slot
    /// whose long immediate holds the address in a VLIW bundle, source `a`
    /// (0) or `b` (1) of a scalar operation.
    pub slot: usize,
    /// The block whose address goes there.
    pub target: BlockId,
}

/// An instruction type that can carry a branch-target address.
pub(crate) trait Patchable {
    /// Write `address` into the field `slot` names.
    fn patch(&mut self, slot: usize, address: i32);
}

impl Patchable for TtaInst {
    /// The instruction's long immediate (`slot` is unused).
    fn patch(&mut self, _slot: usize, address: i32) {
        match &mut self.limm {
            Some((_, value)) => *value = address,
            None => panic!("patch site has no long immediate"),
        }
    }
}

impl Patchable for VliwBundle {
    /// The long immediate that heads issue slot `slot`.
    fn patch(&mut self, slot: usize, address: i32) {
        match &mut self.slots[slot] {
            Some(VliwSlot::LimmHead { value, .. }) => *value = address,
            other => panic!("patch site is not a limm head: {other:?}"),
        }
    }
}

impl Patchable for ScalarInst {
    /// The operation's `a` source (`slot` 0) or `b` source (`slot` 1).
    fn patch(&mut self, slot: usize, address: i32) {
        let ScalarInst::Op(o) = self else {
            panic!("patch site is a prefix")
        };
        let field = if slot == 0 { &mut o.a } else { &mut o.b };
        *field = Some(OpSrc::Imm(address));
    }
}

/// Lay `blocks` out back to back from absolute pc `base` and patch every
/// branch target. Returns the instructions and each block's start pc.
pub(crate) fn lay_out<I: Patchable>(blocks: Vec<Block<I>>, base: u32) -> (Vec<I>, Vec<u32>) {
    let _span = tta_obs::span("layout");
    let starts: Vec<u32> = blocks
        .iter()
        .scan(base, |at, b| {
            let start = *at;
            *at += b.insts.len() as u32;
            Some(start)
        })
        .collect();
    let mut insts = Vec::with_capacity(blocks.iter().map(|b| b.insts.len()).sum());
    for mut b in blocks {
        for p in &b.patches {
            b.insts[p.at as usize].patch(p.slot, starts[p.target.0 as usize] as i32);
        }
        insts.append(&mut b.insts);
    }
    (insts, starts)
}

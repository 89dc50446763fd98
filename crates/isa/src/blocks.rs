//! Superblock segmentation of machine programs.
//!
//! A *superblock* is a maximal straight-line run of instructions that is
//! guaranteed to fall through: no instruction before the run's terminal
//! one carries a control-flow effect (jump, conditional jump, halt), so a
//! simulator entering the run at any pc can dispatch every remaining
//! instruction of the run back to back without re-checking for control
//! transfers. Only the terminal instruction — the one bearing control
//! triggers, or the last instruction of the program — needs the full
//! per-cycle control machinery.
//!
//! The map stores, for every pc, the length of the straight-line run
//! *starting at* that pc (jump targets can land mid-run, so every pc is a
//! potential entry point). Long immediates and plain data moves have no
//! control effect and stay interior to a run.
//!
//! This is the block-level analogue of EDGE-style block-atomic dispatch:
//! the fused-block simulator engines in `tta-sim` pay their fuel check,
//! bounds check and delay-slot bookkeeping once per run entry instead of
//! once per cycle (see `DESIGN.md` §13).

use crate::code::{MoveDst, ScalarInst, TtaInst, VliwBundle, VliwSlot};
use crate::program::Program;
use tta_model::OpClass;

/// Whether a TTA instruction carries any control-flow trigger (jump,
/// conditional jump or halt). Such an instruction terminates a superblock.
fn tta_ends_block(inst: &TtaInst) -> bool {
    inst.slots
        .iter()
        .flatten()
        .any(|mv| matches!(mv.dst, MoveDst::FuTrigger(_, op) if op.class() == OpClass::Ctrl))
}

/// Whether a VLIW bundle issues any control-flow operation.
fn vliw_ends_block(bundle: &VliwBundle) -> bool {
    bundle
        .slots
        .iter()
        .flatten()
        .any(|slot| matches!(slot, VliwSlot::Op(o) if o.op.class() == OpClass::Ctrl))
}

/// Whether a scalar instruction is a control-flow operation.
fn scalar_ends_block(inst: &ScalarInst) -> bool {
    matches!(inst, ScalarInst::Op(o) if o.op.class() == OpClass::Ctrl)
}

/// Per-pc straight-line run lengths of a program (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    /// `run_len[pc]` = number of instructions from `pc` up to and
    /// including the run's terminal instruction. Always ≥ 1 for a valid
    /// pc; the terminal instruction is the first control-bearing
    /// instruction at or after `pc`, or the last instruction of the
    /// program.
    run_len: Vec<u32>,
}

impl BlockMap {
    /// Build the map from a per-instruction "ends a block" predicate.
    fn build(n: usize, ends: impl Fn(usize) -> bool) -> BlockMap {
        let mut run_len = vec![0u32; n];
        for i in (0..n).rev() {
            run_len[i] = if ends(i) || i + 1 == n {
                1
            } else {
                run_len[i + 1] + 1
            };
        }
        BlockMap { run_len }
    }

    /// Segment a TTA program.
    fn of_tta(insts: &[TtaInst]) -> BlockMap {
        Self::build(insts.len(), |i| tta_ends_block(&insts[i]))
    }

    /// Segment a VLIW program.
    fn of_vliw(bundles: &[VliwBundle]) -> BlockMap {
        Self::build(bundles.len(), |i| vliw_ends_block(&bundles[i]))
    }

    /// Segment a scalar program.
    fn of_scalar(insts: &[ScalarInst]) -> BlockMap {
        Self::build(insts.len(), |i| scalar_ends_block(&insts[i]))
    }

    /// Segment any program in its native style.
    pub fn of_program(program: &Program) -> BlockMap {
        match program {
            Program::Tta(v) => Self::of_tta(v),
            Program::Vliw(v) => Self::of_vliw(v),
            Program::Scalar(v) => Self::of_scalar(v),
        }
    }

    /// Length of the straight-line run starting at `pc` (≥ 1).
    ///
    /// # Panics
    /// If `pc` is outside the program.
    #[inline]
    pub fn run_len(&self, pc: u32) -> u32 {
        self.run_len[pc as usize]
    }

    /// Number of instructions covered by the map.
    pub fn len(&self) -> usize {
        self.run_len.len()
    }

    /// Whether the mapped program is empty.
    pub fn is_empty(&self) -> bool {
        self.run_len.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{Move, MoveSrc, OpSrc, Operation};
    use tta_model::{FuId, Opcode, RegRef, RfId};

    fn tta_nop() -> TtaInst {
        TtaInst::nop(2)
    }

    fn tta_jump() -> TtaInst {
        let mut i = TtaInst::nop(2);
        i.slots[0] = Some(Move {
            src: MoveSrc::Imm(0),
            dst: MoveDst::FuTrigger(FuId(2), Opcode::Jump),
        });
        i
    }

    fn tta_alu() -> TtaInst {
        let mut i = TtaInst::nop(2);
        i.slots[0] = Some(Move {
            src: MoveSrc::Imm(1),
            dst: MoveDst::FuTrigger(FuId(0), Opcode::Add),
        });
        i
    }

    #[test]
    fn tta_runs_terminate_at_control_and_program_end() {
        // [alu, nop, jump, alu, nop]
        let prog = vec![tta_alu(), tta_nop(), tta_jump(), tta_alu(), tta_nop()];
        let map = BlockMap::of_tta(&prog);
        assert_eq!(map.run_len(0), 3); // alu, nop, jump
        assert_eq!(map.run_len(1), 2); // mid-run entry: nop, jump
        assert_eq!(map.run_len(2), 1); // the jump itself
        assert_eq!(map.run_len(3), 2); // alu, nop — capped by program end
        assert_eq!(map.run_len(4), 1);
    }

    #[test]
    fn tta_limm_and_data_moves_stay_interior() {
        let mut limm = TtaInst::nop(2);
        limm.limm = Some((0, 123));
        let prog = vec![limm, tta_alu(), tta_jump()];
        let map = BlockMap::of_tta(&prog);
        assert_eq!(map.run_len(0), 3);
        assert!(!tta_ends_block(&prog[0]));
        assert!(!tta_ends_block(&prog[1]));
        assert!(tta_ends_block(&prog[2]));
    }

    #[test]
    fn tta_halt_ends_a_block() {
        let mut halt = TtaInst::nop(2);
        halt.slots[1] = Some(Move {
            src: MoveSrc::Imm(0),
            dst: MoveDst::FuTrigger(FuId(2), Opcode::Halt),
        });
        assert!(tta_ends_block(&halt));
    }

    fn op(opc: Opcode) -> Operation {
        Operation {
            op: opc,
            fu: FuId(0),
            dst: opc.has_result().then_some(RegRef {
                rf: RfId(0),
                index: 0,
            }),
            a: Some(OpSrc::Imm(0)),
            b: (opc.num_inputs() > 1).then_some(OpSrc::Imm(0)),
        }
    }

    #[test]
    fn vliw_ctrl_slots_terminate_runs() {
        let mut plain = VliwBundle::nop(2);
        plain.slots[0] = Some(VliwSlot::Op(op(Opcode::Add)));
        let mut branch = VliwBundle::nop(2);
        branch.slots[1] = Some(VliwSlot::Op(op(Opcode::Jump)));
        let prog = vec![plain.clone(), VliwBundle::nop(2), branch, plain];
        let map = BlockMap::of_vliw(&prog);
        assert_eq!(map.run_len(0), 3);
        assert_eq!(map.run_len(2), 1);
        assert_eq!(map.run_len(3), 1);
    }

    #[test]
    fn vliw_limm_heads_stay_interior() {
        let mut limm = VliwBundle::nop(2);
        limm.slots[0] = Some(VliwSlot::LimmHead {
            dst: RegRef {
                rf: RfId(0),
                index: 0,
            },
            value: 1 << 20,
        });
        limm.slots[1] = Some(VliwSlot::LimmCont);
        assert!(!vliw_ends_block(&limm));
    }

    #[test]
    fn scalar_runs_and_prefixes() {
        let prog = vec![
            ScalarInst::Op(op(Opcode::Add)),
            ScalarInst::ImmPrefix,
            ScalarInst::Op(op(Opcode::Add)),
            ScalarInst::Op(op(Opcode::CJnz)),
            ScalarInst::Op(op(Opcode::Halt)),
        ];
        let map = BlockMap::of_scalar(&prog);
        assert_eq!(map.run_len(0), 4); // up to and including the cjnz
        assert_eq!(map.run_len(1), 3);
        assert_eq!(map.run_len(4), 1); // halt is its own run
        assert!(!scalar_ends_block(&ScalarInst::ImmPrefix));
        assert!(scalar_ends_block(&prog[4]));
    }

    #[test]
    fn of_program_dispatches_by_style() {
        let p = Program::Tta(vec![tta_alu(), tta_jump()]);
        let map = BlockMap::of_program(&p);
        assert_eq!(map.len(), 2);
        assert_eq!(map.run_len(0), 2);
        assert!(!map.is_empty());
        assert!(BlockMap::of_program(&Program::Scalar(vec![])).is_empty());
    }
}

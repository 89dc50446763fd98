//! Code generation for the scalar in-order targets (the MicroBlaze-like
//! baselines).
//!
//! The stream is emitted one operation per instruction in dependence-graph
//! priority order — the instruction scheduling a `-O3` compiler performs to
//! hide load and multiply latencies on an in-order pipeline. Wide constants
//! cost an `imm`-prefix instruction, and control transfers encode their
//! absolute target inline in the 16-bit immediate field.

use crate::ddg::Ddg;
use crate::loc::{LocBlock, LocFunc, LocKind, LocOp, LocSrc, LocTerm, RETVAL_ADDR};
use tta_ir::BlockId;
use tta_isa::encoding::fits_signed;
use tta_isa::{OpSrc, Operation, ScalarInst};
use tta_model::{FuKind, Machine, Opcode};

/// Which source field of a patched operation holds the target address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhichSrc {
    /// The `a` (operand) field.
    A,
    /// The `b` (trigger) field.
    B,
}

/// A branch awaiting its absolute target address.
#[derive(Debug, Clone, Copy)]
pub struct ScalarPatch {
    /// Instruction index within the block.
    pub index: u32,
    /// Which source field to patch.
    pub which: WhichSrc,
    /// Target block.
    pub target: BlockId,
}

/// A code-generated block.
#[derive(Debug, Clone)]
pub struct ScalarBlock {
    /// The instruction stream (block-local indices).
    pub insts: Vec<ScalarInst>,
    /// Branch-target patches.
    pub patches: Vec<ScalarPatch>,
}

/// Scalar code generator.
pub struct ScalarCodegen<'m> {
    m: &'m Machine,
    imm_bits: u32,
}

impl<'m> ScalarCodegen<'m> {
    /// Create a code generator for a scalar machine.
    pub fn new(m: &'m Machine) -> Self {
        let imm_bits = m.scalar.expect("scalar machine").imm_bits as u32;
        ScalarCodegen { m, imm_bits }
    }

    /// Generate code for all blocks.
    pub fn generate(&self, f: &LocFunc) -> Vec<ScalarBlock> {
        let mut ddg = Ddg::new(self.m);
        f.blocks
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let next = if bi + 1 < f.blocks.len() {
                    Some(BlockId(bi as u32 + 1))
                } else {
                    None
                };
                self.generate_block(b, next, &mut ddg)
            })
            .collect()
    }

    fn push_op(&self, out: &mut Vec<ScalarInst>, o: Operation) {
        // Wide immediates need a prefix instruction.
        let wide = [o.a, o.b]
            .into_iter()
            .flatten()
            .any(|s| matches!(s, OpSrc::Imm(v) if !fits_signed(v, self.imm_bits)));
        if wide {
            out.push(ScalarInst::ImmPrefix);
        }
        out.push(ScalarInst::Op(o));
    }

    fn emit_op(&self, out: &mut Vec<ScalarInst>, op: &LocOp) {
        let src = |s: LocSrc| match s {
            LocSrc::Reg(r) => OpSrc::Reg(r),
            LocSrc::Imm(v) => OpSrc::Imm(v),
        };
        let (opcode, a, b) = match op.kind {
            LocKind::Alu(o) if o.num_inputs() == 1 => (o, None, Some(src(op.b.unwrap()))),
            LocKind::Alu(o) => (o, Some(src(op.a.unwrap())), Some(src(op.b.unwrap()))),
            LocKind::Load(o, _) => (o, None, Some(src(op.b.unwrap()))),
            LocKind::Store(o, _) => (o, Some(src(op.a.unwrap())), Some(src(op.b.unwrap()))),
            LocKind::Copy => (Opcode::Add, Some(src(op.a.unwrap())), Some(OpSrc::Imm(0))),
        };
        let fu = self
            .m
            .units_for(opcode)
            .next()
            .unwrap_or_else(|| panic!("no unit implements {opcode}"));
        let dst = if opcode.has_result() { op.dst } else { None };
        self.push_op(
            out,
            Operation {
                op: opcode,
                fu,
                dst,
                a,
                b,
            },
        );
    }

    fn generate_block(
        &self,
        block: &LocBlock,
        next: Option<BlockId>,
        ddg: &mut Ddg,
    ) -> ScalarBlock {
        ddg.rebuild(block);
        let mut insts = Vec::with_capacity(block.ops.len() + 4);
        for &i in &ddg.order {
            self.emit_op(&mut insts, &block.ops[i]);
        }

        let mut patches = Vec::new();
        let cu = self.m.ctrl_unit();
        let src = |s: LocSrc| match s {
            LocSrc::Reg(r) => OpSrc::Reg(r),
            LocSrc::Imm(v) => OpSrc::Imm(v),
        };
        match block.term {
            LocTerm::Jump(target) if Some(target) == next => {}
            LocTerm::Jump(target) => {
                patches.push(ScalarPatch {
                    index: insts.len() as u32,
                    which: WhichSrc::B,
                    target,
                });
                insts.push(ScalarInst::Op(Operation {
                    op: Opcode::Jump,
                    fu: cu,
                    dst: None,
                    a: None,
                    b: Some(OpSrc::Imm(0)),
                }));
            }
            LocTerm::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let (opcode, target, other) = if Some(if_false) == next {
                    (Opcode::CJnz, if_true, None)
                } else if Some(if_true) == next {
                    (Opcode::CJz, if_false, None)
                } else {
                    (Opcode::CJnz, if_true, Some(if_false))
                };
                patches.push(ScalarPatch {
                    index: insts.len() as u32,
                    which: WhichSrc::A,
                    target,
                });
                insts.push(ScalarInst::Op(Operation {
                    op: opcode,
                    fu: cu,
                    dst: None,
                    a: Some(OpSrc::Imm(0)),
                    b: Some(src(cond)),
                }));
                if let Some(f_target) = other {
                    patches.push(ScalarPatch {
                        index: insts.len() as u32,
                        which: WhichSrc::B,
                        target: f_target,
                    });
                    insts.push(ScalarInst::Op(Operation {
                        op: Opcode::Jump,
                        fu: cu,
                        dst: None,
                        a: None,
                        b: Some(OpSrc::Imm(0)),
                    }));
                }
            }
            LocTerm::Ret(v) => {
                if let Some(v) = v {
                    let lsu = self
                        .m
                        .fu_ids()
                        .find(|&f| self.m.fu(f).kind == FuKind::Lsu)
                        .expect("machine has an LSU");
                    self.push_op(
                        &mut insts,
                        Operation {
                            op: Opcode::Stw,
                            fu: lsu,
                            dst: None,
                            a: Some(src(v)),
                            b: Some(OpSrc::Imm(RETVAL_ADDR as i32)),
                        },
                    );
                }
                insts.push(ScalarInst::Op(Operation {
                    op: Opcode::Halt,
                    fu: cu,
                    dst: None,
                    a: None,
                    b: Some(OpSrc::Imm(0)),
                }));
            }
        }

        ScalarBlock { insts, patches }
    }
}

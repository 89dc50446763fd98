//! Code generation for the scalar in-order targets (the MicroBlaze-like
//! baselines).
//!
//! The stream is emitted one operation per instruction in dependence-graph
//! priority order — the instruction scheduling a `-O3` compiler performs to
//! hide load and multiply latencies on an in-order pipeline. Wide constants
//! cost an `imm`-prefix instruction, and control transfers encode their
//! absolute target inline in the 16-bit immediate field.

use crate::ddg::Ddg;
use crate::layout::{Block, Patch};
use crate::loc::{Exit, LocBlock, LocFunc, LocOp, LocSrc, RETVAL_ADDR};
use tta_ir::BlockId;
use tta_isa::encoding::fits_signed;
use tta_isa::{OpSrc, Operation, ScalarInst};
use tta_model::{FuId, Machine, Opcode};

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
    pub fn generate(&self, f: &LocFunc) -> Vec<Block<ScalarInst>> {
        let _span = tta_obs::span("sched");
        let mut ddg = Ddg::new(self.m);
        f.with_next()
            .map(|(b, next)| self.generate_block(b, next, &mut ddg))
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
        let (opcode, a, b) = op.operation();
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
                a: a.map(OpSrc::from),
                b: b.map(OpSrc::from),
            },
        );
    }

    fn generate_block(
        &self,
        block: &LocBlock,
        next: Option<BlockId>,
        ddg: &mut Ddg,
    ) -> Block<ScalarInst> {
        ddg.rebuild(block);
        let mut b = Block {
            insts: Vec::with_capacity(block.ops.len() + 4),
            patches: Vec::new(),
        };
        for &i in &ddg.order {
            self.emit_op(&mut b.insts, &block.ops[i]);
        }

        let cu = self.m.ctrl_unit();
        match block.term.exit(next) {
            Exit::FallThrough => {}
            Exit::Transfer {
                op,
                cond,
                target,
                then,
            } => {
                self.emit_transfer(&mut b, cu, op, cond, target);
                if let Some(then) = then {
                    self.emit_transfer(&mut b, cu, Opcode::Jump, None, then);
                }
            }
            Exit::Halt(value) => {
                if let Some(v) = value {
                    let store = Operation {
                        op: Opcode::Stw,
                        fu: self.m.lsu(),
                        dst: None,
                        a: Some(v.into()),
                        b: Some(OpSrc::Imm(RETVAL_ADDR as i32)),
                    };
                    self.push_op(&mut b.insts, store);
                }
                b.insts.push(ScalarInst::Op(Operation {
                    op: Opcode::Halt,
                    fu: cu,
                    dst: None,
                    a: None,
                    b: Some(OpSrc::Imm(0)),
                }));
            }
        }
        b
    }

    /// Emit a control transfer whose target address is patched in: the
    /// `a` source of a conditional branch (whose `b` is the condition), or
    /// the `b` source of a jump.
    fn emit_transfer(
        &self,
        b: &mut Block<ScalarInst>,
        cu: FuId,
        op: Opcode,
        cond: Option<LocSrc>,
        target: BlockId,
    ) {
        let (a, src, slot) = match cond {
            Some(c) => (Some(OpSrc::Imm(0)), c.into(), 0),
            None => (None, OpSrc::Imm(0), 1),
        };
        b.patches.push(Patch {
            at: b.insts.len() as u32,
            slot,
            target,
        });
        b.insts.push(ScalarInst::Op(Operation {
            op,
            fu: cu,
            dst: None,
            a,
            b: Some(src),
        }));
    }
}

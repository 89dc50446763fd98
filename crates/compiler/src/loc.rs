//! Located code: the post-register-allocation form the schedulers consume.
//!
//! Every operand is a physical register or an immediate; blocks carry their
//! lowered terminator. The convention for the two input fields mirrors the
//! TTA function-unit ports: `b` is the value transported to the *trigger*
//! port (second ALU input, load/store address, branch condition), `a` the
//! value for the storing *operand* port (first ALU input, store data,
//! branch target).

use crate::regalloc::Allocation;
use tta_ir::{BlockId, Inst, MemRegion, Operand, Terminator, VReg};
use tta_isa::OpSrc;
use tta_model::{Opcode, RegRef};

/// A physical operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocSrc {
    /// Read a physical register.
    Reg(RegRef),
    /// An immediate constant (may be wide; backends materialise as needed).
    Imm(i32),
}

impl LocSrc {
    /// The register read, if any.
    pub fn reg(self) -> Option<RegRef> {
        match self {
            LocSrc::Reg(r) => Some(r),
            LocSrc::Imm(_) => None,
        }
    }
}

impl From<LocSrc> for OpSrc {
    fn from(s: LocSrc) -> OpSrc {
        match s {
            LocSrc::Reg(r) => OpSrc::Reg(r),
            LocSrc::Imm(v) => OpSrc::Imm(v),
        }
    }
}

/// The kind of a located operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocKind {
    /// An ALU operation (one or two inputs per the opcode).
    Alu(Opcode),
    /// A load (address in `b`).
    Load(Opcode, MemRegion),
    /// A store (data in `a`, address in `b`).
    Store(Opcode, MemRegion),
    /// A register/immediate copy (source in `a`). On a TTA this is a bare
    /// transport; operation-triggered backends expand it to `add a, #0`.
    Copy,
}

/// One located operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocOp {
    /// What the operation does.
    pub kind: LocKind,
    /// Result register, if the operation produces a value.
    pub dst: Option<RegRef>,
    /// Operand-port input.
    pub a: Option<LocSrc>,
    /// Trigger-port input.
    pub b: Option<LocSrc>,
}

impl LocOp {
    /// Functional latency: cycles from trigger to result availability.
    pub fn latency(&self) -> u32 {
        match self.kind {
            LocKind::Alu(op) | LocKind::Load(op, _) | LocKind::Store(op, _) => op.latency(),
            // A copy through the ALU has add-latency; as a raw transport the
            // TTA scheduler handles it specially.
            LocKind::Copy => 1,
        }
    }

    /// The memory region touched, if this is a memory operation.
    pub fn mem_region(&self) -> Option<(MemRegion, bool)> {
        match self.kind {
            LocKind::Load(_, r) => Some((r, false)),
            LocKind::Store(_, r) => Some((r, true)),
            _ => None,
        }
    }

    /// What an operation-triggered core runs for this op: its opcode and
    /// its `a` and `b` sources. A copy runs as `add a, #0`.
    pub(crate) fn operation(&self) -> (Opcode, Option<LocSrc>, Option<LocSrc>) {
        match self.kind {
            LocKind::Alu(o) if o.num_inputs() == 1 => (o, None, self.b),
            LocKind::Alu(o) | LocKind::Store(o, _) => (o, self.a, self.b),
            LocKind::Load(o, _) => (o, None, self.b),
            LocKind::Copy => (Opcode::Add, self.a, Some(LocSrc::Imm(0))),
        }
    }

    /// Registers read by this op.
    pub fn reads(&self) -> impl Iterator<Item = RegRef> {
        [self.a, self.b]
            .into_iter()
            .flatten()
            .filter_map(LocSrc::reg)
    }
}

/// A lowered terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocTerm {
    /// Unconditional jump.
    Jump(BlockId),
    /// Branch on `cond != 0`.
    Branch {
        /// Condition value.
        cond: LocSrc,
        /// Successor when non-zero.
        if_true: BlockId,
        /// Successor when zero.
        if_false: BlockId,
    },
    /// Program end (entry-function return); the return value, if any, is
    /// stored to [`RETVAL_ADDR`] before halting.
    Ret(Option<LocSrc>),
}

impl LocTerm {
    /// How the block leaves when `next` follows it in layout. This is the
    /// one place the sense of a branch is chosen: a branch jumps on the
    /// successor that does not follow, and needs a second, unconditional
    /// jump when neither does.
    pub(crate) fn exit(self, next: Option<BlockId>) -> Exit {
        match self {
            LocTerm::Jump(target) if Some(target) == next => Exit::FallThrough,
            LocTerm::Jump(target) => Exit::Transfer {
                op: Opcode::Jump,
                cond: None,
                target,
                then: None,
            },
            LocTerm::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let (op, target, then) = if Some(if_false) == next {
                    (Opcode::CJnz, if_true, None)
                } else if Some(if_true) == next {
                    (Opcode::CJz, if_false, None)
                } else {
                    (Opcode::CJnz, if_true, Some(if_false))
                };
                Exit::Transfer {
                    op,
                    cond: Some(cond),
                    target,
                    then,
                }
            }
            LocTerm::Ret(value) => Exit::Halt(value),
        }
    }
}

/// A block's exit plan: the control transfers a code generator emits at
/// its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// Fall through into the next block.
    FallThrough,
    /// A `Jump`, `CJnz` or `CJz` to `target`, then, when neither branch
    /// successor follows in layout, a `Jump` to `then`.
    Transfer {
        /// The control opcode.
        op: Opcode,
        /// A conditional branch's condition.
        cond: Option<LocSrc>,
        /// Where the transfer goes.
        target: BlockId,
        /// The follow-up jump's target.
        then: Option<BlockId>,
    },
    /// Store the return value, if any, to [`RETVAL_ADDR`], then halt.
    Halt(Option<LocSrc>),
}

/// Absolute byte address of the return-value slot (shared with the
/// simulators through `tta-isa`).
pub use tta_isa::RETVAL_ADDR;

/// A located basic block.
#[derive(Debug, Clone)]
pub struct LocBlock {
    /// Operations in program order.
    pub ops: Vec<LocOp>,
    /// The terminator.
    pub term: LocTerm,
    /// Registers that must be in their register file at block exit (live
    /// into some successor). Defs whose register is not live-out and whose
    /// in-block consumers were all satisfied by bypassing can skip their RF
    /// write entirely — the paper's dead-result elimination.
    pub live_out: Vec<RegRef>,
}

/// A fully located function.
#[derive(Debug, Clone)]
pub struct LocFunc {
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<LocBlock>,
}

impl LocFunc {
    /// The blocks in layout order, each with the block that follows it
    /// (`None` for the last).
    pub(crate) fn with_next(&self) -> impl Iterator<Item = (&LocBlock, Option<BlockId>)> {
        let n = self.blocks.len() as u32;
        (1..)
            .zip(&self.blocks)
            .map(move |(i, b)| (b, (i < n).then_some(BlockId(i))))
    }
}

/// Lower an allocated function to located code. Each block's live-out
/// registers come from the allocation's own liveness, which was solved on
/// `alloc.func` as it stands.
pub fn lower(alloc: &Allocation) -> LocFunc {
    let f = &alloc.func;
    let reg = |r: VReg| alloc.reg(r);
    let src = |o: Operand| match o {
        Operand::Reg(r) => LocSrc::Reg(reg(r)),
        Operand::Imm(v) => LocSrc::Imm(v),
    };

    let mut blocks = Vec::with_capacity(f.blocks.len());
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut ops = Vec::with_capacity(b.insts.len());
        for inst in &b.insts {
            let op = match inst {
                Inst::Bin { op, dst, a, b } => LocOp {
                    kind: LocKind::Alu(*op),
                    dst: Some(reg(*dst)),
                    a: Some(src(*a)),
                    b: Some(src(*b)),
                },
                Inst::Un { op, dst, a } => LocOp {
                    kind: LocKind::Alu(*op),
                    dst: Some(reg(*dst)),
                    a: None,
                    b: Some(src(*a)),
                },
                Inst::Copy { dst, src: s } => LocOp {
                    kind: LocKind::Copy,
                    dst: Some(reg(*dst)),
                    a: Some(src(*s)),
                    b: None,
                },
                Inst::Load {
                    op,
                    dst,
                    addr,
                    region,
                } => LocOp {
                    kind: LocKind::Load(*op, *region),
                    dst: Some(reg(*dst)),
                    a: None,
                    b: Some(src(*addr)),
                },
                Inst::Store {
                    op,
                    value,
                    addr,
                    region,
                } => LocOp {
                    kind: LocKind::Store(*op, *region),
                    dst: None,
                    a: Some(src(*value)),
                    b: Some(src(*addr)),
                },
                Inst::Call { .. } => unreachable!("calls are inlined before lowering"),
            };
            ops.push(op);
        }
        let term = match b.term.as_ref().expect("terminated blocks") {
            Terminator::Jump(t) => LocTerm::Jump(*t),
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => LocTerm::Branch {
                cond: src(*cond),
                if_true: *if_true,
                if_false: *if_false,
            },
            Terminator::Ret(v) => LocTerm::Ret(v.map(src)),
        };
        let live_out: Vec<RegRef> = alloc
            .live
            .live_out
            .iter(bi)
            .filter_map(|v| alloc.assignment[v].as_ref().copied())
            .collect();
        blocks.push(LocBlock {
            ops,
            term,
            live_out,
        });
    }
    LocFunc { blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::allocate;
    use tta_ir::builder::FunctionBuilder;
    use tta_model::presets;

    fn lower_simple() -> LocFunc {
        let mut fb = FunctionBuilder::new("main", 0, true);
        let a = fb.copy(5);
        let b = fb.mul(a, a);
        let c = fb.sub(b, 1);
        fb.stw(c, 16, tta_ir::MemRegion(1));
        let d = fb.ldw(16, tta_ir::MemRegion(1));
        fb.ret(d);
        let f = fb.finish();
        let alloc = allocate(f, &presets::m_tta_1(), &[], 1 << 16).unwrap();
        lower(&alloc)
    }

    #[test]
    fn lowers_all_op_kinds() {
        let lf = lower_simple();
        assert_eq!(lf.blocks.len(), 1);
        let ops = &lf.blocks[0].ops;
        assert!(matches!(ops[0].kind, LocKind::Copy));
        assert!(matches!(ops[1].kind, LocKind::Alu(Opcode::Mul)));
        assert!(matches!(ops[2].kind, LocKind::Alu(Opcode::Sub)));
        assert!(matches!(ops[3].kind, LocKind::Store(Opcode::Stw, _)));
        assert!(matches!(ops[4].kind, LocKind::Load(Opcode::Ldw, _)));
        assert!(matches!(lf.blocks[0].term, LocTerm::Ret(Some(_))));
        // Store carries data in `a`, address in `b`.
        assert_eq!(ops[3].a.unwrap().reg(), ops[2].dst);
        assert_eq!(ops[3].b, Some(LocSrc::Imm(16)));
    }

    #[test]
    fn exit_plan_picks_the_branch_sense_from_the_next_block() {
        let (b1, b2, b3) = (BlockId(1), BlockId(2), BlockId(3));
        let cond = LocSrc::Imm(1);
        let transfer = |op, cond, target, then| Exit::Transfer {
            op,
            cond,
            target,
            then,
        };
        let branch = LocTerm::Branch {
            cond,
            if_true: b1,
            if_false: b2,
        };
        let cases = [
            (LocTerm::Jump(b1), Some(b1), Exit::FallThrough),
            (
                LocTerm::Jump(b1),
                Some(b2),
                transfer(Opcode::Jump, None, b1, None),
            ),
            (
                LocTerm::Jump(b1),
                None,
                transfer(Opcode::Jump, None, b1, None),
            ),
            (
                branch,
                Some(b2),
                transfer(Opcode::CJnz, Some(cond), b1, None),
            ),
            (
                branch,
                Some(b1),
                transfer(Opcode::CJz, Some(cond), b2, None),
            ),
            (
                branch,
                Some(b3),
                transfer(Opcode::CJnz, Some(cond), b1, Some(b2)),
            ),
            (LocTerm::Ret(Some(cond)), Some(b1), Exit::Halt(Some(cond))),
            (LocTerm::Ret(None), None, Exit::Halt(None)),
        ];
        for (term, next, want) in cases {
            assert_eq!(term.exit(next), want, "{term:?} before {next:?}");
        }
    }

    #[test]
    fn straight_line_block_has_no_live_out() {
        let lf = lower_simple();
        assert!(lf.blocks[0].live_out.is_empty());
    }

    #[test]
    fn loop_block_reports_live_out_registers() {
        let mut fb = FunctionBuilder::new("main", 0, true);
        let i = fb.copy(0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(head);
        fb.switch_to(head);
        let c = fb.lt(i, 10);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.add(i, 1);
        fb.copy_to(i, i2);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(i);
        let f = fb.finish();
        let alloc = allocate(f, &presets::m_tta_1(), &[], 1 << 16).unwrap();
        let lf = lower(&alloc);
        // The entry block must keep `i` alive for the loop.
        assert!(!lf.blocks[0].live_out.is_empty());
    }
}

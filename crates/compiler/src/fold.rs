//! Constant folding and algebraic simplification on the flattened IR.
//!
//! Two rewrite families, applied to a fixpoint together with the builder
//! patterns they expose:
//!
//! * **constant folding** — a two- or one-input ALU operation whose inputs
//!   are all immediates becomes a `Copy` of the computed value;
//! * **identities** — `x + 0`, `x - 0`, `x | 0`, `x ^ 0`, `x * 1`,
//!   `x << 0`, `x >> 0`, `x & -1` become `Copy x` (a bare transport on a
//!   TTA, rather than an ALU trip).
//!
//! The pass never creates new wide immediates (folded values go through
//! the same constant legalisation as everything else) and is
//! semantics-preserving by construction — the property tests in
//! `tests/passes_prop.rs` check it against the interpreter.

use std::collections::HashMap;
use tta_ir::{Function, Inst, Operand, Terminator, VReg};
use tta_model::Opcode;

/// Fold constants and simplify identities. Returns the number of
/// instructions rewritten.
pub fn fold_constants(f: &mut Function) -> usize {
    let mut rewritten = 0;
    for b in &mut f.blocks {
        // A branch whose condition became a constant is a jump.
        if let Some(Terminator::Branch {
            cond: Operand::Imm(v),
            if_true,
            if_false,
        }) = b.term
        {
            b.term = Some(Terminator::Jump(if v != 0 { if_true } else { if_false }));
            rewritten += 1;
        }
        for inst in &mut b.insts {
            let new = match inst {
                Inst::Bin {
                    op,
                    dst,
                    a: Operand::Imm(a),
                    b: Operand::Imm(bv),
                } => Some(Inst::Copy {
                    dst: *dst,
                    src: Operand::Imm(op.eval_alu(*a, *bv)),
                }),
                Inst::Un {
                    op,
                    dst,
                    a: Operand::Imm(a),
                } => Some(Inst::Copy {
                    dst: *dst,
                    src: Operand::Imm(op.eval_alu(*a, 0)),
                }),
                Inst::Bin { op, dst, a, b } => {
                    identity(*op, *a, *b).map(|src| Inst::Copy { dst: *dst, src })
                }
                _ => None,
            };
            if let Some(n) = new {
                *inst = n;
                rewritten += 1;
            }
        }
    }
    rewritten
}

/// Sparse conditional constant propagation, restricted to the provably
/// safe case: a register defined exactly once in the whole function, by a
/// `Copy` of an immediate. Definite-assignment verification guarantees the
/// single def dominates every use, so the substitution is always valid.
/// Returns the number of operands rewritten.
pub fn propagate_single_def_constants(f: &mut Function) -> usize {
    let mut def_count: HashMap<VReg, u32> = HashMap::new();
    let mut const_of: HashMap<VReg, i32> = HashMap::new();
    for b in &f.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.def() {
                *def_count.entry(d).or_insert(0) += 1;
                if let Inst::Copy {
                    src: Operand::Imm(v),
                    ..
                } = inst
                {
                    const_of.insert(d, *v);
                }
            }
        }
    }
    const_of.retain(|r, _| def_count.get(r) == Some(&1));
    if const_of.is_empty() {
        return 0;
    }
    let mut rewritten = 0;
    for b in &mut f.blocks {
        let term = b.term.iter_mut().flat_map(Terminator::operand_mut);
        for o in b.insts.iter_mut().flat_map(Inst::operands_mut).chain(term) {
            if let Some(&v) = o.reg().and_then(|r| const_of.get(&r)) {
                *o = Operand::Imm(v);
                rewritten += 1;
            }
        }
    }
    rewritten
}

/// `op(a, b)` when it reduces to one of its operands.
fn identity(op: Opcode, a: Operand, b: Operand) -> Option<Operand> {
    let (av, bv) = (a.imm(), b.imm());
    match op {
        Opcode::Add | Opcode::Ior | Opcode::Xor => {
            if bv == Some(0) {
                Some(a)
            } else if av == Some(0) {
                Some(b)
            } else {
                None
            }
        }
        Opcode::Sub | Opcode::Shl | Opcode::Shr | Opcode::Shru => {
            if bv == Some(0) {
                Some(a)
            } else {
                None
            }
        }
        Opcode::Mul => {
            if bv == Some(1) {
                Some(a)
            } else if av == Some(1) {
                Some(b)
            } else {
                None
            }
        }
        Opcode::And => {
            if bv == Some(-1) {
                Some(a)
            } else if av == Some(-1) {
                Some(b)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::FunctionBuilder;

    #[test]
    fn folds_constant_expressions() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let a = fb.add(3, 4); // 7
        let b = fb.mul(a, 1); // identity
        let c = fb.sxhw(0x1_ffff); // -1
        let d = fb.xor(b, c);
        fb.ret(d);
        let mut f = fb.finish();
        let n = fold_constants(&mut f);
        assert_eq!(n, 3);
        assert!(matches!(
            f.blocks[0].insts[0],
            Inst::Copy {
                src: Operand::Imm(7),
                ..
            }
        ));
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::Copy {
                src: Operand::Imm(-1),
                ..
            }
        ));
    }

    #[test]
    fn identities_reduce_to_copies() {
        let mut fb = FunctionBuilder::new("f", 1, true);
        let p = fb.param(0);
        let a = fb.add(p, 0);
        let b = fb.shl(a, 0);
        let c = fb.and(b, -1);
        let d = fb.ior(0, c);
        fb.ret(d);
        let mut f = fb.finish();
        assert_eq!(fold_constants(&mut f), 4);
        for inst in &f.blocks[0].insts {
            assert!(matches!(inst, Inst::Copy { .. }), "{inst}");
        }
    }

    #[test]
    fn subtraction_only_folds_on_the_right() {
        let mut fb = FunctionBuilder::new("f", 1, true);
        let p = fb.param(0);
        let a = fb.sub(0, p); // negation: NOT an identity
        let b = fb.sub(a, 0); // identity
        fb.ret(b);
        let mut f = fb.finish();
        assert_eq!(fold_constants(&mut f), 1);
        assert!(matches!(f.blocks[0].insts[0], Inst::Bin { .. }));
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
    }

    #[test]
    fn wrapping_semantics_match_the_interpreter() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let a = fb.mul(i32::MAX, 3);
        let b = fb.shl(a, 33); // masked shift
        fb.ret(b);
        let mut f = fb.finish();
        let want = {
            use tta_ir::{FuncId, Module};
            let m = Module {
                name: "w".into(),
                funcs: vec![f.clone()],
                entry: FuncId(0),
                data: vec![],
                mem_size: 64,
            };
            tta_ir::interp::run_ret(&m, &[])
        };
        fold_constants(&mut f);
        propagate_single_def_constants(&mut f);
        fold_constants(&mut f);
        match &f.blocks[0].insts[1] {
            Inst::Copy {
                src: Operand::Imm(v),
                ..
            } => assert_eq!(*v, want),
            other => panic!("expected folded copy, got {other}"),
        }
    }
}

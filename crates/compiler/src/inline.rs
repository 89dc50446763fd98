//! Exhaustive inlining: flatten a module's call graph into one function.
//!
//! The paper's toolchain compiles CHStone with LLVM at `-O3`, which performs
//! aggressive whole-program inlining (the paper credits it for the small TTA
//! program images on `blowfish`). We make that explicit: the back end only
//! schedules a single flat function, which also removes any need for a
//! machine-level calling convention — consistent with the evaluated cores,
//! whose control units provide absolute jumps only.

use tta_ir::{Block, BlockId, Function, Inst, Module, Operand, Terminator, VReg};

/// Error produced when a module cannot be inlined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineError(pub String);

impl std::fmt::Display for InlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InlineError {}

/// Flatten the module into a single function equivalent to its entry
/// function with every call expanded. Fails on recursive call graphs.
pub fn inline_module(m: &Module) -> Result<Function, InlineError> {
    if let Some(f) = tta_ir::verify::find_recursion(m) {
        return Err(InlineError(format!(
            "recursive function {f} cannot be inlined"
        )));
    }
    let entry = m.entry_func();
    let mut out = Function {
        name: entry.name.clone(),
        params: entry.params.clone(),
        returns_value: entry.returns_value,
        blocks: Vec::new(),
        next_vreg: entry.next_vreg,
    };
    clone_body(m, entry, None, &mut out, 0);
    Ok(out)
}

/// Clone `f`'s body into `out`.
///
/// `vreg_base`: the caller allocates a contiguous vreg range for the callee
/// and passes the offset; 0 for the entry function (identity mapping).
/// Returns the block offset at which the body was placed.
fn clone_body(
    m: &Module,
    f: &Function,
    ret: Option<RetCtx>,
    out: &mut Function,
    vreg_base: u32,
) -> u32 {
    let block_base = out.blocks.len() as u32;
    // Reserve the blocks up front so ids are stable while we fill them.
    for _ in 0..f.blocks.len() {
        out.blocks.push(Block::new());
    }
    let map_reg = |r: VReg| VReg(r.0 + vreg_base);
    let map_op = |o: Operand| match o {
        Operand::Reg(r) => Operand::Reg(map_reg(r)),
        Operand::Imm(v) => Operand::Imm(v),
    };
    let map_block = |b: BlockId| BlockId(b.0 + block_base);

    for (bi, src_block) in f.blocks.iter().enumerate() {
        let mut insts: Vec<Inst> = Vec::with_capacity(src_block.insts.len());
        // Where execution continues within this (possibly split) block.
        let mut cur_out = BlockId(block_base + bi as u32);
        for inst in &src_block.insts {
            match inst {
                Inst::Call { func, args, dst } => {
                    let callee = m.func(*func);
                    // Allocate the callee's vreg space.
                    let callee_base = out.next_vreg;
                    out.next_vreg += callee.next_vreg;
                    // Bind arguments: copies into the callee's parameters.
                    for (p, a) in callee.params.iter().zip(args) {
                        insts.push(Inst::Copy {
                            dst: VReg(p.0 + callee_base),
                            src: map_op(*a),
                        });
                    }
                    // Flush pending instructions into the current block,
                    // reserve the continuation block (the callee may expand
                    // to arbitrarily many blocks, so reserve it *before*
                    // cloning), then clone the callee body.
                    out.blocks[cur_out.0 as usize].insts = std::mem::take(&mut insts);
                    let cont = BlockId(out.blocks.len() as u32);
                    out.blocks.push(Block::new());
                    let callee_entry = BlockId(out.blocks.len() as u32);
                    out.blocks[cur_out.0 as usize].term = Some(Terminator::Jump(callee_entry));
                    clone_body(
                        m,
                        callee,
                        Some(RetCtx {
                            cont,
                            dst: dst.map(map_reg),
                        }),
                        out,
                        callee_base,
                    );
                    cur_out = cont;
                }
                other => {
                    let mut inst = other.clone();
                    for o in inst.operands_mut() {
                        *o = map_op(*o);
                    }
                    if let Some(d) = inst.def_mut() {
                        *d = map_reg(*d);
                    }
                    insts.push(inst);
                }
            }
        }
        out.blocks[cur_out.0 as usize].insts = std::mem::take(&mut insts);
        let mut term = src_block
            .term
            .clone()
            .expect("verified blocks are terminated");
        if let Some(o) = term.operand_mut() {
            *o = map_op(*o);
        }
        out.blocks[cur_out.0 as usize].term = Some(match term {
            Terminator::Jump(b) => Terminator::Jump(map_block(b)),
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => Terminator::Branch {
                cond,
                if_true: map_block(if_true),
                if_false: map_block(if_false),
            },
            Terminator::Ret(v) => match &ret {
                // Entry function: keep the return.
                None => Terminator::Ret(v),
                // Inlined callee: copy the value and jump to the caller's
                // continuation.
                Some(ctx) => {
                    if let (Some(dst), Some(src)) = (ctx.dst, v) {
                        out.blocks[cur_out.0 as usize]
                            .insts
                            .push(Inst::Copy { dst, src });
                    }
                    Terminator::Jump(ctx.cont)
                }
            },
        });
    }
    block_base
}

struct RetCtx {
    /// Caller block to continue in after the callee returns.
    cont: BlockId,
    /// Register receiving the return value.
    dst: Option<VReg>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
    use tta_ir::interp::Interpreter;
    use tta_ir::verify::verify_function;

    /// Interpret `m` and the inlined flat function and compare results.
    fn assert_inline_equivalent(m: &Module, args: &[i32]) {
        tta_ir::verify::verify_module(m).expect("input verifies");
        let flat = inline_module(m).expect("inlines");
        verify_function(&flat, None)
            .unwrap_or_else(|e| panic!("flat function fails verification: {e:?}"));
        // Wrap the flat function in a module to reuse the interpreter.
        let flat_mod = Module {
            name: m.name.clone(),
            funcs: vec![flat],
            entry: tta_ir::FuncId(0),
            data: m.data.clone(),
            mem_size: m.mem_size,
        };
        let a = Interpreter::new(m).run(args).expect("original runs");
        let b = Interpreter::new(&flat_mod).run(args).expect("flat runs");
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.memory, b.memory);
        assert_eq!(b.stats.calls, 0, "flat module performs no calls");
    }

    #[test]
    fn inlines_simple_call() {
        let mut mb = ModuleBuilder::new("m");
        let mut cb = FunctionBuilder::new("sq", 1, true);
        let s = cb.mul(cb.param(0), cb.param(0));
        cb.ret(s);
        let sq = mb.add(cb.finish());
        let mut fb = FunctionBuilder::new("main", 1, true);
        let a = fb.call(sq, &[Operand::Reg(fb.param(0))]);
        let b = fb.call(sq, &[Operand::Reg(a)]);
        fb.ret(b);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        assert_inline_equivalent(&mb.finish(), &[3]); // ((3^2)^2) = 81
    }

    #[test]
    fn inlines_nested_calls_with_control_flow() {
        let mut mb = ModuleBuilder::new("m");
        // abs(x)
        let mut ab = FunctionBuilder::new("abs", 1, true);
        let neg = ab.new_block();
        let pos = ab.new_block();
        let c = ab.lt(ab.param(0), 0);
        ab.branch(c, neg, pos);
        ab.switch_to(neg);
        let n = ab.sub(0, ab.param(0));
        ab.ret(n);
        ab.switch_to(pos);
        ab.ret(ab.param(0));
        let abs = mb.add(ab.finish());
        // dist(a, b) = abs(a - b)
        let mut db = FunctionBuilder::new("dist", 2, true);
        let d = db.sub(db.param(0), db.param(1));
        let r = db.call(abs, &[Operand::Reg(d)]);
        db.ret(r);
        let dist = mb.add(db.finish());
        // main: dist(3, 10) + dist(10, 3)
        let mut fb = FunctionBuilder::new("main", 0, true);
        let x = fb.call(dist, &[Operand::Imm(3), Operand::Imm(10)]);
        let y = fb.call(dist, &[Operand::Imm(10), Operand::Imm(3)]);
        let s = fb.add(x, y);
        fb.ret(s);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let m = mb.finish();
        assert_inline_equivalent(&m, &[]);
        assert_eq!(tta_ir::interp::run_ret(&m, &[]), 14);
    }

    #[test]
    fn inlines_calls_inside_loops() {
        let mut mb = ModuleBuilder::new("m");
        let mut cb = FunctionBuilder::new("step", 2, true);
        let t = cb.mul(cb.param(0), 3);
        let s = cb.add(t, cb.param(1));
        cb.ret(s);
        let step = mb.add(cb.finish());
        let mut fb = FunctionBuilder::new("main", 0, true);
        let acc = fb.copy(1);
        let i = fb.copy(0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(head);
        fb.switch_to(head);
        let c = fb.lt(i, 5);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let a2 = fb.call(step, &[Operand::Reg(acc), Operand::Reg(i)]);
        fb.copy_to(acc, a2);
        let i2 = fb.add(i, 1);
        fb.copy_to(i, i2);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(acc);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        assert_inline_equivalent(&mb.finish(), &[]);
    }

    #[test]
    fn rejects_recursion() {
        let mut mb = ModuleBuilder::new("m");
        let f_id = mb.declare("f");
        let mut fb = FunctionBuilder::new("f", 0, false);
        fb.call_void(f_id, &[]);
        fb.ret_void();
        mb.define(f_id, fb.finish());
        mb.set_entry(f_id);
        let e = inline_module(&mb.finish()).unwrap_err();
        assert!(e.0.contains("recursive"));
    }

    #[test]
    fn void_calls_and_memory_effects() {
        let mut mb = ModuleBuilder::new("m");
        let buf = mb.buffer(16);
        let mut cb = FunctionBuilder::new("bump", 0, false);
        let v = cb.ldw(buf.base(), buf.region);
        let v2 = cb.add(v, 1);
        cb.stw(v2, buf.base(), buf.region);
        cb.ret_void();
        let bump = mb.add(cb.finish());
        let mut fb = FunctionBuilder::new("main", 0, true);
        fb.call_void(bump, &[]);
        fb.call_void(bump, &[]);
        fb.call_void(bump, &[]);
        let v = fb.ldw(buf.base(), buf.region);
        fb.ret(v);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let m = mb.finish();
        assert_inline_equivalent(&m, &[]);
        assert_eq!(tta_ir::interp::run_ret(&m, &[]), 3);
    }
}

//! Static verification of IR modules.
//!
//! Checks structural well-formedness (terminated blocks, in-range block and
//! function references, opcode classes) and performs a definite-assignment
//! dataflow analysis to reject any register that could be read before being
//! written on some path. The compiler requires verified input; the kernels
//! in `tta-chstone` are all verified in their tests.

use crate::func::{Function, Module};
use crate::inst::{FuncId, Inst, Operand, Terminator, VReg};
use tta_model::OpClass;

/// A verification problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(pub String);

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module. Returns all problems found.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    if (m.entry.0 as usize) >= m.funcs.len() {
        errs.push(VerifyError(format!(
            "entry function f{} out of range",
            m.entry.0
        )));
    }
    for d in &m.data {
        let end = d.addr as u64 + d.bytes.len() as u64;
        if end > m.mem_size as u64 {
            errs.push(VerifyError(format!(
                "data initialiser at {:#x}..{:#x} exceeds memory size {:#x}",
                d.addr, end, m.mem_size
            )));
        }
    }
    for f in &m.funcs {
        if let Err(mut es) = verify_function(f, Some(m)) {
            errs.append(&mut es);
        }
    }
    // The reserved interrupt handler has a fixed signature: no
    // parameters (there is nothing to pass at delivery) and no return
    // value (it resumes the interrupted context instead).
    if let Some(h) = m.irq_handler() {
        if !h.params.is_empty() || h.returns_value {
            errs.push(VerifyError(format!(
                "{}: interrupt handler must take no parameters and return no value",
                h.name
            )));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Verify one function. When `module` is given, call targets and signatures
/// are checked as well.
pub fn verify_function(f: &Function, module: Option<&Module>) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    let mut err = |m: String| errs.push(VerifyError(format!("{}: {m}", f.name)));

    if f.blocks.is_empty() {
        err("function has no blocks".into());
        return Err(errs);
    }

    // Structure and opcode classes.
    for id in f.block_ids() {
        let b = f.block(id);
        for (i, inst) in b.insts.iter().enumerate() {
            match inst {
                Inst::Bin { op, .. } => {
                    if op.class() != OpClass::Alu || op.num_inputs() != 2 {
                        err(format!("{id}[{i}]: {op} is not a two-input ALU op"));
                    }
                }
                Inst::Un { op, .. } => {
                    if op.class() != OpClass::Alu || op.num_inputs() != 1 {
                        err(format!("{id}[{i}]: {op} is not a one-input ALU op"));
                    }
                }
                Inst::Load { op, .. } => {
                    if !op.is_load() {
                        err(format!("{id}[{i}]: {op} is not a load"));
                    }
                }
                Inst::Store { op, .. } => {
                    if !op.is_store() {
                        err(format!("{id}[{i}]: {op} is not a store"));
                    }
                }
                Inst::Copy { .. } => {}
                Inst::Call { func, args, dst } => {
                    if let Some(m) = module {
                        if (func.0 as usize) >= m.funcs.len() {
                            err(format!("{id}[{i}]: call to undefined f{}", func.0));
                        } else {
                            let callee = m.func(*func);
                            if callee.params.len() != args.len() {
                                err(format!(
                                    "{id}[{i}]: call to {} passes {} args, expects {}",
                                    callee.name,
                                    args.len(),
                                    callee.params.len()
                                ));
                            }
                            if dst.is_some() && !callee.returns_value {
                                err(format!(
                                    "{id}[{i}]: call expects a value but {} returns none",
                                    callee.name
                                ));
                            }
                        }
                    }
                }
            }
        }
        match &b.term {
            None => err(format!("{id} is unterminated")),
            Some(t) => {
                for s in t.successors() {
                    if (s.0 as usize) >= f.blocks.len() {
                        err(format!("{id}: terminator targets out-of-range {s}"));
                    }
                }
                if let Terminator::Ret(v) = t {
                    if v.is_some() != f.returns_value {
                        err(format!(
                            "{id}: return {} a value but function {}",
                            if v.is_some() { "carries" } else { "lacks" },
                            if f.returns_value {
                                "returns one"
                            } else {
                                "returns none"
                            }
                        ));
                    }
                }
            }
        }
    }

    // Definite assignment.
    if errs.is_empty() {
        definite_assignment(f, &mut errs);
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Forward "definitely assigned" dataflow: a register may only be read where
/// every path from entry has assigned it.
#[allow(clippy::needless_range_loop)]
fn definite_assignment(f: &Function, errs: &mut Vec<VerifyError>) {
    let n = f.next_vreg as usize;
    let nblocks = f.blocks.len();
    let full: Vec<u64> = vec![!0u64; n.div_ceil(64)];
    let mut entry_set = vec![0u64; n.div_ceil(64)];
    for p in &f.params {
        entry_set[p.0 as usize / 64] |= 1 << (p.0 as usize % 64);
    }

    // in[b] starts at "all assigned" except for entry; iterate to fixpoint.
    let mut ins: Vec<Vec<u64>> = vec![full.clone(); nblocks];
    ins[0] = entry_set;
    let preds = f.predecessors();
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nblocks {
            // Meet over predecessors (entry keeps its params-only set).
            if bi != 0 && !preds[bi].is_empty() {
                let mut new_in = full.clone();
                for p in &preds[bi] {
                    let out = block_out(f, p.0 as usize, &ins[p.0 as usize]);
                    for (a, b) in new_in.iter_mut().zip(&out) {
                        *a &= b;
                    }
                }
                if new_in != ins[bi] {
                    ins[bi] = new_in;
                    changed = true;
                }
            }
        }
    }

    // Check uses against the fixpoint.
    for bi in 0..nblocks {
        let mut set = ins[bi].clone();
        let b = &f.blocks[bi];
        let test = |set: &[u64], r: VReg| set[r.0 as usize / 64] >> (r.0 as usize % 64) & 1 == 1;
        for (i, inst) in b.insts.iter().enumerate() {
            for u in inst.uses() {
                if !test(&set, u) {
                    errs.push(VerifyError(format!(
                        "{}: bb{bi}[{i}]: {u} may be read before assignment",
                        f.name
                    )));
                }
            }
            if let Some(d) = inst.def() {
                set[d.0 as usize / 64] |= 1 << (d.0 as usize % 64);
            }
        }
        if let Some(t) = &b.term {
            for u in t.uses() {
                if !test(&set, u) {
                    errs.push(VerifyError(format!(
                        "{}: bb{bi} terminator: {u} may be read before assignment",
                        f.name
                    )));
                }
            }
        }
    }
}

fn block_out(f: &Function, bi: usize, in_set: &[u64]) -> Vec<u64> {
    let mut set = in_set.to_vec();
    for inst in &f.blocks[bi].insts {
        if let Some(d) = inst.def() {
            set[d.0 as usize / 64] |= 1 << (d.0 as usize % 64);
        }
    }
    set
}

/// Whether the module's call graph is acyclic (required by the compiler's
/// exhaustive inliner). Returns the name of a function on a cycle if not.
pub fn find_recursion(m: &Module) -> Option<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn dfs(m: &Module, f: FuncId, marks: &mut [Mark]) -> Option<String> {
        marks[f.0 as usize] = Mark::Grey;
        for b in &m.func(f).blocks {
            for inst in &b.insts {
                if let Inst::Call { func, .. } = inst {
                    match marks[func.0 as usize] {
                        Mark::Grey => return Some(m.func(*func).name.clone()),
                        Mark::White => {
                            if let Some(n) = dfs(m, *func, marks) {
                                return Some(n);
                            }
                        }
                        Mark::Black => {}
                    }
                }
            }
        }
        marks[f.0 as usize] = Mark::Black;
        None
    }
    let mut marks = vec![Mark::White; m.funcs.len()];
    for i in 0..m.funcs.len() {
        if marks[i] == Mark::White {
            if let Some(n) = dfs(m, FuncId(i as u32), &mut marks) {
                return Some(n);
            }
        }
    }
    None
}

/// Every immediate operand in the function, block by block in operand
/// order, each terminator's last (for tests of constant-rewriting passes).
pub fn collect_immediates(f: &Function) -> Vec<i32> {
    f.blocks
        .iter()
        .flat_map(|b| {
            let term = b.term.as_ref().and_then(Terminator::operand);
            b.insts.iter().flat_map(Inst::operands).chain(term)
        })
        .filter_map(Operand::imm)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::inst::Operand;

    fn module_of(f: Function) -> Module {
        let mut mb = ModuleBuilder::new("t");
        let id = mb.add(f);
        mb.set_entry(id);
        mb.finish()
    }

    #[test]
    fn accepts_well_formed() {
        let mut fb = FunctionBuilder::new("main", 1, true);
        let v = fb.add(fb.param(0), 1);
        fb.ret(v);
        assert!(verify_module(&module_of(fb.finish())).is_ok());
    }

    #[test]
    fn rejects_unterminated_block() {
        let mut fb = FunctionBuilder::new("main", 0, false);
        let _dangling = fb.new_block();
        fb.ret_void();
        let errs = verify_module(&module_of(fb.finish())).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("unterminated")));
    }

    #[test]
    fn rejects_use_before_def_on_one_path() {
        // v defined only on the true path but used after the merge.
        let mut fb = FunctionBuilder::new("main", 1, true);
        let v = fb.vreg();
        let t = fb.new_block();
        let merge = fb.new_block();
        fb.branch(fb.param(0), t, merge);
        fb.switch_to(t);
        fb.copy_to(v, 7);
        fb.jump(merge);
        fb.switch_to(merge);
        let r = fb.add(v, 1);
        fb.ret(r);
        let errs = verify_module(&module_of(fb.finish())).unwrap_err();
        assert!(
            errs.iter().any(|e| e.0.contains("before assignment")),
            "{errs:?}"
        );
    }

    #[test]
    fn accepts_def_on_all_paths() {
        let mut fb = FunctionBuilder::new("main", 1, true);
        let v = fb.vreg();
        let t = fb.new_block();
        let e = fb.new_block();
        let merge = fb.new_block();
        fb.branch(fb.param(0), t, e);
        fb.switch_to(t);
        fb.copy_to(v, 7);
        fb.jump(merge);
        fb.switch_to(e);
        fb.copy_to(v, 9);
        fb.jump(merge);
        fb.switch_to(merge);
        let r = fb.add(v, 1);
        fb.ret(r);
        assert!(verify_module(&module_of(fb.finish())).is_ok());
    }

    #[test]
    fn accepts_loop_carried_defs() {
        // A value defined before a loop and updated inside it must verify.
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
        assert!(verify_module(&module_of(fb.finish())).is_ok());
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut mb = ModuleBuilder::new("m");
        let mut cb = FunctionBuilder::new("f", 2, true);
        let s = cb.add(cb.param(0), cb.param(1));
        cb.ret(s);
        let callee = mb.add(cb.finish());
        let mut fb = FunctionBuilder::new("main", 0, true);
        let v = fb.call(callee, &[Operand::Imm(1)]); // one arg, needs two
        fb.ret(v);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let errs = verify_module(&mb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("passes 1 args")));
    }

    #[test]
    fn rejects_return_mismatch() {
        let mut fb = FunctionBuilder::new("main", 0, true);
        fb.ret_void(); // function claims to return a value
        let errs = verify_module(&module_of(fb.finish())).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("lacks a value")));
    }

    #[test]
    fn detects_recursion() {
        let mut mb = ModuleBuilder::new("m");
        let f_id = mb.declare("f");
        let mut fb = FunctionBuilder::new("f", 0, false);
        fb.call_void(f_id, &[]);
        fb.ret_void();
        mb.define(f_id, fb.finish());
        mb.set_entry(f_id);
        let m = mb.finish();
        assert_eq!(find_recursion(&m), Some("f".into()));
    }

    #[test]
    fn acyclic_call_graph_passes() {
        let mut mb = ModuleBuilder::new("m");
        let mut leaf = FunctionBuilder::new("leaf", 0, false);
        leaf.ret_void();
        let leaf_id = mb.add(leaf.finish());
        let mut fb = FunctionBuilder::new("main", 0, false);
        fb.call_void(leaf_id, &[]);
        fb.call_void(leaf_id, &[]);
        fb.ret_void();
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        assert_eq!(find_recursion(&mb.finish()), None);
    }

    #[test]
    fn collects_immediates() {
        let mut fb = FunctionBuilder::new("main", 0, true);
        let a = fb.add(100_000, 3);
        let b = fb.mul(a, -7);
        fb.ret(b);
        let f = fb.finish();
        let imms = collect_immediates(&f);
        assert!(imms.contains(&100_000));
        assert!(imms.contains(&3));
        assert!(imms.contains(&-7));
    }

    #[test]
    fn rejects_oversized_data() {
        let mut mb = ModuleBuilder::new("m");
        let _ = mb.buffer(8);
        let mut fb = FunctionBuilder::new("main", 0, false);
        fb.ret_void();
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let mut m = mb.finish();
        m.data.push(crate::func::DataInit {
            addr: m.mem_size - 2,
            bytes: vec![0; 8],
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("exceeds memory size")));
    }
}

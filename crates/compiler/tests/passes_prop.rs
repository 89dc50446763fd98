//! Property tests for the IR-level passes: inlining, dead-code elimination
//! and constant legalisation must preserve interpreter semantics on random
//! programs, and DCE must actually remove provably dead code. Cases come
//! from a deterministic PRNG and are reproducible from their number.

use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
use tta_ir::{Module, VReg};
use tta_model::Opcode;
use tta_testutil::Rng;

const BIN_OPS: [Opcode; 8] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::And,
    Opcode::Ior,
    Opcode::Xor,
    Opcode::Mul,
    Opcode::Gt,
    Opcode::Shl,
];

/// A straight-line program recipe: each step combines two earlier values.
#[derive(Debug, Clone)]
struct Step {
    op: usize,
    a: usize,
    b: usize,
    /// Whether this value feeds the final result.
    used: bool,
}

fn build(steps: &[Step]) -> (Module, Vec<VReg>) {
    let mut mb = ModuleBuilder::new("p");
    let mut fb = FunctionBuilder::new("main", 0, true);
    let mut vals = vec![fb.copy(0x1357), fb.copy(42)];
    let mut used_vals = Vec::new();
    for s in steps {
        let a = vals[s.a % vals.len()];
        let b = vals[s.b % vals.len()];
        let v = fb.bin(BIN_OPS[s.op % BIN_OPS.len()], a, b);
        if s.used {
            used_vals.push(v);
        }
        vals.push(v);
    }
    let mut acc = fb.copy(7);
    for v in &used_vals {
        let n = fb.xor(acc, *v);
        acc = n;
    }
    fb.ret(acc);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    (mb.finish(), vals)
}

#[test]
fn dce_preserves_semantics_and_removes_dead_tails() {
    for case in 0u64..128 {
        let mut rng = Rng::new(case);
        let n = rng.range(1, 40);
        let steps: Vec<Step> = rng.vec(n, |r| Step {
            op: r.below(usize::MAX),
            a: r.below(usize::MAX),
            b: r.below(usize::MAX),
            used: r.next_bool(),
        });
        let (module, _) = build(&steps);
        let before = tta_ir::interp::run_ret(&module, &[]);

        let mut flat = tta_compiler::inline::inline_module(&module).unwrap();
        let n_before = flat.inst_count();
        let removed = tta_compiler::dce::eliminate_dead_code(&mut flat);
        assert_eq!(flat.inst_count() + removed, n_before, "case {case}");
        tta_ir::verify::verify_function(&flat, None).unwrap();

        // Wrap the optimised function back into a module and re-interpret.
        let opt_module = Module {
            name: module.name.clone(),
            funcs: vec![flat],
            entry: tta_ir::FuncId(0),
            data: module.data.clone(),
            mem_size: module.mem_size,
        };
        assert_eq!(
            tta_ir::interp::run_ret(&opt_module, &[]),
            before,
            "case {case}"
        );

        // Every value never reaching the result whose consumers are all
        // dead must be gone: if NO step is used, only the seed/result
        // scaffolding survives.
        if steps.iter().all(|s| !s.used) {
            assert!(
                opt_module.funcs[0].inst_count() <= 3,
                "case {case}: all steps dead but {} instructions remain",
                opt_module.funcs[0].inst_count()
            );
        }
    }
}

#[test]
fn const_legalisation_preserves_semantics() {
    for case in 0u64..128 {
        let mut rng = Rng::new(0xc0de ^ case);
        let n = rng.range(1, 12);
        let consts: Vec<i32> = rng.vec(n, |r| r.next_i32());
        let budget = rng.range(1, 16);
        let mut mb = ModuleBuilder::new("c");
        let mut fb = FunctionBuilder::new("main", 0, true);
        let mut acc = fb.copy(1);
        for (k, c) in consts.iter().enumerate() {
            // Use some constants twice so both hoisting paths trigger.
            let v = fb.add(acc, *c);
            acc = if k % 2 == 0 { fb.xor(v, *c) } else { v };
        }
        fb.ret(acc);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let module = mb.finish();
        let before = tta_ir::interp::run_ret(&module, &[]);

        let mut flat = tta_compiler::inline::inline_module(&module).unwrap();
        tta_compiler::consts::hoist_wide_constants(
            &mut flat,
            &|v: i32| (-32..32).contains(&v),
            budget,
        );
        tta_ir::verify::verify_function(&flat, None).unwrap();
        let opt_module = Module {
            name: module.name.clone(),
            funcs: vec![flat.clone()],
            entry: tta_ir::FuncId(0),
            data: module.data.clone(),
            mem_size: module.mem_size,
        };
        assert_eq!(
            tta_ir::interp::run_ret(&opt_module, &[]),
            before,
            "case {case}"
        );

        // Post-condition: no wide immediate survives outside Copy sources.
        for b in &flat.blocks {
            for inst in &b.insts {
                if matches!(inst, tta_ir::Inst::Copy { .. }) {
                    continue;
                }
                for u in inst.operands().filter_map(tta_ir::Operand::imm) {
                    assert!(
                        (-32..32).contains(&u),
                        "case {case}: wide imm {u} left in {inst}"
                    );
                }
            }
        }
    }
}

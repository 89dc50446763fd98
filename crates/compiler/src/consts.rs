//! Constant legalisation.
//!
//! Each target style can only encode a limited immediate inline (the bus
//! short-immediate for TTA, the register-address-width field for VLIW, the
//! 16-bit field for the scalar core). Wider constants must be materialised —
//! through the long-immediate mechanism (TTA/VLIW) or an `imm` prefix
//! (scalar). This pass hoists wide constants that are used more than once
//! into a register defined at function entry, the way `-O3` code generation
//! keeps loop-invariant constants in registers; single-use constants stay
//! inline and are materialised at their use site by the backend.

use std::collections::HashMap;
use tta_ir::{Function, Inst, Operand, Terminator, VReg};

/// Blocks that sit on a cycle of the CFG (Tarjan SCCs of size > 1 plus
/// self-loops): a constant materialised in one of these is re-materialised
/// every iteration, so hoisting is worthwhile even for a single textual
/// use.
fn loop_blocks(f: &Function) -> Vec<bool> {
    let n = f.blocks.len();
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| {
            b.term
                .as_ref()
                .map(|t| t.successors().map(|s| s.0 as usize).collect())
                .unwrap_or_default()
        })
        .collect();

    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut in_loop = vec![false; n];
    let mut call_stack: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call_stack.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ei)) = call_stack.last_mut() {
            if *ei < succs[v].len() {
                let w = succs[v][*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(p, _)) = call_stack.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    // Root of an SCC; pop it.
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = scc.len() > 1 || succs[scc[0]].contains(&scc[0]);
                    if cyclic {
                        for w in scc {
                            in_loop[w] = true;
                        }
                    }
                }
            }
        }
    }
    in_loop
}

/// Statistics from constant hoisting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstStats {
    /// Distinct wide constants hoisted to registers at function entry.
    pub hoisted: usize,
    /// Single-use wide constants materialised by a `Copy` right before
    /// their use.
    pub materialized: usize,
}

/// Legalise constants: constants for which `fits` is false are moved out of
/// operand position — multi-use and loop-resident constants into a register
/// defined at entry (up to `hoist_budget` registers, most-used first, so
/// hoisting never floods the register file into spilling), the rest into a
/// short-lived register defined by a `Copy` immediately before the use.
/// After this pass the only wide immediates left in the function are the
/// sources of materialising `Copy`s, which the backends lower through the
/// long-immediate mechanism (TTA/VLIW) or an `imm` prefix (scalar).
pub fn hoist_wide_constants(
    f: &mut Function,
    fits: &dyn Fn(i32) -> bool,
    hoist_budget: usize,
) -> ConstStats {
    // Count occurrences of each wide constant in operand position, noting
    // whether any use sits inside a loop (where at-use materialisation
    // would repeat every iteration). Sources of existing `Copy`s are
    // already materialisations and are not counted as operand uses.
    let in_loop = loop_blocks(f);
    let mut counts: HashMap<i32, (usize, bool)> = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let insts = b.insts.iter().filter(|i| !matches!(i, Inst::Copy { .. }));
        let term = b.term.as_ref().and_then(Terminator::operand);
        for v in insts
            .flat_map(Inst::operands)
            .chain(term)
            .filter_map(Operand::imm)
        {
            if !fits(v) {
                let e = counts.entry(v).or_insert((0, false));
                e.0 += 1;
                e.1 |= in_loop[bi];
            }
        }
    }

    // Multi-use constants — and any constant used inside a loop — get an
    // entry-hoisted register, most-used first up to the budget.
    let mut stats = ConstStats::default();
    let mut candidates: Vec<(i32, usize, bool)> = counts
        .iter()
        .filter(|&(_, &(n, looped))| n >= 2 || looped)
        .map(|(&v, &(n, looped))| (v, n, looped))
        .collect();
    candidates.sort_by_key(|&(v, n, looped)| (std::cmp::Reverse((looped, n)), v));
    candidates.truncate(hoist_budget);
    let mut hoist_order: Vec<i32> = candidates.into_iter().map(|(v, _, _)| v).collect();
    hoist_order.sort_unstable();
    let mut reg_for: HashMap<i32, VReg> = HashMap::new();
    for v in &hoist_order {
        reg_for.insert(*v, f.new_vreg());
    }
    stats.hoisted = hoist_order.len();

    // Rewrite every block: hoisted constants become register reads;
    // remaining wide constants get a materialising Copy right before their
    // reader (one per distinct value, numbered in operand order).
    let mut blocks = std::mem::take(&mut f.blocks);
    let mut legalise = |operands: &mut dyn Iterator<Item = &mut Operand>, out: &mut Vec<Inst>| {
        let first = out.len();
        for o in operands {
            let Some(v) = o.imm().filter(|&v| !fits(v)) else {
                continue;
            };
            // `out[first..]` holds the copies made for this reader so far.
            let made = out[first..].iter().find(|c| c.operands().eq([*o]));
            let r = match reg_for.get(&v).copied().or(made.and_then(Inst::def)) {
                Some(r) => r,
                None => {
                    let r = f.new_vreg();
                    stats.materialized += 1;
                    out.push(Inst::Copy { dst: r, src: *o });
                    r
                }
            };
            *o = Operand::Reg(r);
        }
    };
    for b in &mut blocks {
        let old = std::mem::take(&mut b.insts);
        let mut out = Vec::with_capacity(old.len());
        for mut inst in old {
            if !matches!(inst, Inst::Copy { .. }) {
                legalise(&mut inst.operands_mut(), &mut out);
            }
            out.push(inst);
        }
        legalise(
            &mut b.term.iter_mut().flat_map(Terminator::operand_mut),
            &mut out,
        );
        b.insts = out;
    }
    f.blocks = blocks;

    // Materialising copies for hoisted constants at the top of the entry
    // block.
    let copies: Vec<Inst> = hoist_order
        .iter()
        .map(|&v| Inst::Copy {
            dst: reg_for[&v],
            src: Operand::Imm(v),
        })
        .collect();
    let entry = &mut f.blocks[0];
    let old = std::mem::take(&mut entry.insts);
    entry.insts = copies.into_iter().chain(old).collect();

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::FunctionBuilder;
    use tta_ir::verify::{collect_immediates, verify_function};

    fn fits6(v: i32) -> bool {
        (-32..32).contains(&v)
    }

    #[test]
    fn hoists_repeated_wide_constants() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let a = fb.add(1000, 1); // 1000 wide, used twice
        let b = fb.add(a, 1000);
        let c = fb.add(b, 7); // 7 fits
        fb.ret(c);
        let mut f = fb.finish();
        let stats = hoist_wide_constants(&mut f, &fits6, 16);
        assert_eq!(stats.hoisted, 1);
        assert_eq!(stats.materialized, 0);
        // 1000 now appears exactly once: in the entry copy.
        let imms = collect_immediates(&f);
        assert_eq!(imms.iter().filter(|&&v| v == 1000).count(), 1);
        assert!(matches!(
            f.blocks[0].insts[0],
            Inst::Copy {
                src: Operand::Imm(1000),
                ..
            }
        ));
        verify_function(&f, None).unwrap();
    }

    #[test]
    fn materializes_single_use_wide_constants() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let a = fb.add(123_456, 5);
        fb.ret(a);
        let mut f = fb.finish();
        let stats = hoist_wide_constants(&mut f, &fits6, 16);
        assert_eq!(stats.hoisted, 0);
        assert_eq!(stats.materialized, 1);
        assert!(collect_immediates(&f).contains(&123_456));
    }

    #[test]
    fn preserves_semantics() {
        use tta_ir::builder::ModuleBuilder;
        let build = |hoist: bool| {
            let mut mb = ModuleBuilder::new("m");
            let mut fb = FunctionBuilder::new("main", 0, true);
            let a = fb.mul(70_000, 3);
            let b = fb.add(a, 70_000);
            let c = fb.xor(b, 0x5555_5555u32 as i32);
            fb.ret(c);
            let mut f = fb.finish();
            if hoist {
                hoist_wide_constants(&mut f, &fits6, 16);
            }
            let id = mb.add(f);
            mb.set_entry(id);
            mb.finish()
        };
        let plain = tta_ir::interp::run_ret(&build(false), &[]);
        let hoisted = tta_ir::interp::run_ret(&build(true), &[]);
        assert_eq!(plain, hoisted);
    }

    #[test]
    fn hoisting_is_deterministic() {
        let mk = || {
            let mut fb = FunctionBuilder::new("f", 0, true);
            let a = fb.add(500, 600);
            let b = fb.add(500, 600);
            let c = fb.add(a, b);
            fb.ret(c);
            let mut f = fb.finish();
            hoist_wide_constants(&mut f, &fits6, 16);
            f
        };
        assert_eq!(mk(), mk());
    }
}

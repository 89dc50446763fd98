//! Per-block liveness analysis over virtual registers.

use crate::bitset::BitSet;
use tta_ir::Function;

/// Live-in/live-out sets per block, indexed by `BlockId`.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: Vec<BitSet>,
    /// Registers live at block exit.
    pub live_out: Vec<BitSet>,
}

impl Liveness {
    /// Compute liveness for a function with a standard backward dataflow,
    /// in place on the sets' words.
    ///
    /// `live_in` starts at each block's upward-exposed uses (`gen`) rather
    /// than empty: every solution contains `gen`, and the rounds only ever
    /// add to both sets (`out |= in[succ]`, `in |= out - kill`), so they
    /// stop at the same least fixpoint without allocating anything.
    pub fn compute(f: &Function) -> Liveness {
        let nregs = f.next_vreg as usize;
        let nblocks = f.blocks.len();

        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut live_in = Vec::with_capacity(nblocks);
        let mut kill = Vec::with_capacity(nblocks);
        for b in &f.blocks {
            let mut g = BitSet::new(nregs);
            let mut k = BitSet::new(nregs);
            for inst in &b.insts {
                for u in inst.uses() {
                    if !k.contains(u.0 as usize) {
                        g.insert(u.0 as usize);
                    }
                }
                if let Some(d) = inst.def() {
                    k.insert(d.0 as usize);
                }
            }
            if let Some(t) = &b.term {
                for u in t.uses() {
                    if !k.contains(u.0 as usize) {
                        g.insert(u.0 as usize);
                    }
                }
            }
            live_in.push(g);
            kill.push(k);
        }

        let mut live_out: Vec<BitSet> = vec![BitSet::new(nregs); nblocks];
        let succs: Vec<Vec<u32>> = f
            .blocks
            .iter()
            .map(|b| {
                b.term
                    .as_ref()
                    .map(|t| t.successors().into_iter().map(|s| s.0).collect())
                    .unwrap_or_default()
            })
            .collect();

        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nblocks).rev() {
                for &s in &succs[bi] {
                    changed |= live_out[bi].union_with(&live_in[s as usize]);
                }
                changed |= live_in[bi].union_with_difference(&live_out[bi], &kill[bi]);
            }
        }
        Liveness { live_in, live_out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::FunctionBuilder;

    #[test]
    fn straight_line_liveness() {
        let mut fb = FunctionBuilder::new("f", 1, true);
        let a = fb.add(fb.param(0), 1);
        let b = fb.add(a, 2);
        fb.ret(b);
        let f = fb.finish();
        let l = Liveness::compute(&f);
        // Entry: only the parameter is live-in.
        assert!(l.live_in[0].contains(0));
        assert!(!l.live_in[0].contains(a.0 as usize));
        assert!(l.live_out[0].is_empty());
    }

    #[test]
    fn loop_carried_value_is_live_around_the_loop() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let acc = fb.copy(0);
        let i = fb.copy(0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(head);
        fb.switch_to(head);
        let c = fb.lt(i, 10);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let a2 = fb.add(acc, i);
        fb.copy_to(acc, a2);
        let i2 = fb.add(i, 1);
        fb.copy_to(i, i2);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(acc);
        let f = fb.finish();
        let l = Liveness::compute(&f);
        let head_i = 1usize;
        let body_i = 2usize;
        // acc and i are live around the back edge.
        assert!(l.live_in[head_i].contains(acc.0 as usize));
        assert!(l.live_in[head_i].contains(i.0 as usize));
        assert!(l.live_out[body_i].contains(acc.0 as usize));
        assert!(l.live_out[body_i].contains(i.0 as usize));
        // The condition is block-local to head.
        assert!(!l.live_out[head_i].contains(c.0 as usize));
    }

    /// The textbook round-robin solver: fresh sets every round, `in`
    /// rebuilt from empty as `gen ∪ (out − kill)`.
    fn reference(f: &Function) -> Liveness {
        let n = f.next_vreg as usize;
        let (mut gen, mut kill) = (Vec::new(), Vec::new());
        for b in &f.blocks {
            let (mut g, mut k) = (BitSet::new(n), BitSet::new(n));
            let term_uses = b.term.iter().flat_map(|t| t.uses());
            let steps = b.insts.iter().map(|i| (i.uses(), i.def()));
            for (uses, def) in steps.chain(std::iter::once((term_uses.collect(), None))) {
                for u in uses {
                    if !k.contains(u.0 as usize) {
                        g.insert(u.0 as usize);
                    }
                }
                if let Some(d) = def {
                    k.insert(d.0 as usize);
                }
            }
            gen.push(g);
            kill.push(k);
        }
        let nb = f.blocks.len();
        let mut l = Liveness {
            live_in: vec![BitSet::new(n); nb],
            live_out: vec![BitSet::new(n); nb],
        };
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                let mut out = BitSet::new(n);
                for s in f.blocks[bi].term.iter().flat_map(|t| t.successors()) {
                    out.union_with(&l.live_in[s.0 as usize]);
                }
                let mut inp = gen[bi].clone();
                for e in out.iter().filter(|&e| !kill[bi].contains(e)) {
                    inp.insert(e);
                }
                changed |= out != l.live_out[bi] || inp != l.live_in[bi];
                l.live_out[bi] = out;
                l.live_in[bi] = inp;
            }
        }
        l
    }

    #[test]
    fn matches_the_reference_solver_on_every_kernel() {
        for k in tta_chstone::all_kernels() {
            let f = crate::inline::inline_module(&(k.build)()).unwrap();
            let (got, want) = (Liveness::compute(&f), reference(&f));
            assert_eq!(got.live_in, want.live_in, "{}", k.name);
            assert_eq!(got.live_out, want.live_out, "{}", k.name);
        }
    }

    #[test]
    fn value_dead_after_last_use() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let a = fb.copy(1);
        let b1 = fb.new_block();
        fb.jump(b1);
        fb.switch_to(b1);
        let b = fb.add(a, 1); // last use of a
        let b2 = fb.new_block();
        fb.jump(b2);
        fb.switch_to(b2);
        fb.ret(b);
        let f = fb.finish();
        let l = Liveness::compute(&f);
        assert!(l.live_out[0].contains(a.0 as usize));
        assert!(!l.live_out[1].contains(a.0 as usize));
        assert!(l.live_out[1].contains(b.0 as usize));
    }
}

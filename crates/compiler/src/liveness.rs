//! Per-block liveness analysis over virtual registers.

use crate::bitset::BitRows;
use tta_ir::{Function, Terminator};

/// Live-in/live-out sets per block: row `b` of each matrix belongs to
/// `BlockId(b)`, and each row is a set of vreg numbers.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: BitRows,
    /// Registers live at block exit.
    pub live_out: BitRows,
}

impl Liveness {
    /// Compute liveness for a function with a standard backward dataflow,
    /// in place on the rows' words. It allocates three word matrices
    /// (live-in, live-out and the per-block defs) and nothing per block
    /// or per round; successors are read from the terminators.
    ///
    /// `live_in` starts at each block's upward-exposed uses (`gen`) rather
    /// than empty: every solution contains `gen`, and the rounds only ever
    /// add to both sets (`out |= in[succ]`, `in |= out - kill`), so they
    /// stop at the same least fixpoint.
    pub fn compute(f: &Function) -> Liveness {
        let nregs = f.next_vreg as usize;
        let nblocks = f.blocks.len();

        // Per-block gen (upward-exposed uses, straight into `live_in`)
        // and kill (defs).
        let mut live_in = BitRows::new(nblocks, nregs);
        let mut kill = BitRows::new(nblocks, nregs);
        for (bi, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                for u in inst.uses() {
                    if !kill.contains(bi, u.0 as usize) {
                        live_in.insert(bi, u.0 as usize);
                    }
                }
                if let Some(d) = inst.def() {
                    kill.insert(bi, d.0 as usize);
                }
            }
            for u in b.term.iter().flat_map(Terminator::uses) {
                if !kill.contains(bi, u.0 as usize) {
                    live_in.insert(bi, u.0 as usize);
                }
            }
        }

        let mut live_out = BitRows::new(nblocks, nregs);
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nblocks).rev() {
                let out = live_out.row_mut(bi);
                for s in f.blocks[bi].term.iter().flat_map(Terminator::successors) {
                    for (o, &i) in out.iter_mut().zip(live_in.row(s.0 as usize)) {
                        changed |= i & !*o != 0;
                        *o |= i;
                    }
                }
                let words = live_in.row_mut(bi).iter_mut().zip(kill.row(bi));
                for ((i, &k), &o) in words.zip(&*out) {
                    changed |= o & !k & !*i != 0;
                    *i |= o & !k;
                }
            }
        }
        Liveness { live_in, live_out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
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
        assert!(l.live_in.contains(0, 0));
        assert!(!l.live_in.contains(0, a.0 as usize));
        assert_eq!(l.live_out.iter(0).count(), 0);
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
        assert!(l.live_in.contains(head_i, acc.0 as usize));
        assert!(l.live_in.contains(head_i, i.0 as usize));
        assert!(l.live_out.contains(body_i, acc.0 as usize));
        assert!(l.live_out.contains(body_i, i.0 as usize));
        // The condition is block-local to head.
        assert!(!l.live_out.contains(head_i, c.0 as usize));
    }

    /// The textbook round-robin solver: fresh sets every round, `out`
    /// rebuilt as the union of the successors' `in`, and `in` as
    /// `gen ∪ (out − kill)`. Returns `(live_in, live_out)` per block.
    #[allow(clippy::type_complexity)]
    fn reference(f: &Function) -> (Vec<BTreeSet<usize>>, Vec<BTreeSet<usize>>) {
        let (mut gen, mut kill) = (Vec::new(), Vec::new());
        for b in &f.blocks {
            let (mut g, mut k) = (BTreeSet::new(), BTreeSet::new());
            let steps = b
                .insts
                .iter()
                .map(|i| (i.uses().collect::<Vec<_>>(), i.def()));
            let term = b.term.iter().map(|t| (t.uses().collect(), None));
            for (uses, def) in steps.chain(term) {
                for u in uses {
                    if !k.contains(&(u.0 as usize)) {
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
        let (mut live_in, mut live_out) = (vec![BTreeSet::new(); nb], vec![BTreeSet::new(); nb]);
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                let mut out = BTreeSet::new();
                for s in f.blocks[bi].term.iter().flat_map(|t| t.successors()) {
                    out.extend(live_in[s.0 as usize].iter().copied());
                }
                let mut inp = gen[bi].clone();
                inp.extend(out.difference(&kill[bi]).copied());
                changed |= out != live_out[bi] || inp != live_in[bi];
                live_out[bi] = out;
                live_in[bi] = inp;
            }
        }
        (live_in, live_out)
    }

    #[test]
    fn matches_the_reference_solver_on_every_kernel() {
        for k in tta_chstone::all_kernels() {
            let f = crate::inline::inline_module(&(k.build)()).unwrap();
            let got = Liveness::compute(&f);
            let (want_in, want_out) = reference(&f);
            for bi in 0..f.blocks.len() {
                let row = |m: &BitRows| m.iter(bi).collect::<Vec<_>>();
                let set = |s: &BTreeSet<usize>| s.iter().copied().collect::<Vec<_>>();
                assert_eq!(row(&got.live_in), set(&want_in[bi]), "{} bb{bi}", k.name);
                assert_eq!(row(&got.live_out), set(&want_out[bi]), "{} bb{bi}", k.name);
            }
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
        assert!(l.live_out.contains(0, a.0 as usize));
        assert!(!l.live_out.contains(1, a.0 as usize));
        assert!(l.live_out.contains(1, b.0 as usize));
    }
}

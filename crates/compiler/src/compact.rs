//! Dense renumbering of virtual registers.
//!
//! The exhaustive inliner allocates a fresh contiguous vreg range per call
//! site, so a heavily inlined function can have a very sparse vreg space.
//! The dataflow analyses use dense bitsets indexed by vreg number, so we
//! renumber before running them.

use std::collections::HashMap;
use tta_ir::{Function, Operand, Terminator, VReg};

/// Renumber vregs densely in order of first appearance. Returns the number
/// of distinct registers in use.
pub fn compact_vregs(f: &mut Function) -> u32 {
    struct Renamer {
        map: HashMap<VReg, VReg>,
        next: u32,
    }
    impl Renamer {
        fn get(&mut self, r: VReg) -> VReg {
            let next = &mut self.next;
            *self.map.entry(r).or_insert_with(|| {
                let n = VReg(*next);
                *next += 1;
                n
            })
        }
        fn reg(&mut self, r: &mut VReg) {
            *r = self.get(*r);
        }
        fn op(&mut self, o: &mut Operand) {
            if let Operand::Reg(r) = o {
                *r = self.get(*r);
            }
        }
    }
    let mut rn = Renamer {
        map: HashMap::new(),
        next: 0,
    };

    // Parameters first, preserving their order.
    let params = f.params.clone();
    for p in &params {
        rn.get(*p);
    }

    for b in &mut f.blocks {
        for inst in &mut b.insts {
            for o in inst.operands_mut() {
                rn.op(o);
            }
            if let Some(d) = inst.def_mut() {
                rn.reg(d);
            }
        }
        if let Some(o) = b.term.as_mut().and_then(Terminator::operand_mut) {
            rn.op(o);
        }
    }
    for p in &mut f.params {
        *p = rn.map[p];
    }
    let count = rn.map.len() as u32;
    f.next_vreg = count;
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};

    #[test]
    fn compaction_preserves_semantics_and_shrinks() {
        let build = |compact: bool| {
            let mut mb = ModuleBuilder::new("m");
            let mut fb = FunctionBuilder::new("main", 0, true);
            // Waste vreg numbers.
            for _ in 0..100 {
                let _ = fb.vreg();
            }
            let a = fb.add(3, 4);
            for _ in 0..50 {
                let _ = fb.vreg();
            }
            let b = fb.mul(a, a);
            fb.ret(b);
            let mut f = fb.finish();
            if compact {
                let n = compact_vregs(&mut f);
                assert_eq!(n, 2); // only a and b survive
            }
            let id = mb.add(f);
            mb.set_entry(id);
            mb.finish()
        };
        assert_eq!(
            tta_ir::interp::run_ret(&build(false), &[]),
            tta_ir::interp::run_ret(&build(true), &[])
        );
    }

    #[test]
    fn params_keep_their_slots() {
        let mut fb = FunctionBuilder::new("f", 2, true);
        let s = fb.add(fb.param(0), fb.param(1));
        fb.ret(s);
        let mut f = fb.finish();
        compact_vregs(&mut f);
        assert_eq!(f.params, vec![VReg(0), VReg(1)]);
        assert_eq!(f.next_vreg, 3);
        tta_ir::verify::verify_function(&f, None).unwrap();
    }
}

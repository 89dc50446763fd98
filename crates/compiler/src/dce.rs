//! Dead-code elimination on the flattened IR.
//!
//! Removes instructions whose results are never observed: pure operations
//! (ALU, copies, loads) whose destination register is not live at the
//! point of definition. Stores, calls and terminators are always live, and
//! so is a load from an immediate address at or above [`MMIO_BASE`]:
//! reading a device register is observable (a `UART_RX` read pops a byte,
//! every MMIO load is counted, and an unmapped word faults) even when the
//! value is discarded.
//! Runs after inlining — argument-binding copies for unused parameters and
//! values computed only for dead paths disappear here, the way `-O3` would
//! clean them up before scheduling.

use crate::bitset::BitSet;
use crate::liveness::Liveness;
use tta_ir::{Function, Inst, Operand};
use tta_model::io::MMIO_BASE;

/// Whether `inst` has an effect beyond defining its destination.
fn side_effecting(inst: &Inst) -> bool {
    match inst {
        Inst::Store { .. } | Inst::Call { .. } => true,
        Inst::Load {
            addr: Operand::Imm(a),
            ..
        } => *a as u32 >= MMIO_BASE,
        _ => false,
    }
}

/// Remove dead instructions. Returns the number removed (iterates to a
/// fixpoint, since removing one use can kill its producers).
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let _span = tta_obs::span("dce");
    let mut removed_total = 0;
    loop {
        let live = Liveness::compute(f);
        let mut live_now = BitSet::new(f.next_vreg as usize);
        let mut removed = 0;
        for (bi, b) in f.blocks.iter_mut().enumerate() {
            // Walk backwards keeping a running live set within the block,
            // seeded with the successor liveness plus the terminator's own
            // reads (live_out only covers values consumed in successors).
            live_now.copy_row(&live.live_out, bi);
            for u in b.term.iter().flat_map(|t| t.uses()) {
                live_now.insert(u.0 as usize);
            }
            let mut keep = vec![true; b.insts.len()];
            for (ii, inst) in b.insts.iter().enumerate().rev() {
                let dead = match inst.def() {
                    Some(d) if !side_effecting(inst) => !live_now.contains(d.0 as usize),
                    _ => false,
                };
                if dead {
                    keep[ii] = false;
                    removed += 1;
                    continue;
                }
                if let Some(d) = inst.def() {
                    live_now.remove(d.0 as usize);
                }
                for u in inst.uses() {
                    live_now.insert(u.0 as usize);
                }
            }
            let mut k = keep.iter();
            b.insts.retain(|_| *k.next().unwrap());
        }
        removed_total += removed;
        if removed == 0 {
            tta_obs::counter::add("compiler.dce_removed", removed_total as u64);
            return removed_total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
    use tta_ir::MemRegion;

    #[test]
    fn removes_unused_chains() {
        let mut fb = FunctionBuilder::new("f", 0, true);
        let live = fb.add(1, 2);
        let dead1 = fb.mul(3, 4); // never used
        let _dead2 = fb.add(dead1, 1); // uses dead1, itself unused
        fb.ret(live);
        let mut f = fb.finish();
        let n = eliminate_dead_code(&mut f);
        assert_eq!(n, 2);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn removes_an_overwritten_def_of_a_used_register() {
        // x = 1; x = 2; ret x: x has a use, but the first def never
        // reaches it. Liveness sees that; a per-register def/use count
        // would not (this IR is not SSA).
        let mut fb = FunctionBuilder::new("f", 0, true);
        let x = fb.copy(1);
        fb.copy_to(x, 2);
        fb.ret(x);
        let mut f = fb.finish();
        assert_eq!(eliminate_dead_code(&mut f), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn keeps_stores_and_loads_feeding_them() {
        let mut fb = FunctionBuilder::new("f", 0, false);
        let v = fb.ldw(16, MemRegion(1));
        fb.stw(v, 20, MemRegion(1));
        let _dead = fb.ldw(24, MemRegion(1)); // dead load: removable (pure)
        fb.ret_void();
        let mut f = fb.finish();
        let n = eliminate_dead_code(&mut f);
        assert_eq!(n, 1);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn keeps_discarded_mmio_loads() {
        // A discarded `UART_RX` read still pops a byte; a discarded load
        // from ordinary memory is dead.
        let rx = tta_model::io::UART_RX_ADDR as i32;
        let mut fb = FunctionBuilder::new("f", 0, true);
        let _popped = fb.ldw(rx, MemRegion::ANY);
        let _dead = fb.ldw(16, MemRegion(1));
        let v = fb.ldw(rx, MemRegion::ANY);
        fb.ret(v);
        let mut f = fb.finish();
        assert_eq!(eliminate_dead_code(&mut f), 1);
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert!(f.blocks[0]
            .insts
            .iter()
            .all(|i| matches!(i, Inst::Load { addr: Operand::Imm(a), .. } if *a == rx)));
    }

    #[test]
    fn respects_loop_carried_liveness() {
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
        let mut f = fb.finish();
        let before: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        let n = eliminate_dead_code(&mut f);
        assert_eq!(n, 0, "nothing is dead in this loop");
        let after: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn preserves_semantics_end_to_end() {
        let build = |dce: bool| {
            let mut mb = ModuleBuilder::new("m");
            let buf = mb.buffer(32);
            let mut fb = FunctionBuilder::new("main", 0, true);
            let a = fb.add(10, 20);
            let _dead = fb.mul(a, 99);
            fb.stw(a, buf.base(), buf.region);
            let b = fb.ldw(buf.base(), buf.region);
            let _dead2 = fb.xor(b, -1);
            let r = fb.add(b, 1);
            fb.ret(r);
            let mut f = fb.finish();
            if dce {
                assert!(eliminate_dead_code(&mut f) >= 2);
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
}

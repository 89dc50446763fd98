//! Linear-scan register allocation onto the machine's register files.
//!
//! For partitioned-RF design points the allocator spreads values across the
//! banks (least-loaded bank first) so the per-bank port limits of `p-vliw`
//! and `p-tta` bind as rarely as possible — this is the "pressure on the
//! compiler to assign variables efficiently to the RFs" the paper discusses
//! in §III-D. Values that do not fit spill to a dedicated scratch area at
//! the top of data memory and are reloaded around each use.

use crate::bitset::BitSet;
use crate::liveness::Liveness;
use std::collections::{HashMap, HashSet};
use tta_ir::{Function, Inst, MemRegion, Operand, Terminator, VReg};
use tta_model::{Machine, Opcode, RegRef, RfId};

/// Result of register allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The (possibly spill-rewritten) function the assignment refers to.
    pub func: Function,
    /// Liveness of `func` exactly, from the allocator's final round:
    /// lowering reads its live-out rows instead of solving again.
    pub live: Liveness,
    /// Physical register per vreg (dense, indexed by vreg number). `None`
    /// for vregs that do not occur in the final function.
    pub assignment: Vec<Option<RegRef>>,
    /// Number of vregs spilled across all rounds.
    pub spilled: usize,
    /// Bytes of spill memory used.
    pub spill_bytes: u32,
}

impl Allocation {
    /// Physical register of `r`.
    pub fn reg(&self, r: VReg) -> RegRef {
        self.assignment[r.0 as usize].expect("allocated register")
    }
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError(pub String);

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for AllocError {}

/// Alias-region base for spill slots; each slot gets its own region since
/// slots are mutually disjoint and disjoint from all program data.
pub const SPILL_REGION_BASE: u16 = 0x8000;

/// Allocate registers for `func` on `machine`, rewriting it in place
/// around spills; the result owns it.
///
/// `reserved` registers are never allocated (e.g. the VLIW branch-target
/// scratch register). `spill_base` is the first byte address of the spill
/// area.
pub fn allocate(
    mut func: Function,
    machine: &Machine,
    reserved: &[RegRef],
    spill_base: u32,
) -> Result<Allocation, AllocError> {
    let _span = tta_obs::span("regalloc");
    assert!(func.params.is_empty(), "entry functions take no parameters");
    // Compact once up front (the inliner leaves the vreg space sparse);
    // further rounds must NOT renumber or the spill-temp tracking below
    // would be invalidated.
    crate::compact::compact_vregs(&mut func);
    let mut no_spill_set: Vec<VReg> = Vec::new();
    let mut total_spilled = 0usize;
    let mut next_slot = 0u32;
    let mut slot_for: HashMap<VReg, u32> = HashMap::new();

    for _round in 0..64 {
        let nregs = func.next_vreg as usize;
        let mut no_spill = BitSet::new(nregs);
        for r in &no_spill_set {
            if (r.0 as usize) < nregs {
                no_spill.insert(r.0 as usize);
            }
        }

        let live = Liveness::compute(&func);
        match try_allocate(&func, &live, machine, reserved, &no_spill) {
            Ok(assignment) => {
                tta_obs::counter::add("compiler.spilled", total_spilled as u64);
                tta_obs::counter::add("compiler.spill_bytes", (next_slot * 4) as u64);
                return Ok(Allocation {
                    func,
                    live,
                    assignment,
                    spilled: total_spilled,
                    spill_bytes: next_slot * 4,
                });
            }
            Err(spill) => {
                if spill.is_empty() {
                    return Err(AllocError(format!(
                        "register allocation wedged on {}",
                        machine.name
                    )));
                }
                total_spilled += spill.len();
                no_spill_set =
                    rewrite_spills(&mut func, &spill, spill_base, &mut next_slot, &mut slot_for);
            }
        }
    }
    Err(AllocError(format!(
        "register allocation did not converge on {}",
        machine.name
    )))
}

/// One linear-scan round over `f` and its liveness: returns an
/// assignment, or the set of vregs to spill.
#[allow(clippy::result_large_err)]
fn try_allocate(
    f: &Function,
    live: &Liveness,
    machine: &Machine,
    reserved: &[RegRef],
    no_spill: &BitSet,
) -> Result<Vec<Option<RegRef>>, Vec<VReg>> {
    let nregs = f.next_vreg as usize;

    // Linearised positions: block `bi` spans [starts[bi], starts[bi+1]).
    let mut starts = Vec::with_capacity(f.blocks.len() + 1);
    let mut pos = 0u32;
    for b in &f.blocks {
        starts.push(pos);
        pos += b.insts.len() as u32 + 1; // +1 for the terminator
    }
    starts.push(pos);

    // Coarse intervals [from, to] per vreg.
    let mut from = vec![u32::MAX; nregs];
    let mut to = vec![0u32; nregs];
    let touch = |r: usize, p: u32, from: &mut [u32], to: &mut [u32]| {
        from[r] = from[r].min(p);
        to[r] = to[r].max(p);
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        let bstart = starts[bi];
        let bend = starts[bi + 1] - 1;
        for r in live.live_in.iter(bi) {
            touch(r, bstart, &mut from, &mut to);
        }
        for r in live.live_out.iter(bi) {
            touch(r, bend, &mut from, &mut to);
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            let p = bstart + ii as u32;
            for u in inst.uses() {
                touch(u.0 as usize, p, &mut from, &mut to);
            }
            if let Some(d) = inst.def() {
                touch(d.0 as usize, p, &mut from, &mut to);
            }
        }
        if let Some(t) = &b.term {
            for u in t.uses() {
                touch(u.0 as usize, bend, &mut from, &mut to);
            }
        }
    }

    // Register pool.
    let mut free: Vec<Vec<u16>> = machine
        .rfs
        .iter()
        .enumerate()
        .map(|(ri, rf)| {
            (0..rf.regs)
                .rev()
                .filter(|&i| {
                    !reserved.contains(&RegRef {
                        rf: RfId(ri as u16),
                        index: i,
                    })
                })
                .collect()
        })
        .collect();
    let mut active_per_bank = vec![0usize; machine.rfs.len()];

    // Intervals sorted by start.
    let mut order: Vec<usize> = (0..nregs).filter(|&r| from[r] != u32::MAX).collect();
    order.sort_by_key(|&r| (from[r], r));

    let mut assignment: Vec<Option<RegRef>> = vec![None; nregs];
    // Active intervals: (end, vreg) sorted ascending by end.
    let mut active: Vec<(u32, usize)> = Vec::new();
    let mut spill: Vec<VReg> = Vec::new();

    for &r in &order {
        // Expire.
        let mut k = 0;
        while k < active.len() && active[k].0 < from[r] {
            let (_, v) = active[k];
            let reg = assignment[v].unwrap();
            free[reg.rf.0 as usize].push(reg.index);
            active_per_bank[reg.rf.0 as usize] -= 1;
            k += 1;
        }
        active.drain(0..k);

        // Pick the least-loaded bank with a free register.
        let bank = (0..machine.rfs.len())
            .filter(|&b| !free[b].is_empty())
            .min_by_key(|&b| (active_per_bank[b] * 1000) / machine.rfs[b].regs as usize);
        match bank {
            Some(b) => {
                let idx = free[b].pop().unwrap();
                assignment[r] = Some(RegRef {
                    rf: RfId(b as u16),
                    index: idx,
                });
                active_per_bank[b] += 1;
                let ins = active.partition_point(|&(e, _)| e <= to[r]);
                active.insert(ins, (to[r], r));
            }
            None => {
                // Spill the spillable interval with the furthest end.
                let victim = active
                    .iter()
                    .rev()
                    .map(|&(_, v)| v)
                    .find(|&v| !no_spill.contains(v));
                match victim {
                    Some(v) if to[v] > to[r] || no_spill.contains(r) => {
                        // Steal v's register for r.
                        let reg = assignment[v].take().unwrap();
                        assignment[r] = Some(reg);
                        let vi = active.iter().position(|&(_, x)| x == v).unwrap();
                        active.remove(vi);
                        let ins = active.partition_point(|&(e, _)| e <= to[r]);
                        active.insert(ins, (to[r], r));
                        spill.push(VReg(v as u32));
                    }
                    _ => {
                        assert!(
                            !no_spill.contains(r),
                            "spill temp does not fit; machine {} lacks registers",
                            machine.name
                        );
                        spill.push(VReg(r as u32));
                    }
                }
            }
        }
    }

    if spill.is_empty() {
        Ok(assignment)
    } else {
        Err(spill)
    }
}

/// Replace every def/use of the spilled vregs with short-lived temps around
/// memory accesses to their spill slots. Returns the temps (which must not
/// spill again).
fn rewrite_spills(
    f: &mut Function,
    spill: &[VReg],
    spill_base: u32,
    next_slot: &mut u32,
    slot_for: &mut HashMap<VReg, u32>,
) -> Vec<VReg> {
    let first_temp = f.next_vreg;
    let mut s = Spiller {
        spilled: spill.iter().copied().collect(),
        next_vreg: f.next_vreg,
        spill_base,
        next_slot,
        slot_for,
    };
    for b in &mut f.blocks {
        let old = std::mem::take(&mut b.insts);
        let mut out = Vec::with_capacity(old.len() * 2);
        for mut inst in old {
            s.reload(inst.operands_mut(), &mut out);
            // Redirect a spilled def to a temp and store it.
            match inst.def().filter(|d| s.spilled.contains(d)) {
                Some(d) => {
                    let t = s.temp();
                    *inst.def_mut().expect("a spilled def") = t;
                    out.push(inst);
                    let (addr, region) = s.slot(d, &mut out);
                    out.push(Inst::Store {
                        op: Opcode::Stw,
                        value: Operand::Reg(t),
                        addr,
                        region,
                    });
                }
                None => out.push(inst),
            }
        }
        s.reload(
            b.term.iter_mut().flat_map(Terminator::operand_mut),
            &mut out,
        );
        b.insts = out;
    }
    f.next_vreg = s.next_vreg;
    (first_temp..f.next_vreg).map(VReg).collect()
}

/// One spill rewrite's state: every register it allocates is a temp.
struct Spiller<'a> {
    spilled: HashSet<VReg>,
    next_vreg: u32,
    spill_base: u32,
    next_slot: &'a mut u32,
    slot_for: &'a mut HashMap<VReg, u32>,
}

impl Spiller<'_> {
    fn temp(&mut self) -> VReg {
        self.next_vreg += 1;
        VReg(self.next_vreg - 1)
    }

    /// Emit the address of `r`'s spill slot into a temp, ahead of an
    /// access to it; returns that address operand and the slot's region.
    /// Spill addresses sit at the top of memory, far outside any
    /// inline-immediate range, and this rewrite runs after constant
    /// legalisation, so the address is a copy the backends lower through
    /// limm / imm-prefix.
    fn slot(&mut self, r: VReg, out: &mut Vec<Inst>) -> (Operand, MemRegion) {
        let next_slot = &mut *self.next_slot;
        let slot = *self.slot_for.entry(r).or_insert_with(|| {
            *next_slot += 1;
            *next_slot - 1
        });
        let addr = self.temp();
        out.push(Inst::Copy {
            dst: addr,
            src: Operand::Imm((self.spill_base + slot * 4) as i32),
        });
        let region = MemRegion(SPILL_REGION_BASE + (slot % 0x7000) as u16);
        (Operand::Reg(addr), region)
    }

    /// Reload the spilled registers `reads` names into temps ahead of
    /// their reader (one per distinct register, numbered in operand order)
    /// and read the temps instead.
    fn reload<'o>(&mut self, reads: impl Iterator<Item = &'o mut Operand>, out: &mut Vec<Inst>) {
        let mut reloads: Vec<(VReg, VReg)> = Vec::new(); // (spilled, temp)
        for o in reads {
            let Some(r) = o.reg().filter(|r| self.spilled.contains(r)) else {
                continue;
            };
            let t = match reloads.iter().find(|&&(s, _)| s == r) {
                Some(&(_, t)) => t,
                None => {
                    let t = self.temp();
                    reloads.push((r, t));
                    t
                }
            };
            *o = Operand::Reg(t);
        }
        for (r, t) in reloads {
            let (addr, region) = self.slot(r, out);
            out.push(Inst::Load {
                op: Opcode::Ldw,
                dst: t,
                addr,
                region,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitRows;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
    use tta_model::presets;

    /// Build a function with `n` long-lived values all live at once.
    fn pressure_func(n: usize) -> Function {
        let mut fb = FunctionBuilder::new("main", 0, true);
        let vals: Vec<_> = (0..n).map(|i| fb.copy(i as i32)).collect();
        // Use them all after defining them all, forcing n simultaneous
        // live values.
        let mut acc = fb.copy(0);
        for v in &vals {
            let t = fb.add(acc, *v);
            acc = t;
        }
        fb.ret(acc);
        fb.finish()
    }

    #[test]
    fn allocates_without_spills_when_registers_suffice() {
        let m = presets::m_tta_1(); // 32 regs
        let f = pressure_func(10);
        let a = allocate(f, &m, &[], 1 << 16).unwrap();
        assert_eq!(a.spilled, 0);
        // All allocated registers are distinct while overlapping.
        let regs: Vec<_> = a.assignment.iter().flatten().collect();
        assert!(!regs.is_empty());
    }

    #[test]
    fn spills_under_pressure_and_preserves_semantics() {
        let m = presets::m_tta_1(); // 32 regs, pressure 40 forces spills
        let f = pressure_func(40);
        let a = allocate(f, &m, &[], 1 << 16).unwrap();
        assert!(
            a.spilled > 0,
            "expected spills with 40 live values in 32 regs"
        );
        // The rewritten function must still compute the same value.
        let run = |f: Function| {
            let mut mb = ModuleBuilder::new("m");
            let id = mb.add(f);
            mb.set_entry(id);
            let mut m = mb.finish();
            m.mem_size = 1 << 17;
            tta_ir::interp::run_ret(&m, &[])
        };
        assert_eq!(run(pressure_func(40)), run(a.func.clone()));
        tta_ir::verify::verify_function(&a.func, None).unwrap();
    }

    #[test]
    fn carried_liveness_is_the_final_functions() {
        // Lowering reads `Allocation::live` instead of solving again, so it
        // must describe `func` after the last spill rewrite. 40 values
        // live around a loop spill on 32 registers.
        let mut fb = FunctionBuilder::new("main", 0, true);
        let vals: Vec<_> = (0..40).map(|i| fb.copy(i)).collect();
        let (acc, i) = (fb.copy(0), fb.copy(0));
        let (head, body, exit) = (fb.new_block(), fb.new_block(), fb.new_block());
        fb.jump(head);
        fb.switch_to(head);
        let c = fb.lt(i, 3);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        for v in &vals {
            let t = fb.add(acc, *v);
            fb.copy_to(acc, t);
        }
        let i2 = fb.add(i, 1);
        fb.copy_to(i, i2);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(acc);
        let a = allocate(fb.finish(), &presets::m_tta_1(), &[], 1 << 16).unwrap();
        assert!(a.spilled > 0);
        let fresh = Liveness::compute(&a.func);
        for bi in 0..a.func.blocks.len() {
            let rows = |l: &Liveness| {
                let row = |m: &BitRows| m.iter(bi).collect::<Vec<_>>();
                (row(&l.live_in), row(&l.live_out))
            };
            assert_eq!(rows(&a.live), rows(&fresh), "bb{bi}");
        }
        // Values are live around the loop head.
        assert!(a.live.live_in.iter(1).count() > 2);
    }

    #[test]
    fn no_overlapping_intervals_share_a_register() {
        // Property-style check on the pressure function: values that are
        // simultaneously live must get distinct registers.
        let m = presets::p_tta_2(); // 2 banks x 32
        let f = pressure_func(30);
        let a = allocate(f, &m, &[], 1 << 16).unwrap();
        assert_eq!(a.spilled, 0);
        // vals are all live at the midpoint; their registers must be unique.
        let mut seen = std::collections::HashSet::new();
        for (v, r) in a.assignment.iter().enumerate() {
            if let Some(r) = r {
                // Only check the long-lived vals (first 31 vregs).
                if v < 30 {
                    assert!(seen.insert(*r), "register {r} assigned twice");
                }
            }
        }
    }

    #[test]
    fn partitioned_banks_are_balanced() {
        let m = presets::p_tta_3(); // 3 banks x 32
        let f = pressure_func(24);
        let a = allocate(f, &m, &[], 1 << 16).unwrap();
        let mut per_bank = vec![0usize; 3];
        for r in a.assignment.iter().flatten() {
            per_bank[r.rf.0 as usize] += 1;
        }
        // With 25+ values and 3 banks, each bank should hold a fair share.
        for (b, &n) in per_bank.iter().enumerate() {
            assert!(n >= 4, "bank {b} underused: {per_bank:?}");
        }
    }

    #[test]
    fn reserved_registers_are_never_assigned() {
        let m = presets::m_vliw_2();
        let reserved = RegRef {
            rf: RfId(0),
            index: 63,
        };
        let f = pressure_func(20);
        let a = allocate(f, &m, &[reserved], 1 << 16).unwrap();
        assert!(a.assignment.iter().flatten().all(|r| *r != reserved));
    }
}

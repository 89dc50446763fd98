//! List scheduler for the operation-triggered VLIW targets.
//!
//! Timing model (matches the paper's synthesised VLIW, which has *no*
//! forwarding network — §V.B notes the comparison omits forward-resolution
//! logic): an operation issued at cycle `t` reads its RF operands at `t`,
//! occupies an RF write port at `t + latency`, and its result becomes
//! readable at `t + latency + 1`. The one-cycle writeback penalty on every
//! dependence edge is exactly what TTA software bypassing removes.

use crate::ddg::{Ddg, DepKind};
use crate::layout::{Block, Patch};
use crate::loc::{Exit, LocBlock, LocFunc, LocKind, LocOp, LocSrc, RETVAL_ADDR};
use crate::resource::{bits, first, Cycles, Resources};
use tta_ir::BlockId;
use tta_isa::encoding::{fits_signed, vliw_imm_bits};
use tta_isa::{OpSrc, Operation, VliwBundle, VliwSlot};
use tta_model::{FuId, Machine, Opcode, RegRef};

/// The registers an operation reads (at most two).
type Reads = [Option<RegRef>; 2];

/// The state of the block being scheduled, kept for the whole function.
struct Grid<'r> {
    res: &'r Resources,
    nslots: usize,
    /// Issue slots a long immediate takes.
    limm_slots: usize,
    cycles: Cycles,
    bundles: Vec<VliwBundle>,
    patches: Vec<Patch>,
    cycle_of: Vec<Option<u32>>,
}

impl Grid<'_> {
    fn reset(&mut self, n_nodes: usize) {
        self.cycles.clear();
        self.cycle_of.clear();
        self.cycle_of.resize(n_nodes, None);
    }

    fn ensure(&mut self, t: u32) {
        while self.bundles.len() <= t as usize {
            self.bundles.push(VliwBundle::nop(self.nslots));
        }
    }

    fn read_ok(&mut self, t: u32, regs: Reads) -> bool {
        self.cycles.grow(t);
        match regs {
            [Some(x), Some(y)] if x.rf == y.rf => self.cycles.read_ok(self.res, t, x.rf, 2),
            _ => regs
                .into_iter()
                .flatten()
                .all(|r| self.cycles.read_ok(self.res, t, r.rf, 1)),
        }
    }

    fn write_ok(&mut self, t: u32, reg: RegRef) -> bool {
        self.cycles.grow(t);
        self.cycles.write_ok(self.res, t, reg.rf)
    }

    fn free_slot_for(&mut self, t: u32, fu: FuId) -> Option<usize> {
        self.cycles.grow(t);
        first(!self.cycles.busy[t as usize] & self.res.slots_for(fu))
    }

    fn consecutive_free_slots(&mut self, t: u32, n: usize) -> Option<usize> {
        self.cycles.grow(t);
        let free = !self.cycles.busy[t as usize];
        first((1..n).fold(free, |run, k| run & free >> k))
    }

    fn commit_op(
        &mut self,
        t: u32,
        slot: usize,
        fu: FuId,
        reads: Reads,
        write: Option<(u32, RegRef)>,
    ) {
        self.cycles.grow(t);
        self.cycles.busy[t as usize] |= 1 << slot;
        self.cycles.fu_busy[t as usize] |= 1 << fu.0;
        for r in reads.into_iter().flatten() {
            self.cycles.add_read(t, r.rf);
        }
        if let Some((wt, wr)) = write {
            self.cycles.grow(wt);
            self.cycles.add_write(wt, wr.rf);
        }
    }

    /// Place an operation on `fu` in the first slot free at `t` or later
    /// whose RF read ports cover `reads`. Returns its cycle.
    fn place_on(&mut self, mut t: u32, fu: FuId, reads: Reads, o: Operation) -> u32 {
        let slot = loop {
            if let Some(s) = self.free_slot_for(t, fu) {
                if self.read_ok(t, reads) {
                    break s;
                }
            }
            t += 1;
        };
        self.commit_op(t, slot, fu, reads, None);
        self.ensure(t);
        self.bundles[t as usize].slots[slot] = Some(VliwSlot::Op(o));
        t
    }

    /// Place a long immediate `dst <- value` in consecutive slots at `t` or
    /// later, with its writeback at the next cycle. Returns the cycle and
    /// first slot.
    fn place_limm(&mut self, mut t: u32, dst: RegRef, value: i32) -> (u32, usize) {
        let n = self.limm_slots;
        let slot = loop {
            if let Some(s) = self.consecutive_free_slots(t, n) {
                if self.write_ok(t + 1, dst) {
                    break s;
                }
            }
            t += 1;
        };
        self.ensure(t);
        let slots = &mut self.bundles[t as usize].slots;
        slots[slot] = Some(VliwSlot::LimmHead { dst, value });
        for k in 1..n {
            slots[slot + k] = Some(VliwSlot::LimmCont);
        }
        for k in 0..n {
            self.cycles.busy[t as usize] |= 1 << (slot + k);
        }
        self.cycles.grow(t + 1);
        self.cycles.add_write(t + 1, dst.rf);
        (t, slot)
    }
}

/// Context for scheduling one function.
pub struct VliwScheduler<'m> {
    m: &'m Machine,
    res: Resources,
    /// Reserved branch-target scratch register.
    pub bt_reg: RegRef,
    imm_bits: u32,
}

impl<'m> VliwScheduler<'m> {
    /// Create a scheduler for a VLIW machine. `bt_reg` must have been
    /// reserved during register allocation.
    pub fn new(m: &'m Machine, bt_reg: RegRef) -> Self {
        VliwScheduler {
            m,
            res: Resources::new(m),
            bt_reg,
            imm_bits: vliw_imm_bits(m),
        }
    }

    /// Schedule all blocks of a function, for layout in block order.
    pub fn schedule(&self, f: &LocFunc) -> Vec<Block<VliwBundle>> {
        let _span = tta_obs::span("sched");
        let mut ddg = Ddg::new(self.m);
        let mut grid = Grid {
            res: &self.res,
            nslots: self.m.slots.len(),
            limm_slots: self.m.vliw_limm_slots as usize,
            cycles: Cycles::new(self.m.rfs.len(), self.m.slots.len()),
            bundles: Vec::new(),
            patches: Vec::new(),
            cycle_of: Vec::new(),
        };
        let blocks: Vec<Block<VliwBundle>> = f
            .with_next()
            .map(|(b, next)| self.schedule_block(b, next, &mut ddg, &mut grid))
            .collect();
        let bundles: u64 = blocks.iter().map(|b| b.insts.len() as u64).sum();
        tta_obs::counter::add("compiler.vliw_bundles", bundles);
        blocks
    }

    fn op_src(&self, s: LocSrc) -> OpSrc {
        match s {
            LocSrc::Reg(r) => OpSrc::Reg(r),
            LocSrc::Imm(v) => {
                debug_assert!(
                    fits_signed(v, self.imm_bits),
                    "constant legalisation must have removed wide immediate {v}"
                );
                OpSrc::Imm(v)
            }
        }
    }

    fn is_wide_copy(&self, op: &LocOp) -> bool {
        matches!(
            (op.kind, op.a),
            (LocKind::Copy, Some(LocSrc::Imm(v))) if !fits_signed(v, self.imm_bits)
        )
    }

    fn earliest_from_deps(
        &self,
        i: usize,
        ddg: &Ddg,
        block: &LocBlock,
        cycle_of: &[Option<u32>],
    ) -> u32 {
        let mut t = 0u32;
        for d in ddg.preds(i) {
            let tp = cycle_of[d.from].expect("topological order");
            let lp = block.ops[d.from].latency();
            let li = block.ops[i].latency();
            let min = match d.kind {
                DepKind::Data => tp + lp + 1,
                DepKind::Anti => tp,
                DepKind::Output => tp + 1.max(lp.saturating_sub(li) + 1),
                DepKind::Mem => {
                    let prior_is_load = matches!(block.ops[d.from].kind, LocKind::Load(..));
                    let cur_is_store = matches!(block.ops[i].kind, LocKind::Store(..));
                    if prior_is_load && cur_is_store {
                        tp
                    } else {
                        tp + 1
                    }
                }
            };
            t = t.max(min);
        }
        t
    }

    fn schedule_block(
        &self,
        block: &LocBlock,
        next: Option<BlockId>,
        ddg: &mut Ddg,
        g: &mut Grid,
    ) -> Block<VliwBundle> {
        ddg.rebuild(block);
        g.reset(block.ops.len());
        let mut last_activity = 0u32;

        for &i in &ddg.order {
            let op = &block.ops[i];
            let earliest = self.earliest_from_deps(i, ddg, block, &g.cycle_of);
            if self.is_wide_copy(op) {
                // Long immediate: consecutive slots, writeback at t+1.
                let dst = op.dst.expect("copy has a destination");
                let Some(LocSrc::Imm(value)) = op.a else {
                    unreachable!()
                };
                let (t, _) = g.place_limm(earliest, dst, value);
                g.cycle_of[i] = Some(t);
                last_activity = last_activity.max(t + 1);
                continue;
            }

            let (opcode, a, b) = op.operation();
            let (a, b) = (a.map(|s| self.op_src(s)), b.map(|s| self.op_src(s)));
            let units = self.res.units(opcode);
            let reads = [a, b].map(|s| match s {
                Some(OpSrc::Reg(r)) => Some(r),
                _ => None,
            });
            let lat = opcode.latency();
            let dst = if opcode.has_result() { op.dst } else { None };
            let mut t = earliest;
            let (t, slot, fu) = loop {
                g.cycles.grow(t);
                let (busy, fu_busy) = (g.cycles.busy[t as usize], g.cycles.fu_busy[t as usize]);
                let found = bits(units & !fu_busy).find_map(|f| {
                    let fu = FuId(f as u16);
                    first(!busy & self.res.slots_for(fu)).map(|s| (s, fu))
                });
                if let Some((s, fu)) = found {
                    let reads_ok = g.read_ok(t, reads);
                    let write_ok = dst.is_none_or(|d| g.write_ok(t + lat, d));
                    if reads_ok && write_ok {
                        break (t, s, fu);
                    }
                }
                t += 1;
            };
            let write = dst.map(|d| (t + lat, d));
            g.commit_op(t, slot, fu, reads, write);
            g.ensure(t);
            g.bundles[t as usize].slots[slot] = Some(VliwSlot::Op(Operation {
                op: opcode,
                fu,
                dst,
                a,
                b,
            }));
            g.cycle_of[i] = Some(t);
            last_activity = last_activity.max(t);
            if let Some((wt, _)) = write {
                last_activity = last_activity.max(wt);
            }
        }

        // Terminator.
        let cond_ready = ddg
            .term_def
            .map(|d| g.cycle_of[d].expect("scheduled") + block.ops[d].latency() + 1)
            .unwrap_or(0);
        let d = self.m.jump_delay_slots;

        match block.term.exit(next) {
            // Fall through; pad so every writeback lands inside the block.
            Exit::FallThrough => g.ensure(last_activity),
            Exit::Transfer {
                op,
                cond,
                target,
                then,
            } => {
                let cond = cond.map(|c| self.op_src(c));
                let t_br = self.emit_jump(g, op, cond, target, cond_ready, 0, last_activity, d);
                if let Some(then) = then {
                    let ready = t_br + d + 1;
                    self.emit_jump(g, Opcode::Jump, None, then, ready, t_br, last_activity, d);
                }
            }
            Exit::Halt(value) => {
                // Store the return value, then halt.
                let mut after = last_activity;
                if let Some(v) = value {
                    let lsu = self.m.lsu();
                    let ready = match v {
                        LocSrc::Reg(_) => cond_ready, // term_def covers the value
                        LocSrc::Imm(_) => 0,
                    };
                    let store = Operation {
                        op: Opcode::Stw,
                        fu: lsu,
                        dst: None,
                        a: Some(self.op_src(v)),
                        b: Some(OpSrc::Imm(RETVAL_ADDR as i32)),
                    };
                    let t = g.place_on(ready, lsu, [v.reg(), None], store);
                    after = after.max(t);
                }
                let cu = self.m.ctrl_unit();
                let halt = Operation {
                    op: Opcode::Halt,
                    fu: cu,
                    dst: None,
                    a: None,
                    b: Some(OpSrc::Imm(0)),
                };
                g.place_on(after, cu, [None, None], halt);
            }
        }

        Block {
            insts: std::mem::take(&mut g.bundles),
            patches: std::mem::take(&mut g.patches),
        }
    }

    /// Emit `limm bt_reg <- target` followed by a control op reading it.
    /// Returns the control op's cycle.
    #[allow(clippy::too_many_arguments)]
    fn emit_jump(
        &self,
        g: &mut Grid,
        opcode: Opcode,
        cond: Option<OpSrc>,
        target: BlockId,
        ready: u32,
        min_limm: u32,
        last_activity: u32,
        delay_slots: u32,
    ) -> u32 {
        // Long immediate for the target address.
        let (t_l, slot_l) = g.place_limm(min_limm, self.bt_reg, 0);
        g.patches.push(Patch {
            at: t_l,
            slot: slot_l,
            target,
        });

        // The control op: must start no earlier than the limm is readable,
        // the condition is ready, and late enough that every writeback lands
        // within the delay-slot window.
        let cu = self.m.ctrl_unit();
        let t = ready
            .max(t_l + 2)
            .max(last_activity.saturating_sub(delay_slots));
        let cond_reg = match cond {
            Some(OpSrc::Reg(r)) => Some(r),
            _ => None,
        };
        let (a, b) = match cond {
            // Conditional jumps: target on the operand port, condition on
            // the trigger.
            Some(c) => (Some(OpSrc::Reg(self.bt_reg)), Some(c)),
            // Unconditional jump: the target itself triggers.
            None => (None, Some(OpSrc::Reg(self.bt_reg))),
        };
        let jump = Operation {
            op: opcode,
            fu: cu,
            dst: None,
            a,
            b,
        };
        let t_br = g.place_on(t, cu, [Some(self.bt_reg), cond_reg], jump);
        // The bundles up to t_br + delay_slots exist; everything scheduled
        // there already belongs to this block (delay-slot execution).
        g.ensure(t_br + delay_slots);
        t_br
    }
}

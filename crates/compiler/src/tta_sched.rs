//! The transport-triggered scheduler — the heart of the reproduction.
//!
//! Operations are decomposed into explicit data transports and placed by a
//! list scheduler that exploits the TTA programming freedoms the paper
//! credits for its speedups (§III-B/C):
//!
//! * **software bypassing** — a consumer reads the producer's FU result
//!   port directly, skipping the RF round trip and saving the one-cycle
//!   writeback penalty the (forwarding-free) VLIW pays on every dependence;
//! * **dead-result elimination** — a result whose consumers all bypassed
//!   and whose register is not live out of the block is never written to
//!   the RF at all, relieving the single write port;
//! * **operand sharing** — an operand already sitting in an FU's input
//!   register is not transported again;
//! * **transport splitting** — operand moves are hoisted to earlier cycles
//!   than the trigger, spreading RF-read pressure over time.
//!
//! Timing model shared with `tta-sim`: moves of the instruction at cycle
//! `t` read machine state as of the start of `t`; an RF write at `t` is
//! readable from `t + 1`; a trigger at `t` makes the result readable on the
//! FU result port during `[t + L, next completion)`; a long immediate
//! written at `t` is readable from `t + 1`.

// The bounded searches in this file advance a machine cycle alongside an
// attempt counter; clippy's counter-loop lint would obscure that.
#![allow(clippy::explicit_counter_loop)]

use crate::ddg::{Ddg, DepKind};
use crate::layout::{Block, Patch};
use crate::loc::{Exit, LocBlock, LocFunc, LocKind, LocOp, LocSrc, RETVAL_ADDR};
use crate::resource::{bits, first, Cycles, Resources, NONE};
use tta_ir::BlockId;
use tta_isa::{Move, MoveDst, MoveSrc, TtaInst};
use tta_model::{DstConn, FuId, Machine, Opcode, RegRef, SrcConn};

/// How far past the dependence-ready cycle the scheduler searches before
/// concluding the machine cannot host the op (indicates a broken preset).
const MAX_SLACK: u32 = 4096;

/// Toggles for the TTA-specific programming freedoms (paper §III-B/C).
/// All enabled by default; disabling them individually quantifies each
/// freedom's contribution (see the `ablation` binary in `tta-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtaOptions {
    /// Software bypassing: consumers may read FU result ports directly.
    pub bypass: bool,
    /// Dead-result elimination: results whose consumers all bypassed and
    /// whose register is not live-out skip the RF write.
    pub dead_result_elim: bool,
    /// Operand sharing: an operand already in an FU input register is not
    /// transported again.
    pub operand_share: bool,
}

impl Default for TtaOptions {
    fn default() -> Self {
        TtaOptions {
            bypass: true,
            dead_result_elim: true,
            operand_share: true,
        }
    }
}

/// Schedule-quality counters (reported per program).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtaStats {
    /// Total data transports programmed.
    pub moves: u64,
    /// Operand/trigger reads satisfied from an FU result port.
    pub bypassed: u64,
    /// Results never written to a register file.
    pub dead_results: u64,
    /// Operand moves elided because the value was already in the port.
    pub operand_shares: u64,
    /// Long immediates written.
    pub limms: u64,
    /// Operand/trigger reads satisfied from a register file.
    pub rf_reads: u64,
}

/// Identity of a value for operand-sharing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValKey {
    /// Result of an in-block node.
    Node(usize),
    /// A short immediate.
    Imm(i32),
    /// Anything else (no sharing).
    Opaque,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    fu: Option<FuId>,
    trigger: u32,
    done: u32,
    /// Cycle of the RF write of this node's result, if scheduled.
    rf_write: Option<u32>,
    /// Latest cycle at which the result port was read for this value.
    last_port_read: u32,
    /// Consumers (in-block reads + terminator) not yet scheduled.
    pending_consumers: usize,
    /// True once the value can no longer need an RF write.
    rf_closed: bool,
    scheduled: bool,
}

#[derive(Debug, Clone, Default)]
struct FuState {
    /// Scheduled triggers in increasing cycle order: (node, trigger, done).
    ops: Vec<(usize, u32, u32)>,
    /// Operand-port content and when it was written.
    port_val: Option<ValKey>,
    port_write: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct ImmRegState {
    /// Cycle the current value was written (value readable from +1).
    write: u32,
    /// Latest read of the current value.
    last_read: u32,
    in_use: bool,
}

/// The per-block scheduling engine. One serves a whole function: its
/// buffers are reset, not rebuilt, for each block.
struct BlockSched<'m> {
    m: &'m Machine,
    res: Resources,
    opts: TtaOptions,
    insts: Vec<TtaInst>,
    /// Busy buses (long-immediate templates included) and RF port use.
    cycles: Cycles,
    fu: Vec<FuState>,
    nodes: Vec<NodeState>,
    /// Per dense register: earliest legal RF write, after its last RF read
    /// and its last RF write.
    reg_write_floor: Vec<u32>,
    /// Per dense register: most recently *scheduled* defining node (defs of
    /// one register schedule in program order thanks to Output edges).
    reg_last_def: Vec<usize>,
    /// Per dense register: live out of the block.
    live_out: Vec<bool>,
    immregs: Vec<ImmRegState>,
    /// Statistics, accumulated over the function.
    stats: TtaStats,
    patches: Vec<Patch>,
    /// Highest cycle with any activity (move, limm, trigger, writeback).
    last_activity: u32,
}

/// A source resolved to a concrete machine read.
#[derive(Debug, Clone, Copy)]
enum ReadPlan {
    Rf(RegRef),
    Bypass(FuId, usize), // producer node
    Imm(i32),
    ImmReg(u8),
}

impl<'m> BlockSched<'m> {
    fn new(m: &'m Machine, opts: TtaOptions, stats: TtaStats) -> Self {
        let res = Resources::new(m);
        let regs = res.regs.count();
        BlockSched {
            m,
            res,
            opts,
            insts: Vec::new(),
            cycles: Cycles::new(m.rfs.len(), m.buses.len()),
            fu: vec![FuState::default(); m.funits.len()],
            nodes: Vec::new(),
            reg_write_floor: vec![0; regs],
            reg_last_def: vec![NONE; regs],
            live_out: vec![false; regs],
            immregs: vec![ImmRegState::default(); m.limm.imm_regs as usize],
            stats,
            patches: Vec::new(),
            last_activity: 0,
        }
    }

    /// Start scheduling `block`.
    fn reset(&mut self, block: &LocBlock) {
        self.cycles.clear();
        for f in &mut self.fu {
            f.ops.clear();
            f.port_val = None;
            f.port_write = 0;
        }
        self.nodes.clear();
        self.nodes.resize(block.ops.len(), NodeState::default());
        self.reg_write_floor.fill(0);
        self.reg_last_def.fill(NONE);
        self.live_out.fill(false);
        for &r in &block.live_out {
            self.live_out[self.res.regs.of(r)] = true;
        }
        self.immregs.fill(ImmRegState::default());
        self.last_activity = 0;
    }

    fn grow(&mut self, cycle: u32) {
        while self.insts.len() <= cycle as usize {
            self.insts.push(TtaInst::nop(self.m.buses.len()));
        }
        self.cycles.grow(cycle);
    }

    /// Find a bus able to carry `src -> dst` at cycle `c`.
    fn find_bus(&mut self, c: u32, src: &ReadPlan, dst: DstConn) -> Option<usize> {
        self.find_bus_excl(c, src, dst, None)
    }

    /// Like [`find_bus`], excluding one bus (for two moves planned in the
    /// same cycle before either is committed).
    fn find_bus_excl(
        &mut self,
        c: u32,
        src: &ReadPlan,
        dst: DstConn,
        excl: Option<usize>,
    ) -> Option<usize> {
        self.grow(c);
        let reads = match *src {
            ReadPlan::Rf(r) => self.res.src(SrcConn::RfRead(r.rf)),
            ReadPlan::Bypass(f, _) => self.res.src(SrcConn::FuResult(f)),
            ReadPlan::Imm(v) => self.res.simm(v),
            ReadPlan::ImmReg(_) => u64::MAX,
        };
        let excl = excl.map_or(0, |b| 1 << b);
        first(!self.cycles.busy[c as usize] & !excl & reads & self.res.dst(dst))
    }

    /// Whether the RF read/write port budget allows one more access at `c`.
    fn rf_read_ok(&mut self, c: u32, r: RegRef) -> bool {
        self.grow(c);
        self.cycles.read_ok(&self.res, c, r.rf, 1)
    }

    fn rf_write_ok(&mut self, c: u32, r: RegRef) -> bool {
        self.grow(c);
        self.cycles.write_ok(&self.res, c, r.rf)
    }

    /// First cycle FU `f`'s operand port is free: after its last trigger.
    fn port_free(&self, f: FuId) -> u32 {
        self.fu[f.0 as usize]
            .ops
            .last()
            .map_or(0, |&(_, pt, _)| pt + 1)
    }

    /// The result-port window of node `i` is still open at cycle `c` (no
    /// later op on the same FU completes at or before `c`).
    fn port_window_open(&self, i: usize, c: u32) -> bool {
        let st = &self.nodes[i];
        let f = st.fu.expect("bypass source has an FU");
        if c < st.done {
            return false;
        }
        // Find the next op triggered on the same FU after this node.
        for &(n, _, done) in &self.fu[f.0 as usize].ops {
            if n != i && done > st.done && done <= c {
                return false;
            }
        }
        true
    }

    /// All the ways value `src` (with in-block producer `producer`) can be
    /// read at cycle `c`, in order of preference. Does not commit anything.
    fn read_plans(
        &mut self,
        src: LocSrc,
        producer: Option<usize>,
        c: u32,
    ) -> [Option<ReadPlan>; 2] {
        let r = match src {
            LocSrc::Imm(v) => return [Some(ReadPlan::Imm(v)), None],
            LocSrc::Reg(r) => r,
        };
        let Some(p) = producer else {
            // Live-in: in the RF from cycle 0.
            return [self.rf_read_ok(c, r).then_some(ReadPlan::Rf(r)), None];
        };
        let st = self.nodes[p];
        // Bypass from the producer's result port (copies have no port).
        let bypass = match st.fu {
            Some(f) if self.opts.bypass && st.done <= c && self.port_window_open(p, c) => {
                Some(ReadPlan::Bypass(f, p))
            }
            _ => None,
        };
        // RF read after the producer's writeback.
        let rf = st.rf_write.is_some_and(|w| c > w) && self.rf_read_ok(c, r);
        [bypass, rf.then_some(ReadPlan::Rf(r))]
    }

    /// Commit a move at cycle `c` on bus `b`.
    fn commit_move(&mut self, c: u32, b: usize, src: ReadPlan, dst: MoveDst) {
        self.grow(c);
        let msrc = match src {
            ReadPlan::Rf(r) => {
                self.cycles.add_read(c, r.rf);
                let floor = &mut self.reg_write_floor[self.res.regs.of(r)];
                *floor = (*floor).max(c);
                self.stats.rf_reads += 1;
                MoveSrc::Rf(r)
            }
            ReadPlan::Bypass(f, p) => {
                self.nodes[p].last_port_read = self.nodes[p].last_port_read.max(c);
                self.stats.bypassed += 1;
                MoveSrc::FuResult(f)
            }
            ReadPlan::Imm(v) => MoveSrc::Imm(v),
            ReadPlan::ImmReg(k) => {
                self.immregs[k as usize].last_read = self.immregs[k as usize].last_read.max(c);
                MoveSrc::ImmReg(k)
            }
        };
        if let MoveDst::Rf(r) = dst {
            self.cycles.add_write(c, r.rf);
            let floor = &mut self.reg_write_floor[self.res.regs.of(r)];
            *floor = (*floor).max(c + 1);
        }
        debug_assert!(
            self.cycles.busy[c as usize] >> b & 1 == 0,
            "move slot double-booked at cycle {c} bus {b}"
        );
        self.cycles.busy[c as usize] |= 1 << b;
        self.insts[c as usize].slots[b] = Some(Move { src: msrc, dst });
        self.stats.moves += 1;
        self.last_activity = self.last_activity.max(c);
    }

    /// Earliest legal cycle for an RF write to `r`.
    fn rf_write_floor(&self, r: RegRef) -> u32 {
        self.reg_write_floor[self.res.regs.of(r)]
    }

    /// Schedule the RF write of node `i`'s result (if not already done).
    /// Returns false if the result-port window has closed without a write —
    /// a scheduler invariant violation.
    fn ensure_rf_write(&mut self, i: usize, block: &LocBlock) -> bool {
        if self.nodes[i].rf_write.is_some() {
            return true;
        }
        let r = block.ops[i].dst.expect("value has a destination");
        let f = self.nodes[i]
            .fu
            .expect("copies are written at schedule time");
        let mut c = self.nodes[i].done.max(self.rf_write_floor(r));
        let plan = ReadPlan::Bypass(f, i);
        for _ in 0..MAX_SLACK {
            if !self.port_window_open(i, c) {
                return false;
            }
            if self.rf_write_ok(c, r) {
                if let Some(b) = self.find_bus(c, &plan, DstConn::RfWrite(r.rf)) {
                    // The RF write itself reads the result port.
                    self.commit_move(c, b, plan, MoveDst::Rf(r));
                    // A writeback is not a "bypass" in the statistics sense.
                    self.stats.bypassed -= 1;
                    self.nodes[i].rf_write = Some(c);
                    return true;
                }
            }
            c += 1;
        }
        false
    }

    /// Allocate a long-immediate register and cycle for `value`, no earlier
    /// than `min_cycle`. Returns (imm_reg, cycle).
    fn place_limm(&mut self, value: i32, min_cycle: u32) -> (u8, u32) {
        let mut c = min_cycle;
        loop {
            self.grow(c);
            // Free of moves on the template's buses and of another limm
            // (which marks those buses busy).
            if self.cycles.busy[c as usize] & self.res.limm == 0 {
                // An imm register is reusable at cycle c when its current
                // tenancy lies entirely before c: written earlier (writes to
                // one register must be monotonic in machine time, or a
                // later-placed limm could corrupt an earlier tenancy) and no
                // longer read after c (the new value becomes visible at
                // c+1, so reads of the old value at <= c stay correct).
                let reg = (0..self.immregs.len()).find(|&k| {
                    !self.immregs[k].in_use
                        || (self.immregs[k].last_read <= c && self.immregs[k].write < c)
                });
                if let Some(k) = reg {
                    self.insts[c as usize].limm = Some((k as u8, value));
                    self.cycles.busy[c as usize] |= self.res.limm;
                    self.immregs[k] = ImmRegState {
                        write: c,
                        last_read: c,
                        in_use: true,
                    };
                    self.stats.limms += 1;
                    self.last_activity = self.last_activity.max(c);
                    return (k as u8, c);
                }
            }
            c += 1;
        }
    }

    /// Resolve the latest value on FU `f` before a new op completing at
    /// `new_done` may be triggered: if the pending result still has
    /// unscheduled consumers or is live-out, force its RF write now.
    /// Returns false if impossible (caller must try a later cycle).
    fn resolve_previous(
        &mut self,
        f: FuId,
        new_trigger: u32,
        new_done: u32,
        block: &LocBlock,
    ) -> bool {
        let Some(&(prev, _t, done)) = self.fu[f.0 as usize].ops.last() else {
            return true;
        };
        // Monotonic triggers and completions.
        if new_trigger <= _t || new_done <= done {
            return false;
        }
        // Existing port reads must stay inside the closing window.
        if self.nodes[prev].last_port_read >= new_done {
            return false;
        }
        let needs_rf = !self.nodes[prev].rf_closed
            && self.nodes[prev].rf_write.is_none()
            && (self.nodes[prev].pending_consumers > 0
                || block.ops[prev]
                    .dst
                    .is_some_and(|r| self.live_out[self.res.regs.of(r)]));
        if !needs_rf {
            return true;
        }
        // The write must land strictly before the window closes.
        let r = block.ops[prev]
            .dst
            .expect("value with consumers has a register");
        let floor = self.nodes[prev].done.max(self.rf_write_floor(r));
        for c in floor..new_done {
            if self.rf_write_ok(c, r) {
                if let Some(b) =
                    self.find_bus(c, &ReadPlan::Bypass(f, prev), DstConn::RfWrite(r.rf))
                {
                    self.commit_move(c, b, ReadPlan::Bypass(f, prev), MoveDst::Rf(r));
                    self.stats.bypassed -= 1;
                    self.nodes[prev].rf_write = Some(c);
                    return true;
                }
            }
        }
        false
    }
}

/// The TTA scheduler for one function.
pub struct TtaScheduler<'m> {
    m: &'m Machine,
    opts: TtaOptions,
    /// Accumulated schedule-quality statistics.
    pub stats: TtaStats,
}

impl<'m> TtaScheduler<'m> {
    /// Create a scheduler with explicit freedom toggles (ablation studies).
    pub fn with_options(m: &'m Machine, opts: TtaOptions) -> Self {
        TtaScheduler {
            m,
            opts,
            stats: TtaStats::default(),
        }
    }

    /// Schedule all blocks.
    pub fn schedule(&mut self, f: &LocFunc) -> Vec<Block<TtaInst>> {
        let _span = tta_obs::span("sched");
        let before = self.stats;
        let mut ddg = Ddg::new(self.m);
        let mut s = BlockSched::new(self.m, self.opts, before);
        let blocks: Vec<Block<TtaInst>> = f
            .with_next()
            .map(|(b, next)| self.schedule_block(b, next, &mut ddg, &mut s))
            .collect();
        let d = s.stats;
        self.stats = d;
        tta_obs::counter::add("compiler.tta_moves", d.moves - before.moves);
        tta_obs::counter::add("compiler.tta_bypassed", d.bypassed - before.bypassed);
        tta_obs::counter::add("compiler.tta_limms", d.limms - before.limms);
        tta_obs::counter::add(
            "compiler.tta_dead_results",
            d.dead_results - before.dead_results,
        );
        tta_obs::counter::add(
            "compiler.tta_operand_shares",
            d.operand_shares - before.operand_shares,
        );
        tta_obs::counter::add("compiler.tta_rf_reads", d.rf_reads - before.rf_reads);
        blocks
    }

    fn schedule_block(
        &mut self,
        block: &LocBlock,
        next: Option<BlockId>,
        ddg: &mut Ddg,
        s: &mut BlockSched,
    ) -> Block<TtaInst> {
        ddg.rebuild(block);
        s.reset(block);
        for (i, n) in s.nodes.iter_mut().enumerate() {
            n.pending_consumers = ddg.consumers[i] + usize::from(ddg.term_consumes[i]);
        }

        for &i in &ddg.order {
            self.schedule_node(i, block, ddg, s);
        }

        // Flush: last defs of live-out registers must be in the RF. Walk
        // the ops in program order so the emitted program is deterministic.
        for (i, op) in block.ops.iter().enumerate() {
            let Some(r) = op.dst else { continue };
            let k = s.res.regs.of(r);
            if s.nodes[i].rf_write.is_none() && s.live_out[k] && s.reg_last_def[k] == i {
                if s.nodes[i].fu.is_none() {
                    // Copies write the RF when scheduled.
                    debug_assert!(!s.nodes[i].scheduled);
                }
                assert!(
                    s.ensure_rf_write(i, block),
                    "live-out flush failed for {r} in a block of {}",
                    self.m.name
                );
            }
        }
        // Dead-result accounting.
        for (i, op) in block.ops.iter().enumerate() {
            if op.dst.is_some() && s.nodes[i].fu.is_some() && s.nodes[i].rf_write.is_none() {
                s.stats.dead_results += 1;
            }
        }

        self.emit_terminator(block, next, ddg, s);

        Block {
            insts: std::mem::take(&mut s.insts),
            patches: std::mem::take(&mut s.patches),
        }
    }

    /// Dependence-imposed lower bound for node `i`'s trigger cycle.
    fn dep_floor(&self, i: usize, ddg: &Ddg, block: &LocBlock, s: &BlockSched) -> u32 {
        let mut t = 0u32;
        for d in ddg.preds(i) {
            let p = d.from;
            let min = match d.kind {
                DepKind::Data => {
                    // The read move can happen at done(p) at the earliest;
                    // the trigger itself no earlier than that.
                    s.nodes[p].done
                }
                DepKind::Anti | DepKind::Output => 0,
                DepKind::Mem => {
                    let prior_is_load = matches!(block.ops[p].kind, LocKind::Load(..));
                    let cur_is_store = matches!(block.ops[i].kind, LocKind::Store(..));
                    if prior_is_load && cur_is_store {
                        s.nodes[p].trigger
                    } else {
                        s.nodes[p].trigger + 1
                    }
                }
            };
            t = t.max(min);
        }
        t
    }

    fn schedule_node(&mut self, i: usize, block: &LocBlock, ddg: &Ddg, s: &mut BlockSched) {
        let op = &block.ops[i];
        match op.kind {
            LocKind::Copy => self.schedule_copy(i, block, ddg, s),
            _ => self.schedule_fu_op(i, block, ddg, s),
        }
        s.nodes[i].scheduled = true;
        // Consumers bookkeeping: this node consumed its producers.
        for d in ddg.preds(i) {
            if d.kind == DepKind::Data {
                s.nodes[d.from].pending_consumers =
                    s.nodes[d.from].pending_consumers.saturating_sub(1);
            }
        }
        // A redefinition closes the previous def's RF-write window: all of
        // its in-block readers are already scheduled (anti-dependences force
        // that order), so if it has not written the RF by now it never may —
        // a late write would clobber the newer value.
        if let Some(r) = block.ops[i].dst {
            let prev = std::mem::replace(&mut s.reg_last_def[s.res.regs.of(r)], i);
            if prev != NONE {
                s.nodes[prev].rf_closed = true;
            }
        }
    }

    /// A copy is a single transport into the destination register (plus a
    /// long immediate when the source constant is wide).
    fn schedule_copy(&mut self, i: usize, block: &LocBlock, ddg: &Ddg, s: &mut BlockSched) {
        let op = &block.ops[i];
        let dst = op.dst.expect("copy writes a register");
        let src = op.a.expect("copy has a source");
        let floor = self.dep_floor(i, ddg, block, s);
        let wfloor = s.rf_write_floor(dst);
        let producer = ddg.src_def[i][0];

        // Wide immediate: long immediate then ImmReg -> RF.
        if let LocSrc::Imm(v) = src {
            if !self.m.buses.iter().all(|b| b.simm_fits(v)) {
                let (k, lc) = s.place_limm(v, floor);
                let mut c = (lc + 1).max(wfloor);
                let deadline = c + MAX_SLACK;
                loop {
                    assert!(
                        c < deadline,
                        "wide-immediate copy wedged on {}",
                        self.m.name
                    );
                    if s.rf_write_ok(c, dst) {
                        if let Some(b) =
                            s.find_bus(c, &ReadPlan::ImmReg(k), DstConn::RfWrite(dst.rf))
                        {
                            s.commit_move(c, b, ReadPlan::ImmReg(k), MoveDst::Rf(dst));
                            s.nodes[i].rf_write = Some(c);
                            s.nodes[i].trigger = c;
                            s.nodes[i].done = c;
                            return;
                        }
                    }
                    c += 1;
                }
            }
        }

        // Register-to-register copies need a bus connecting the source
        // bank's read socket to the destination bank's write socket; on
        // partitioned machines such a route may not exist, in which case
        // the copy executes as `add src, #0` through an ALU (with the side
        // benefit that consumers may then bypass it).
        if let LocSrc::Reg(r) = src {
            let routed =
                s.res.src(SrcConn::RfRead(r.rf)) & s.res.dst(DstConn::RfWrite(dst.rf)) != 0;
            if !routed {
                let alu_copy = LocOp {
                    kind: LocKind::Alu(Opcode::Add),
                    dst: Some(dst),
                    a: Some(src),
                    b: Some(LocSrc::Imm(0)),
                };
                self.schedule_fu_op_as(i, &alu_copy, producer, None, block, ddg, s);
                return;
            }
        }

        let mut c = floor.max(wfloor);
        for attempt in 0..MAX_SLACK {
            if attempt == 64 {
                if let Some(p) = producer {
                    if s.nodes[p].rf_write.is_none() && s.nodes[p].fu.is_some() {
                        let _ = s.ensure_rf_write(p, block);
                    }
                }
            }
            for plan in s.read_plans(src, producer, c).into_iter().flatten() {
                if !s.rf_write_ok(c, dst) {
                    break;
                }
                if let Some(b) = s.find_bus(c, &plan, DstConn::RfWrite(dst.rf)) {
                    s.commit_move(c, b, plan, MoveDst::Rf(dst));
                    s.nodes[i].rf_write = Some(c);
                    s.nodes[i].trigger = c;
                    s.nodes[i].done = c;
                    return;
                }
            }
            c += 1;
        }
        panic!(
            "copy wedged on {} (block too congested): src {src:?} producer {producer:?} \
             state {:?} floor {floor} wfloor {wfloor}",
            self.m.name,
            producer.map(|p| s.nodes[p]),
        );
    }

    /// Schedule a function-unit operation: operand move (optional), trigger
    /// move, lazy result write.
    fn schedule_fu_op(&mut self, i: usize, block: &LocBlock, ddg: &Ddg, s: &mut BlockSched) {
        let op = block.ops[i];
        let a_producer = ddg.src_def[i][0];
        let b_producer = ddg.src_def[i][1];
        self.schedule_fu_op_as(i, &op, a_producer, b_producer, block, ddg, s);
    }

    /// Schedule node `i` executing `op` (which may differ from
    /// `block.ops[i]` when a register copy is rerouted through an ALU).
    #[allow(clippy::too_many_arguments)]
    fn schedule_fu_op_as(
        &mut self,
        i: usize,
        op: &LocOp,
        a_producer: Option<usize>,
        b_producer: Option<usize>,
        block: &LocBlock,
        ddg: &Ddg,
        s: &mut BlockSched,
    ) {
        let opcode = match op.kind {
            LocKind::Alu(o) | LocKind::Load(o, _) | LocKind::Store(o, _) => o,
            LocKind::Copy => unreachable!(),
        };
        let units = s.res.units(opcode);
        let lat = opcode.latency();
        let floor = self.dep_floor(i, ddg, block, s);
        let b_src = op.b.expect("every FU op has a trigger input");
        let a_src = op.a;

        let mut t = floor;
        for attempt in 0..MAX_SLACK {
            for f in bits(units).map(|f| FuId(f as u16)) {
                if self.try_place_fu_op(
                    i, f, t, lat, opcode, a_src, a_producer, b_src, b_producer, block, s,
                ) {
                    return;
                }
                // Commutative operations may swap which input rides the
                // trigger, which often dodges an RF read-port conflict on
                // the single-ported TTA files.
                if opcode.is_commutative()
                    && a_src.is_some()
                    && self.try_place_fu_op(
                        i,
                        f,
                        t,
                        lat,
                        opcode,
                        Some(b_src),
                        b_producer,
                        a_src.unwrap(),
                        a_producer,
                        block,
                        s,
                    )
                {
                    return;
                }
            }
            if attempt == 64 {
                // On sparsely connected (pruned) interconnects a value may
                // be unreachable by bypass from this FU; force the
                // producers' RF writebacks so the register file becomes a
                // route.
                for prod in [a_producer, b_producer].into_iter().flatten() {
                    if s.nodes[prod].rf_write.is_none() && s.nodes[prod].fu.is_some() {
                        let _ = s.ensure_rf_write(prod, block);
                    }
                }
            }
            t += 1;
        }
        panic!(
            "op {opcode} wedged on {} at floor {floor} (block too congested)",
            self.m.name
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn try_place_fu_op(
        &mut self,
        i: usize,
        f: FuId,
        t: u32,
        lat: u32,
        opcode: Opcode,
        a_src: Option<LocSrc>,
        a_producer: Option<usize>,
        b_src: LocSrc,
        b_producer: Option<usize>,
        block: &LocBlock,
        s: &mut BlockSched,
    ) -> bool {
        // Trigger monotonicity on the unit.
        if t < s.port_free(f) {
            return false;
        }
        // Trigger slot free (one trigger per FU per cycle is implied by
        // monotonicity; the bus slot is checked below).
        // 1. Find the trigger move: b value -> FuTrigger at exactly t.
        let Some((trig_plan, trig_bus)) = s
            .read_plans(b_src, b_producer, t)
            .into_iter()
            .flatten()
            .find_map(|p| s.find_bus(t, &p, DstConn::FuTrigger(f)).map(|b| (p, b)))
        else {
            return false;
        };

        // 2. Operand move (if the op takes two inputs): at some cycle in
        //    [port_free, t], or shared.
        let mut operand_commit: Option<(u32, usize, ReadPlan)> = None;
        let mut shared = false;
        if let Some(a) = a_src {
            let key = match (a, a_producer) {
                (LocSrc::Imm(v), _) => ValKey::Imm(v),
                (LocSrc::Reg(_), Some(p)) => ValKey::Node(p),
                (LocSrc::Reg(_), None) => ValKey::Opaque,
            };
            let fu_state = &s.fu[f.0 as usize];
            if s.opts.operand_share
                && key != ValKey::Opaque
                && fu_state.port_val == Some(key)
                && fu_state.port_write <= t
            {
                shared = true;
            } else {
                // The port is free after the previous trigger on this unit.
                let mut found = None;
                'cycles: for c in s.port_free(f)..=t {
                    let excl = if c == t { Some(trig_bus) } else { None };
                    for plan in s.read_plans(a, a_producer, c).into_iter().flatten() {
                        // The trigger read at t is not committed yet: if both
                        // reads land in cycle t on the same register file,
                        // the port budget must cover them together.
                        if let (ReadPlan::Rf(tr), ReadPlan::Rf(or)) = (trig_plan, plan) {
                            if c == t && or.rf == tr.rf && !s.cycles.read_ok(&s.res, t, tr.rf, 2) {
                                continue;
                            }
                        }
                        if let Some(bus) = s.find_bus_excl(c, &plan, DstConn::FuOperand(f), excl) {
                            found = Some((c, bus, plan));
                            break 'cycles;
                        }
                    }
                }
                match found {
                    Some(x) => operand_commit = Some(x),
                    None => return false,
                }
            }
        }

        // 3. The previous result on this unit must survive or be written
        //    back before the new op completes.
        if !s.resolve_previous(f, t, t + lat, block) {
            return false;
        }

        // NOTE: resolve_previous may have consumed bus/port resources; the
        // trigger/operand buses chosen above could in principle collide with
        // the writeback it just placed. Re-validate cheaply.
        let taken = |c: u32, b: usize| s.cycles.busy[c as usize] >> b & 1 == 1;
        if taken(t, trig_bus) || operand_commit.is_some_and(|(c, b, _)| taken(c, b)) {
            return false;
        }

        // Commit.
        if let Some((c, bus, plan)) = operand_commit {
            s.commit_move(c, bus, plan, MoveDst::FuOperand(f));
            let key = match (a_src.unwrap(), a_producer) {
                (LocSrc::Imm(v), _) => ValKey::Imm(v),
                (LocSrc::Reg(_), Some(p)) => ValKey::Node(p),
                (LocSrc::Reg(_), None) => ValKey::Opaque,
            };
            s.fu[f.0 as usize].port_val = Some(key);
            s.fu[f.0 as usize].port_write = c;
        } else if shared {
            s.stats.operand_shares += 1;
        }
        s.commit_move(t, trig_bus, trig_plan, MoveDst::FuTrigger(f, opcode));
        s.fu[f.0 as usize].ops.push((i, t, t + lat));
        s.nodes[i].fu = Some(f);
        s.nodes[i].trigger = t;
        s.nodes[i].done = t + lat;
        // With bypassing or dead-result elimination disabled, every result
        // is committed to the register file eagerly, as an
        // operation-triggered machine would.
        if (!s.opts.bypass || !s.opts.dead_result_elim) && opcode.has_result() {
            let _ = s.ensure_rf_write(i, block);
        }
        // Completions count as block activity: the branch is pushed late
        // enough that no in-flight result lands after the block ends, so a
        // stale completion can never clobber a successor block's port.
        s.last_activity = s.last_activity.max(t + lat);
        true
    }

    /// Emit the block's control transfer: a fall-through pad, a branch or
    /// jump, or the return-value store and halt.
    fn emit_terminator(
        &mut self,
        block: &LocBlock,
        next: Option<BlockId>,
        ddg: &Ddg,
        s: &mut BlockSched,
    ) {
        let d = self.m.jump_delay_slots;
        let cu = self.m.ctrl_unit();
        match block.term.exit(next) {
            // Fall through: pad to cover all activity.
            Exit::FallThrough => s.grow(s.last_activity),
            Exit::Transfer {
                op,
                cond,
                target,
                then,
            } => {
                let t_br = self.emit_branch(op, cond, ddg.term_def, target, 0, block, s, cu, d);
                if let Some(then) = then {
                    self.emit_branch(
                        Opcode::Jump,
                        None,
                        None,
                        then,
                        t_br + d + 1,
                        block,
                        s,
                        cu,
                        d,
                    );
                }
            }
            Exit::Halt(value) => {
                // Store the return value, then halt.
                let mut min_halt = s.last_activity;
                if let Some(v) = value {
                    let lsu = self.m.lsu();
                    // Operand move: value -> lsu.o ; trigger: #RETVAL -> lsu.t.stw
                    let producer = ddg.term_def;
                    let ready = producer.map(|p| s.nodes[p].done).unwrap_or(0);
                    let mut t = ready.max(s.port_free(lsu));
                    let ret_deadline = t + MAX_SLACK;
                    loop {
                        assert!(t < ret_deadline, "return store wedged on {}", self.m.name);
                        if !s.resolve_previous(lsu, t, t, block) {
                            t += 1;
                            continue;
                        }
                        let trig_plan = ReadPlan::Imm(RETVAL_ADDR as i32);
                        let Some(tb) = s.find_bus(t, &trig_plan, DstConn::FuTrigger(lsu)) else {
                            t += 1;
                            continue;
                        };
                        let plans = s.read_plans(v, producer, t);
                        let op_move = plans.into_iter().flatten().find_map(|p| {
                            s.find_bus_excl(t, &p, DstConn::FuOperand(lsu), Some(tb))
                                .map(|b| (p, b))
                        });
                        let Some((plan, ob)) = op_move else {
                            t += 1;
                            continue;
                        };
                        s.commit_move(t, ob, plan, MoveDst::FuOperand(lsu));
                        s.commit_move(t, tb, trig_plan, MoveDst::FuTrigger(lsu, Opcode::Stw));
                        s.fu[lsu.0 as usize].ops.push((usize::MAX, t, t));
                        min_halt = min_halt.max(t);
                        break;
                    }
                }
                // Halt trigger.
                let mut t = min_halt.max(s.port_free(cu));
                loop {
                    let plan = ReadPlan::Imm(0);
                    if let Some(b) = s.find_bus(t, &plan, DstConn::FuTrigger(cu)) {
                        s.commit_move(t, b, plan, MoveDst::FuTrigger(cu, Opcode::Halt));
                        break;
                    }
                    t += 1;
                }
            }
        }
    }

    /// Emit `limm <target>` + moves triggering a control transfer. Returns
    /// the trigger cycle.
    #[allow(clippy::too_many_arguments)]
    fn emit_branch(
        &mut self,
        opcode: Opcode,
        cond: Option<LocSrc>,
        cond_producer: Option<usize>,
        target: BlockId,
        min_cycle: u32,
        block: &LocBlock,
        s: &mut BlockSched,
        cu: FuId,
        d: u32,
    ) -> u32 {
        // Target address long immediate (value patched later).
        let (k, lc) = s.place_limm(0, min_cycle);
        s.patches.push(Patch {
            at: lc,
            slot: 0,
            target,
        });

        let cond_ready = cond_producer.map(|p| s.nodes[p].done).unwrap_or(0);
        let cu_floor = s.port_free(cu);
        let mut t = (lc + 1)
            .max(cond_ready)
            .max(cu_floor)
            .max(min_cycle)
            .max(s.last_activity.saturating_sub(d));

        let mut attempts = 0u32;
        loop {
            attempts += 1;
            assert!(
                attempts < MAX_SLACK,
                "branch wedged on {} (unroutable condition or target)",
                self.m.name
            );
            if attempts == 64 {
                if let Some(p) = cond_producer {
                    if s.nodes[p].rf_write.is_none() && s.nodes[p].fu.is_some() {
                        let _ = s.ensure_rf_write(p, block);
                    }
                }
            }
            match cond {
                None => {
                    // Unconditional: trigger = target (from the imm reg).
                    let plan = ReadPlan::ImmReg(k);
                    if let Some(b) = s.find_bus(t, &plan, DstConn::FuTrigger(cu)) {
                        s.commit_move(t, b, plan, MoveDst::FuTrigger(cu, opcode));
                        s.fu[cu.0 as usize].ops.push((usize::MAX, t, t));
                        s.grow(t + d);
                        return t;
                    }
                }
                Some(c_src) => {
                    // Operand = target, trigger = condition.
                    let plans = s.read_plans(c_src, cond_producer, t);
                    let trig = plans
                        .into_iter()
                        .flatten()
                        .find_map(|p| s.find_bus(t, &p, DstConn::FuTrigger(cu)).map(|b| (p, b)));
                    if let Some((tp, tb)) = trig {
                        // Operand move of the target in [lc+1, t].
                        let lo = (lc + 1).max(s.port_free(cu));
                        let mut found = None;
                        for c in lo..=t {
                            if let Some(b) =
                                s.find_bus(c, &ReadPlan::ImmReg(k), DstConn::FuOperand(cu))
                            {
                                found = Some((c, b));
                                break;
                            }
                        }
                        if let Some((c, ob)) = found {
                            if ob != tb || c != t {
                                s.commit_move(c, ob, ReadPlan::ImmReg(k), MoveDst::FuOperand(cu));
                                s.commit_move(t, tb, tp, MoveDst::FuTrigger(cu, opcode));
                                s.fu[cu.0 as usize].ops.push((usize::MAX, t, t));
                                s.grow(t + d);
                                return t;
                            }
                        }
                    }
                }
            }
            t += 1;
        }
    }
}

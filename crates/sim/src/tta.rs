//! Cycle-accurate simulator for the transport-triggered cores.
//!
//! Implements exactly the timing contract the scheduler plans against
//! (documented in `tta-compiler::tta_sched`): per cycle, (1) function-unit
//! completions land in result ports, (2) all move sources are sampled, (3)
//! operand-port and RF writes apply (RF reads of the same cycle already
//! sampled → writes become visible next cycle; operand ports feed triggers
//! of the *same* cycle), (4) triggers start operations, loads sampling
//! memory and stores committing immediately, (5) the long immediate and
//! control effects apply.
//!
//! The simulator is deliberately paranoid: reading a result port that never
//! received a completion, simultaneous completions on one unit, or a jump
//! during an in-flight jump raise [`SimError::Machine`] — each of these is
//! a scheduler bug that static validation cannot see.
//!
//! ## One thunk executor
//!
//! Each program is built once into one array of [`TtaOp`] thunks — a
//! thunk is one move with its opcode match, register resolution and value
//! routing already performed — laid out as each instruction's thunks
//! followed by a [`TtaOp::Next`]. Beside the array, one [`Row`] per pc
//! records where the pc's thunks start and the static `SimStats` counts of
//! the instructions before it. Every entry of the block-dispatch loop
//! ([`crate::engine::run_blocks`]) runs a slice of that array: a whole
//! straight-line run, a pending jump's delay-slot window, or an entry
//! clamped by fuel or by the I/O window — every entry at a pc runs a
//! prefix of that pc's run, so one array serves them all. The slice's
//! statistics are charged once, from two rows. [`crate::Tiers`] keeps the
//! array, built on the program's first run, so the compile cache shares it
//! across runs and threads.
//!
//! Completions ride a four-deep wheel (`wheel[cycle & 3]`, valid because
//! every pipelined latency is 1–3 cycles and the wheel is drained every
//! cycle): every trigger launches through it and every cycle delivers from
//! it, at slice entry and at each `Next`.
//!
//! ## Same-cycle hazards
//!
//! The contract samples every source before any write of the cycle
//! applies, but thunks apply their writes in stream order. The build
//! orders each instruction's thunks so that no thunk reads what an earlier
//! thunk of the same instruction wrote: operand-port writes first (the
//! instruction's triggers read the new operand), then triggers, then RF
//! writes, then the long immediate. Result ports change only at `Next`.
//! The RF writes are ordered so that none overwrites a register another RF
//! write of the instruction still reads; a cycle among them (a swap) is
//! broken by a latch: [`TtaOp::Latch`] samples one write's register before
//! the cycle's other writes, and [`TtaOp::RfLatch`] writes it last.

use crate::engine::{run_blocks, Core, Engine};
use crate::profile::ProfileSink;
use crate::result::{SimError, SimResult, SimStats};
use crate::state::FlatRf;
use tta_isa::{BlockMap, MoveDst, MoveSrc, TtaInst};
use tta_model::{FuId, Machine, OpClass, Opcode};

/// In-flight result budget per function unit. The deepest pipeline is the
/// longest op latency (3) per trigger move, and a well-formed instruction
/// triggers a unit at most once, so 8 leaves ample headroom; the
/// same-cycle-completion check below still rejects overfull schedules.
const MAX_INFLIGHT: usize = 8;

/// Runtime state of one function unit: its shared operand port and result
/// port. In-flight results live on the engine's completion wheel; `live`
/// only enforces the per-unit in-flight budget.
#[derive(Debug, Clone, Default)]
struct FuSim {
    operand: i32,
    result: Option<i32>,
    live: u8,
}

/// Mutable datapath state of one run, shared by every slice the block
/// dispatch loop runs.
pub(crate) struct TtaEngine<'a> {
    m: &'a Machine,
    code: &'a TtaCode,
    fus: Vec<FuSim>,
    /// Completion wheel: results due at cycle `c` sit in `wheel[c & 3]`
    /// as `(unit, value)` in launch order. Sound because every pipelined
    /// latency is 1..=3 and the wheel is drained every cycle.
    wheel: [Vec<(u16, i32)>; 4],
    rf: FlatRf,
    immregs: Vec<Option<i32>>,
    /// Register values sampled early by [`TtaOp::Latch`].
    latches: Vec<i32>,
    core: Core<'a, TtaShadow>,
}

/// The datapath checkpoint a TTA trap must save beside the pc. A
/// transport-triggered core exposes far more architectural state than a
/// pc: the interrupted schedule's values live in FU operand/result ports
/// and long-immediate registers (software bypassing), so handler entry
/// checkpoints all of them — the paper's argument for why TTA interrupt
/// support is costly.
pub(crate) struct TtaShadow {
    rf: Vec<i32>,
    fus: Vec<FuSim>,
    immregs: Vec<Option<i32>>,
    /// In-flight completions, indexed by *remaining* latency (0 = due at
    /// the resume cycle). Saved rather than force-landed: landing early
    /// would overwrite result ports the interrupted schedule has not
    /// read yet (software bypassing keeps values live in ports), which
    /// is exactly the exposed-datapath state the paper's trap-cost
    /// argument is about. Re-armed relative to the resume cycle by
    /// [`Engine::trap_restore`].
    wheel: [Vec<(u16, i32)>; 4],
}

impl TtaEngine<'_> {
    /// Phase 1: land the completions due this cycle in their result
    /// ports. Called exactly once per architectural cycle.
    #[inline(always)]
    fn deliver(&mut self, cycle: u64) -> Result<(), SimError> {
        let bucket = (cycle & 3) as usize;
        match self.wheel[bucket].len() {
            0 => Ok(()),
            1 => {
                let (fi, v) = self.wheel[bucket][0];
                self.wheel[bucket].clear();
                let fu = &mut self.fus[fi as usize];
                fu.result = Some(v);
                fu.live -= 1;
                Ok(())
            }
            n => self.deliver_many(bucket, n, cycle),
        }
    }

    /// Multi-completion delivery: apply in launch order, then enforce the
    /// at-most-one-completion-per-unit rule, reporting the lowest-indexed
    /// offending unit exactly as the per-unit scan of the original engine.
    fn deliver_many(&mut self, bucket: usize, n: usize, cycle: u64) -> Result<(), SimError> {
        for k in 0..n {
            let (fi, v) = self.wheel[bucket][k];
            let fu = &mut self.fus[fi as usize];
            fu.result = Some(v);
            fu.live -= 1;
        }
        let mut offender: Option<(u16, usize)> = None;
        for k in 0..n {
            let fi = self.wheel[bucket][k].0;
            let completed = self.wheel[bucket][..n].iter().filter(|e| e.0 == fi).count();
            if completed > 1 && offender.is_none_or(|(of, _)| fi < of) {
                offender = Some((fi, completed));
            }
        }
        self.wheel[bucket].clear();
        if let Some((fi, completed)) = offender {
            return Err(SimError::Machine(format!(
                "{} delivered {completed} results in cycle {cycle}",
                self.m.funits[fi as usize].name
            )));
        }
        Ok(())
    }

    /// Start an operation on unit `fi`, its result due `op.latency()`
    /// cycles out. Every trigger launches through here.
    #[inline(always)]
    fn launch(&mut self, fi: u16, op: Opcode, v: i32, cycle: u64, pc: u32) -> Result<(), SimError> {
        let fu = &mut self.fus[fi as usize];
        if fu.live as usize == MAX_INFLIGHT {
            return Err(err_inflight(self.m, fi, pc));
        }
        fu.live += 1;
        let lat = op.latency();
        debug_assert!(
            (1..=3).contains(&lat),
            "completion wheel covers latencies 1..=3"
        );
        self.wheel[((cycle + lat as u64) & 3) as usize].push((fi, v));
        Ok(())
    }

    /// Arm a control transfer (the taken-jump tail of phase 4).
    #[inline(always)]
    fn take_jump(
        &mut self,
        pc: u32,
        target: u32,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<(), SimError> {
        if pending_jump.is_some() {
            return Err(err_nested_jump(pc));
        }
        self.core.stats.branches_taken += 1;
        *pending_jump = Some((self.m.jump_delay_slots, target));
        Ok(())
    }
}

impl<'a> Engine<'a> for TtaEngine<'a> {
    type Checkpoint = TtaShadow;

    #[inline(always)]
    fn core(&mut self) -> &mut Core<'a, TtaShadow> {
        &mut self.core
    }

    /// Run instructions `pc0 .. pc0 + len` as one slice of the thunk
    /// array. The slice leaves out the trailing `Next` of its last
    /// instruction: the next entry delivers its own first cycle, after the
    /// loop's I/O poll. Only a slice that reaches its run's terminal
    /// instruction holds control thunks, so `terminal` needs no check here.
    #[inline(always)]
    fn run_slice<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        pc0: u32,
        cycle0: u64,
        len: u64,
        _terminal: bool,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<bool, SimError> {
        let code = self.code;
        let from = &code.rows[pc0 as usize];
        let to = &code.rows[pc0 as usize + len as usize];
        let ops = &code.ops[from.first as usize..to.first as usize - 1];
        let mut pc = pc0;
        let mut cycle = cycle0;
        let mut halt = false;
        self.deliver(cycle)?;
        for op in ops {
            // SAFETY: every register, unit and long-immediate-register
            // index in the array was validated against `code.dims` when it
            // was built, and `run_tta_with` checked the engine's shape
            // against the same dims before the run.
            unsafe {
                match *op {
                    TtaOp::Next => {
                        sink.retire(pc);
                        pc += 1;
                        cycle += 1;
                        self.deliver(cycle)?;
                    }
                    TtaOp::RfRf { s, d } => {
                        let v = self.rf_get(s);
                        self.rf_set(d, v);
                    }
                    TtaOp::RfImm { v, d } => self.rf_set(d, v),
                    TtaOp::RfFu { f, d } => {
                        let v = self.result(f, pc)?;
                        self.rf_set(d, v);
                    }
                    TtaOp::RfIr { k, d } => {
                        let v = self.immreg(k, pc)?;
                        self.rf_set(d, v);
                    }
                    TtaOp::OpRf { s, f } => {
                        let v = self.rf_get(s);
                        self.set_operand(f, v);
                    }
                    TtaOp::OpImm { v, f } => self.set_operand(f, v),
                    TtaOp::OpFu { s, f } => {
                        let v = self.result(s, pc)?;
                        self.set_operand(f, v);
                    }
                    TtaOp::OpIr { k, f } => {
                        let v = self.immreg(k, pc)?;
                        self.set_operand(f, v);
                    }
                    TtaOp::A1Rf { s, fu, op } => {
                        let v = self.rf_get(s);
                        self.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                    }
                    TtaOp::A1Imm { v, fu, op } => {
                        self.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                    }
                    TtaOp::A1Fu { s, fu, op } => {
                        let v = self.result(s, pc)?;
                        self.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                    }
                    TtaOp::A1Ir { k, fu, op } => {
                        let v = self.immreg(k, pc)?;
                        self.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                    }
                    TtaOp::A2Rf { s, fu, op } => {
                        let v = self.rf_get(s);
                        let a = self.operand(fu);
                        self.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                    }
                    TtaOp::A2Imm { v, fu, op } => {
                        let a = self.operand(fu);
                        self.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                    }
                    TtaOp::A2Fu { s, fu, op } => {
                        let v = self.result(s, pc)?;
                        let a = self.operand(fu);
                        self.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                    }
                    TtaOp::A2Ir { k, fu, op } => {
                        let v = self.immreg(k, pc)?;
                        let a = self.operand(fu);
                        self.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                    }
                    TtaOp::LdRf { s, fu, op } => {
                        let addr = self.rf_get(s) as u32;
                        let v = self.core.mem_load(op, addr, cycle)?;
                        self.launch(fu, op, v, cycle, pc)?;
                    }
                    TtaOp::LdImm { v, fu, op } => {
                        let v = self.core.mem_load(op, v as u32, cycle)?;
                        self.launch(fu, op, v, cycle, pc)?;
                    }
                    TtaOp::LdFu { s, fu, op } => {
                        let addr = self.result(s, pc)? as u32;
                        let v = self.core.mem_load(op, addr, cycle)?;
                        self.launch(fu, op, v, cycle, pc)?;
                    }
                    TtaOp::LdIr { k, fu, op } => {
                        let addr = self.immreg(k, pc)? as u32;
                        let v = self.core.mem_load(op, addr, cycle)?;
                        self.launch(fu, op, v, cycle, pc)?;
                    }
                    TtaOp::StRf { s, fu, op } => {
                        let addr = self.rf_get(s) as u32;
                        let v = self.operand(fu);
                        self.core.mem_store(op, addr, v, cycle)?;
                    }
                    TtaOp::StImm { v: addr, fu, op } => {
                        let v = self.operand(fu);
                        self.core.mem_store(op, addr as u32, v, cycle)?;
                    }
                    TtaOp::StFu { s, fu, op } => {
                        let addr = self.result(s, pc)? as u32;
                        let v = self.operand(fu);
                        self.core.mem_store(op, addr, v, cycle)?;
                    }
                    TtaOp::StIr { k, fu, op } => {
                        let addr = self.immreg(k, pc)? as u32;
                        let v = self.operand(fu);
                        self.core.mem_store(op, addr, v, cycle)?;
                    }
                    TtaOp::Limm { k, v } => *self.immregs.get_unchecked_mut(k as usize) = Some(v),
                    TtaOp::Halt { src } => {
                        // The halt trigger's value is unused, but its
                        // source is sampled like any other.
                        src.read(self, pc)?;
                        halt = true;
                    }
                    TtaOp::Jump { src } => {
                        let target = src.read(self, pc)? as u32;
                        self.take_jump(pc, target, pending_jump)?;
                    }
                    TtaOp::CJump { src, fu, nz } => {
                        let v = src.read(self, pc)?;
                        if (v != 0) == nz {
                            let target = self.operand(fu) as u32;
                            self.take_jump(pc, target, pending_jump)?;
                        }
                    }
                    TtaOp::Latch { s, l } => self.latches[l as usize] = self.rf_get(s),
                    TtaOp::RfLatch { l, d } => {
                        let v = self.latches[l as usize];
                        self.rf_set(d, v);
                    }
                }
            }
        }
        sink.retire(pc);
        Row::charge(&mut self.core.stats, from, to, len);
        Ok(halt)
    }

    /// Handler entry is the TTA's architecturally expensive trap: the
    /// interrupted transport schedule owns the buses, so the core first
    /// waits out every in-flight function-unit result (one cycle per
    /// residual wheel slot, fuel-checked) and checkpoints the exposed
    /// datapath; the fixed redirect cost follows.
    fn trap_drain<S: ProfileSink>(
        &mut self,
        _sink: &mut S,
        cycle: &mut u64,
        fuel: u64,
    ) -> Result<TtaShadow, SimError> {
        // The core still *waits* for the last in-flight result — that is
        // the trap's drain cost — but the completions themselves are
        // checkpointed with their remaining latencies instead of landed:
        // an early landing would clobber result ports whose current
        // values the interrupted schedule still reads (fuzz seed 2604).
        let wheel: [Vec<(u16, i32)>; 4] =
            std::array::from_fn(|rel| std::mem::take(&mut self.wheel[(*cycle as usize + rel) & 3]));
        let drain = wheel
            .iter()
            .rposition(|b| !b.is_empty())
            .map_or(0, |rel| rel + 1);
        for _ in 0..drain {
            if *cycle >= fuel {
                return Err(SimError::OutOfFuel);
            }
            *cycle += 1;
            self.core.stats.irq_cycles += 1;
        }
        let shadow = TtaShadow {
            rf: self.rf.vals.clone(),
            fus: self.fus.clone(),
            immregs: self.immregs.clone(),
            wheel,
        };
        // The checkpoint keeps the in-flight `live` counts (the restored
        // wheel will decrement them on delivery); the handler starts from
        // idle units, so drop them on the engine's own view.
        for &(fi, _) in shadow.wheel.iter().flatten() {
            self.fus[fi as usize].live -= 1;
        }
        Ok(shadow)
    }

    /// Restore the checkpointed datapath; leftover handler completions
    /// are discarded with the wheel.
    fn trap_restore(&mut self, sh: TtaShadow, cycle: u64) {
        self.rf.vals = sh.rf;
        self.fus = sh.fus;
        self.immregs = sh.immregs;
        // Re-arm the checkpointed in-flight completions relative to the
        // resume cycle: an entry saved with remaining latency `rel` lands
        // `rel` cycles after execution resumes, exactly where the
        // interrupted schedule expects it.
        for (rel, entries) in sh.wheel.into_iter().enumerate() {
            self.wheel[(cycle as usize + rel) & 3] = entries;
        }
    }
}

/// Unchecked datapath accessors for the thunks.
///
/// # Safety
/// Callers must have validated every index against the engine's [`Dims`]
/// — [`TtaCode::build`] asserts each emitted index and [`run_tta_with`]
/// checks the engine shape once per run.
impl TtaEngine<'_> {
    #[inline(always)]
    unsafe fn rf_get(&self, i: u32) -> i32 {
        debug_assert!((i as usize) < self.rf.vals.len());
        unsafe { *self.rf.vals.get_unchecked(i as usize) }
    }

    #[inline(always)]
    unsafe fn rf_set(&mut self, i: u32, v: i32) {
        debug_assert!((i as usize) < self.rf.vals.len());
        unsafe { *self.rf.vals.get_unchecked_mut(i as usize) = v }
    }

    #[inline(always)]
    unsafe fn operand(&self, f: u16) -> i32 {
        debug_assert!((f as usize) < self.fus.len());
        unsafe { self.fus.get_unchecked(f as usize).operand }
    }

    #[inline(always)]
    unsafe fn set_operand(&mut self, f: u16, v: i32) {
        debug_assert!((f as usize) < self.fus.len());
        unsafe { self.fus.get_unchecked_mut(f as usize).operand = v }
    }

    #[inline(always)]
    unsafe fn result(&self, f: u16, pc: u32) -> Result<i32, SimError> {
        debug_assert!((f as usize) < self.fus.len());
        match unsafe { self.fus.get_unchecked(f as usize).result } {
            Some(v) => Ok(v),
            None => Err(err_result_port(self.m, f, pc)),
        }
    }

    #[inline(always)]
    unsafe fn immreg(&self, k: u8, pc: u32) -> Result<i32, SimError> {
        debug_assert!((k as usize) < self.immregs.len());
        match unsafe { *self.immregs.get_unchecked(k as usize) } {
            Some(v) => Ok(v),
            None => Err(err_immreg(k, pc)),
        }
    }
}

/// Out-of-line constructors for the machine-rule errors: they are the
/// never-taken branches of the hot dispatch loop, and keeping the
/// formatting machinery behind a cold call keeps that loop compact.
#[cold]
#[inline(never)]
fn err_result_port(m: &Machine, f: u16, pc: u32) -> SimError {
    SimError::Machine(format!(
        "read of {}'s result port before any completion (pc {pc})",
        m.funits[f as usize].name
    ))
}

#[cold]
#[inline(never)]
fn err_immreg(k: u8, pc: u32) -> SimError {
    SimError::Machine(format!(
        "read of long-immediate register {k} before any write (pc {pc})"
    ))
}

#[cold]
#[inline(never)]
fn err_inflight(m: &Machine, f: u16, pc: u32) -> SimError {
    SimError::Machine(format!(
        "more than {MAX_INFLIGHT} in-flight results on {} (pc {pc})",
        m.funits[f as usize].name
    ))
}

#[cold]
#[inline(never)]
fn err_nested_jump(pc: u32) -> SimError {
    SimError::Machine(format!("jump triggered during an in-flight jump (pc {pc})"))
}

/// A resolved value source, carried by the control thunks; every other
/// thunk flattens the source kind into its variant instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Rf(u32),
    Fu(u16),
    Imm(i32),
    ImmReg(u8),
}

impl Src {
    /// # Safety
    /// Every index must have been validated against the engine's [`Dims`]
    /// (see the accessors above).
    #[inline(always)]
    unsafe fn read(self, eng: &TtaEngine, pc: u32) -> Result<i32, SimError> {
        unsafe {
            match self {
                Src::Rf(i) => Ok(eng.rf_get(i)),
                Src::Imm(v) => Ok(v),
                Src::Fu(f) => eng.result(f, pc),
                Src::ImmReg(k) => eng.immreg(k, pc),
            }
        }
    }
}

/// Engine shape a thunk array was validated against, checked once per
/// run, which makes the unchecked register/unit/limm-reg accesses of the
/// thunks sound even if a caller pairs the array with the wrong machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dims {
    rf: usize,
    fus: usize,
    immregs: usize,
}

impl Dims {
    fn of(m: &Machine, rf: &FlatRf) -> Dims {
        Dims {
            rf: rf.len(),
            fus: m.funits.len(),
            immregs: m.limm.imm_regs as usize,
        }
    }
}

// The thunk stride below was measured; a change to `TtaOp` keeps it or
// measures the new one.
const _: () = assert!(std::mem::size_of::<TtaOp>() == 16);

/// One thunk: a move with its opcode match, register resolution and value
/// routing already performed, and the source kind flattened into the
/// variant so dispatch is a single jump. Every trigger launches through
/// the completion wheel, and every instruction boundary is an explicit
/// [`TtaOp::Next`] that also delivers, so fuel accounting stays exact.
/// Adjacent thunks are not fused into mega-ops (DESIGN.md §14, "Why no
/// fusion"), and no launch bypasses the wheel ("Why one launch form").
///
/// Padded from its natural 12 bytes to 16, which served about 3 % more
/// `serve_closed_loop` jobs/s (EXPERIMENTS.md, "Static completion
/// scheduling and delay segments deleted"); a 12-byte stride leaves some
/// thunks across cache lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(8))]
enum TtaOp {
    /// End of one instruction: retire it, advance `pc`/`cycle` and deliver
    /// the completions due in the new cycle (its phase 1).
    Next,
    /// Register-to-register move.
    RfRf {
        s: u32,
        d: u32,
    },
    /// Immediate into a register.
    RfImm {
        v: i32,
        d: u32,
    },
    /// Result port into a register.
    RfFu {
        f: u16,
        d: u32,
    },
    /// Long-immediate register into a register.
    RfIr {
        k: u8,
        d: u32,
    },
    /// Register into a unit's operand port.
    OpRf {
        s: u32,
        f: u16,
    },
    /// Immediate into a unit's operand port.
    OpImm {
        v: i32,
        f: u16,
    },
    /// Result port into a unit's operand port.
    OpFu {
        s: u16,
        f: u16,
    },
    /// Long-immediate register into a unit's operand port.
    OpIr {
        k: u8,
        f: u16,
    },
    /// One-input ALU trigger, by source kind.
    A1Rf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    A1Imm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    A1Fu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    A1Ir {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    /// Two-input ALU trigger (operand port is the first input).
    A2Rf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    A2Imm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    A2Fu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    A2Ir {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    /// Load trigger, by address-source kind.
    LdRf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    LdImm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    LdFu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    LdIr {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    /// Store trigger (operand port carries the value), by address source.
    StRf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    StImm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    StFu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    StIr {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    /// Long immediate (phase 5: applied after every move of the cycle).
    Limm {
        k: u8,
        v: i32,
    },
    /// Halt trigger (terminal instructions only).
    Halt {
        src: Src,
    },
    /// Unconditional jump trigger (terminal instructions only).
    Jump {
        src: Src,
    },
    /// Conditional jump trigger (terminal instructions only).
    CJump {
        src: Src,
        fu: u16,
        nz: bool,
    },
    /// Sample register `s` into latch `l` ahead of an RF-write cycle.
    Latch {
        s: u32,
        l: u16,
    },
    /// Write latch `l` into register `d`: the RF write [`TtaOp::Latch`]
    /// sampled for.
    RfLatch {
        l: u16,
        d: u32,
    },
}

/// One pc's row beside the thunk array: where its thunks start, and the
/// static `SimStats` counts of every instruction before it. A slice of
/// instructions `pc .. end` runs thunks `rows[pc].first .. rows[end].first`
/// (less the last `Next`) and charges `rows[end]` minus `rows[pc]`; a
/// sentinel row after the last instruction closes the program.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    first: u32,
    payload: u32,
    rf_reads: u32,
    rf_writes: u32,
    bypass_reads: u32,
    limms: u32,
    loads: u32,
    stores: u32,
}

// Every program a search compiles keeps its rows alive; a wider row is a
// `search_cold` `peak_rss_mb` question, not a free change.
const _: () = assert!(std::mem::size_of::<Row>() == 32);

impl Row {
    /// Charge the `len` instructions between rows `from` and `to`.
    #[inline(always)]
    fn charge(stats: &mut SimStats, from: &Row, to: &Row, len: u64) {
        stats.instructions += len;
        stats.payload += u64::from(to.payload - from.payload);
        stats.rf_reads += u64::from(to.rf_reads - from.rf_reads);
        stats.rf_writes += u64::from(to.rf_writes - from.rf_writes);
        stats.bypass_reads += u64::from(to.bypass_reads - from.bypass_reads);
        stats.limms += u64::from(to.limms - from.limms);
        stats.loads += u64::from(to.loads - from.loads);
        stats.stores += u64::from(to.stores - from.stores);
    }
}

/// One TTA program built into thunks for one machine shape: the array
/// every block entry slices, its per-pc rows (one more than the program
/// has instructions) and the latch count the widest RF-write cycle needs.
pub(crate) struct TtaCode {
    ops: Box<[TtaOp]>,
    rows: Box<[Row]>,
    dims: Dims,
    latches: usize,
}

/// An RF write waiting for its place in the instruction's thunk stream:
/// its source (or the latch that sampled it) and its destination.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    src: Src,
    latch: Option<u16>,
    d: u32,
}

impl PendingWrite {
    /// Whether this write still reads register `r` at its own place in
    /// the stream.
    fn reads(&self, r: u32) -> bool {
        self.latch.is_none() && self.src == Src::Rf(r)
    }
}

impl TtaCode {
    /// Build `program` for `m`: each instruction's thunks in hazard-safe
    /// order (see the module docs), then a `Next`. Every emitted
    /// register/unit/limm-register index is asserted against the machine's
    /// [`Dims`], which licenses the unchecked accesses of the thunks.
    pub(crate) fn build(m: &Machine, program: &[TtaInst]) -> TtaCode {
        let rf = FlatRf::new(m);
        let dims = Dims::of(m, &rf);
        let reg = |r| {
            let i = rf.flat(r);
            assert!((i as usize) < dims.rf, "register out of range");
            i
        };
        let unit = |f: FuId| {
            assert!((f.0 as usize) < dims.fus, "unit out of range");
            f.0
        };
        let immreg = |k: u8| {
            assert!((k as usize) < dims.immregs, "limm register out of range");
            k
        };
        let mut ops: Vec<TtaOp> = Vec::with_capacity(program.len() * 3);
        let mut rows: Vec<Row> = Vec::with_capacity(program.len() + 1);
        let mut row = Row::default();
        let mut latches = 0;
        let (mut operands, mut triggers, mut rf_writes) = (Vec::new(), Vec::new(), Vec::new());
        for inst in program {
            row.first = u32::try_from(ops.len()).expect("program too large");
            rows.push(row);
            operands.clear();
            triggers.clear();
            rf_writes.clear();
            for mv in inst.slots.iter().flatten() {
                row.payload += 1;
                let src = match mv.src {
                    MoveSrc::Rf(r) => {
                        row.rf_reads += 1;
                        Src::Rf(reg(r))
                    }
                    MoveSrc::FuResult(f) => {
                        row.bypass_reads += 1;
                        Src::Fu(unit(f))
                    }
                    MoveSrc::Imm(v) => Src::Imm(v),
                    MoveSrc::ImmReg(k) => Src::ImmReg(immreg(k)),
                };
                match mv.dst {
                    MoveDst::FuOperand(f) => operands.push((src, unit(f))),
                    MoveDst::FuTrigger(f, op) => triggers.push((src, unit(f), op)),
                    MoveDst::Rf(r) => rf_writes.push(PendingWrite {
                        src,
                        latch: None,
                        d: reg(r),
                    }),
                }
            }
            // Operand-port writes in slot order (a later slot's write to
            // the same port wins, as in the reference phase order), then
            // the triggers that read them, in slot order.
            for &(s, f) in &operands {
                ops.push(match s {
                    Src::Rf(s) => TtaOp::OpRf { s, f },
                    Src::Imm(v) => TtaOp::OpImm { v, f },
                    Src::Fu(s) => TtaOp::OpFu { s, f },
                    Src::ImmReg(k) => TtaOp::OpIr { k, f },
                });
            }
            for &(s, fu, op) in &triggers {
                ops.push(trigger(s, fu, op, &mut row));
            }
            row.rf_writes += rf_writes.len() as u32;
            latches = latches.max(emit_rf_writes(&mut ops, &mut rf_writes));
            if let Some((k, v)) = inst.limm {
                row.limms += 1;
                ops.push(TtaOp::Limm { k: immreg(k), v });
            }
            ops.push(TtaOp::Next);
        }
        row.first = u32::try_from(ops.len()).expect("program too large");
        rows.push(row);
        TtaCode {
            ops: ops.into_boxed_slice(),
            rows: rows.into_boxed_slice(),
            dims,
            latches,
        }
    }
}

/// The thunk of one trigger move, counting its loads and stores.
fn trigger(s: Src, fu: u16, op: Opcode, row: &mut Row) -> TtaOp {
    match op.class() {
        OpClass::Alu if op.num_inputs() == 1 => match s {
            Src::Rf(s) => TtaOp::A1Rf { s, fu, op },
            Src::Imm(v) => TtaOp::A1Imm { v, fu, op },
            Src::Fu(s) => TtaOp::A1Fu { s, fu, op },
            Src::ImmReg(k) => TtaOp::A1Ir { k, fu, op },
        },
        OpClass::Alu => match s {
            Src::Rf(s) => TtaOp::A2Rf { s, fu, op },
            Src::Imm(v) => TtaOp::A2Imm { v, fu, op },
            Src::Fu(s) => TtaOp::A2Fu { s, fu, op },
            Src::ImmReg(k) => TtaOp::A2Ir { k, fu, op },
        },
        OpClass::Lsu if op.is_load() => {
            row.loads += 1;
            match s {
                Src::Rf(s) => TtaOp::LdRf { s, fu, op },
                Src::Imm(v) => TtaOp::LdImm { v, fu, op },
                Src::Fu(s) => TtaOp::LdFu { s, fu, op },
                Src::ImmReg(k) => TtaOp::LdIr { k, fu, op },
            }
        }
        OpClass::Lsu => {
            row.stores += 1;
            match s {
                Src::Rf(s) => TtaOp::StRf { s, fu, op },
                Src::Imm(v) => TtaOp::StImm { v, fu, op },
                Src::Fu(s) => TtaOp::StFu { s, fu, op },
                Src::ImmReg(k) => TtaOp::StIr { k, fu, op },
            }
        }
        OpClass::Ctrl => match op {
            Opcode::Halt => TtaOp::Halt { src: s },
            Opcode::Jump => TtaOp::Jump { src: s },
            Opcode::CJnz => TtaOp::CJump {
                src: s,
                fu,
                nz: true,
            },
            Opcode::CJz => TtaOp::CJump {
                src: s,
                fu,
                nz: false,
            },
            _ => unreachable!("non-transfer control opcode"),
        },
    }
}

/// Emit one instruction's RF writes (given in slot order) so that the
/// stream reproduces the contract's parallel semantics: a write goes out
/// once no other pending write still reads its destination and no
/// earlier-slot pending write targets the same register (so the later
/// slot still wins). When every pending write waits on another, the
/// writes form a cycle; the first one that reads a register is latched —
/// its register sampled now, its write emitted when its turn comes.
/// Returns the number of latches used.
fn emit_rf_writes(ops: &mut Vec<TtaOp>, pending: &mut Vec<PendingWrite>) -> usize {
    let mut latches = 0;
    while !pending.is_empty() {
        let ready = (0..pending.len()).find(|&i| {
            let d = pending[i].d;
            pending
                .iter()
                .enumerate()
                .all(|(j, w)| j == i || !(w.reads(d) || (j < i && w.d == d)))
        });
        let Some(i) = ready else {
            // Only an unlatched register read can close a cycle: writes
            // to one destination alone are ordered by slot.
            let w = pending
                .iter_mut()
                .find(|w| w.latch.is_none() && matches!(w.src, Src::Rf(_)))
                .expect("an RF-write cycle reads a register");
            let Src::Rf(s) = w.src else { unreachable!() };
            let l = u16::try_from(latches).expect("latch index fits u16");
            ops.push(TtaOp::Latch { s, l });
            w.latch = Some(l);
            latches += 1;
            continue;
        };
        let PendingWrite { src, latch, d } = pending.remove(i);
        ops.push(match (latch, src) {
            (Some(l), _) => TtaOp::RfLatch { l, d },
            (None, Src::Rf(s)) => TtaOp::RfRf { s, d },
            (None, Src::Imm(v)) => TtaOp::RfImm { v, d },
            (None, Src::Fu(f)) => TtaOp::RfFu { f, d },
            (None, Src::ImmReg(k)) => TtaOp::RfIr { k, d },
        });
    }
    latches
}

/// The TTA engine behind [`crate::run`] and friends, monomorphised over
/// the profile sink: runs `code` (built for `m`) under the shared
/// block-dispatch loop.
pub(crate) fn run_tta_with<S: ProfileSink>(
    m: &Machine,
    code: &TtaCode,
    blocks: &BlockMap,
    core: Core<'_, TtaShadow>,
    fuel: u64,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    let rf = FlatRf::new(m);
    assert_eq!(
        Dims::of(m, &rf),
        code.dims,
        "thunk array built for a different machine shape"
    );
    let mut eng = TtaEngine {
        m,
        code,
        fus: vec![FuSim::default(); m.funits.len()],
        wheel: Default::default(),
        rf,
        immregs: vec![None; m.limm.imm_regs as usize],
        latches: vec![0; code.latches],
        core,
    };
    run_blocks(&mut eng, sink, blocks, fuel)
}

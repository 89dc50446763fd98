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
//! ## Fused-block dispatch and the compiled tier
//!
//! The tiers are numbered as in DESIGN.md §14: decode (tier 1), fused-block
//! interpretation (tier 2) and compiled blocks (tier 3).
//!
//! The program is predecoded once per run: empty slots are dropped, moves
//! are split into source/write/trigger classes and every register
//! reference is resolved to a flat index, so the interior of a superblock
//! streams straight through the contiguous per-class move arrays. The
//! block-dispatch loop itself is shared with the VLIW engine
//! ([`crate::engine::run_blocks`]).
//!
//! Hot superblocks are additionally *promoted* into compiled blocks:
//! [`compile_tta_block`] matches every decoded move once and emits one
//! flat array of resolved thunks ([`TtaOp`] values: one per move, plus a
//! boundary per cycle) with the block's static `SimStats` contribution
//! precomputed. The block is one boxed closure over that array, and
//! [`exec_tta_block`] dispatches it with a single `match`, so
//! steady-state execution pays neither the per-move decode match nor the
//! per-move statistics traffic. Completions ride a four-deep wheel
//! (`wheel[cycle & 3]`, valid because every pipelined latency is 1–3
//! cycles and the wheel is drained every cycle) shared by both tiers:
//! every launch of either tier goes through it and every cycle of either
//! tier delivers from it, so a block entered with results in flight from
//! interpreted code delivers them on exactly the right cycle. Only whole
//! superblocks are compiled; a clamped entry (a pending jump's delay
//! window, the fuel limit or the I/O window) runs interpreted.

use crate::engine::{run_blocks, Core, Engine};
use crate::profile::{NoProfile, ProfileSink};
use crate::result::{SimError, SimResult, SimStats};
use crate::state::FlatRf;
use crate::tier::TierCounts;
use tta_isa::{BlockMap, MoveDst, MoveSrc, TierEntry, TierTable, TtaInst};
use tta_model::{Machine, OpClass, Opcode};

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

/// A decoded move source: register references resolved to flat indices.
#[derive(Debug, Clone, Copy)]
enum DecSrc {
    Rf(u32),
    FuResult(u16),
    Imm(i32),
    ImmReg(u8),
}

/// A decoded non-trigger destination. The `u16` pairs each write with the
/// sampled value of its move (index into the per-instruction value window).
#[derive(Debug, Clone, Copy)]
enum DecWrite {
    Rf(u32),
    FuOperand(u16),
}

/// A decoded trigger: value index, unit, opcode.
#[derive(Debug, Clone, Copy)]
struct DecTrig {
    vi: u16,
    fu: u16,
    op: Opcode,
}

/// One instruction as ranges into the flat per-class move arrays.
#[derive(Debug, Clone, Copy)]
struct DecInst {
    srcs: (u32, u32),
    writes: (u32, u32),
    trigs: (u32, u32),
    limm: Option<(u8, i32)>,
}

/// The whole program, predecoded into dense per-class arrays. Because the
/// per-class arrays are filled in program order, the moves of a
/// superblock's instructions are contiguous in memory and block dispatch
/// streams straight through them.
struct Decoded {
    srcs: Vec<DecSrc>,
    writes: Vec<(u16, DecWrite)>,
    trigs: Vec<DecTrig>,
    insts: Vec<DecInst>,
    /// Widest instruction (sizes the reusable sampled-value scratch).
    max_moves: usize,
}

fn decode(rf: &FlatRf, program: &[TtaInst]) -> Decoded {
    let mut d = Decoded {
        srcs: Vec::new(),
        writes: Vec::new(),
        trigs: Vec::new(),
        insts: Vec::with_capacity(program.len()),
        max_moves: 0,
    };
    for inst in program {
        let s0 = d.srcs.len() as u32;
        let w0 = d.writes.len() as u32;
        let t0 = d.trigs.len() as u32;
        let mut vi: u16 = 0;
        for slot in &inst.slots {
            let Some(mv) = slot else { continue };
            d.srcs.push(match mv.src {
                MoveSrc::Rf(r) => DecSrc::Rf(rf.flat(r)),
                MoveSrc::FuResult(f) => DecSrc::FuResult(f.0),
                MoveSrc::Imm(v) => DecSrc::Imm(v),
                MoveSrc::ImmReg(k) => DecSrc::ImmReg(k),
            });
            match mv.dst {
                MoveDst::Rf(r) => d.writes.push((vi, DecWrite::Rf(rf.flat(r)))),
                MoveDst::FuOperand(f) => d.writes.push((vi, DecWrite::FuOperand(f.0))),
                MoveDst::FuTrigger(f, op) => d.trigs.push(DecTrig { vi, fu: f.0, op }),
            }
            vi += 1;
        }
        d.max_moves = d.max_moves.max(vi as usize);
        d.insts.push(DecInst {
            srcs: (s0, d.srcs.len() as u32),
            writes: (w0, d.writes.len() as u32),
            trigs: (t0, d.trigs.len() as u32),
            limm: inst.limm,
        });
    }
    d
}

/// Mutable datapath state of one run, shared by every step of the block
/// dispatch loop and by compiled blocks.
pub(crate) struct TtaEngine<'a> {
    m: &'a Machine,
    dec: &'a Decoded,
    fus: Vec<FuSim>,
    /// Completion wheel: results due at cycle `c` sit in `wheel[c & 3]`
    /// as `(unit, value)` in launch order. Sound because every pipelined
    /// latency is 1..=3 and the wheel is drained every cycle.
    wheel: [Vec<(u16, i32)>; 4],
    rf: FlatRf,
    immregs: Vec<Option<i32>>,
    /// Sampled move values of the current instruction, reused every cycle.
    values: Vec<i32>,
    core: Core<'a, TtaShadow>,
    /// The promotion table of the compiled tier, if enabled.
    tier: Option<&'a TtaTiers>,
    tc: TierCounts,
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
    /// ports. Shared by the interpreted step and compiled blocks — both
    /// must call it exactly once per architectural cycle.
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
    /// cycles out. Both tiers launch through here.
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

    /// Phases 2–5 of one architectural cycle at `pc` (everything except
    /// completion delivery). With `CTRL = false` the caller guarantees
    /// (via the block map) that the instruction carries no control
    /// trigger, and the whole control arm is compiled out of the
    /// monomorphisation. Returns whether the core halted.
    #[inline(always)]
    fn exec_inst<S: ProfileSink, const CTRL: bool>(
        &mut self,
        sink: &mut S,
        pc: u32,
        cycle: u64,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<bool, SimError> {
        let dec = self.dec;
        let m = self.m;
        let inst = dec.insts[pc as usize];
        self.core.stats.instructions += 1;
        sink.retire(pc);

        // (2) Sample sources.
        for (vi, src) in dec.srcs[inst.srcs.0 as usize..inst.srcs.1 as usize]
            .iter()
            .enumerate()
        {
            let v = match *src {
                DecSrc::Rf(i) => {
                    self.core.stats.rf_reads += 1;
                    self.rf.vals[i as usize]
                }
                DecSrc::FuResult(f) => {
                    self.core.stats.bypass_reads += 1;
                    match self.fus[f as usize].result {
                        Some(v) => v,
                        None => return Err(err_result_port(m, f, pc)),
                    }
                }
                DecSrc::Imm(v) => v,
                DecSrc::ImmReg(k) => match self.immregs[k as usize] {
                    Some(v) => v,
                    None => return Err(err_immreg(k, pc)),
                },
            };
            self.values[vi] = v;
            self.core.stats.payload += 1;
        }

        // (3) Apply operand-port and RF writes.
        for &(vi, w) in &dec.writes[inst.writes.0 as usize..inst.writes.1 as usize] {
            let v = self.values[vi as usize];
            match w {
                DecWrite::Rf(i) => {
                    self.core.stats.rf_writes += 1;
                    self.rf.vals[i as usize] = v;
                }
                DecWrite::FuOperand(f) => self.fus[f as usize].operand = v,
            }
        }

        // (4) Triggers.
        let mut halt = false;
        for trig in &dec.trigs[inst.trigs.0 as usize..inst.trigs.1 as usize] {
            let trig_v = self.values[trig.vi as usize];
            let op = trig.op;
            match op.class() {
                OpClass::Alu => {
                    let result = if op.num_inputs() == 1 {
                        op.eval_alu(trig_v, 0)
                    } else {
                        op.eval_alu(self.fus[trig.fu as usize].operand, trig_v)
                    };
                    self.launch(trig.fu, op, result, cycle, pc)?;
                }
                OpClass::Lsu => {
                    if op.is_load() {
                        self.core.stats.loads += 1;
                        let v = self.core.mem_load(op, trig_v as u32, cycle)?;
                        self.launch(trig.fu, op, v, cycle, pc)?;
                    } else {
                        self.core.stats.stores += 1;
                        let operand = self.fus[trig.fu as usize].operand;
                        self.core.mem_store(op, trig_v as u32, operand, cycle)?;
                    }
                }
                OpClass::Ctrl if CTRL => match op {
                    Opcode::Halt => halt = true,
                    Opcode::Jump | Opcode::CJnz | Opcode::CJz => {
                        let (taken, target) = match op {
                            Opcode::Jump => (true, trig_v as u32),
                            Opcode::CJnz => {
                                (trig_v != 0, self.fus[trig.fu as usize].operand as u32)
                            }
                            Opcode::CJz => (trig_v == 0, self.fus[trig.fu as usize].operand as u32),
                            _ => unreachable!(),
                        };
                        if taken {
                            self.take_jump(pc, target, pending_jump)?;
                        }
                    }
                    _ => unreachable!(),
                },
                OpClass::Ctrl => unreachable!("control trigger inside a superblock interior"),
            }
        }

        // (5) Long immediate (visible next cycle — applied after sampling).
        if let Some((k, v)) = inst.limm {
            self.core.stats.limms += 1;
            self.immregs[k as usize] = Some(v);
        }
        Ok(halt)
    }
}

impl<'a> Engine<'a> for TtaEngine<'a> {
    type Checkpoint = TtaShadow;

    #[inline(always)]
    fn core(&mut self) -> &mut Core<'a, TtaShadow> {
        &mut self.core
    }

    /// One full architectural cycle at `pc` (the interpreted tier).
    #[inline(always)]
    fn step<S: ProfileSink, const CTRL: bool>(
        &mut self,
        sink: &mut S,
        pc: u32,
        cycle: u64,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<bool, SimError> {
        self.deliver(cycle)?;
        self.exec_inst::<S, CTRL>(sink, pc, cycle, pending_jump)
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

    /// Tier-3 dispatch: an unclamped entry of a hot block executes
    /// compiled; a clamped entry of a compiled pc falls back to
    /// interpreted, and is counted.
    #[inline(always)]
    fn run_compiled(
        &mut self,
        pc: u32,
        cycle: u64,
        len: u64,
        unclamped: bool,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<Option<bool>, SimError> {
        let Some(tab) = self.tier else {
            return Ok(None);
        };
        if !unclamped {
            if tab.get(pc).is_some() {
                self.tc.fallbacks += 1;
            }
            return Ok(None);
        }
        let block = match tab.entry(pc) {
            TierEntry::Compiled(b) => Some(b),
            TierEntry::Promote => {
                let dims = Dims {
                    rf: self.rf.vals.len(),
                    fus: self.fus.len(),
                    immregs: self.immregs.len(),
                };
                // A thread sharing the table may have won the race; its
                // block is the same, but the promotion is its own.
                if tab.install(pc, compile_tta_block(self.dec, dims, pc, len as u32)) {
                    self.tc.promotions += 1;
                }
                tab.get(pc)
            }
            TierEntry::Cold => None,
        };
        let Some(block) = block else {
            return Ok(None);
        };
        self.tc.entries += 1;
        block(self, cycle, pending_jump).map(Some)
    }
}

/// Unchecked datapath accessors for compiled blocks.
///
/// # Safety
/// Callers must have validated every index against the engine's [`Dims`]
/// — [`compile_tta_block`] asserts each emitted index at promotion time
/// and [`exec_tta_block`] checks the engine shape once on entry.
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
/// never-taken branches of the hot dispatch loops, and keeping the
/// formatting machinery behind a cold call keeps those loops compact.
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

/// A resolved value source in a compiled block, carried by the control
/// thunks; every other thunk flattens the source kind into its variant
/// instead.
#[derive(Debug, Clone, Copy)]
enum Src {
    Rf(u32),
    Fu(u16),
    Imm(i32),
    ImmReg(u8),
}

impl Src {
    /// # Safety
    /// Every index must have been validated against the engine's [`Dims`]
    /// (promotion-time validation + the entry check of `exec_tta_block`).
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

/// Engine shape a compiled block was validated against. Checked once per
/// block invocation, which makes the unchecked register/unit/limm-reg
/// accesses of the thunks sound even if a caller pairs the tier table
/// with the wrong machine.
#[derive(Debug, Clone, Copy)]
struct Dims {
    rf: usize,
    fus: usize,
    immregs: usize,
}

// The thunk stride below was measured; a change to `TtaOp` keeps it or
// measures the new one.
const _: () = assert!(std::mem::size_of::<TtaOp>() == 16);

/// One thunk of a compiled superblock: a decoded move with its opcode
/// match, register resolution and value routing already performed, and
/// the source kind flattened into the variant so dispatch is a single
/// jump. Every trigger launches through the completion wheel, as in the
/// interpreted step, and every instruction boundary is an explicit
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
    /// End of one instruction: advance `pc`/`cycle` and deliver the
    /// completions due in the new cycle (its phase 1).
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
    Halt,
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
    /// Same-cycle hazard (a move reads a register another move of the
    /// instruction writes): run the reference phase order instead.
    Phased {
        pc: u32,
    },
    /// [`TtaOp::Phased`] for the terminal, control-bearing instruction.
    PhasedCtrl {
        pc: u32,
    },
}

/// A compiled superblock: the promotion product stored in the tier table.
/// Invoked as `block(engine, entry_cycle, pending_jump)`; returns whether
/// the core halted. Callers guarantee an unclamped entry (no pending
/// jump; fuel and the I/O window cover the whole run).
pub(crate) type TtaBlockFn = Box<
    dyn for<'e> Fn(&mut TtaEngine<'e>, u64, &mut Option<(u32, u32)>) -> Result<bool, SimError>
        + Send
        + Sync,
>;

/// Compiled-tier state of one TTA program: at most one compiled block
/// per pc, each a whole superblock from that pc. Clamped entries (a
/// pending jump's delay window, the fuel limit, the I/O window) are
/// never compiled; they run interpreted.
pub(crate) type TtaTiers = TierTable<TtaBlockFn>;

/// Execute a compiled block: straight-line thunk dispatch with the
/// block's static statistics applied once at the end. Like the
/// interpreted step, it delivers completions at entry and at every cycle
/// boundary.
fn exec_tta_block(
    ops: &[TtaOp],
    delta: &SimStats,
    dims: Dims,
    eng: &mut TtaEngine,
    pc0: u32,
    cycle0: u64,
    pending_jump: &mut Option<(u32, u32)>,
) -> Result<bool, SimError> {
    assert!(
        eng.rf.vals.len() == dims.rf
            && eng.fus.len() == dims.fus
            && eng.immregs.len() == dims.immregs,
        "compiled block executed against a different machine shape"
    );
    let mut pc = pc0;
    let mut cycle = cycle0;
    let mut halt = false;
    eng.deliver(cycle)?;
    for op in ops {
        // SAFETY: every register, unit and long-immediate-register index
        // in `ops` was validated against `dims` at promotion time, and
        // the engine was checked against `dims` on entry above.
        unsafe {
            match *op {
                TtaOp::Next => {
                    pc += 1;
                    cycle += 1;
                    eng.deliver(cycle)?;
                }
                TtaOp::RfRf { s, d } => {
                    let v = eng.rf_get(s);
                    eng.rf_set(d, v);
                }
                TtaOp::RfImm { v, d } => eng.rf_set(d, v),
                TtaOp::RfFu { f, d } => {
                    let v = eng.result(f, pc)?;
                    eng.rf_set(d, v);
                }
                TtaOp::RfIr { k, d } => {
                    let v = eng.immreg(k, pc)?;
                    eng.rf_set(d, v);
                }
                TtaOp::OpRf { s, f } => {
                    let v = eng.rf_get(s);
                    eng.set_operand(f, v);
                }
                TtaOp::OpImm { v, f } => eng.set_operand(f, v),
                TtaOp::OpFu { s, f } => {
                    let v = eng.result(s, pc)?;
                    eng.set_operand(f, v);
                }
                TtaOp::OpIr { k, f } => {
                    let v = eng.immreg(k, pc)?;
                    eng.set_operand(f, v);
                }
                TtaOp::A1Rf { s, fu, op } => {
                    let v = eng.rf_get(s);
                    eng.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A1Imm { v, fu, op } => {
                    eng.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A1Fu { s, fu, op } => {
                    let v = eng.result(s, pc)?;
                    eng.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A1Ir { k, fu, op } => {
                    let v = eng.immreg(k, pc)?;
                    eng.launch(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A2Rf { s, fu, op } => {
                    let v = eng.rf_get(s);
                    let a = eng.operand(fu);
                    eng.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::A2Imm { v, fu, op } => {
                    let a = eng.operand(fu);
                    eng.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::A2Fu { s, fu, op } => {
                    let v = eng.result(s, pc)?;
                    let a = eng.operand(fu);
                    eng.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::A2Ir { k, fu, op } => {
                    let v = eng.immreg(k, pc)?;
                    let a = eng.operand(fu);
                    eng.launch(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::LdRf { s, fu, op } => {
                    let addr = eng.rf_get(s) as u32;
                    let v = eng.core.mem_load(op, addr, cycle)?;
                    eng.launch(fu, op, v, cycle, pc)?;
                }
                TtaOp::LdImm { v, fu, op } => {
                    let v = eng.core.mem_load(op, v as u32, cycle)?;
                    eng.launch(fu, op, v, cycle, pc)?;
                }
                TtaOp::LdFu { s, fu, op } => {
                    let addr = eng.result(s, pc)? as u32;
                    let v = eng.core.mem_load(op, addr, cycle)?;
                    eng.launch(fu, op, v, cycle, pc)?;
                }
                TtaOp::LdIr { k, fu, op } => {
                    let addr = eng.immreg(k, pc)? as u32;
                    let v = eng.core.mem_load(op, addr, cycle)?;
                    eng.launch(fu, op, v, cycle, pc)?;
                }
                TtaOp::StRf { s, fu, op } => {
                    let addr = eng.rf_get(s) as u32;
                    let v = eng.operand(fu);
                    eng.core.mem_store(op, addr, v, cycle)?;
                }
                TtaOp::StImm { v: addr, fu, op } => {
                    let v = eng.operand(fu);
                    eng.core.mem_store(op, addr as u32, v, cycle)?;
                }
                TtaOp::StFu { s, fu, op } => {
                    let addr = eng.result(s, pc)? as u32;
                    let v = eng.operand(fu);
                    eng.core.mem_store(op, addr, v, cycle)?;
                }
                TtaOp::StIr { k, fu, op } => {
                    let addr = eng.immreg(k, pc)? as u32;
                    let v = eng.operand(fu);
                    eng.core.mem_store(op, addr, v, cycle)?;
                }
                TtaOp::Limm { k, v } => *eng.immregs.get_unchecked_mut(k as usize) = Some(v),
                TtaOp::Halt => halt = true,
                TtaOp::Jump { src } => {
                    let target = src.read(eng, pc)? as u32;
                    eng.take_jump(pc, target, pending_jump)?;
                }
                TtaOp::CJump { src, fu, nz } => {
                    let v = src.read(eng, pc)?;
                    if (v != 0) == nz {
                        let target = eng.operand(fu) as u32;
                        eng.take_jump(pc, target, pending_jump)?;
                    }
                }
                TtaOp::Phased { pc: ppc } => {
                    debug_assert_eq!(ppc, pc);
                    eng.exec_inst::<NoProfile, false>(&mut NoProfile, ppc, cycle, pending_jump)?;
                }
                TtaOp::PhasedCtrl { pc: ppc } => {
                    debug_assert_eq!(ppc, pc);
                    halt |=
                        eng.exec_inst::<NoProfile, true>(&mut NoProfile, ppc, cycle, pending_jump)?;
                }
            }
        }
    }
    eng.core.stats.accumulate(delta);
    Ok(halt)
}

/// Compile the superblock `[pc0, pc0 + len)` into one boxed closure over
/// one array of resolved thunks. Each decoded move is matched exactly
/// once, here, in one pass per instruction: its moves, then its triggers
/// in slot order (control ones included, as in `exec_inst`), then its
/// long immediate. Per-move statistics are folded into a static
/// per-block delta (taken branches stay dynamic). An instruction with a
/// same-cycle hazard is truncated back to its first thunk and replaced by
/// one [`TtaOp::Phased`], which runs the reference phase order and
/// charges its own statistics. Every emitted register/unit/limm-register
/// index is asserted against `dims`, which licenses the unchecked
/// accesses of [`exec_tta_block`].
fn compile_tta_block(dec: &Decoded, dims: Dims, pc0: u32, len: u32) -> TtaBlockFn {
    let mut ops: Vec<TtaOp> = Vec::new();
    let mut delta = SimStats::default();
    // Registers written so far by the current instruction. The reference
    // engine samples every source before any write applies, but thunks
    // apply writes in emission order, so a source is a same-cycle hazard
    // iff a move emitted before it wrote its register: for write moves
    // any earlier write, for triggers (emitted after every write) any
    // write of the instruction.
    let mut written: Vec<u32> = Vec::new();
    let resolve = |s: DecSrc, written: &[u32], d: &mut SimStats, hazard: &mut bool| match s {
        DecSrc::Rf(r) => {
            assert!((r as usize) < dims.rf, "decoded register out of range");
            d.rf_reads += 1;
            *hazard |= written.contains(&r);
            Src::Rf(r)
        }
        DecSrc::FuResult(f) => {
            assert!((f as usize) < dims.fus, "decoded unit out of range");
            d.bypass_reads += 1;
            Src::Fu(f)
        }
        DecSrc::Imm(v) => Src::Imm(v),
        DecSrc::ImmReg(k) => {
            assert!(
                (k as usize) < dims.immregs,
                "decoded limm register out of range"
            );
            Src::ImmReg(k)
        }
    };
    let check_fu = |f: u16| {
        assert!((f as usize) < dims.fus, "decoded unit out of range");
        f
    };
    for i in 0..len {
        let pc = pc0 + i;
        let inst = dec.insts[pc as usize];
        let srcs = &dec.srcs[inst.srcs.0 as usize..inst.srcs.1 as usize];
        let writes = &dec.writes[inst.writes.0 as usize..inst.writes.1 as usize];
        let trigs = &dec.trigs[inst.trigs.0 as usize..inst.trigs.1 as usize];
        if i > 0 {
            ops.push(TtaOp::Next);
        }
        let start = ops.len();
        let mut d = SimStats::default();
        d.instructions += 1;
        written.clear();
        let mut hazard = false;

        for &(vi, w) in writes {
            d.payload += 1;
            let s = resolve(srcs[vi as usize], &written, &mut d, &mut hazard);
            ops.push(match w {
                DecWrite::Rf(r) => {
                    assert!((r as usize) < dims.rf, "decoded register out of range");
                    d.rf_writes += 1;
                    written.push(r);
                    match s {
                        Src::Rf(si) => TtaOp::RfRf { s: si, d: r },
                        Src::Imm(v) => TtaOp::RfImm { v, d: r },
                        Src::Fu(f) => TtaOp::RfFu { f, d: r },
                        Src::ImmReg(k) => TtaOp::RfIr { k, d: r },
                    }
                }
                DecWrite::FuOperand(f) => {
                    let f = check_fu(f);
                    match s {
                        Src::Rf(si) => TtaOp::OpRf { s: si, f },
                        Src::Imm(v) => TtaOp::OpImm { v, f },
                        Src::Fu(sf) => TtaOp::OpFu { s: sf, f },
                        Src::ImmReg(k) => TtaOp::OpIr { k, f },
                    }
                }
            });
        }
        for trig in trigs {
            d.payload += 1;
            let s = resolve(srcs[trig.vi as usize], &written, &mut d, &mut hazard);
            let (fu, op) = (check_fu(trig.fu), trig.op);
            ops.push(match op.class() {
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
                    d.loads += 1;
                    match s {
                        Src::Rf(s) => TtaOp::LdRf { s, fu, op },
                        Src::Imm(v) => TtaOp::LdImm { v, fu, op },
                        Src::Fu(s) => TtaOp::LdFu { s, fu, op },
                        Src::ImmReg(k) => TtaOp::LdIr { k, fu, op },
                    }
                }
                OpClass::Lsu => {
                    d.stores += 1;
                    match s {
                        Src::Rf(s) => TtaOp::StRf { s, fu, op },
                        Src::Imm(v) => TtaOp::StImm { v, fu, op },
                        Src::Fu(s) => TtaOp::StFu { s, fu, op },
                        Src::ImmReg(k) => TtaOp::StIr { k, fu, op },
                    }
                }
                OpClass::Ctrl => match op {
                    Opcode::Halt => TtaOp::Halt,
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
            });
        }
        if let Some((k, v)) = inst.limm {
            assert!(
                (k as usize) < dims.immregs,
                "decoded limm register out of range"
            );
            d.limms += 1;
            ops.push(TtaOp::Limm { k, v });
        }

        if hazard {
            // Reference phase order for this one instruction; its stats
            // are charged live by `exec_inst`, so keep them out of the
            // static delta.
            ops.truncate(start);
            ops.push(if i + 1 == len {
                TtaOp::PhasedCtrl { pc }
            } else {
                TtaOp::Phased { pc }
            });
        } else {
            delta.accumulate(&d);
        }
    }
    let ops = ops.into_boxed_slice();
    Box::new(move |eng, cycle0, pending_jump| {
        exec_tta_block(&ops, &delta, dims, eng, pc0, cycle0, pending_jump)
    })
}

/// The TTA engine behind [`crate::run`] and friends, monomorphised over
/// the profile sink. `tier`, if present, is the promotion table of the
/// compiled tier — consulted only on block entries of passive sinks.
pub(crate) fn run_tta_with<S: ProfileSink>(
    m: &Machine,
    program: &[TtaInst],
    blocks: &BlockMap,
    core: Core<'_, TtaShadow>,
    fuel: u64,
    sink: &mut S,
    tier: Option<&TtaTiers>,
) -> Result<SimResult, SimError> {
    let rf = FlatRf::new(m);
    let dec = decode(&rf, program);
    let mut eng = TtaEngine {
        m,
        dec: &dec,
        fus: vec![FuSim::default(); m.funits.len()],
        wheel: Default::default(),
        rf,
        immregs: vec![None; m.limm.imm_regs as usize],
        values: vec![0; dec.max_moves],
        core,
        tier,
        tc: TierCounts::default(),
    };
    let r = run_blocks(&mut eng, sink, blocks, fuel);
    eng.tc.flush();
    r
}

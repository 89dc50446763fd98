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
//! are split into source/write/trigger classes, every register reference
//! is resolved to a flat index, and the program is segmented into
//! superblocks ([`tta_isa::BlockMap`]). The cycle loop then dispatches a
//! superblock at a time: the fuel check, the pc bounds check and the
//! delay-slot bookkeeping happen once per block entry, and the interior of
//! a block runs as a tight loop over the contiguous per-class move arrays
//! in a monomorphisation whose control arm is compiled out (`CTRL =
//! false` in [`TtaEngine::step`]). Cycle counts, statistics and error
//! behaviour are bit-identical to per-cycle execution; the fuel-exhaustion
//! boundary is pinned by `tests/fuel_boundary.rs`.
//!
//! Hot superblocks are additionally *promoted* into compiled blocks:
//! [`compile_tta_block`] matches every decoded move once and emits flat
//! arrays of resolved thunks ([`TtaOp`] values: one per move, plus cycle
//! boundaries and completion deliveries) with the block's static
//! `SimStats` contribution precomputed. The block is one boxed closure
//! over those arrays, and [`exec_tta_block`] dispatches them with a
//! single `match`, so steady-state execution pays neither the per-move
//! decode match nor the per-move statistics traffic. Completions ride a
//! four-deep wheel (`wheel[cycle & 3]`, valid because every pipelined
//! latency is 1–3 cycles and the wheel is drained every cycle) shared by
//! both tiers, so a block entered with results in flight from interpreted
//! code delivers them on exactly the right cycle.

use crate::profile::{NoProfile, ProfileSink};
use crate::result::{SimError, SimResult, SimStats};
use crate::state::{FlatRf, IoCtx, TRAP_CYCLES};
use crate::tier::TierCounts;
use tta_isa::{BlockMap, MoveDst, MoveSrc, TierEntry, TierTable, TtaInst, RETVAL_ADDR};
use tta_model::io::MMIO_BASE;
use tta_model::{mem, Machine, OpClass, Opcode};

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
    /// Scratch slots for statically scheduled completions of compiled
    /// blocks ([`TtaOp::A1Sc`] etc.), grown on demand at block entry.
    jit_tmp: Vec<i32>,
    memory: Vec<u8>,
    stats: SimStats,
    /// Memory-mapped I/O and interrupt state, present only for reactive
    /// runs ([`crate::run_with_io`]); `None` keeps plain runs untouched.
    io: Option<IoCtx<'a>>,
}

/// The datapath checkpoint a TTA trap must save. A transport-triggered
/// core exposes far more architectural state than a pc: the interrupted
/// schedule's values live in FU operand/result ports and long-immediate
/// registers (software bypassing), so handler entry checkpoints all of
/// them — the paper's argument for why TTA interrupt support is costly.
struct TtaShadow {
    pc: u32,
    pending_jump: Option<(u32, u32)>,
    rf: Vec<i32>,
    fus: Vec<FuSim>,
    immregs: Vec<Option<i32>>,
    /// In-flight completions, indexed by *remaining* latency (0 = due at
    /// the resume cycle). Saved rather than force-landed: landing early
    /// would overwrite result ports the interrupted schedule has not
    /// read yet (software bypassing keeps values live in ports), which
    /// is exactly the exposed-datapath state the paper's trap-cost
    /// argument is about. Re-armed relative to the resume cycle by
    /// [`TtaEngine::iret`].
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

    /// Start an operation on unit `fi`, its result due `lat` cycles out.
    #[inline(always)]
    fn launch(
        &mut self,
        fi: u16,
        lat: u32,
        value: i32,
        cycle: u64,
        pc: u32,
    ) -> Result<(), SimError> {
        if self.fus[fi as usize].live as usize == MAX_INFLIGHT {
            return Err(err_inflight(self.m, fi, pc));
        }
        self.fus[fi as usize].live += 1;
        debug_assert!(
            (1..=3).contains(&lat),
            "completion wheel covers latencies 1..=3"
        );
        self.wheel[((cycle + lat as u64) & 3) as usize].push((fi, value));
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
        self.stats.branches_taken += 1;
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
        self.stats.instructions += 1;
        sink.retire(pc);

        // (2) Sample sources.
        for (vi, src) in dec.srcs[inst.srcs.0 as usize..inst.srcs.1 as usize]
            .iter()
            .enumerate()
        {
            let v = match *src {
                DecSrc::Rf(i) => {
                    self.stats.rf_reads += 1;
                    self.rf.vals[i as usize]
                }
                DecSrc::FuResult(f) => {
                    self.stats.bypass_reads += 1;
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
            self.stats.payload += 1;
        }

        // (3) Apply operand-port and RF writes.
        for &(vi, w) in &dec.writes[inst.writes.0 as usize..inst.writes.1 as usize] {
            let v = self.values[vi as usize];
            match w {
                DecWrite::Rf(i) => {
                    self.stats.rf_writes += 1;
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
                    self.launch(trig.fu, op.latency(), result, cycle, pc)?;
                }
                OpClass::Lsu => {
                    if op.is_load() {
                        self.stats.loads += 1;
                        let v = self.mem_load(op, trig_v as u32, cycle)?;
                        self.launch(trig.fu, op.latency(), v, cycle, pc)?;
                    } else {
                        self.stats.stores += 1;
                        let operand = self.fus[trig.fu as usize].operand;
                        self.mem_store(op, trig_v as u32, operand, cycle)?;
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
            self.stats.limms += 1;
            self.immregs[k as usize] = Some(v);
        }
        Ok(halt)
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

    /// Memory load routing: data memory on the fast path, the MMIO bus
    /// for addresses at or above [`MMIO_BASE`] when the run has an I/O
    /// system. Routing keys off the data-memory fault, so io-less runs
    /// pay nothing.
    #[inline(always)]
    fn mem_load(&mut self, op: Opcode, addr: u32, now: u64) -> Result<i32, SimError> {
        match mem::load(&self.memory, op, addr) {
            Ok(v) => Ok(v),
            Err(e) => match &mut self.io {
                Some(ctx) if addr >= MMIO_BASE => Ok(ctx.sys.load(op, addr, now)?),
                _ => Err(e.into()),
            },
        }
    }

    /// Memory store routing (see [`TtaEngine::mem_load`]).
    #[inline(always)]
    fn mem_store(&mut self, op: Opcode, addr: u32, value: i32, now: u64) -> Result<(), SimError> {
        match mem::store(&mut self.memory, op, addr, value) {
            Ok(()) => Ok(()),
            Err(e) => match &mut self.io {
                Some(ctx) if addr >= MMIO_BASE => Ok(ctx.sys.store(op, addr, value, now)?),
                _ => Err(e.into()),
            },
        }
    }

    /// The per-block-entry I/O boundary: latch risen lines, then either
    /// deliver a pending interrupt (returning `None` — the caller loops
    /// back so its entry checks re-run at the handler pc) or report how
    /// many cycles may safely run before the next boundary.
    ///
    /// Handler entry is the TTA's architecturally expensive trap: the
    /// interrupted transport schedule owns the buses, so the core first
    /// drains every in-flight function-unit result (one cycle per
    /// residual wheel slot, fuel-checked), checkpoints the exposed
    /// datapath, and only then pays the fixed redirect cost.
    fn io_boundary(
        &mut self,
        pc: &mut u32,
        cycle: &mut u64,
        fuel: u64,
        pending_jump: &mut Option<(u32, u32)>,
        shadow: &mut Option<TtaShadow>,
    ) -> Result<Option<u64>, SimError> {
        let (line, entry) = match &mut self.io {
            None => return Ok(Some(u64::MAX)),
            Some(ctx) => {
                ctx.sys.poll(*cycle);
                match (ctx.sys.deliverable(), ctx.irq_entry) {
                    (Some(line), Some(entry)) => (line, entry),
                    _ => return Ok(Some(ctx.sys.window(*cycle))),
                }
            }
        };
        // The core still *waits* for the last in-flight result (one cycle
        // per residual wheel step, fuel-checked) — that is the trap's
        // drain cost — but the completions themselves are checkpointed
        // with their remaining latencies instead of landed: an early
        // landing would clobber result ports whose current values the
        // interrupted schedule still reads (fuzz seed 2604).
        let mut wheel: [Vec<(u16, i32)>; 4] = Default::default();
        let mut drain = 0u64;
        for b in 0..4usize {
            if self.wheel[b].is_empty() {
                continue;
            }
            let rel = (b as u64).wrapping_sub(*cycle) & 3;
            drain = drain.max(rel + 1);
            wheel[rel as usize] = std::mem::take(&mut self.wheel[b]);
        }
        for _ in 0..drain {
            if *cycle >= fuel {
                return Err(SimError::OutOfFuel);
            }
            *cycle += 1;
            self.stats.irq_cycles += 1;
        }
        // The checkpoint keeps the in-flight `live` counts (the restored
        // wheel will decrement them on delivery); the handler starts from
        // idle units, so drop them on the engine's own view.
        let inflight: Vec<u16> = wheel.iter().flatten().map(|&(fi, _)| fi).collect();
        *shadow = Some(TtaShadow {
            pc: *pc,
            pending_jump: pending_jump.take(),
            rf: self.rf.vals.clone(),
            fus: self.fus.clone(),
            immregs: self.immregs.clone(),
            wheel,
        });
        for fi in inflight {
            self.fus[fi as usize].live -= 1;
        }
        let ctx = self.io.as_mut().expect("io presence checked above");
        ctx.sys.begin_delivery(line);
        self.stats.irqs += 1;
        *pc = entry;
        *cycle += TRAP_CYCLES;
        self.stats.irq_cycles += TRAP_CYCLES;
        Ok(None)
    }

    /// Retire a halting handler: consume the end-of-interrupt doorbell
    /// if one is latched and restore the checkpointed datapath (leftover
    /// handler completions are discarded with the wheel). Returns whether
    /// the halt that reached the caller was a handler return rather than
    /// the program's end.
    fn iret(
        &mut self,
        pc: &mut u32,
        cycle: &mut u64,
        pending_jump: &mut Option<(u32, u32)>,
        shadow: &mut Option<TtaShadow>,
    ) -> Result<bool, SimError> {
        let Some(ctx) = &mut self.io else {
            return Ok(false);
        };
        if !ctx.sys.take_eoi() {
            return Ok(false);
        }
        ctx.sys.finish_handler();
        let sh = shadow
            .take()
            .ok_or_else(|| SimError::Machine("end-of-interrupt without a saved context".into()))?;
        for b in &mut self.wheel {
            b.clear();
        }
        self.rf.vals = sh.rf;
        self.fus = sh.fus;
        self.immregs = sh.immregs;
        *pc = sh.pc;
        *pending_jump = sh.pending_jump;
        *cycle += TRAP_CYCLES;
        self.stats.irq_cycles += TRAP_CYCLES;
        // Re-arm the checkpointed in-flight completions relative to the
        // resume cycle: an entry saved with remaining latency `rel` lands
        // `rel` cycles after execution resumes, exactly where the
        // interrupted schedule expects it.
        for (rel, entries) in sh.wheel.into_iter().enumerate() {
            if !entries.is_empty() {
                self.wheel[(*cycle as usize + rel) & 3] = entries;
            }
        }
        Ok(true)
    }

    /// Build the final [`SimResult`] at the halt cycle, folding the I/O
    /// system's counters and device-output stream into it.
    fn finish(mut self, cycles: u64) -> Result<SimResult, SimError> {
        let ret = mem::load(&self.memory, Opcode::Ldw, RETVAL_ADDR)?;
        let mut uart_tx = Vec::new();
        if let Some(ctx) = &self.io {
            self.stats.mmio_loads = ctx.sys.mmio_loads;
            self.stats.mmio_stores = ctx.sys.mmio_stores();
            uart_tx = ctx.sys.uart_tx();
        }
        Ok(SimResult {
            cycles,
            ret,
            memory: self.memory,
            stats: self.stats,
            uart_tx,
        })
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

    /// Place a value in a unit's result port directly (a statically
    /// scheduled completion — the wheel was bypassed at promotion time).
    #[inline(always)]
    unsafe fn set_result(&mut self, f: u16, v: i32) {
        debug_assert!((f as usize) < self.fus.len());
        unsafe { self.fus.get_unchecked_mut(f as usize).result = Some(v) }
    }

    /// Whether no completion is in flight (all wheel buckets empty) —
    /// the clean-entry precondition of a block's fast variant.
    #[inline(always)]
    fn wheel_is_empty(&self) -> bool {
        self.wheel.iter().all(|b| b.is_empty())
    }

    /// [`TtaEngine::launch`] without the unit-index bounds check (the
    /// in-flight budget check stays — it is real error semantics).
    #[inline(always)]
    unsafe fn launch_fast(
        &mut self,
        fi: u16,
        op: Opcode,
        value: i32,
        cycle: u64,
        pc: u32,
    ) -> Result<(), SimError> {
        debug_assert!((fi as usize) < self.fus.len());
        let fu = unsafe { self.fus.get_unchecked_mut(fi as usize) };
        if fu.live as usize == MAX_INFLIGHT {
            return Err(err_inflight(self.m, fi, pc));
        }
        fu.live += 1;
        let lat = op.latency();
        debug_assert!(
            (1..=3).contains(&lat),
            "completion wheel covers latencies 1..=3"
        );
        self.wheel[((cycle + lat as u64) & 3) as usize].push((fi, value));
        Ok(())
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

/// A resolved value source in a compiled block, carried by the
/// scratch-launch and control thunks; every other thunk flattens the
/// source kind into its variant instead.
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

/// One thunk of a compiled superblock: a decoded move with its opcode
/// match, register resolution and value routing already performed, and
/// the source kind flattened into the variant so dispatch is a single
/// jump. Instruction boundaries are explicit (`Next`/`NextD` advance the
/// cycle, `NextD` also delivering completions), so fuel accounting stays
/// exact. Adjacent thunks are not fused into mega-ops (DESIGN.md §14,
/// "Why no fusion").
#[derive(Debug, Clone, Copy)]
enum TtaOp {
    /// End of one instruction: advance `pc`/`cycle`. Emitted only for
    /// cycles whose wheel bucket is provably empty (static scheduling
    /// routed every intra-block landing through [`TtaOp::DeliverS`] or a
    /// direct launch), so it performs no delivery at all.
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
    /// Direct-launch ALU/load triggers: promotion-time scheduling proved
    /// the landing cycle is inside the block with no intervening read of
    /// the unit's result port, so the result is placed directly and the
    /// completion wheel is bypassed entirely.
    A1DRf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    A1DImm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    A1DFu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    A1DIr {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    A2DRf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    A2DImm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    A2DFu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    A2DIr {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    LdDRf {
        s: u32,
        fu: u16,
        op: Opcode,
    },
    LdDImm {
        v: i32,
        fu: u16,
        op: Opcode,
    },
    LdDFu {
        s: u16,
        fu: u16,
        op: Opcode,
    },
    LdDIr {
        k: u8,
        fu: u16,
        op: Opcode,
    },
    /// Scratch-launch: the landing is intra-block but the old port value
    /// is still read before it — compute now into a scratch slot,
    /// surfaced at the landing cycle by [`TtaOp::DeliverS`].
    A1Sc {
        src: Src,
        slot: u16,
        op: Opcode,
    },
    A2Sc {
        src: Src,
        fu: u16,
        slot: u16,
        op: Opcode,
    },
    LdSc {
        src: Src,
        slot: u16,
        op: Opcode,
    },
    /// Phase 1 of a statically scheduled landing cycle: move a scratch
    /// slot into the unit's result port.
    DeliverS {
        slot: u16,
        fu: u16,
    },
    /// [`TtaOp::Next`] plus completion delivery, for cycles the wheel
    /// can still be non-empty (entry in-flight lands in the first three
    /// cycles; in-block wheel launches land at recorded cycles).
    NextD,
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
/// jump, fuel covers the whole run).
pub(crate) type TtaBlockFn = Box<
    dyn for<'e> Fn(&mut TtaEngine<'e>, u64, &mut Option<(u32, u32)>) -> Result<bool, SimError>
        + Send
        + Sync,
>;

/// Compiled-tier state of one TTA program: whole superblocks, plus the
/// delay-slot segments that execute on the fall-through path of a taken
/// jump. Without the second table every taken branch costs
/// `jump_delay_slots` interpreted cycles — the dominant residual
/// interpreter time in branchy kernels. A delay segment is the head of
/// the fall-through run clamped to the remaining delay budget, so it is
/// keyed by pc like a block but compiled for its own (shorter) length,
/// stored alongside it.
pub(crate) struct TtaTiers {
    pub(crate) main: TierTable<TtaBlockFn>,
    pub(crate) delay: TierTable<(u32, TtaBlockFn)>,
}

impl TtaTiers {
    pub(crate) fn new(len: usize, threshold: u32) -> TtaTiers {
        TtaTiers {
            main: TierTable::new(len, threshold),
            delay: TierTable::new(len, threshold),
        }
    }

    pub(crate) fn compiled_count(&self) -> usize {
        self.main.compiled_count() + self.delay.compiled_count()
    }
}

/// Execute a compiled block: straight-line thunk dispatch with the
/// block's static statistics applied once at the end.
#[allow(clippy::too_many_arguments)]
fn exec_tta_block(
    ops: &[TtaOp],
    delta: &SimStats,
    dims: Dims,
    scratch: u16,
    deliver_entry: bool,
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
    if eng.jit_tmp.len() < scratch as usize {
        eng.jit_tmp.resize(scratch as usize, 0);
    }
    let mut pc = pc0;
    let mut cycle = cycle0;
    let mut halt = false;
    if deliver_entry {
        eng.deliver(cycle)?;
    }
    for op in ops {
        // SAFETY: every register, unit, long-immediate-register and
        // scratch index in `ops` was validated against `dims`/`scratch`
        // at promotion time, and the engine was checked against both on
        // entry above.
        unsafe {
            match *op {
                TtaOp::Next => {
                    pc += 1;
                    cycle += 1;
                }
                TtaOp::NextD => {
                    pc += 1;
                    cycle += 1;
                    eng.deliver(cycle)?;
                }
                TtaOp::DeliverS { slot, fu } => {
                    let v = *eng.jit_tmp.get_unchecked(slot as usize);
                    eng.set_result(fu, v);
                }
                TtaOp::A1DRf { s, fu, op } => {
                    let v = eng.rf_get(s);
                    eng.set_result(fu, op.eval_alu(v, 0));
                }
                TtaOp::A1DImm { v, fu, op } => eng.set_result(fu, op.eval_alu(v, 0)),
                TtaOp::A1DFu { s, fu, op } => {
                    let v = eng.result(s, pc)?;
                    eng.set_result(fu, op.eval_alu(v, 0));
                }
                TtaOp::A1DIr { k, fu, op } => {
                    let v = eng.immreg(k, pc)?;
                    eng.set_result(fu, op.eval_alu(v, 0));
                }
                TtaOp::A2DRf { s, fu, op } => {
                    let v = eng.rf_get(s);
                    let a = eng.operand(fu);
                    eng.set_result(fu, op.eval_alu(a, v));
                }
                TtaOp::A2DImm { v, fu, op } => {
                    let a = eng.operand(fu);
                    eng.set_result(fu, op.eval_alu(a, v));
                }
                TtaOp::A2DFu { s, fu, op } => {
                    let v = eng.result(s, pc)?;
                    let a = eng.operand(fu);
                    eng.set_result(fu, op.eval_alu(a, v));
                }
                TtaOp::A2DIr { k, fu, op } => {
                    let v = eng.immreg(k, pc)?;
                    let a = eng.operand(fu);
                    eng.set_result(fu, op.eval_alu(a, v));
                }
                TtaOp::LdDRf { s, fu, op } => {
                    let addr = eng.rf_get(s) as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    eng.set_result(fu, v);
                }
                TtaOp::LdDImm { v, fu, op } => {
                    let v = eng.mem_load(op, v as u32, cycle)?;
                    eng.set_result(fu, v);
                }
                TtaOp::LdDFu { s, fu, op } => {
                    let addr = eng.result(s, pc)? as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    eng.set_result(fu, v);
                }
                TtaOp::LdDIr { k, fu, op } => {
                    let addr = eng.immreg(k, pc)? as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    eng.set_result(fu, v);
                }
                TtaOp::A1Sc { src, slot, op } => {
                    let v = src.read(eng, pc)?;
                    *eng.jit_tmp.get_unchecked_mut(slot as usize) = op.eval_alu(v, 0);
                }
                TtaOp::A2Sc { src, fu, slot, op } => {
                    let v = src.read(eng, pc)?;
                    let a = eng.operand(fu);
                    *eng.jit_tmp.get_unchecked_mut(slot as usize) = op.eval_alu(a, v);
                }
                TtaOp::LdSc { src, slot, op } => {
                    let addr = src.read(eng, pc)? as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    *eng.jit_tmp.get_unchecked_mut(slot as usize) = v;
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
                    eng.launch_fast(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A1Imm { v, fu, op } => {
                    eng.launch_fast(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A1Fu { s, fu, op } => {
                    let v = eng.result(s, pc)?;
                    eng.launch_fast(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A1Ir { k, fu, op } => {
                    let v = eng.immreg(k, pc)?;
                    eng.launch_fast(fu, op, op.eval_alu(v, 0), cycle, pc)?;
                }
                TtaOp::A2Rf { s, fu, op } => {
                    let v = eng.rf_get(s);
                    let a = eng.operand(fu);
                    eng.launch_fast(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::A2Imm { v, fu, op } => {
                    let a = eng.operand(fu);
                    eng.launch_fast(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::A2Fu { s, fu, op } => {
                    let v = eng.result(s, pc)?;
                    let a = eng.operand(fu);
                    eng.launch_fast(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::A2Ir { k, fu, op } => {
                    let v = eng.immreg(k, pc)?;
                    let a = eng.operand(fu);
                    eng.launch_fast(fu, op, op.eval_alu(a, v), cycle, pc)?;
                }
                TtaOp::LdRf { s, fu, op } => {
                    let addr = eng.rf_get(s) as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    eng.launch_fast(fu, op, v, cycle, pc)?;
                }
                TtaOp::LdImm { v, fu, op } => {
                    let v = eng.mem_load(op, v as u32, cycle)?;
                    eng.launch_fast(fu, op, v, cycle, pc)?;
                }
                TtaOp::LdFu { s, fu, op } => {
                    let addr = eng.result(s, pc)? as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    eng.launch_fast(fu, op, v, cycle, pc)?;
                }
                TtaOp::LdIr { k, fu, op } => {
                    let addr = eng.immreg(k, pc)? as u32;
                    let v = eng.mem_load(op, addr, cycle)?;
                    eng.launch_fast(fu, op, v, cycle, pc)?;
                }
                TtaOp::StRf { s, fu, op } => {
                    let addr = eng.rf_get(s) as u32;
                    let v = eng.operand(fu);
                    eng.mem_store(op, addr, v, cycle)?;
                }
                TtaOp::StImm { v: addr, fu, op } => {
                    let v = eng.operand(fu);
                    eng.mem_store(op, addr as u32, v, cycle)?;
                }
                TtaOp::StFu { s, fu, op } => {
                    let addr = eng.result(s, pc)? as u32;
                    let v = eng.operand(fu);
                    eng.mem_store(op, addr, v, cycle)?;
                }
                TtaOp::StIr { k, fu, op } => {
                    let addr = eng.immreg(k, pc)? as u32;
                    let v = eng.operand(fu);
                    eng.mem_store(op, addr, v, cycle)?;
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
    eng.stats.accumulate(delta);
    Ok(halt)
}

/// Trigger kind of a compile-time trigger record.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TrigKind {
    Alu1,
    Alu2,
    Load,
    Store,
}

/// Compile-time record of one data trigger move.
#[derive(Debug, Clone, Copy)]
struct CTrig {
    src: Src,
    fu: u16,
    op: Opcode,
    kind: TrigKind,
}

impl CTrig {
    /// Dynamic launch through the completion wheel (the reference path).
    fn wheel_op(&self) -> TtaOp {
        let (fu, op) = (self.fu, self.op);
        match (self.kind, self.src) {
            (TrigKind::Alu1, Src::Rf(s)) => TtaOp::A1Rf { s, fu, op },
            (TrigKind::Alu1, Src::Imm(v)) => TtaOp::A1Imm { v, fu, op },
            (TrigKind::Alu1, Src::Fu(s)) => TtaOp::A1Fu { s, fu, op },
            (TrigKind::Alu1, Src::ImmReg(k)) => TtaOp::A1Ir { k, fu, op },
            (TrigKind::Alu2, Src::Rf(s)) => TtaOp::A2Rf { s, fu, op },
            (TrigKind::Alu2, Src::Imm(v)) => TtaOp::A2Imm { v, fu, op },
            (TrigKind::Alu2, Src::Fu(s)) => TtaOp::A2Fu { s, fu, op },
            (TrigKind::Alu2, Src::ImmReg(k)) => TtaOp::A2Ir { k, fu, op },
            (TrigKind::Load, Src::Rf(s)) => TtaOp::LdRf { s, fu, op },
            (TrigKind::Load, Src::Imm(v)) => TtaOp::LdImm { v, fu, op },
            (TrigKind::Load, Src::Fu(s)) => TtaOp::LdFu { s, fu, op },
            (TrigKind::Load, Src::ImmReg(k)) => TtaOp::LdIr { k, fu, op },
            (TrigKind::Store, Src::Rf(s)) => TtaOp::StRf { s, fu, op },
            (TrigKind::Store, Src::Imm(v)) => TtaOp::StImm { v, fu, op },
            (TrigKind::Store, Src::Fu(s)) => TtaOp::StFu { s, fu, op },
            (TrigKind::Store, Src::ImmReg(k)) => TtaOp::StIr { k, fu, op },
        }
    }

    /// Statically scheduled launch: place the result in the port now
    /// (sound only when no one reads the port before the landing cycle).
    fn direct_op(&self) -> TtaOp {
        let (fu, op) = (self.fu, self.op);
        match (self.kind, self.src) {
            (TrigKind::Alu1, Src::Rf(s)) => TtaOp::A1DRf { s, fu, op },
            (TrigKind::Alu1, Src::Imm(v)) => TtaOp::A1DImm { v, fu, op },
            (TrigKind::Alu1, Src::Fu(s)) => TtaOp::A1DFu { s, fu, op },
            (TrigKind::Alu1, Src::ImmReg(k)) => TtaOp::A1DIr { k, fu, op },
            (TrigKind::Alu2, Src::Rf(s)) => TtaOp::A2DRf { s, fu, op },
            (TrigKind::Alu2, Src::Imm(v)) => TtaOp::A2DImm { v, fu, op },
            (TrigKind::Alu2, Src::Fu(s)) => TtaOp::A2DFu { s, fu, op },
            (TrigKind::Alu2, Src::ImmReg(k)) => TtaOp::A2DIr { k, fu, op },
            (TrigKind::Load, Src::Rf(s)) => TtaOp::LdDRf { s, fu, op },
            (TrigKind::Load, Src::Imm(v)) => TtaOp::LdDImm { v, fu, op },
            (TrigKind::Load, Src::Fu(s)) => TtaOp::LdDFu { s, fu, op },
            (TrigKind::Load, Src::ImmReg(k)) => TtaOp::LdDIr { k, fu, op },
            (TrigKind::Store, _) => unreachable!("stores produce no result"),
        }
    }

    /// Statically scheduled launch through a scratch slot (the port is
    /// still read before the landing cycle, so the old value must stay).
    fn scratch_op(&self, slot: u16) -> TtaOp {
        match self.kind {
            TrigKind::Alu1 => TtaOp::A1Sc {
                src: self.src,
                slot,
                op: self.op,
            },
            TrigKind::Alu2 => TtaOp::A2Sc {
                src: self.src,
                fu: self.fu,
                slot,
                op: self.op,
            },
            TrigKind::Load => TtaOp::LdSc {
                src: self.src,
                slot,
                op: self.op,
            },
            TrigKind::Store => unreachable!("stores produce no result"),
        }
    }
}

/// Compile-time record of one instruction (= one cycle) of a superblock.
#[derive(Debug, Default)]
struct CInst {
    /// Flat move thunks (identical in every emitted variant).
    moves: Vec<TtaOp>,
    /// Data triggers, form decided per variant by the static scheduler.
    trigs: Vec<CTrig>,
    /// Control thunks (terminal instruction only).
    ctrl: Vec<TtaOp>,
    limm: Option<TtaOp>,
    /// Same-cycle hazard: run the whole instruction phase-ordered.
    phased: Option<TtaOp>,
}

/// One launch found while building a block: trigger `ti` of instruction
/// `ci` starts `fu`'s pipeline at relative cycle `ci`, landing at `land`.
#[derive(Debug, Clone, Copy)]
struct Launch {
    ci: u32,
    ti: u32,
    fu: u16,
    land: u32,
}

/// Launch form chosen by the static completion scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Wheel,
    Direct,
    Scratch(u16),
}

/// Emit one executable variant of a block. `assume_clean` encodes the
/// fast variant's precondition (no in-flight completion at entry):
/// every intra-block landing may then be scheduled statically and no
/// cycle delivers from the wheel. The conservative variant keeps wheel
/// semantics for the first three cycles (entry in-flight lands there)
/// and for every recorded in-block wheel landing. `wheel_only` disables
/// static scheduling entirely (phased instructions launch dynamically,
/// and same-unit landing collisions must fault through the wheel).
fn emit_tta_variant(
    cinsts: &[CInst],
    reads: &[(u32, u16)],
    launches: &[Launch],
    len: u32,
    assume_clean: bool,
    wheel_only: bool,
) -> (Box<[TtaOp]>, u16) {
    let mut forms: Vec<Vec<Form>> = cinsts
        .iter()
        .map(|ci| vec![Form::Wheel; ci.trigs.len()])
        .collect();
    let mut delivers: Vec<Vec<(u16, u16)>> = vec![Vec::new(); len as usize];
    let mut wheel_lands = vec![false; len as usize];
    let mut scratch: u16 = 0;
    for l in launches {
        if wheel_only {
            if l.land < len {
                wheel_lands[l.land as usize] = true;
            }
            continue;
        }
        let eligible = l.land < len && (assume_clean || l.ci >= 3);
        if !eligible {
            if l.land < len {
                wheel_lands[l.land as usize] = true;
            }
            continue;
        }
        // The port holds its previous value until the landing cycle; a
        // read in between (including the launch cycle itself — thunks
        // execute in emission order, not phase order) keeps that value
        // live, so the completion must park in a scratch slot.
        let port_read = reads
            .iter()
            .any(|&(u, f)| f == l.fu && u >= l.ci && u < l.land);
        forms[l.ci as usize][l.ti as usize] = if port_read {
            let slot = scratch;
            scratch += 1;
            delivers[l.land as usize].push((slot, l.fu));
            Form::Scratch(slot)
        } else {
            Form::Direct
        };
    }

    let mut ops: Vec<TtaOp> = Vec::new();
    for c in 0..len {
        if c > 0 {
            // Cycles that can still see a wheel delivery: the first
            // three (entry in-flight) in conservative variants, every
            // cycle in wheel-only blocks, plus recorded wheel landings.
            let dirty = wheel_lands[c as usize] || (!assume_clean && (wheel_only || c <= 3));
            ops.push(if dirty { TtaOp::NextD } else { TtaOp::Next });
        }
        for &(slot, fu) in &delivers[c as usize] {
            ops.push(TtaOp::DeliverS { slot, fu });
        }
        let inst = &cinsts[c as usize];
        if let Some(p) = inst.phased {
            ops.push(p);
            continue;
        }
        ops.extend_from_slice(&inst.moves);
        for (ti, trig) in inst.trigs.iter().enumerate() {
            ops.push(match forms[c as usize][ti] {
                Form::Wheel => trig.wheel_op(),
                Form::Direct => trig.direct_op(),
                Form::Scratch(slot) => trig.scratch_op(slot),
            });
        }
        ops.extend_from_slice(&inst.ctrl);
        if let Some(l) = inst.limm {
            ops.push(l);
        }
    }
    (ops.into_boxed_slice(), scratch)
}

/// Compile the superblock `[pc0, pc0 + len)` into one boxed closure over
/// arrays of resolved thunks. Each decoded move is matched exactly once,
/// here; per-move statistics are folded into a static per-block delta
/// (taken branches stay dynamic, and hazardous instructions fall back to
/// the reference phase order with their statistics excluded from the
/// delta). Every emitted register/unit/limm-register index is asserted
/// against `dims`, which licenses the unchecked accesses of
/// [`exec_tta_block`].
///
/// Completions are scheduled statically where the block structure allows
/// (see [`emit_tta_variant`]); the block carries two emitted variants
/// and picks per entry: the fast one when no completion is in flight,
/// the conservative one otherwise.
fn compile_tta_block(dec: &Decoded, dims: Dims, pc0: u32, len: u32) -> TtaBlockFn {
    let mut cinsts: Vec<CInst> = Vec::with_capacity(len as usize);
    let mut delta = SimStats::default();
    // Result-port reads as (relative cycle, unit) and pipeline launches,
    // for the static completion scheduler.
    let mut reads: Vec<(u32, u16)> = Vec::new();
    let mut launches: Vec<Launch> = Vec::new();
    let mut any_phased = false;
    for i in 0..len {
        let pc = pc0 + i;
        let terminal = i + 1 == len;
        let inst = dec.insts[pc as usize];
        let srcs = &dec.srcs[inst.srcs.0 as usize..inst.srcs.1 as usize];
        let writes = &dec.writes[inst.writes.0 as usize..inst.writes.1 as usize];
        let trigs = &dec.trigs[inst.trigs.0 as usize..inst.trigs.1 as usize];

        let mut ci = CInst::default();
        let mut d = SimStats::default();
        d.instructions += 1;
        // Registers written so far by this instruction (in emission
        // order). The reference engine samples every source before any
        // write applies; per-move thunks apply writes as they go, so any
        // read of an already-written register is a same-cycle hazard.
        let mut written: Vec<u32> = Vec::new();
        let mut hazard = false;
        // Thunks apply register writes in emission order, so a source is
        // hazardous iff its register was written by a move emitted before
        // it: for write moves that is any earlier write, for triggers
        // (emitted after every write) any write of the instruction.
        let mut resolve = |s: DecSrc, written: &[u32], d: &mut SimStats, hazard: &mut bool| match s
        {
            DecSrc::Rf(r) => {
                assert!((r as usize) < dims.rf, "decoded register out of range");
                d.rf_reads += 1;
                if written.contains(&r) {
                    *hazard = true;
                }
                Src::Rf(r)
            }
            DecSrc::FuResult(f) => {
                assert!((f as usize) < dims.fus, "decoded unit out of range");
                d.bypass_reads += 1;
                reads.push((i, f));
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

        for &(vi, w) in writes {
            d.payload += 1;
            let s = resolve(srcs[vi as usize], &written, &mut d, &mut hazard);
            match w {
                DecWrite::Rf(r) => {
                    assert!((r as usize) < dims.rf, "decoded register out of range");
                    d.rf_writes += 1;
                    written.push(r);
                    ci.moves.push(match s {
                        Src::Rf(si) => TtaOp::RfRf { s: si, d: r },
                        Src::Imm(v) => TtaOp::RfImm { v, d: r },
                        Src::Fu(f) => TtaOp::RfFu { f, d: r },
                        Src::ImmReg(k) => TtaOp::RfIr { k, d: r },
                    });
                }
                DecWrite::FuOperand(f) => {
                    let f = check_fu(f);
                    ci.moves.push(match s {
                        Src::Rf(si) => TtaOp::OpRf { s: si, f },
                        Src::Imm(v) => TtaOp::OpImm { v, f },
                        Src::Fu(sf) => TtaOp::OpFu { s: sf, f },
                        Src::ImmReg(k) => TtaOp::OpIr { k, f },
                    });
                }
            }
        }
        for trig in trigs {
            d.payload += 1;
            let s = resolve(srcs[trig.vi as usize], &written, &mut d, &mut hazard);
            let op = trig.op;
            let fu = check_fu(trig.fu);
            match op.class() {
                OpClass::Alu | OpClass::Lsu => {
                    let kind = match op.class() {
                        OpClass::Alu if op.num_inputs() == 1 => TrigKind::Alu1,
                        OpClass::Alu => TrigKind::Alu2,
                        _ if op.is_load() => TrigKind::Load,
                        _ => TrigKind::Store,
                    };
                    match kind {
                        TrigKind::Load => d.loads += 1,
                        TrigKind::Store => d.stores += 1,
                        _ => {}
                    }
                    if kind != TrigKind::Store {
                        launches.push(Launch {
                            ci: i,
                            ti: ci.trigs.len() as u32,
                            fu,
                            land: i + op.latency(),
                        });
                    }
                    ci.trigs.push(CTrig {
                        src: s,
                        fu,
                        op,
                        kind,
                    });
                }
                OpClass::Ctrl => ci.ctrl.push(match op {
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
                }),
            }
        }
        if let Some((k, v)) = inst.limm {
            assert!(
                (k as usize) < dims.immregs,
                "decoded limm register out of range"
            );
            d.limms += 1;
            ci.limm = Some(TtaOp::Limm { k, v });
        }

        if hazard {
            // Reference phase order for this one instruction; its stats
            // are charged live by `exec_inst`, so keep them out of the
            // static delta. Its launches and port reads are dynamic, so
            // the whole block must keep wheel semantics.
            any_phased = true;
            ci.phased = Some(if terminal {
                TtaOp::PhasedCtrl { pc }
            } else {
                TtaOp::Phased { pc }
            });
        } else {
            delta.accumulate(&d);
        }
        cinsts.push(ci);
    }
    // Drop launches of phased instructions (they run through the wheel
    // dynamically) and detect same-unit collisions: two launches of one
    // unit in the same cycle, or landing in the same in-block cycle,
    // must fault (or interleave) exactly as the reference wheel does.
    launches.retain(|l| cinsts[l.ci as usize].phased.is_none());
    let collision = launches.iter().enumerate().any(|(a, la)| {
        launches[..a]
            .iter()
            .any(|lb| lb.fu == la.fu && (lb.ci == la.ci || (lb.land == la.land && la.land < len)))
    });
    let wheel_only = any_phased || collision;

    let (cons_ops, cons_scratch) =
        emit_tta_variant(&cinsts, &reads, &launches, len, false, wheel_only);
    if wheel_only {
        return Box::new(move |eng, cycle0, pending_jump| {
            exec_tta_block(
                &cons_ops,
                &delta,
                dims,
                cons_scratch,
                true,
                eng,
                pc0,
                cycle0,
                pending_jump,
            )
        });
    }
    let (fast_ops, fast_scratch) = emit_tta_variant(&cinsts, &reads, &launches, len, true, false);
    Box::new(move |eng, cycle0, pending_jump| {
        if eng.wheel_is_empty() {
            exec_tta_block(
                &fast_ops,
                &delta,
                dims,
                fast_scratch,
                false,
                eng,
                pc0,
                cycle0,
                pending_jump,
            )
        } else {
            exec_tta_block(
                &cons_ops,
                &delta,
                dims,
                cons_scratch,
                true,
                eng,
                pc0,
                cycle0,
                pending_jump,
            )
        }
    })
}

/// The TTA engine behind [`crate::run`] and friends: one superblock per
/// outer-loop iteration, monomorphised over the profile sink. `tier`, if
/// present, is the promotion table of the compiled tier — consulted only
/// on unclamped block entries and only for passive sinks.
pub(crate) fn run_tta_with<S: ProfileSink>(
    m: &Machine,
    program: &[TtaInst],
    memory: Vec<u8>,
    fuel: u64,
    sink: &mut S,
    tier: Option<&TtaTiers>,
    io: Option<IoCtx<'_>>,
) -> Result<SimResult, SimError> {
    let mut tc = TierCounts::default();
    let r = run_tta_inner(m, program, memory, fuel, sink, tier, io, &mut tc);
    tc.flush();
    r
}

#[allow(clippy::too_many_arguments)]
fn run_tta_inner<S: ProfileSink>(
    m: &Machine,
    program: &[TtaInst],
    memory: Vec<u8>,
    fuel: u64,
    sink: &mut S,
    tier: Option<&TtaTiers>,
    io: Option<IoCtx<'_>>,
    tc: &mut TierCounts,
) -> Result<SimResult, SimError> {
    let rf = FlatRf::new(m);
    let dec = decode(&rf, program);
    let blocks = BlockMap::of_tta(program);
    let mut eng = TtaEngine {
        m,
        dec: &dec,
        fus: vec![FuSim::default(); m.funits.len()],
        wheel: Default::default(),
        rf,
        immregs: vec![None; m.limm.imm_regs as usize],
        values: vec![0; dec.max_moves],
        jit_tmp: Vec::new(),
        memory,
        stats: SimStats::default(),
        io,
    };
    let mut pc: u32 = 0;
    let mut cycle: u64 = 0;
    // (remaining delay slots, target)
    let mut pending_jump: Option<(u32, u32)> = None;
    // Checkpointed context of the interrupted code while a handler runs.
    let mut shadow: Option<TtaShadow> = None;

    loop {
        // Superblock entry: the only place fuel, the pc bound and the
        // delay-slot budget are examined.
        if cycle >= fuel {
            return Err(SimError::OutOfFuel);
        }
        if pc as usize >= dec.insts.len() {
            return Err(SimError::PcOutOfRange(pc));
        }
        // I/O boundary: latch lines and either trap into the handler
        // (re-running the entry checks there) or learn how many cycles
        // may run before the next observable boundary. `u64::MAX` (the
        // io-less constant) clamps nothing below.
        let win =
            match eng.io_boundary(&mut pc, &mut cycle, fuel, &mut pending_jump, &mut shadow)? {
                Some(win) => win,
                None => continue,
            };
        let full = blocks.run_len(pc) as u64;

        // Tier-3 dispatch: an unclamped entry (no pending jump, fuel
        // covers the whole run) of a hot block executes compiled; the
        // fall-through window of a taken jump executes as a compiled
        // delay segment; a clamped entry of a compiled pc falls back
        // to interpreted.
        if S::PASSIVE {
            if let Some(tab) = tier {
                match pending_jump {
                    None if fuel - cycle >= full && win >= full => {
                        let block = match tab.main.entry(pc) {
                            TierEntry::Compiled(b) => Some(b),
                            TierEntry::Promote => {
                                tc.promotions += 1;
                                let dims = Dims {
                                    rf: eng.rf.vals.len(),
                                    fus: eng.fus.len(),
                                    immregs: eng.immregs.len(),
                                };
                                tab.main
                                    .install(pc, compile_tta_block(&dec, dims, pc, full as u32));
                                tab.main.get(pc)
                            }
                            TierEntry::Cold => None,
                        };
                        if let Some(b) = block {
                            tc.entries += 1;
                            let halt = b(&mut eng, cycle, &mut pending_jump)?;
                            pc += full as u32 - 1;
                            cycle += full;
                            if halt {
                                if eng.iret(&mut pc, &mut cycle, &mut pending_jump, &mut shadow)? {
                                    continue;
                                }
                                return eng.finish(cycle);
                            }
                            match pending_jump.take() {
                                Some((0, target)) => pc = target,
                                Some((n, target)) => {
                                    pending_jump = Some((n - 1, target));
                                    pc += 1;
                                }
                                None => pc += 1,
                            }
                            continue;
                        }
                    }
                    Some((k, target)) => {
                        // Delay-slot window: min(k + 1, full) instructions
                        // execute on the fall-through path, then the
                        // redirect (or the run's own terminal, whose
                        // nested control transfer faults identically in
                        // both tiers).
                        let dlen = (k as u64 + 1).min(full);
                        if fuel - cycle >= dlen && win >= dlen {
                            let seg = match tab.delay.entry(pc) {
                                TierEntry::Compiled(s) => Some(s),
                                TierEntry::Promote => {
                                    tc.promotions += 1;
                                    let dims = Dims {
                                        rf: eng.rf.vals.len(),
                                        fus: eng.fus.len(),
                                        immregs: eng.immregs.len(),
                                    };
                                    let b = compile_tta_block(&dec, dims, pc, dlen as u32);
                                    tab.delay.install(pc, (dlen as u32, b));
                                    tab.delay.get(pc)
                                }
                                TierEntry::Cold => None,
                            };
                            // A pc can be entered with different residual
                            // delay budgets; only the length the segment
                            // was compiled for may run it.
                            if let Some(b) = seg.filter(|s| s.0 as u64 == dlen).map(|s| &s.1) {
                                tc.entries += 1;
                                let halt = b(&mut eng, cycle, &mut pending_jump)?;
                                cycle += dlen;
                                if halt {
                                    if eng.iret(
                                        &mut pc,
                                        &mut cycle,
                                        &mut pending_jump,
                                        &mut shadow,
                                    )? {
                                        continue;
                                    }
                                    return eng.finish(cycle);
                                }
                                if dlen < full {
                                    // Pure delay window: ends exactly at
                                    // the redirect.
                                    debug_assert_eq!(dlen, k as u64 + 1);
                                    pending_jump = None;
                                    pc = target;
                                } else {
                                    // The whole run fits in the window:
                                    // its terminal ran; mirror the
                                    // interpreted bookkeeping.
                                    let k2 = k - (dlen as u32 - 1);
                                    if k2 == 0 {
                                        pending_jump = None;
                                        pc = target;
                                    } else {
                                        pending_jump = Some((k2 - 1, target));
                                        pc += dlen as u32;
                                    }
                                }
                                continue;
                            }
                            tc.fallbacks += 1;
                        } else if tab.delay.get(pc).is_some() {
                            tc.fallbacks += 1;
                        }
                    }
                    None => {
                        if tab.main.get(pc).is_some() {
                            tc.fallbacks += 1;
                        }
                    }
                }
            }
        }

        let mut len = full;
        if let Some((k, _)) = pending_jump {
            // k delay slots remain, then the redirect: at most k + 1 more
            // instructions execute on the fall-through path.
            len = len.min(k as u64 + 1);
        }
        len = len.min(fuel - cycle).min(win);
        // Only the run's terminal instruction can carry control triggers,
        // and it is part of this dispatch iff nothing clamped `len`.
        let terminal = len == full;
        let straight = if terminal { len - 1 } else { len };

        for _ in 0..straight {
            eng.step::<S, false>(sink, pc, cycle, &mut pending_jump)?;
            pc += 1;
            cycle += 1;
        }
        // The per-cycle engine decrements the delay-slot count at each
        // cycle's end; batch the `straight` decrements here. A redirect
        // inside the straight portion (straight == k + 1) can only happen
        // when the terminal instruction was clamped away.
        if let Some((k, target)) = pending_jump {
            if k as u64 + 1 == straight {
                pc = target;
                pending_jump = None;
            } else {
                pending_jump = Some((k - straight as u32, target));
            }
        }

        if terminal {
            let halt = eng.step::<S, true>(sink, pc, cycle, &mut pending_jump)?;
            cycle += 1;
            if halt {
                if eng.iret(&mut pc, &mut cycle, &mut pending_jump, &mut shadow)? {
                    continue;
                }
                return eng.finish(cycle);
            }
            // Control transfer bookkeeping for the terminal cycle.
            match pending_jump.take() {
                Some((0, target)) => pc = target,
                Some((n, target)) => {
                    pending_jump = Some((n - 1, target));
                    pc += 1;
                }
                None => pc += 1,
            }
        }
    }
}

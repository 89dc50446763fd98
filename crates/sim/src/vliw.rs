//! Cycle-accurate simulator for the operation-triggered VLIW cores.
//!
//! Matches the timing contract of `tta-compiler::vliw_sched`: a bundle at
//! cycle `t` reads all register operands at `t`, results write back at the
//! end of cycle `t + latency` (becoming readable at `t + latency + 1` —
//! there is no forwarding network, per the paper's synthesised VLIW), long
//! immediates write back at the end of `t + 1`, stores commit at `t`, and
//! control transfers take effect after the machine's delay slots.
//!
//! Write-port overuse and in-flight-jump violations raise
//! [`SimError::Machine`].
//!
//! Bundles are predecoded once per run — empty and `LimmCont` slots are
//! dropped and register references resolved to flat indices — and pending
//! writebacks ride a four-deep wheel indexed by `due & 3` (every
//! writeback latency is 1–3 cycles and the wheel drains every cycle), so
//! the cycle loop performs no heap allocation and no queue scan. Dispatch
//! is fused-block: the outer loop walks one superblock per iteration, so
//! the fuel check, the pc bounds check and the delay-slot bookkeeping run
//! once per block and the interior bundles execute in a monomorphisation
//! without the control arm (see `crate::tta` for the dispatch-loop
//! invariants — the engines share the same structure). There is no
//! compiled tier: the step is already a direct walk over the predecoded
//! slot array, so threaded code measured no faster (DESIGN.md §14).

use crate::profile::ProfileSink;
use crate::result::{SimError, SimResult, SimStats};
use crate::state::{DecOpSrc, FlatRf, IoCtx, NO_DST, TRAP_CYCLES};
use tta_isa::{BlockMap, Operation, VliwBundle, VliwSlot, RETVAL_ADDR};
use tta_model::io::MMIO_BASE;
use tta_model::{mem, Machine, OpClass, Opcode};

#[derive(Debug, Clone, Copy)]
struct Writeback {
    /// Flat register index.
    flat: u32,
    /// Register-file index (write-port accounting).
    rf: u16,
    value: i32,
}

/// One decoded slot: an operation or a long-immediate head. `LimmCont`
/// and empty slots vanish at decode time.
#[derive(Debug, Clone, Copy)]
enum DecSlot {
    Op {
        op: Opcode,
        a: DecOpSrc,
        b: DecOpSrc,
        /// Flat destination index, [`NO_DST`] if the op writes nothing.
        dst: u32,
        /// Destination RF (write-port accounting).
        dst_rf: u16,
    },
    Limm {
        dst: u32,
        dst_rf: u16,
        value: i32,
    },
}

/// One bundle as a range into the flat decoded-slot array.
#[derive(Debug, Clone, Copy)]
struct DecBundle {
    slots: (u32, u32),
}

fn decode(rf: &FlatRf, program: &[VliwBundle]) -> (Vec<DecSlot>, Vec<DecBundle>) {
    let mut slots = Vec::new();
    let mut bundles = Vec::with_capacity(program.len());
    for bundle in program {
        let s0 = slots.len() as u32;
        for slot in &bundle.slots {
            match slot {
                None | Some(VliwSlot::LimmCont) => {}
                Some(VliwSlot::LimmHead { dst, value }) => slots.push(DecSlot::Limm {
                    dst: rf.flat(*dst),
                    dst_rf: dst.rf.0,
                    value: *value,
                }),
                Some(VliwSlot::Op(Operation { op, dst, a, b, .. })) => slots.push(DecSlot::Op {
                    op: *op,
                    a: DecOpSrc::decode(rf, *a),
                    b: DecOpSrc::decode(rf, *b),
                    dst: dst.map_or(NO_DST, |d| rf.flat(d)),
                    dst_rf: dst.map_or(0, |d| d.rf.0),
                }),
            }
        }
        bundles.push(DecBundle {
            slots: (s0, slots.len() as u32),
        });
    }
    (slots, bundles)
}

/// Mutable datapath state of one run, shared by every step of the block
/// dispatch loop.
struct VliwEngine<'a> {
    m: &'a Machine,
    dec_slots: &'a [DecSlot],
    dec_bundles: &'a [DecBundle],
    rf: FlatRf,
    /// Writeback wheel: writebacks due at the end of cycle `c` sit in
    /// `wheel[c & 3]` in issue order. Sound because every writeback
    /// latency is 1..=3 and the wheel drains every cycle.
    wheel: [Vec<Writeback>; 4],
    /// Per-cycle write-port usage, reused across cycles.
    writes_per_rf: Vec<u32>,
    /// Smallest write-port budget over all register files: when ≥ 1 a
    /// single writeback can never overflow a port, enabling the drain
    /// fast path.
    min_write_ports: u32,
    memory: Vec<u8>,
    stats: SimStats,
    /// Memory-mapped I/O and interrupt state, present only for reactive
    /// runs ([`crate::run_with_io`]); `None` keeps plain runs untouched.
    io: Option<IoCtx<'a>>,
}

/// The context a VLIW trap must save. The VLIW's in-flight state is its
/// writeback wheel; the trap drains it first (results commit to the
/// register files), so the checkpoint is pc, the in-flight jump and the
/// register files — cheaper than the TTA's exposed-bus checkpoint.
struct VliwShadow {
    pc: u32,
    pending_jump: Option<(u32, u32)>,
    rf: Vec<i32>,
}

impl VliwEngine<'_> {
    /// Queue a writeback due at the end of `due`.
    #[inline(always)]
    fn enqueue(&mut self, due: u64, flat: u32, rf: u16, value: i32) {
        self.wheel[(due & 3) as usize].push(Writeback { flat, rf, value });
    }

    /// End-of-cycle drain: apply due writebacks, checking port budgets.
    /// Cycle-granular by contract (the write-pressure histogram hangs off
    /// it): the step and the trap drain each call it exactly once per
    /// architectural cycle.
    #[inline(always)]
    fn drain<S: ProfileSink>(&mut self, sink: &mut S, cycle: u64) -> Result<(), SimError> {
        let bucket = (cycle & 3) as usize;
        let n = self.wheel[bucket].len();
        // Fast path: a passive sink needs no pressure histogram, and a
        // single writeback cannot overflow a ≥1-port budget.
        if S::PASSIVE && n <= 1 && self.min_write_ports >= 1 {
            if n == 1 {
                let wb = self.wheel[bucket][0];
                self.wheel[bucket].clear();
                self.stats.rf_writes += 1;
                self.rf.vals[wb.flat as usize] = wb.value;
            }
            return Ok(());
        }
        self.writes_per_rf.fill(0);
        for k in 0..n {
            let wb = self.wheel[bucket][k];
            self.writes_per_rf[wb.rf as usize] += 1;
            self.stats.rf_writes += 1;
            self.rf.vals[wb.flat as usize] = wb.value;
        }
        self.wheel[bucket].clear();
        for (ri, &n) in self.writes_per_rf.iter().enumerate() {
            if n > self.m.rfs[ri].write_ports as u32 {
                return Err(SimError::Machine(format!(
                    "{n} writebacks to {} in cycle {cycle} but only {} ports",
                    self.m.rfs[ri].name, self.m.rfs[ri].write_ports
                )));
            }
        }
        sink.writeback_pressure(&self.writes_per_rf);
        Ok(())
    }

    /// Arm a control transfer.
    #[inline(always)]
    fn take_jump(
        &mut self,
        pc: u32,
        target: u32,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<(), SimError> {
        if pending_jump.is_some() {
            return Err(SimError::Machine(format!(
                "jump during in-flight jump (pc {pc})"
            )));
        }
        self.stats.branches_taken += 1;
        *pending_jump = Some((self.m.jump_delay_slots, target));
        Ok(())
    }

    /// One architectural cycle at `pc`. With `CTRL = false` the caller
    /// guarantees (via the block map) that the bundle issues no control
    /// operation, and the control arm is compiled out of the
    /// monomorphisation. Returns whether the core halted.
    #[inline(always)]
    fn step<S: ProfileSink, const CTRL: bool>(
        &mut self,
        sink: &mut S,
        pc: u32,
        cycle: u64,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<bool, SimError> {
        let bundle = self.dec_bundles[pc as usize];
        self.stats.instructions += 1;
        sink.retire(pc);

        // Execute slots (reads all happen against the pre-cycle RF state:
        // writebacks apply at end of cycle).
        let mut halt = false;
        for si in bundle.slots.0..bundle.slots.1 {
            match self.dec_slots[si as usize] {
                DecSlot::Limm { dst, dst_rf, value } => {
                    self.stats.payload += 1;
                    self.stats.limms += 1;
                    self.enqueue(cycle + 1, dst, dst_rf, value);
                }
                DecSlot::Op {
                    op,
                    a,
                    b,
                    dst,
                    dst_rf,
                } => {
                    self.stats.payload += 1;
                    let va = match a {
                        DecOpSrc::None => None,
                        DecOpSrc::Reg(i) => {
                            self.stats.rf_reads += 1;
                            Some(self.rf.vals[i as usize])
                        }
                        DecOpSrc::Imm(v) => Some(v),
                    };
                    let vb = match b {
                        DecOpSrc::None => None,
                        DecOpSrc::Reg(i) => {
                            self.stats.rf_reads += 1;
                            Some(self.rf.vals[i as usize])
                        }
                        DecOpSrc::Imm(v) => Some(v),
                    };
                    match op.class() {
                        OpClass::Alu => {
                            let r = if op.num_inputs() == 1 {
                                op.eval_alu(vb.unwrap(), 0)
                            } else {
                                op.eval_alu(va.unwrap(), vb.unwrap())
                            };
                            assert!(dst != NO_DST, "ALU op writes a register");
                            self.enqueue(cycle + op.latency() as u64, dst, dst_rf, r);
                        }
                        OpClass::Lsu => {
                            if op.is_load() {
                                self.stats.loads += 1;
                                let v = self.mem_load(op, vb.unwrap() as u32, cycle)?;
                                assert!(dst != NO_DST, "load writes a register");
                                self.enqueue(cycle + op.latency() as u64, dst, dst_rf, v);
                            } else {
                                self.stats.stores += 1;
                                self.mem_store(op, vb.unwrap() as u32, va.unwrap(), cycle)?;
                            }
                        }
                        OpClass::Ctrl if CTRL => match op {
                            Opcode::Halt => halt = true,
                            Opcode::Jump | Opcode::CJnz | Opcode::CJz => {
                                let (taken, target) = match op {
                                    Opcode::Jump => (true, vb.unwrap() as u32),
                                    Opcode::CJnz => (vb.unwrap() != 0, va.unwrap() as u32),
                                    Opcode::CJz => (vb.unwrap() == 0, va.unwrap() as u32),
                                    _ => unreachable!(),
                                };
                                if taken {
                                    self.take_jump(pc, target, pending_jump)?;
                                }
                            }
                            _ => unreachable!(),
                        },
                        OpClass::Ctrl => {
                            unreachable!("control operation inside a superblock interior")
                        }
                    }
                }
            }
        }

        self.drain(sink, cycle)?;
        Ok(halt)
    }

    /// Whether no writeback is in flight (all wheel buckets empty).
    #[inline(always)]
    fn wheel_is_empty(&self) -> bool {
        self.wheel.iter().all(|b| b.is_empty())
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

    /// Memory store routing (see [`VliwEngine::mem_load`]).
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

    /// The per-block-entry I/O boundary (see `TtaEngine::io_boundary` —
    /// same contract). The VLIW trap drains the writeback wheel first
    /// (one cycle per residual bucket, fuel-checked, write-port rules
    /// still enforced), then checkpoints pc, the in-flight jump and the
    /// register files.
    fn io_boundary<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        pc: &mut u32,
        cycle: &mut u64,
        fuel: u64,
        pending_jump: &mut Option<(u32, u32)>,
        shadow: &mut Option<VliwShadow>,
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
        while !self.wheel_is_empty() {
            if *cycle >= fuel {
                return Err(SimError::OutOfFuel);
            }
            self.drain(sink, *cycle)?;
            *cycle += 1;
            self.stats.irq_cycles += 1;
        }
        *shadow = Some(VliwShadow {
            pc: *pc,
            pending_jump: pending_jump.take(),
            rf: self.rf.vals.clone(),
        });
        let ctx = self.io.as_mut().expect("io presence checked above");
        ctx.sys.begin_delivery(line);
        self.stats.irqs += 1;
        *pc = entry;
        *cycle += TRAP_CYCLES;
        self.stats.irq_cycles += TRAP_CYCLES;
        Ok(None)
    }

    /// Retire a halting handler (see `TtaEngine::iret` — same contract).
    fn iret(
        &mut self,
        pc: &mut u32,
        cycle: &mut u64,
        pending_jump: &mut Option<(u32, u32)>,
        shadow: &mut Option<VliwShadow>,
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
        *pc = sh.pc;
        *pending_jump = sh.pending_jump;
        *cycle += TRAP_CYCLES;
        self.stats.irq_cycles += TRAP_CYCLES;
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

/// The VLIW engine behind [`crate::run`] and friends: one superblock per
/// outer-loop iteration, monomorphised over the profile sink. The dispatch
/// structure and its invariants mirror `crate::tta::run_tta_with`.
pub(crate) fn run_vliw_with<S: ProfileSink>(
    m: &Machine,
    program: &[VliwBundle],
    memory: Vec<u8>,
    fuel: u64,
    sink: &mut S,
    io: Option<IoCtx<'_>>,
) -> Result<SimResult, SimError> {
    let rf = FlatRf::new(m);
    let (dec_slots, dec_bundles) = decode(&rf, program);
    let blocks = BlockMap::of_vliw(program);
    let mut eng = VliwEngine {
        m,
        dec_slots: &dec_slots,
        dec_bundles: &dec_bundles,
        rf,
        wheel: Default::default(),
        writes_per_rf: vec![0u32; m.rfs.len()],
        min_write_ports: m
            .rfs
            .iter()
            .map(|r| r.write_ports as u32)
            .min()
            .unwrap_or(0),
        memory,
        stats: SimStats::default(),
        io,
    };
    let mut pc: u32 = 0;
    let mut cycle: u64 = 0;
    // (remaining delay slots, target)
    let mut pending_jump: Option<(u32, u32)> = None;
    let mut shadow: Option<VliwShadow> = None;

    loop {
        // Superblock entry: the only place fuel, the pc bound and the
        // delay-slot budget are examined.
        if cycle >= fuel {
            return Err(SimError::OutOfFuel);
        }
        if pc as usize >= eng.dec_bundles.len() {
            return Err(SimError::PcOutOfRange(pc));
        }
        // Interrupt boundary: deliver a pending interrupt (re-entering the
        // loop at the handler) or learn how many cycles may run before the
        // next one can arrive. Polling only here keeps the delivery points
        // of every sink identical by construction.
        let win = match eng.io_boundary(
            sink,
            &mut pc,
            &mut cycle,
            fuel,
            &mut pending_jump,
            &mut shadow,
        )? {
            Some(win) => win,
            None => continue,
        };
        let full = blocks.run_len(pc) as u64;

        let mut len = full;
        if let Some((k, _)) = pending_jump {
            // k delay slots remain, then the redirect: at most k + 1 more
            // bundles execute on the fall-through path.
            len = len.min(k as u64 + 1);
        }
        len = len.min(fuel - cycle).min(win);
        // Only the run's terminal bundle can issue control operations,
        // and it is part of this dispatch iff nothing clamped `len`.
        let terminal = len == full;
        let straight = if terminal { len - 1 } else { len };

        for _ in 0..straight {
            eng.step::<S, false>(sink, pc, cycle, &mut pending_jump)?;
            pc += 1;
            cycle += 1;
        }
        // Batch the per-cycle delay-slot decrements of the straight
        // portion; a redirect inside it only happens when the terminal
        // bundle was clamped away.
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

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
//! the cycle loop performs no heap allocation and no queue scan. The
//! engine runs under the block-dispatch loop it shares with the TTA
//! ([`crate::engine::run_blocks`]), which owns fuel, the delay-slot
//! bookkeeping, the I/O boundary and interrupt entry and return; this
//! module supplies the per-bundle step and the trap's writeback drain.
//! The step is already a direct walk over the predecoded slot array, so
//! threaded code like the TTA's thunks measured no faster (DESIGN.md §14).

use crate::engine::{run_blocks, Core, Engine};
use crate::profile::ProfileSink;
use crate::result::{SimError, SimResult};
use crate::state::{DecOpSrc, FlatRf, NO_DST};
use tta_isa::{BlockMap, Operation, VliwBundle, VliwSlot};
use tta_model::{Machine, OpClass, Opcode};

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
    /// The trap checkpoint is the register files alone (see
    /// [`Engine::trap_drain`]).
    core: Core<'a, Vec<i32>>,
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
                self.core.stats.rf_writes += 1;
                self.rf.vals[wb.flat as usize] = wb.value;
            }
            return Ok(());
        }
        self.writes_per_rf.fill(0);
        for k in 0..n {
            let wb = self.wheel[bucket][k];
            self.writes_per_rf[wb.rf as usize] += 1;
            self.core.stats.rf_writes += 1;
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
        self.core.stats.branches_taken += 1;
        *pending_jump = Some((self.m.jump_delay_slots, target));
        Ok(())
    }

    /// One architectural cycle at `pc`. With `CTRL = false` the caller
    /// guarantees (via the block map) that the bundle carries no control
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
        self.core.stats.instructions += 1;
        sink.retire(pc);

        // Execute slots (reads all happen against the pre-cycle RF state:
        // writebacks apply at end of cycle).
        let mut halt = false;
        for si in bundle.slots.0..bundle.slots.1 {
            match self.dec_slots[si as usize] {
                DecSlot::Limm { dst, dst_rf, value } => {
                    self.core.stats.payload += 1;
                    self.core.stats.limms += 1;
                    self.enqueue(cycle + 1, dst, dst_rf, value);
                }
                DecSlot::Op {
                    op,
                    a,
                    b,
                    dst,
                    dst_rf,
                } => {
                    self.core.stats.payload += 1;
                    let mut read = |s: DecOpSrc| match s {
                        DecOpSrc::None => None,
                        DecOpSrc::Reg(i) => {
                            self.core.stats.rf_reads += 1;
                            Some(self.rf.vals[i as usize])
                        }
                        DecOpSrc::Imm(v) => Some(v),
                    };
                    let (va, vb) = (read(a), read(b));
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
                                self.core.stats.loads += 1;
                                let v = self.core.mem_load(op, vb.unwrap() as u32, cycle)?;
                                assert!(dst != NO_DST, "load writes a register");
                                self.enqueue(cycle + op.latency() as u64, dst, dst_rf, v);
                            } else {
                                self.core.stats.stores += 1;
                                self.core
                                    .mem_store(op, vb.unwrap() as u32, va.unwrap(), cycle)?;
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
}

impl<'a> Engine<'a> for VliwEngine<'a> {
    type Checkpoint = Vec<i32>;

    #[inline(always)]
    fn core(&mut self) -> &mut Core<'a, Vec<i32>> {
        &mut self.core
    }

    /// A step per bundle; only the run's terminal bundle runs the
    /// control arm.
    #[inline(always)]
    fn run_slice<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        pc: u32,
        cycle: u64,
        len: u64,
        terminal: bool,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<bool, SimError> {
        let straight = if terminal { len - 1 } else { len };
        for i in 0..straight {
            self.step::<S, false>(sink, pc + i as u32, cycle + i, pending_jump)?;
        }
        if !terminal {
            return Ok(false);
        }
        self.step::<S, true>(sink, pc + straight as u32, cycle + straight, pending_jump)
    }

    /// The VLIW's in-flight state is its writeback wheel: the trap drains
    /// it (one cycle per residual bucket, fuel-checked, write-port rules
    /// still enforced), so the results commit to the register files and
    /// they are the whole checkpoint — cheaper than the TTA's exposed-bus
    /// checkpoint.
    fn trap_drain<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        cycle: &mut u64,
        fuel: u64,
    ) -> Result<Vec<i32>, SimError> {
        while self.wheel.iter().any(|b| !b.is_empty()) {
            if *cycle >= fuel {
                return Err(SimError::OutOfFuel);
            }
            self.drain(sink, *cycle)?;
            *cycle += 1;
            self.core.stats.irq_cycles += 1;
        }
        Ok(self.rf.vals.clone())
    }

    fn trap_restore(&mut self, rf: Vec<i32>, _cycle: u64) {
        for b in &mut self.wheel {
            b.clear();
        }
        self.rf.vals = rf;
    }
}

/// The VLIW engine behind [`crate::run`] and friends, monomorphised over
/// the profile sink.
pub(crate) fn run_vliw_with<S: ProfileSink>(
    m: &Machine,
    program: &[VliwBundle],
    blocks: &BlockMap,
    core: Core<'_, Vec<i32>>,
    fuel: u64,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    let rf = FlatRf::new(m);
    let (dec_slots, dec_bundles) = decode(&rf, program);
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
        core,
    };
    run_blocks(&mut eng, sink, blocks, fuel)
}

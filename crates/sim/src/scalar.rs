//! In-order scalar pipeline simulator (the MicroBlaze-like baselines).
//!
//! Functionally the program executes sequentially; the timing model charges
//! the pipeline costs of the configured [`tta_model::ScalarPipeline`]: one base cycle
//! per instruction, dependence stalls when a consumer issues before its
//! producer's functional latency has elapsed (plus one extra cycle when the
//! pipeline lacks forwarding), the taken-branch refill penalty, and one
//! cycle per `imm` prefix.
//!
//! Instructions are predecoded once per run (register references resolved
//! to flat indices, the register scoreboard stored alongside), so the
//! per-instruction loop performs no heap allocation. Dispatch is
//! fused-block: the fuel and pc bounds checks run once per straight-line
//! run, and interior instructions execute in a monomorphisation without
//! the control arm (the scalar model has no delay slots, so block entry
//! needs no delay-slot clamp — see `crate::tta` for the shared dispatch
//! structure). There is no compiled tier: the step is already a direct
//! walk over the predecoded array, and dependence stalls and branch
//! penalties are dynamic anyway (DESIGN.md §14).

use crate::profile::ProfileSink;
use crate::result::{SimError, SimResult, SimStats};
use crate::state::{DecOpSrc, FlatRf, IoCtx, NO_DST};
use tta_isa::{BlockMap, Operation, ScalarInst, RETVAL_ADDR};
use tta_model::io::MMIO_BASE;
use tta_model::{mem, Machine, OpClass, Opcode, ScalarPipeline};

/// One predecoded scalar instruction.
#[derive(Debug, Clone, Copy)]
enum DecInst {
    ImmPrefix,
    Op {
        op: Opcode,
        a: DecOpSrc,
        b: DecOpSrc,
        /// Flat destination index, [`NO_DST`] if the op writes nothing.
        dst: u32,
    },
}

fn decode(rf: &FlatRf, program: &[ScalarInst]) -> Vec<DecInst> {
    program
        .iter()
        .map(|inst| match inst {
            ScalarInst::ImmPrefix => DecInst::ImmPrefix,
            ScalarInst::Op(Operation { op, dst, a, b, .. }) => DecInst::Op {
                op: *op,
                a: DecOpSrc::decode(rf, *a),
                b: DecOpSrc::decode(rf, *b),
                dst: dst.map_or(NO_DST, |d| rf.flat(d)),
            },
        })
        .collect()
}

/// Control outcome of one scalar step.
enum Flow {
    /// Fall through to `pc + 1`.
    Next,
    /// Taken branch (penalty already charged by the step).
    Jump(u32),
    /// The core halted; the caller builds the [`SimResult`].
    Halt,
}

/// Mutable datapath state of one run, shared by every step of the block
/// dispatch loop.
struct ScalarEngine<'a> {
    pipe: ScalarPipeline,
    dec: &'a [DecInst],
    rf: FlatRf,
    /// Cycle at which each register's latest value becomes readable.
    ready: Vec<u64>,
    /// Extra scoreboard cycle when the pipeline lacks forwarding.
    extra: u64,
    memory: Vec<u8>,
    stats: SimStats,
    io: Option<IoCtx<'a>>,
}

/// Architectural state saved on interrupt entry and restored on return.
/// The scalar core has no exposed in-flight state to drain: the trap
/// shadows the register file and the scoreboard, and the handler issues
/// against the live scoreboard (interlocking deterministically with
/// whatever loads the main program left in flight).
struct ScalarShadow {
    pc: u32,
    rf: Vec<i32>,
    ready: Vec<u64>,
}

impl ScalarEngine<'_> {
    /// One instruction at `pc`, advancing `cycle` by its issue + stall
    /// cost. With `CTRL = false` the caller guarantees (via the block map)
    /// a non-control instruction and the control arm is compiled out.
    #[inline(always)]
    fn step<S: ProfileSink, const CTRL: bool>(
        &mut self,
        sink: &mut S,
        pc: u32,
        cycle: &mut u64,
    ) -> Result<Flow, SimError> {
        let inst = self.dec[pc as usize];
        self.stats.instructions += 1;
        sink.retire(pc);

        match inst {
            DecInst::ImmPrefix => {
                // One fetch/issue cycle; the following instruction carries
                // the full immediate already.
                *cycle += 1;
                Ok(Flow::Next)
            }
            DecInst::Op { op, a, b, dst } => {
                self.stats.payload += 1;
                // Issue no earlier than every source register is ready.
                let mut issue = *cycle;
                let mut src_val = |s: DecOpSrc, issue: &mut u64| match s {
                    DecOpSrc::None => None,
                    DecOpSrc::Reg(i) => {
                        self.stats.rf_reads += 1;
                        *issue = (*issue).max(self.ready[i as usize]);
                        Some(self.rf.vals[i as usize])
                    }
                    DecOpSrc::Imm(v) => Some(v),
                };
                let va = src_val(a, &mut issue);
                let vb = src_val(b, &mut issue);
                self.stats.stall_cycles += issue - *cycle;
                *cycle = issue + 1; // the instruction occupies one issue slot

                let extra = self.extra;
                let write = |v: i32,
                             lat: u32,
                             rf: &mut FlatRf,
                             ready: &mut Vec<u64>,
                             stats: &mut SimStats| {
                    if dst != NO_DST {
                        stats.rf_writes += 1;
                        rf.vals[dst as usize] = v;
                        ready[dst as usize] = issue + lat as u64 + extra;
                    }
                };

                match op.class() {
                    OpClass::Alu => {
                        let r = if op.num_inputs() == 1 {
                            op.eval_alu(vb.unwrap(), 0)
                        } else {
                            op.eval_alu(va.unwrap(), vb.unwrap())
                        };
                        write(
                            r,
                            op.latency(),
                            &mut self.rf,
                            &mut self.ready,
                            &mut self.stats,
                        );
                    }
                    OpClass::Lsu => {
                        if op.is_load() {
                            self.stats.loads += 1;
                            let v = self.mem_load(op, vb.unwrap() as u32, issue)?;
                            write(
                                v,
                                op.latency(),
                                &mut self.rf,
                                &mut self.ready,
                                &mut self.stats,
                            );
                        } else {
                            self.stats.stores += 1;
                            self.mem_store(op, vb.unwrap() as u32, va.unwrap(), issue)?;
                        }
                    }
                    OpClass::Ctrl if CTRL => match op {
                        Opcode::Halt => return Ok(Flow::Halt),
                        Opcode::Jump | Opcode::CJnz | Opcode::CJz => {
                            let (taken, target) = match op {
                                Opcode::Jump => (true, vb.unwrap() as u32),
                                Opcode::CJnz => (vb.unwrap() != 0, va.unwrap() as u32),
                                Opcode::CJz => (vb.unwrap() == 0, va.unwrap() as u32),
                                _ => unreachable!(),
                            };
                            if taken {
                                self.stats.branches_taken += 1;
                                *cycle += self.pipe.branch_penalty as u64;
                                self.stats.stall_cycles += self.pipe.branch_penalty as u64;
                                return Ok(Flow::Jump(target));
                            }
                        }
                        _ => unreachable!(),
                    },
                    OpClass::Ctrl => {
                        unreachable!("control instruction inside a superblock interior")
                    }
                }
                Ok(Flow::Next)
            }
        }
    }

    /// Load with MMIO fallback: plain memory on the fast path; a fault at
    /// or above [`MMIO_BASE`] routes to the device bus (stamped with the
    /// instruction's issue cycle) when an I/O system is attached.
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

    /// Store counterpart of [`Self::mem_load`].
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

    /// Poll the I/O system at a superblock boundary. Returns the open run
    /// window in cycles (`u64::MAX` without I/O), or `None` after
    /// redirecting into the handler. The scalar trap needs no drain: entry
    /// costs one issue cycle plus the branch-refill penalty (like a taken
    /// branch into the handler) and consumes no instruction fuel.
    fn io_boundary(
        &mut self,
        pc: &mut u32,
        cycle: &mut u64,
        shadow: &mut Option<ScalarShadow>,
    ) -> Option<u64> {
        let (line, entry) = match &mut self.io {
            None => return Some(u64::MAX),
            Some(ctx) => {
                ctx.sys.poll(*cycle);
                match (ctx.sys.deliverable(), ctx.irq_entry) {
                    (Some(line), Some(entry)) => (line, entry),
                    _ => return Some(ctx.sys.window(*cycle)),
                }
            }
        };
        *shadow = Some(ScalarShadow {
            pc: *pc,
            rf: self.rf.vals.clone(),
            ready: self.ready.clone(),
        });
        let ctx = self.io.as_mut().expect("io presence checked above");
        ctx.sys.begin_delivery(line);
        self.stats.irqs += 1;
        *pc = entry;
        let cost = 1 + self.pipe.branch_penalty as u64;
        *cycle += cost;
        self.stats.irq_cycles += cost;
        None
    }

    /// Retire a halting handler: if the halt was the compiler-injected
    /// end-of-interrupt, restore the shadowed context and resume the
    /// interrupted program (returning `true`); a real guest halt returns
    /// `false` and the caller finishes the run.
    fn iret(
        &mut self,
        pc: &mut u32,
        cycle: &mut u64,
        shadow: &mut Option<ScalarShadow>,
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
        self.rf.vals = sh.rf;
        self.ready = sh.ready;
        *pc = sh.pc;
        let cost = 1 + self.pipe.branch_penalty as u64;
        *cycle += cost;
        self.stats.irq_cycles += cost;
        Ok(true)
    }

    /// Build the final [`SimResult`] at the halt cycle, folding the I/O
    /// system's counters and UART output into it.
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

/// The scalar engine behind [`crate::run`] and friends: one superblock
/// per outer-loop iteration, monomorphised over the profile sink. Scalar
/// fuel counts executed instructions (not cycles), so the block-entry
/// clamp is `min(run length, fuel − executed)`.
pub(crate) fn run_scalar_with<S: ProfileSink>(
    m: &Machine,
    program: &[ScalarInst],
    memory: Vec<u8>,
    fuel: u64,
    sink: &mut S,
    io: Option<IoCtx<'_>>,
) -> Result<SimResult, SimError> {
    let pipe = m.scalar.expect("scalar machine");
    let rf = FlatRf::new(m);
    let dec = decode(&rf, program);
    let blocks = BlockMap::of_scalar(program);
    let ready_len = rf.len();
    let mut eng = ScalarEngine {
        pipe,
        dec: &dec,
        rf,
        ready: vec![0; ready_len],
        extra: if pipe.forwarding { 0 } else { 1 },
        memory,
        stats: SimStats::default(),
        io,
    };
    let mut pc: u32 = 0;
    let mut cycle: u64 = 0;
    let mut executed: u64 = 0;
    let mut shadow: Option<ScalarShadow> = None;

    loop {
        // Superblock entry: the only place fuel and the pc bound are
        // examined.
        if executed >= fuel {
            return Err(SimError::OutOfFuel);
        }
        if pc as usize >= eng.dec.len() {
            return Err(SimError::PcOutOfRange(pc));
        }
        // Interrupt boundary: deliver a pending interrupt (re-entering the
        // loop at the handler) or learn how many cycles may run before the
        // next one can arrive. The window is in cycles and the clamps below
        // are in instructions; since each instruction costs at least one
        // cycle this only makes the clamp more conservative, and every sink
        // applies the identical clamp, so delivery points still agree.
        let win = match eng.io_boundary(&mut pc, &mut cycle, &mut shadow) {
            Some(win) => win,
            None => continue,
        };
        let full = blocks.run_len(pc) as u64;

        let len = full.min(fuel - executed).min(win);
        // Only the run's terminal instruction can be a control op, and it
        // is part of this dispatch iff fuel didn't clamp `len`.
        let terminal = len == full;
        let straight = if terminal { len - 1 } else { len };

        for _ in 0..straight {
            eng.step::<S, false>(sink, pc, &mut cycle)?;
            pc += 1;
        }
        executed += straight;

        if terminal {
            let flow = eng.step::<S, true>(sink, pc, &mut cycle)?;
            executed += 1;
            match flow {
                Flow::Halt => {
                    if eng.iret(&mut pc, &mut cycle, &mut shadow)? {
                        continue;
                    }
                    return eng.finish(cycle);
                }
                Flow::Jump(target) => pc = target,
                Flow::Next => pc += 1,
            }
        }
    }
}

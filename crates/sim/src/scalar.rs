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
//! the control arm. The loop is this module's own rather than the one
//! the TTA and VLIW engines share ([`crate::engine::run_blocks`]): scalar
//! fuel counts instructions, not cycles, and there are no delay slots to
//! clamp. Memory, MMIO routing and interrupt bookkeeping are the shared
//! [`Core`]'s. There are no TTA-style thunks: the step is already a
//! direct walk over the predecoded array, and dependence stalls and
//! branch penalties are dynamic anyway (DESIGN.md §14).

use crate::engine::{Boundary, Core};
use crate::profile::ProfileSink;
use crate::result::{SimError, SimResult};
use crate::state::{DecOpSrc, FlatRf, NO_DST};
use tta_isa::{BlockMap, Operation, ScalarInst};
use tta_model::{Machine, OpClass, Opcode, ScalarPipeline};

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
    core: Core<'a, ScalarShadow>,
}

/// Architectural state saved beside the pc on interrupt entry and
/// restored on return. The scalar core has no exposed in-flight state to
/// drain: the trap shadows the register file and the scoreboard, and the
/// handler issues against the live scoreboard (interlocking
/// deterministically with whatever loads the main program left in
/// flight).
pub(crate) struct ScalarShadow {
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
        self.core.stats.instructions += 1;
        sink.retire(pc);

        match inst {
            DecInst::ImmPrefix => {
                // One fetch/issue cycle; the following instruction carries
                // the full immediate already.
                *cycle += 1;
                Ok(Flow::Next)
            }
            DecInst::Op { op, a, b, dst } => {
                self.core.stats.payload += 1;
                // Issue no earlier than every source register is ready.
                let mut issue = *cycle;
                let mut src_val = |s: DecOpSrc, issue: &mut u64| match s {
                    DecOpSrc::None => None,
                    DecOpSrc::Reg(i) => {
                        self.core.stats.rf_reads += 1;
                        *issue = (*issue).max(self.ready[i as usize]);
                        Some(self.rf.vals[i as usize])
                    }
                    DecOpSrc::Imm(v) => Some(v),
                };
                let va = src_val(a, &mut issue);
                let vb = src_val(b, &mut issue);
                self.core.stats.stall_cycles += issue - *cycle;
                *cycle = issue + 1; // the instruction occupies one issue slot

                let r = match op.class() {
                    OpClass::Alu if op.num_inputs() == 1 => op.eval_alu(vb.unwrap(), 0),
                    OpClass::Alu => op.eval_alu(va.unwrap(), vb.unwrap()),
                    OpClass::Lsu if op.is_load() => {
                        self.core.stats.loads += 1;
                        self.core.mem_load(op, vb.unwrap() as u32, issue)?
                    }
                    OpClass::Lsu => {
                        self.core.stats.stores += 1;
                        self.core
                            .mem_store(op, vb.unwrap() as u32, va.unwrap(), issue)?;
                        return Ok(Flow::Next);
                    }
                    OpClass::Ctrl if CTRL => {
                        let (taken, target) = match op {
                            Opcode::Halt => return Ok(Flow::Halt),
                            Opcode::Jump => (true, vb.unwrap() as u32),
                            Opcode::CJnz => (vb.unwrap() != 0, va.unwrap() as u32),
                            Opcode::CJz => (vb.unwrap() == 0, va.unwrap() as u32),
                            _ => unreachable!(),
                        };
                        if taken {
                            self.core.stats.branches_taken += 1;
                            *cycle += self.pipe.branch_penalty as u64;
                            self.core.stats.stall_cycles += self.pipe.branch_penalty as u64;
                            return Ok(Flow::Jump(target));
                        }
                        return Ok(Flow::Next);
                    }
                    OpClass::Ctrl => {
                        unreachable!("control instruction inside a superblock interior")
                    }
                };
                if dst != NO_DST {
                    self.core.stats.rf_writes += 1;
                    self.rf.vals[dst as usize] = r;
                    self.ready[dst as usize] = issue + op.latency() as u64 + self.extra;
                }
                Ok(Flow::Next)
            }
        }
    }
}

/// The scalar engine behind [`crate::run`] and friends: one superblock
/// per outer-loop iteration, monomorphised over the profile sink. Scalar
/// fuel counts executed instructions (not cycles), so the block-entry
/// clamp is `min(run length, fuel − executed)`.
pub(crate) fn run_scalar_with<S: ProfileSink>(
    m: &Machine,
    program: &[ScalarInst],
    blocks: &BlockMap,
    core: Core<'_, ScalarShadow>,
    fuel: u64,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    let pipe = m.scalar.expect("scalar machine");
    let rf = FlatRf::new(m);
    let dec = decode(&rf, program);
    let ready_len = rf.len();
    let mut eng = ScalarEngine {
        pipe,
        dec: &dec,
        rf,
        ready: vec![0; ready_len],
        extra: if pipe.forwarding { 0 } else { 1 },
        core,
    };
    // A trap costs one issue cycle plus the branch-refill penalty each
    // way, like a taken branch; it consumes no instruction fuel.
    let trap_cost = 1 + pipe.branch_penalty as u64;
    let mut pc: u32 = 0;
    let mut cycle: u64 = 0;
    let mut executed: u64 = 0;

    loop {
        // Superblock entry: the only place fuel and the pc bound are
        // examined.
        if executed >= fuel {
            return Err(SimError::OutOfFuel);
        }
        if pc as usize >= blocks.len() {
            return Err(SimError::PcOutOfRange(pc));
        }
        // Interrupt boundary: deliver a pending interrupt (re-entering the
        // loop at the handler) or learn how many cycles may run before the
        // next one can arrive. The window is in cycles and the clamps below
        // are in instructions; since each instruction costs at least one
        // cycle this only makes the clamp more conservative, and every sink
        // applies the identical clamp, so delivery points still agree.
        let win = match eng.core.poll(cycle) {
            Boundary::Window(win) => win,
            Boundary::Trap { line, entry } => {
                let shadow = ScalarShadow {
                    rf: eng.rf.vals.clone(),
                    ready: eng.ready.clone(),
                };
                eng.core.enter_handler(
                    line, entry, shadow, &mut pc, &mut None, &mut cycle, trap_cost,
                );
                continue;
            }
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
                Flow::Halt => match eng.core.iret(&mut pc, &mut None, &mut cycle, trap_cost)? {
                    Some(sh) => {
                        eng.rf.vals = sh.rf;
                        eng.ready = sh.ready;
                    }
                    None => return eng.core.finish(cycle),
                },
                Flow::Jump(target) => pc = target,
                Flow::Next => pc += 1,
            }
        }
    }
}

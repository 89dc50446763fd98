//! What the three engines share: [`Core`], the engine-independent state
//! of a run (data memory, statistics, memory-mapped I/O and interrupt
//! bookkeeping), and [`run_blocks`], the one block-dispatch loop of the
//! statically scheduled engines (TTA and VLIW).
//!
//! ## Block-at-a-time dispatch
//!
//! The program is segmented into superblocks ([`tta_isa::BlockMap`]) once
//! per run, and the loop dispatches a superblock at a time: the fuel
//! check, the pc bounds check, the I/O poll and the delay-slot
//! bookkeeping happen once per block entry, and the engine runs the
//! entry's instructions in one call to [`Engine::run_slice`] — the TTA
//! engine as a slice of its thunk array, the VLIW engine as a loop of its
//! step whose control arm is compiled out of every instruction but the
//! run's terminal one. Cycle counts, statistics and error behaviour are
//! bit-identical to per-cycle execution; the fuel-exhaustion boundary is
//! pinned by `tests/fuel_boundary.rs`.
//!
//! The scalar engine uses [`Core`] but keeps its own short loop: its fuel
//! counts instructions, not cycles, and it has no delay slots.

use crate::profile::ProfileSink;
use crate::result::{SimError, SimResult, SimStats};
use tta_isa::{BlockMap, RETVAL_ADDR};
use tta_model::io::{IoSystem, MMIO_BASE};
use tta_model::{mem, Opcode};

/// Fixed trap overhead of the statically scheduled cores (TTA and VLIW):
/// two cycles on handler entry (after the in-flight drain) and two on
/// return. The scalar core instead pays one issue cycle plus its
/// configured branch-refill penalty each way, like a taken branch.
pub(crate) const TRAP_CYCLES: u64 = 2;

/// Per-run I/O context: the shared device and interrupt-controller
/// state, plus where the compiled `__irq` handler region starts in this
/// program (if the guest has one — interrupts stay latched but
/// undeliverable otherwise, exactly like the interpreter).
pub(crate) struct IoCtx<'a> {
    pub sys: &'a mut IoSystem,
    pub irq_entry: Option<u32>,
}

/// What the I/O poll at a block entry found.
pub(crate) enum Boundary {
    /// No interrupt to deliver: this many cycles may run before the next
    /// observable boundary (`u64::MAX` for runs without I/O).
    Window(u64),
    /// An interrupt on `line` is deliverable to the handler at `entry`.
    Trap { line: u8, entry: u32 },
}

/// The context a trap saves: the interrupted pc and in-flight jump, and
/// the engine's own datapath checkpoint.
struct Saved<C> {
    pc: u32,
    pending_jump: Option<(u32, u32)>,
    datapath: C,
}

/// Engine-independent state of one run. `C` is the engine's datapath
/// checkpoint, saved on interrupt entry and handed back on return.
pub(crate) struct Core<'a, C> {
    pub memory: Vec<u8>,
    pub stats: SimStats,
    /// Memory-mapped I/O and interrupt state, present only for reactive
    /// runs ([`crate::run_with_io`]); `None` keeps plain runs untouched.
    io: Option<IoCtx<'a>>,
    /// The interrupted context while a handler runs.
    saved: Option<Saved<C>>,
}

impl<'a, C> Core<'a, C> {
    pub fn new(memory: Vec<u8>, io: Option<IoCtx<'a>>) -> Self {
        Core {
            memory,
            stats: SimStats::default(),
            io,
            saved: None,
        }
    }

    /// Memory load routing: data memory on the fast path, the MMIO bus
    /// for addresses at or above [`MMIO_BASE`] when the run has an I/O
    /// system. Routing keys off the data-memory fault, so io-less runs
    /// pay nothing. `now` stamps the device access.
    #[inline(always)]
    pub fn mem_load(&mut self, op: Opcode, addr: u32, now: u64) -> Result<i32, SimError> {
        match mem::load(&self.memory, op, addr) {
            Ok(v) => Ok(v),
            Err(e) => match &mut self.io {
                Some(ctx) if addr >= MMIO_BASE => Ok(ctx.sys.load(op, addr, now)?),
                _ => Err(e.into()),
            },
        }
    }

    /// Memory store routing (see [`Core::mem_load`]).
    #[inline(always)]
    pub fn mem_store(
        &mut self,
        op: Opcode,
        addr: u32,
        value: i32,
        now: u64,
    ) -> Result<(), SimError> {
        match mem::store(&mut self.memory, op, addr, value) {
            Ok(()) => Ok(()),
            Err(e) => match &mut self.io {
                Some(ctx) if addr >= MMIO_BASE => Ok(ctx.sys.store(op, addr, value, now)?),
                _ => Err(e.into()),
            },
        }
    }

    /// The I/O boundary at a block entry: latch risen lines, then report
    /// a deliverable interrupt or how many cycles may safely run before
    /// the next boundary. Polling only at block entries keeps the
    /// delivery points of every sink identical by construction.
    pub fn poll(&mut self, cycle: u64) -> Boundary {
        let Some(ctx) = &mut self.io else {
            return Boundary::Window(u64::MAX);
        };
        ctx.sys.poll(cycle);
        match (ctx.sys.deliverable(), ctx.irq_entry) {
            (Some(line), Some(entry)) => Boundary::Trap { line, entry },
            _ => Boundary::Window(ctx.sys.window(cycle)),
        }
    }

    /// Enter the handler at `entry` for `line`, once the engine has
    /// drained and checkpointed its `datapath`: save the interrupted pc
    /// and pending jump beside it, redirect, and charge `cost` trap
    /// cycles.
    #[allow(clippy::too_many_arguments)]
    pub fn enter_handler(
        &mut self,
        line: u8,
        entry: u32,
        datapath: C,
        pc: &mut u32,
        pending_jump: &mut Option<(u32, u32)>,
        cycle: &mut u64,
        cost: u64,
    ) {
        self.saved = Some(Saved {
            pc: *pc,
            pending_jump: pending_jump.take(),
            datapath,
        });
        let ctx = self.io.as_mut().expect("a trap needs an I/O system");
        ctx.sys.begin_delivery(line);
        self.stats.irqs += 1;
        *pc = entry;
        *cycle += cost;
        self.stats.irq_cycles += cost;
    }

    /// At a halt: a latched end-of-interrupt doorbell makes it a handler
    /// return. Then restore the interrupted pc and pending jump, charge
    /// `cost` trap cycles and hand back the datapath checkpoint for the
    /// engine to restore at the resume `cycle`. `None` means the halt is
    /// the program's end.
    pub fn iret(
        &mut self,
        pc: &mut u32,
        pending_jump: &mut Option<(u32, u32)>,
        cycle: &mut u64,
        cost: u64,
    ) -> Result<Option<C>, SimError> {
        let Some(ctx) = &mut self.io else {
            return Ok(None);
        };
        if !ctx.sys.take_eoi() {
            return Ok(None);
        }
        ctx.sys.finish_handler();
        let saved = self
            .saved
            .take()
            .ok_or_else(|| SimError::Machine("end-of-interrupt without a saved context".into()))?;
        *pc = saved.pc;
        *pending_jump = saved.pending_jump;
        *cycle += cost;
        self.stats.irq_cycles += cost;
        Ok(Some(saved.datapath))
    }

    /// Build the final [`SimResult`] at the halt cycle, folding the I/O
    /// system's counters and device-output stream into it. The run ends
    /// here: the memory image moves into the result.
    pub fn finish(&mut self, cycles: u64) -> Result<SimResult, SimError> {
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
            memory: std::mem::take(&mut self.memory),
            stats: self.stats,
            uart_tx,
        })
    }
}

/// A statically scheduled engine (TTA or VLIW) as [`run_blocks`] drives
/// it: its datapath, block-entry execution and trap drain; everything else
/// is the loop's or the [`Core`]'s.
pub(crate) trait Engine<'a> {
    /// The datapath state a trap checkpoints beside the pc.
    type Checkpoint;

    fn core(&mut self) -> &mut Core<'a, Self::Checkpoint>;

    /// Execute the `len` instructions from `pc`, the first at `cycle`: a
    /// prefix of the straight-line run at `pc`, which includes the run's
    /// control-bearing terminal instruction iff `terminal`. Returns
    /// whether the core halted. A taken jump arms `pending_jump`; the
    /// caller does all delay-slot bookkeeping.
    fn run_slice<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        pc: u32,
        cycle: u64,
        len: u64,
        terminal: bool,
        pending_jump: &mut Option<(u32, u32)>,
    ) -> Result<bool, SimError>;

    /// Interrupt entry: wait out the in-flight state (one fuel-checked
    /// cycle each, charged to `irq_cycles`) and checkpoint the datapath.
    fn trap_drain<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        cycle: &mut u64,
        fuel: u64,
    ) -> Result<Self::Checkpoint, SimError>;

    /// Handler return: restore the checkpoint; `cycle` is the resume cycle.
    fn trap_restore(&mut self, datapath: Self::Checkpoint, cycle: u64);
}

/// The block-dispatch loop of the TTA and VLIW engines: one superblock
/// entry per iteration, from pc 0 and cycle 0 until the program halts.
pub(crate) fn run_blocks<'a, S: ProfileSink, E: Engine<'a>>(
    eng: &mut E,
    sink: &mut S,
    blocks: &BlockMap,
    fuel: u64,
) -> Result<SimResult, SimError> {
    let mut pc: u32 = 0;
    let mut cycle: u64 = 0;
    // (remaining delay slots, target)
    let mut pending_jump: Option<(u32, u32)> = None;

    loop {
        // Superblock entry: the only place fuel, the pc bound and the
        // delay-slot budget are examined.
        if cycle >= fuel {
            return Err(SimError::OutOfFuel);
        }
        if pc as usize >= blocks.len() {
            return Err(SimError::PcOutOfRange(pc));
        }
        // I/O boundary: trap into the handler (re-running the entry
        // checks there) or learn how many cycles may run before the next
        // observable boundary.
        let win = match eng.core().poll(cycle) {
            Boundary::Window(win) => win,
            Boundary::Trap { line, entry } => {
                let datapath = eng.trap_drain(sink, &mut cycle, fuel)?;
                eng.core().enter_handler(
                    line,
                    entry,
                    datapath,
                    &mut pc,
                    &mut pending_jump,
                    &mut cycle,
                    TRAP_CYCLES,
                );
                continue;
            }
        };
        let full = blocks.run_len(pc) as u64;
        let mut len = full;
        if let Some((k, _)) = pending_jump {
            // k delay slots remain, then the redirect: at most k + 1 more
            // instructions execute on the fall-through path.
            len = len.min(k as u64 + 1);
        }
        len = len.min(fuel - cycle).min(win);
        debug_assert!(len > 0, "a block entry runs at least one instruction");
        // Only the run's terminal instruction can carry control effects,
        // and it is part of this dispatch iff nothing clamped `len`.
        let terminal = len == full;
        let was_pending = pending_jump;
        let halt = eng.run_slice(sink, pc, cycle, len, terminal, &mut pending_jump)?;
        let straight = if terminal { len - 1 } else { len };
        pc += straight as u32;
        cycle += len;
        // A jump pending before the slice counts down over its straight
        // part (the slice's terminal cannot take another: that is a
        // nested-jump error). A redirect inside the straight part
        // (straight == k + 1) can only happen when the terminal
        // instruction was clamped away. A jump the terminal takes is
        // handled below.
        if let Some((k, target)) = was_pending {
            if k as u64 + 1 == straight {
                pc = target;
                pending_jump = None;
            } else {
                pending_jump = Some((k - straight as u32, target));
            }
        }
        if !terminal {
            continue;
        }
        if halt {
            let core = eng.core();
            match core.iret(&mut pc, &mut pending_jump, &mut cycle, TRAP_CYCLES)? {
                Some(datapath) => eng.trap_restore(datapath, cycle),
                None => return core.finish(cycle),
            }
            continue;
        }
        // Control-transfer bookkeeping for the terminal cycle.
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

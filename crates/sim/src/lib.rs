//! # tta-sim — cycle-accurate soft-core simulators
//!
//! Instruction-cycle-accurate simulators for the three programming models,
//! playing the role of the TCE architecture simulator in the paper's
//! methodology. Each simulator implements the timing contract its scheduler
//! plans against and *checks* the dynamic machine rules (result-port
//! lifetimes, write-port budgets, jump nesting), so a scheduler bug
//! surfaces as a hard [`SimError`] or as a differential-test mismatch
//! against the IR interpreter rather than as silently wrong cycle counts.

#![warn(missing_docs)]

mod engine;
pub mod profile;
pub mod result;
mod scalar;
mod state;
mod tta;
mod vliw;

pub use profile::{static_activity, CycleActivity, FuProfile, GuestProfile, RfProfile};
pub use result::{SimError, SimResult, SimStats};
pub use tta_model::io::{IoSpec, IrqAt};

use std::sync::OnceLock;

use crate::engine::{Core, IoCtx};
use crate::profile::{Collector, NoProfile, ProfileSink, TraceSink};
use crate::tta::TtaCode;
use tta_isa::{BlockMap, Program, TtaInst};
use tta_model::io::IoSystem;
use tta_model::Machine;

/// Default cycle budget for [`run`] (instructions on the scalar cores).
pub const DEFAULT_FUEL: u64 = 200_000_000;

/// Run any program on its machine (styles must match).
pub fn run(m: &Machine, program: &Program, memory: Vec<u8>) -> Result<SimResult, SimError> {
    run_with_fuel(m, program, memory, DEFAULT_FUEL)
}

/// Per-program simulator state shared across runs (and threads): for a
/// TTA program, the thunk array its engine executes, built on the
/// program's first run. Every later run through [`run_with_tiers`] or
/// [`run_with_io_tiers`] reuses it, which is how the compile cache keeps
/// the build off the serving path. VLIW and scalar programs keep nothing
/// here.
pub struct Tiers {
    program_len: usize,
    tta: OnceLock<TtaCode>,
}

impl Tiers {
    /// Empty state for `program`; a run fills it.
    pub fn for_program(program: &Program) -> Tiers {
        Tiers {
            program_len: program.len(),
            tta: OnceLock::new(),
        }
    }

    /// The thunk array of `program` on `m`, built on first use.
    fn tta_code(&self, m: &Machine, program: &[TtaInst]) -> &TtaCode {
        self.tta.get_or_init(|| TtaCode::build(m, program))
    }
}

/// [`run`] with an explicit cycle budget. The TTA thunk array is built
/// for this run alone; share one across runs with [`run_with_tiers`].
pub fn run_with_fuel(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    fuel: u64,
) -> Result<SimResult, SimError> {
    run_with_tiers(m, program, memory, fuel, &Tiers::for_program(program))
}

/// [`run_with_fuel`] against shared state (built for this same `program`
/// on this same machine).
pub fn run_with_tiers(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    fuel: u64,
    tiers: &Tiers,
) -> Result<SimResult, SimError> {
    simulate(m, program, memory, fuel, &mut NoProfile, tiers, None)
}

/// Run a reactive program: like [`run_with_fuel`] with the memory-mapped
/// UART, timer, interrupt controller and scripted interrupt schedule
/// attached. `irq_entry` is where the compiled `__irq` handler region
/// starts (see `tta_compiler::Compiled::irq_entry`); with `None`,
/// interrupts latch in the controller but are never delivered, matching
/// the IR interpreter's semantics for handler-less modules. Builds
/// per-run state, as [`run_with_fuel`] does.
pub fn run_with_io(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    fuel: u64,
    spec: &IoSpec,
    irq_entry: Option<u32>,
) -> Result<SimResult, SimError> {
    let tiers = Tiers::for_program(program);
    run_with_io_tiers(m, program, memory, fuel, spec, irq_entry, &tiers)
}

/// [`run_with_io`] against shared state (built for this same `program` on
/// this same machine). The I/O system itself is always per-run: devices
/// and the interrupt controller reset with the guest.
#[allow(clippy::too_many_arguments)]
pub fn run_with_io_tiers(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    fuel: u64,
    spec: &IoSpec,
    irq_entry: Option<u32>,
    tiers: &Tiers,
) -> Result<SimResult, SimError> {
    let mut io = IoSystem::new(spec);
    let ctx = IoCtx {
        sys: &mut io,
        irq_entry,
    };
    simulate(m, program, memory, fuel, &mut NoProfile, tiers, Some(ctx))
}

/// Run any program while collecting a [`GuestProfile`] (see [`profile`]
/// for the zero-cost-when-disabled contract). The returned `SimResult` is
/// bit-identical to [`run`]'s.
pub fn run_profiled(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
) -> Result<(SimResult, GuestProfile), SimError> {
    let mut sink = Collector::new(m, program.len());
    let tiers = Tiers::for_program(program);
    let r = simulate(m, program, memory, DEFAULT_FUEL, &mut sink, &tiers, None)?;
    let mut p = profile::finish(m, program, sink);
    p.cycles = r.cycles;
    Ok((r, p))
}

/// Run any program, also recording the program counter of every executed
/// instruction (for instruction-memory hierarchy studies).
pub fn run_traced(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    fuel: u64,
) -> Result<(SimResult, Vec<u32>), SimError> {
    let mut sink = TraceSink::for_program(program.len());
    let tiers = Tiers::for_program(program);
    let r = simulate(m, program, memory, fuel, &mut sink, &tiers, None)?;
    Ok((r, sink.trace))
}

/// The one style dispatch behind every entry point: it segments the
/// program into superblocks and builds the run's [`Core`] for the
/// engine, every sink alike. The run is timed as a `simulate` span and
/// its statistics are flushed to the obs counters.
fn simulate<S: ProfileSink>(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    fuel: u64,
    sink: &mut S,
    tiers: &Tiers,
    io: Option<IoCtx<'_>>,
) -> Result<SimResult, SimError> {
    assert_eq!(
        tiers.program_len,
        program.len(),
        "simulator state was built for a different program"
    );
    let span = tta_obs::span("simulate");
    let blocks = BlockMap::of_program(program);
    let result = match program {
        Program::Tta(p) => {
            let code = tiers.tta_code(m, p);
            tta::run_tta_with(m, code, &blocks, Core::new(memory, io), fuel, sink)
        }
        Program::Vliw(p) => vliw::run_vliw_with(m, p, &blocks, Core::new(memory, io), fuel, sink),
        Program::Scalar(p) => {
            scalar::run_scalar_with(m, p, &blocks, Core::new(memory, io), fuel, sink)
        }
    };
    drop(span);
    flush_obs(&result);
    result
}

/// Observability: flush the already-collected per-run stats into the
/// global counters *after* the run. The cycle loops stay untouched, so
/// cycle counts and `SimStats` are bit-identical with obs on or off,
/// and the whole block reduces to one branch when obs is disabled.
fn flush_obs(result: &Result<SimResult, SimError>) {
    if tta_obs::enabled() {
        if let Ok(r) = result {
            use tta_obs::counter::add;
            add("sim.runs", 1);
            add("sim.cycles", r.cycles);
            add("sim.instructions", r.stats.instructions);
            add("sim.transports", r.stats.payload);
            add("sim.rf_reads", r.stats.rf_reads);
            add("sim.rf_writes", r.stats.rf_writes);
            add("sim.bypass_reads", r.stats.bypass_reads);
            add("sim.limms", r.stats.limms);
            add("sim.branches_taken", r.stats.branches_taken);
            add("sim.stall_cycles", r.stats.stall_cycles);
            add("sim.loads", r.stats.loads);
            add("sim.stores", r.stats.stores);
            add("sim.irq.delivered", r.stats.irqs);
            add("sim.irq.trap_cycles", r.stats.irq_cycles);
            add("sim.irq.mmio_loads", r.stats.mmio_loads);
            add("sim.irq.mmio_stores", r.stats.mmio_stores);
        }
    }
}

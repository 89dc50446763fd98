//! The differential oracle: golden interpreter vs compile+simulate.
//!
//! For one IR module the oracle runs the reference interpreter once, then
//! compiles and simulates the module on every configured machine,
//! comparing:
//!
//! * the returned value,
//! * the final data-memory image (outside the reserved low words and the
//!   compiler's spill scratch area, exactly like the hand-written
//!   differential tests),
//! * for reactive cases ([`Oracle::check_reactive`]), the UART transmit
//!   stream and the number of interrupts delivered, and
//! * that a second simulation of the same program reproduces the same
//!   cycle count bit-for-bit (simulators must be deterministic).
//!
//! Reactive cases carry an [`IoSpec`] alongside the module: an interrupt
//! schedule keyed on MMIO-store counts (the style-invariant clock — see
//! [`tta_model::io::IrqAt`]) plus a scripted UART receive stream. The
//! golden interpreter and every simulator run against their own fresh
//! `IoSystem` built from the same spec.
//!
//! A [`PlantedBug`] can be armed to mutate the module *or the I/O spec on
//! the compiled path only*, emulating a mis-compilation or a broken
//! interrupt controller. This is the hook the shrinker self-test uses to
//! prove the whole detect-and-minimise pipeline works even when the real
//! toolchain is clean.

use tta_compiler::{compile_prepared, prepare, TtaOptions};
use tta_ir::{Inst, Interpreter, Module};
use tta_model::io::{IoSpec, IoSystem, IrqAt, SOFT_LINE};
use tta_model::{presets, Machine, Opcode};

/// Memory bytes below this address are reserved (return-value slot) and
/// excluded from the comparison.
pub const MEM_COMPARE_LO: usize = 16;

/// Spill scratch headroom at the top of memory excluded from the
/// comparison (matches `ModuleBuilder::finish`).
pub const MEM_COMPARE_HEADROOM: u32 = 4096;

/// Why a module diverged between the golden model and a machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The module failed IR verification — a generator/shrinker artefact,
    /// not a semantic divergence.
    Verify(String),
    /// The golden interpreter itself failed (fuel, memory fault) — also a
    /// generator artefact, not a compiler bug.
    Interp(String),
    /// Compilation failed on a verified module.
    Compile {
        /// Design-point name.
        machine: String,
        /// The compiler's error.
        error: String,
    },
    /// Simulation failed (machine-rule violation, fault, fuel).
    Sim {
        /// Design-point name.
        machine: String,
        /// The simulator's error.
        error: String,
    },
    /// The simulated return value disagrees with the interpreter.
    Ret {
        /// Design-point name.
        machine: String,
        /// Interpreter's return value.
        golden: i32,
        /// Simulator's return value.
        got: i32,
    },
    /// The final memory images disagree.
    Mem {
        /// Design-point name.
        machine: String,
        /// First differing byte address.
        addr: usize,
        /// Interpreter's byte.
        golden: u8,
        /// Simulator's byte.
        got: u8,
    },
    /// Two simulations of the same program returned different cycle
    /// counts.
    Cycles {
        /// Design-point name.
        machine: String,
        /// First run's cycles.
        first: u64,
        /// Second run's cycles.
        second: u64,
    },
    /// The UART transmit streams disagree (reactive cases only).
    Uart {
        /// Design-point name.
        machine: String,
        /// Interpreter's transmit log.
        golden: Vec<u8>,
        /// Simulator's transmit log.
        got: Vec<u8>,
    },
    /// The interrupt delivery counts disagree (reactive cases only).
    Irqs {
        /// Design-point name.
        machine: String,
        /// Interrupts the interpreter delivered.
        golden: u64,
        /// Interrupts the simulator delivered.
        got: u64,
    },
}

impl Divergence {
    /// Whether this divergence indicates a real compiler/simulator bug
    /// (as opposed to an ill-formed input module). The shrinker only
    /// accepts reductions that keep a *semantic* divergence alive, so it
    /// can never "shrink" into a module that merely fails verification.
    pub fn is_semantic(&self) -> bool {
        !matches!(self, Divergence::Verify(_) | Divergence::Interp(_))
    }

    /// The design point the divergence was observed on, if any.
    pub fn machine(&self) -> Option<&str> {
        match self {
            Divergence::Verify(_) | Divergence::Interp(_) => None,
            Divergence::Compile { machine, .. }
            | Divergence::Sim { machine, .. }
            | Divergence::Ret { machine, .. }
            | Divergence::Mem { machine, .. }
            | Divergence::Cycles { machine, .. }
            | Divergence::Uart { machine, .. }
            | Divergence::Irqs { machine, .. } => Some(machine),
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Verify(e) => write!(f, "verify failed: {e}"),
            Divergence::Interp(e) => write!(f, "interpreter failed: {e}"),
            Divergence::Compile { machine, error } => {
                write!(f, "[{machine}] compile failed: {error}")
            }
            Divergence::Sim { machine, error } => {
                write!(f, "[{machine}] simulation failed: {error}")
            }
            Divergence::Ret {
                machine,
                golden,
                got,
            } => write!(f, "[{machine}] return value {got} != golden {golden}"),
            Divergence::Mem {
                machine,
                addr,
                golden,
                got,
            } => write!(
                f,
                "[{machine}] memory[{addr:#x}] = {got:#04x} != golden {golden:#04x}"
            ),
            Divergence::Cycles {
                machine,
                first,
                second,
            } => write!(
                f,
                "[{machine}] nondeterministic cycle count: {first} then {second}"
            ),
            Divergence::Uart {
                machine,
                golden,
                got,
            } => write!(f, "[{machine}] uart tx {got:02x?} != golden {golden:02x?}"),
            Divergence::Irqs {
                machine,
                golden,
                got,
            } => write!(
                f,
                "[{machine}] {got} interrupts delivered != golden {golden}"
            ),
        }
    }
}

/// A deliberate semantics bug injected on the compiled path only. The
/// first three mutate the *module* (a mis-compilation); the last three
/// mutate the *I/O spec* the simulators run against (a broken interrupt
/// controller or lossy device). Used by the shrinker self-test and by
/// `fuzz --plant-bug` to validate the whole pipeline end to end; never
/// enabled in normal fuzzing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// Compile every arithmetic `shr` as the logical `shru`: diverges
    /// whenever a negative value is shifted right by a non-zero amount.
    ShrAsShru,
    /// Compile `sub` with swapped operands: `a - b` becomes `b - a`.
    SubSwapped,
    /// Compile every `sxqw` (8-bit sign extension) as `sxhw` (16-bit):
    /// diverges on values whose bits 8..15 disagree with bit 7.
    SxqwAsSxhw,
    /// Shift every interrupt-schedule key one step later (a controller
    /// that latches a beat late): the handler runs at the wrong point in
    /// the MMIO-store stream, or not at all.
    IrqShiftKey,
    /// Drop every scripted interrupt on the soft line: scheduled
    /// deliveries silently never happen.
    IrqDropLine,
    /// Lose the first scripted UART receive byte: the handler pops the
    /// wrong byte (or -1) from that point on.
    UartDropByte,
}

impl PlantedBug {
    /// All planted bugs (for CLI parsing and corpus seeding).
    pub const ALL: [PlantedBug; 6] = [
        PlantedBug::ShrAsShru,
        PlantedBug::SubSwapped,
        PlantedBug::SxqwAsSxhw,
        PlantedBug::IrqShiftKey,
        PlantedBug::IrqDropLine,
        PlantedBug::UartDropByte,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PlantedBug::ShrAsShru => "shr-as-shru",
            PlantedBug::SubSwapped => "sub-swapped",
            PlantedBug::SxqwAsSxhw => "sxqw-as-sxhw",
            PlantedBug::IrqShiftKey => "irq-shift-key",
            PlantedBug::IrqDropLine => "irq-drop-line",
            PlantedBug::UartDropByte => "uart-drop-byte",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Whether this bug mutates the I/O spec (as opposed to the module).
    pub fn is_spec_bug(self) -> bool {
        matches!(
            self,
            PlantedBug::IrqShiftKey | PlantedBug::IrqDropLine | PlantedBug::UartDropByte
        )
    }

    /// Apply the mis-compilation to a module clone. Spec bugs leave the
    /// module untouched.
    pub fn apply(self, m: &Module) -> Module {
        let mut out = m.clone();
        for f in &mut out.funcs {
            for b in &mut f.blocks {
                for i in &mut b.insts {
                    match (self, &mut *i) {
                        (PlantedBug::ShrAsShru, Inst::Bin { op, .. }) if *op == Opcode::Shr => {
                            *op = Opcode::Shru;
                        }
                        (PlantedBug::SubSwapped, Inst::Bin { op, a, b, .. })
                            if *op == Opcode::Sub =>
                        {
                            std::mem::swap(a, b);
                        }
                        (PlantedBug::SxqwAsSxhw, Inst::Un { op, .. }) if *op == Opcode::Sxqw => {
                            *op = Opcode::Sxhw;
                        }
                        _ => {}
                    }
                }
            }
        }
        out
    }

    /// Apply the device/controller fault to a spec clone. Module bugs
    /// leave the spec untouched.
    pub fn apply_spec(self, spec: &IoSpec) -> IoSpec {
        let mut out = spec.clone();
        match self {
            PlantedBug::IrqShiftKey => {
                for (at, _) in &mut out.schedule {
                    *at = match *at {
                        IrqAt::Cycle(c) => IrqAt::Cycle(c + 1),
                        IrqAt::MmioStore(k) => IrqAt::MmioStore(k + 1),
                    };
                }
            }
            PlantedBug::IrqDropLine => {
                out.schedule.retain(|&(_, line)| line != SOFT_LINE);
            }
            PlantedBug::UartDropByte if !out.uart_rx.is_empty() => {
                out.uart_rx.remove(0);
            }
            _ => {}
        }
        out
    }
}

/// Per-machine success data from one oracle check.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// Design-point name.
    pub machine: String,
    /// Simulated cycle count.
    pub cycles: u64,
}

/// Everything a clean oracle check learned.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The golden return value.
    pub ret: i32,
    /// Dynamic golden instruction count (throughput accounting).
    pub golden_insts: u64,
    /// One entry per machine checked.
    pub runs: Vec<MachineRun>,
}

/// The differential oracle configuration.
pub struct Oracle {
    /// Machines to check (defaults to all 13 paper design points).
    pub machines: Vec<Machine>,
    /// Interpreter fuel per case.
    pub interp_fuel: u64,
    /// Simulator cycle budget per case.
    pub sim_fuel: u64,
    /// Optional mis-compilation hook (see [`PlantedBug`]).
    pub planted: Option<PlantedBug>,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            machines: presets::all_design_points(),
            interp_fuel: 50_000_000,
            sim_fuel: 20_000_000,
            planted: None,
        }
    }
}

impl Oracle {
    /// An oracle over all 13 design points.
    pub fn all_presets() -> Self {
        Self::default()
    }

    /// An oracle over a single named design point.
    pub fn single(name: &str) -> Option<Self> {
        presets::by_name(name).map(|m| Oracle {
            machines: vec![m],
            ..Self::default()
        })
    }

    /// Check one module with no scripted I/O. `Ok` carries per-machine
    /// cycle counts; `Err` carries the first divergence found.
    pub fn check(&self, module: &Module) -> Result<OracleReport, Divergence> {
        self.check_reactive(module, &IoSpec::default())
    }

    /// Check one reactive case: a module plus the interrupt schedule and
    /// device scripts it runs against. The golden interpreter and every
    /// simulator get their own fresh `IoSystem` built from `spec`; a
    /// planted spec bug mutates only the simulators' copy.
    ///
    /// Observability: the whole check runs under a `fuzz_check` span
    /// (the compiler and simulator charge `compile`/`simulate` spans
    /// beneath it) and feeds the `fuzz.*` counters.
    pub fn check_reactive(
        &self,
        module: &Module,
        spec: &IoSpec,
    ) -> Result<OracleReport, Divergence> {
        let _span = tta_obs::span("fuzz_check");
        let result = self.check_inner(module, spec);
        if tta_obs::enabled() {
            match &result {
                Ok(report) => {
                    tta_obs::counter::add("fuzz.cases_ok", 1);
                    tta_obs::counter::add("fuzz.golden_insts", report.golden_insts);
                    tta_obs::counter::add(
                        "fuzz.sim_cycles",
                        report.runs.iter().map(|r| r.cycles).sum(),
                    );
                }
                Err(d) if d.is_semantic() => tta_obs::counter::add("fuzz.divergences", 1),
                Err(_) => tta_obs::counter::add("fuzz.rejected_inputs", 1),
            }
        }
        result
    }

    fn check_inner(&self, module: &Module, spec: &IoSpec) -> Result<OracleReport, Divergence> {
        if let Err(es) = tta_ir::verify_module(module) {
            let msg = es
                .iter()
                .take(3)
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(Divergence::Verify(msg));
        }
        let mut golden_io = IoSystem::new(spec);
        let golden = {
            let _s = tta_obs::span("golden_interp");
            Interpreter::new(module)
                .with_fuel(self.interp_fuel)
                .run_with_io(&[], &mut golden_io)
                .map_err(|e| Divergence::Interp(e.to_string()))?
        };
        let Some(golden_ret) = golden.ret else {
            return Err(Divergence::Interp("entry returned no value".into()));
        };
        let golden_tx = golden_io.uart_tx();
        let golden_irqs = golden_io.irqs_delivered;

        // The mis-compiled twin (identical to `module`/`spec` unless a
        // bug is planted): what the compile+simulate path actually sees.
        let compiled_view = match self.planted {
            Some(bug) => bug.apply(module),
            None => module.clone(),
        };
        let spec_view = match self.planted {
            Some(bug) => bug.apply_spec(spec),
            None => spec.clone(),
        };

        let lo = MEM_COMPARE_LO.min(module.mem_size as usize);
        let hi = module.mem_size.saturating_sub(MEM_COMPARE_HEADROOM) as usize;
        // The machine-independent front half runs once per module; a
        // failure there is reported on the first machine, where a full
        // compile would have failed first.
        let prepared = prepare(&compiled_view);
        let mut runs = Vec::with_capacity(self.machines.len());
        for machine in &self.machines {
            let compiled = prepared
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|p| compile_prepared(p, machine, TtaOptions::default()))
                .map_err(|e| Divergence::Compile {
                    machine: machine.name.clone(),
                    error: e.to_string(),
                })?;
            let run = || {
                tta_sim::run_with_io(
                    machine,
                    &compiled.program,
                    module.initial_memory(),
                    self.sim_fuel,
                    &spec_view,
                    compiled.irq_entry,
                )
            };
            let result = run().map_err(|e| Divergence::Sim {
                machine: machine.name.clone(),
                error: e.to_string(),
            })?;
            if result.ret != golden_ret {
                return Err(Divergence::Ret {
                    machine: machine.name.clone(),
                    golden: golden_ret,
                    got: result.ret,
                });
            }
            if let Some(addr) = (lo..hi).find(|&a| golden.memory[a] != result.memory[a]) {
                return Err(Divergence::Mem {
                    machine: machine.name.clone(),
                    addr,
                    golden: golden.memory[addr],
                    got: result.memory[addr],
                });
            }
            if result.uart_tx != golden_tx {
                return Err(Divergence::Uart {
                    machine: machine.name.clone(),
                    golden: golden_tx,
                    got: result.uart_tx.clone(),
                });
            }
            if result.stats.irqs != golden_irqs {
                return Err(Divergence::Irqs {
                    machine: machine.name.clone(),
                    golden: golden_irqs,
                    got: result.stats.irqs,
                });
            }
            // Determinism: an identical re-run must reproduce the cycle
            // count exactly.
            let again = run().map_err(|e| Divergence::Sim {
                machine: machine.name.clone(),
                error: e.to_string(),
            })?;
            if again.cycles != result.cycles {
                return Err(Divergence::Cycles {
                    machine: machine.name.clone(),
                    first: result.cycles,
                    second: again.cycles,
                });
            }
            runs.push(MachineRun {
                machine: machine.name.clone(),
                cycles: result.cycles,
            });
        }
        Ok(OracleReport {
            ret: golden_ret,
            golden_insts: golden.stats.insts,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
    use tta_ir::Operand;

    fn shr_module() -> Module {
        // -64 >> 3 differs between arithmetic and logical shift.
        let mut mb = ModuleBuilder::new("shr");
        let mut fb = FunctionBuilder::new("main", 0, true);
        let a = fb.copy(-64);
        let r = fb.shr(a, 3);
        fb.ret(r);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        mb.finish()
    }

    #[test]
    fn clean_module_passes_all_machines() {
        let oracle = Oracle::all_presets();
        let report = oracle.check(&shr_module()).unwrap();
        assert_eq!(report.ret, -8);
        assert_eq!(report.runs.len(), 13);
        assert!(report.runs.iter().all(|r| r.cycles > 0));
    }

    #[test]
    fn planted_shr_bug_is_detected() {
        let oracle = Oracle {
            planted: Some(PlantedBug::ShrAsShru),
            ..Oracle::all_presets()
        };
        let d = oracle.check(&shr_module()).unwrap_err();
        assert!(d.is_semantic(), "{d}");
        assert!(matches!(d, Divergence::Ret { .. }), "{d}");
    }

    #[test]
    fn unverified_module_is_not_a_semantic_divergence() {
        let mut m = shr_module();
        // Break definite assignment: read a register that is never written.
        m.funcs[0].next_vreg += 1;
        let ghost = tta_ir::VReg(m.funcs[0].next_vreg - 1);
        m.funcs[0].blocks[0].insts.push(tta_ir::Inst::Bin {
            op: Opcode::Add,
            dst: ghost,
            a: Operand::Reg(ghost),
            b: Operand::Imm(1),
        });
        let d = Oracle::all_presets().check(&m).unwrap_err();
        assert!(!d.is_semantic(), "{d}");
    }

    #[test]
    fn front_half_failure_is_a_compile_divergence_on_the_first_machine() {
        // `main` calls `f(0)`; `f` recurses only on a branch never taken,
        // so the interpreter returns 0 but the module cannot be inlined.
        let mut mb = ModuleBuilder::new("rec");
        let f_id = mb.declare("f");
        let mut fb = FunctionBuilder::new("f", 1, true);
        let n = fb.param(0);
        let c = fb.lt(n, 1);
        let (base, rec) = (fb.new_block(), fb.new_block());
        fb.branch(c, base, rec);
        fb.switch_to(base);
        let zero = fb.copy(0);
        fb.ret(zero);
        fb.switch_to(rec);
        let n1 = fb.sub(n, 1);
        let r = fb.call(f_id, &[Operand::Reg(n1)]);
        fb.ret(r);
        mb.define(f_id, fb.finish());
        let mut main = FunctionBuilder::new("main", 0, true);
        let r = main.call(f_id, &[Operand::Imm(0)]);
        main.ret(r);
        let id = mb.add(main.finish());
        mb.set_entry(id);

        let oracle = Oracle::all_presets();
        match oracle.check(&mb.finish()) {
            Err(Divergence::Compile { machine, error }) => {
                assert_eq!(machine, oracle.machines[0].name);
                assert!(error.contains("recursive function f"), "{error}");
            }
            other => panic!("expected a compile divergence, got {other:?}"),
        }
    }

    #[test]
    fn planted_bug_names_round_trip() {
        for b in PlantedBug::ALL {
            assert_eq!(PlantedBug::from_name(b.name()), Some(b));
        }
        assert_eq!(PlantedBug::from_name("nope"), None);
    }

    #[test]
    fn reactive_case_passes_clean_and_every_spec_bug_is_detected() {
        let (m, spec) = crate::gen::generate_reactive(1, &crate::gen::GenConfig::default());
        let clean = Oracle::all_presets();
        let report = clean
            .check_reactive(&m, &spec)
            .unwrap_or_else(|d| panic!("clean reactive check diverged: {d}"));
        assert_eq!(report.runs.len(), 13);
        for bug in PlantedBug::ALL {
            if !bug.is_spec_bug() {
                continue;
            }
            assert_eq!(bug.apply(&m), m, "spec bugs must not touch the module");
            // A spec bug may be a no-op on a given spec (e.g. nothing to
            // drop); find a seed where each one bites below.
        }
    }

    #[test]
    fn each_spec_bug_diverges_on_some_seed() {
        for bug in [
            PlantedBug::IrqShiftKey,
            PlantedBug::IrqDropLine,
            PlantedBug::UartDropByte,
        ] {
            let oracle = Oracle {
                planted: Some(bug),
                ..Oracle::all_presets()
            };
            let caught = (0..24).any(|seed| {
                let (m, spec) =
                    crate::gen::generate_reactive(seed, &crate::gen::GenConfig::default());
                matches!(oracle.check_reactive(&m, &spec), Err(d) if d.is_semantic())
            });
            assert!(caught, "planted {} never diverged in 24 seeds", bug.name());
        }
    }

    #[test]
    fn module_bugs_leave_the_spec_untouched() {
        let spec = IoSpec {
            schedule: vec![(IrqAt::MmioStore(2), SOFT_LINE)],
            uart_rx: vec![(0, 97)],
            uart_irq_on_rx: false,
        };
        for bug in [
            PlantedBug::ShrAsShru,
            PlantedBug::SubSwapped,
            PlantedBug::SxqwAsSxhw,
        ] {
            assert_eq!(bug.apply_spec(&spec), spec, "{}", bug.name());
        }
        assert_eq!(
            PlantedBug::IrqShiftKey.apply_spec(&spec).schedule,
            vec![(IrqAt::MmioStore(3), SOFT_LINE)]
        );
        assert!(PlantedBug::IrqDropLine
            .apply_spec(&spec)
            .schedule
            .is_empty());
        assert!(PlantedBug::UartDropByte
            .apply_spec(&spec)
            .uart_rx
            .is_empty());
    }
}

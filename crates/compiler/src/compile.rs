//! The top-level compilation driver: verified IR module in, validated
//! machine program out.
//!
//! Pipeline, split at the machine boundary:
//!
//! * front half ([`prepare`], machine-independent): verify → exhaustive
//!   inlining → constant folding ↔ dead-code elimination to a fixpoint;
//! * back end ([`compile_prepared`], per machine): constant legalisation →
//!   linear-scan register allocation → located-code lowering →
//!   style-specific scheduling (TTA / VLIW / scalar) → block layout and
//!   branch-target patching → program validation.
//!
//! [`compile`] runs both halves; callers that compile one module for many
//! machines prepare it once and run only the back end per machine.

use crate::consts::ConstStats;
use crate::inline::inline_module;
use crate::layout::lay_out;
use crate::loc::lower;
use crate::regalloc::allocate;
use crate::scalar_sched::ScalarCodegen;
use crate::tta_sched::{TtaOptions, TtaScheduler, TtaStats};
use crate::vliw_sched::VliwScheduler;
use tta_ir::{Function, Module};
use tta_isa::encoding::{fits_signed, vliw_imm_bits};
use tta_isa::Program;
use tta_model::{CoreStyle, Machine, RegRef, RfId};

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The input module failed verification.
    Verify(Vec<tta_ir::VerifyError>),
    /// The module could not be inlined (recursion).
    Inline(String),
    /// Register allocation failed.
    Alloc(String),
    /// The produced program failed machine validation (a compiler bug).
    Invalid(Vec<tta_isa::IsaError>),
    /// The module shape is unsupported.
    Unsupported(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Verify(es) => write!(f, "verification failed: {} errors", es.len()),
            CompileError::Inline(m) => write!(f, "inlining failed: {m}"),
            CompileError::Alloc(m) => write!(f, "register allocation failed: {m}"),
            CompileError::Invalid(es) => {
                write!(f, "compiler produced an invalid program: ")?;
                for e in es.iter().take(3) {
                    write!(f, "{e}; ")?;
                }
                Ok(())
            }
            CompileError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compilation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStats {
    /// Blocks in the flattened function.
    pub blocks: usize,
    /// Located operations scheduled.
    pub ops: usize,
    /// Values spilled by the register allocator.
    pub spilled: usize,
    /// Constant legalisation counters.
    pub consts: ConstStats,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: usize,
    /// Instructions rewritten by constant folding / identity
    /// simplification.
    pub folded: usize,
    /// TTA-specific schedule quality (zeroed for other styles).
    pub tta: TtaStats,
}

/// A compiled program plus its metadata.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The machine program (style matches the machine).
    pub program: Program,
    /// Name of the machine compiled for.
    pub machine: String,
    /// Start address (instruction index) of each block.
    pub block_starts: Vec<u32>,
    /// Entry pc of the compiled `__irq` interrupt handler, when the
    /// module declares one: the handler is compiled as a second code
    /// region appended after the main program, entered by the simulator
    /// on interrupt delivery. Its returns are compiled as a store to
    /// [`tta_model::io::IRQ_EOI_ADDR`] (followed by a halt the simulator
    /// never reaches).
    pub irq_entry: Option<u32>,
    /// Statistics.
    pub stats: CompileStats,
}

impl Compiled {
    /// A human-readable assembly listing of the program, with block
    /// markers at the compiler's block-start addresses.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        let is_block_start = |pc: usize| self.block_starts.contains(&(pc as u32));
        let line = |pc: usize, text: String, out: &mut String| {
            if is_block_start(pc) {
                let bi = self
                    .block_starts
                    .iter()
                    .position(|&s| s == pc as u32)
                    .unwrap();
                out.push_str(&format!("bb{bi}:\n"));
            }
            out.push_str(&format!("{pc:6}: {text}\n"));
        };
        match &self.program {
            Program::Tta(insts) => {
                for (pc, i) in insts.iter().enumerate() {
                    line(pc, i.to_string(), &mut out);
                }
            }
            Program::Vliw(bundles) => {
                for (pc, b) in bundles.iter().enumerate() {
                    line(pc, b.to_string(), &mut out);
                }
            }
            Program::Scalar(insts) => {
                for (pc, i) in insts.iter().enumerate() {
                    line(pc, i.to_string(), &mut out);
                }
            }
        }
        out
    }
}

/// The reserved VLIW branch-target scratch register: the highest register
/// of the first file.
fn vliw_bt_reg(m: &Machine) -> RegRef {
    RegRef {
        rf: RfId(0),
        index: m.rfs[0].regs - 1,
    }
}

/// Compile `module` for `machine` with every TTA freedom enabled.
pub fn compile(module: &Module, machine: &Machine) -> Result<Compiled, CompileError> {
    compile_with(module, machine, TtaOptions::default())
}

/// Compile with explicit TTA-freedom toggles (no effect on VLIW/scalar
/// targets); used by the ablation study.
pub fn compile_with(
    module: &Module,
    machine: &Machine,
    opts: TtaOptions,
) -> Result<Compiled, CompileError> {
    let _compile_span = tta_obs::span("compile");
    back_end(&front_half(module)?, machine, opts)
}

/// The machine-independent front half of a compilation: the module
/// verified, inlined into its entry function (and into its `__irq`
/// handler, when it declares one) and folded/DCE'd to a fixpoint.
///
/// [`prepare`] builds it once per module; [`compile_prepared`] turns it
/// into a program for any machine. A caller that compiles one module for
/// many machines (the fuzz oracle, the compile cache, the profiler) pays
/// for the front half once instead of once per machine.
#[derive(Debug, Clone)]
pub struct Prepared {
    main: Segment,
    irq: Option<Segment>,
}

/// One code region of a [`Prepared`] module.
#[derive(Debug, Clone)]
struct Segment {
    /// The flattened, optimised function.
    flat: Function,
    /// Where the register allocator spills.
    spill_base: u32,
    /// Instructions removed by dead-code elimination.
    dce_removed: usize,
    /// Instructions rewritten by constant folding.
    folded: usize,
}

/// Run the machine-independent front half of [`compile`] once: verify,
/// check the entry signature, inline and optimise the entry function and
/// the `__irq` handler view. Charged to a `compile` span, like the rest
/// of the compiler.
pub fn prepare(module: &Module) -> Result<Prepared, CompileError> {
    let _compile_span = tta_obs::span("compile");
    front_half(module)
}

/// Compile a [`prepare`]d module for `machine`: the machine-dependent
/// back end of [`compile_with`], with an identical result.
pub fn compile_prepared(
    prepared: &Prepared,
    machine: &Machine,
    opts: TtaOptions,
) -> Result<Compiled, CompileError> {
    let _compile_span = tta_obs::span("compile");
    back_end(prepared, machine, opts)
}

fn front_half(module: &Module) -> Result<Prepared, CompileError> {
    {
        let _s = tta_obs::span("verify");
        tta_ir::verify::verify_module(module).map_err(CompileError::Verify)?;
    }
    if !module.entry_func().params.is_empty() {
        return Err(CompileError::Unsupported(
            "entry functions must take no parameters".into(),
        ));
    }
    let main = optimise(module, module.mem_size.saturating_sub(4096))?;
    // The handler's spill slots live in a separate area so a trap can
    // never clobber a spilled main value.
    let irq = irq_view(module)
        .map(|hview| optimise(&hview, module.mem_size.saturating_sub(2048)))
        .transpose()?;
    let folded = main.folded + irq.as_ref().map_or(0, |h| h.folded);
    tta_obs::counter::add("compiler.prepares", 1);
    tta_obs::counter::add("compiler.folded", folded as u64);
    Ok(Prepared { main, irq })
}

/// Inline `module.entry_func()` and iterate constant folding and DCE to
/// a fixpoint.
fn optimise(module: &Module, spill_base: u32) -> Result<Segment, CompileError> {
    let mut flat = {
        let _s = tta_obs::span("inline");
        inline_module(module).map_err(|e| CompileError::Inline(e.0))?
    };
    // Folding exposes dead code and vice versa; iterate the pair to a
    // fixpoint (bounded — each round strictly shrinks or stops).
    let mut dce_removed = 0;
    let mut folded = 0;
    let _opt_span = tta_obs::span("opt");
    loop {
        let f = crate::fold::fold_constants(&mut flat)
            + crate::fold::propagate_single_def_constants(&mut flat);
        let d = crate::dce::eliminate_dead_code(&mut flat);
        folded += f;
        dce_removed += d;
        if f == 0 && d == 0 {
            break;
        }
    }
    Ok(Segment {
        flat,
        spill_base,
        dce_removed,
        folded,
    })
}

/// The machine-dependent half: compile the main segment, append the
/// `__irq` handler as a second code region, validate.
fn back_end(p: &Prepared, machine: &Machine, opts: TtaOptions) -> Result<Compiled, CompileError> {
    let (mut program, mut block_starts, mut stats) = compile_segment(&p.main, machine, opts, 0)?;

    // The `__irq` handler compiles as a second code region appended
    // after the main program, with its own spill area (512 words each).
    let mut irq_entry = None;
    if let Some(handler) = &p.irq {
        const SPILL_WORDS: usize = 512;
        let base = program.len() as u32;
        let (hprog, hstarts, hstats) = compile_segment(handler, machine, opts, base)?;
        if stats.spilled > SPILL_WORDS || hstats.spilled > SPILL_WORDS {
            return Err(CompileError::Alloc(format!(
                "spill areas overflow with an interrupt handler: main {} / handler {} (max {})",
                stats.spilled, hstats.spilled, SPILL_WORDS
            )));
        }
        append_program(&mut program, hprog);
        block_starts.extend(hstarts);
        stats.blocks += hstats.blocks;
        stats.ops += hstats.ops;
        stats.spilled += hstats.spilled;
        stats.dce_removed += hstats.dce_removed;
        stats.folded += hstats.folded;
        irq_entry = Some(base);
    }

    {
        let _s = tta_obs::span("validate");
        program.validate(machine).map_err(CompileError::Invalid)?;
    }
    tta_obs::counter::add("compiler.compiles", 1);
    tta_obs::counter::add("compiler.blocks", stats.blocks as u64);
    tta_obs::counter::add("compiler.insts", stats.ops as u64);
    Ok(Compiled {
        program,
        machine: machine.name.clone(),
        block_starts,
        irq_entry,
        stats,
    })
}

/// The module as seen by the interrupt-handler compilation pass: entry
/// swapped to `__irq`, and a store to [`tta_model::io::IRQ_EOI_ADDR`]
/// injected before every handler return. The simulator treats that
/// doorbell store as the return-from-interrupt, so `Ret(None)`'s own
/// halt lowering becomes unreachable — no new opcode is needed.
fn irq_view(module: &Module) -> Option<Module> {
    use tta_ir::inst::{Inst, MemRegion, Operand, Terminator};
    let id = module.irq_handler_id()?;
    let mut m = module.clone();
    m.entry = id;
    let f = &mut m.funcs[id.0 as usize];
    for b in &mut f.blocks {
        if matches!(b.term, Some(Terminator::Ret(None))) {
            b.insts.push(Inst::Store {
                op: tta_model::Opcode::Stw,
                value: Operand::Imm(0),
                addr: Operand::Imm(tta_model::io::IRQ_EOI_ADDR as i32),
                region: MemRegion::ANY,
            });
        }
    }
    Some(m)
}

/// Append a same-style code segment to `main`.
fn append_program(main: &mut Program, seg: Program) {
    match (main, seg) {
        (Program::Tta(a), Program::Tta(b)) => a.extend(b),
        (Program::Vliw(a), Program::Vliw(b)) => a.extend(b),
        (Program::Scalar(a), Program::Scalar(b)) => a.extend(b),
        _ => unreachable!("segments compiled for the same machine share a style"),
    }
}

/// The back end over one prepared segment: legalise constants, allocate
/// registers (spilling at the segment's spill base), schedule, and lay
/// blocks out starting at absolute pc `base` (branch targets are patched
/// to absolute addresses).
fn compile_segment(
    seg: &Segment,
    machine: &Machine,
    opts: TtaOptions,
    base: u32,
) -> Result<(Program, Vec<u32>, CompileStats), CompileError> {
    let mut flat = seg.flat.clone();

    // Constant legalisation with the style's inline-immediate reach.
    let fits: Box<dyn Fn(i32) -> bool> = match machine.style {
        CoreStyle::Tta => {
            let bits: Vec<u8> = machine.buses.iter().map(|b| b.simm_bits).collect();
            let min = bits.into_iter().min().unwrap_or(0) as u32;
            Box::new(move |v| fits_signed(v, min))
        }
        CoreStyle::Vliw => {
            let bits = vliw_imm_bits(machine);
            Box::new(move |v| fits_signed(v, bits))
        }
        CoreStyle::Scalar => {
            let bits = machine.scalar.expect("scalar machine").imm_bits as u32;
            Box::new(move |v| fits_signed(v, bits))
        }
    };
    // Hoisting floods long-lived registers; budget it to a quarter of the
    // register file so the allocator never spills just to hold constants.
    let hoist_budget = (machine.total_regs() as usize / 4).max(4);
    let const_stats = {
        let _s = tta_obs::span("consts");
        crate::consts::hoist_wide_constants(&mut flat, fits.as_ref(), hoist_budget)
    };

    // Register allocation (reserving the VLIW branch-target register).
    let reserved: Vec<RegRef> = match machine.style {
        CoreStyle::Vliw => vec![vliw_bt_reg(machine)],
        _ => vec![],
    };
    let alloc =
        allocate(flat, machine, &reserved, seg.spill_base).map_err(|e| CompileError::Alloc(e.0))?;
    let spilled = alloc.spilled;
    let lf = {
        let _s = tta_obs::span("lower");
        lower(&alloc)
    };

    let mut stats = CompileStats {
        blocks: lf.blocks.len(),
        ops: lf.blocks.iter().map(|b| b.ops.len()).sum(),
        spilled,
        consts: const_stats,
        dce_removed: seg.dce_removed,
        folded: seg.folded,
        tta: TtaStats::default(),
    };

    // Schedule, then lay the blocks out from `base` with their branch
    // targets patched.
    let (program, block_starts) = match machine.style {
        CoreStyle::Vliw => {
            let blocks = VliwScheduler::new(machine, vliw_bt_reg(machine)).schedule(&lf);
            let (insts, starts) = lay_out(blocks, base);
            (Program::Vliw(insts), starts)
        }
        CoreStyle::Tta => {
            let mut sched = TtaScheduler::with_options(machine, opts);
            let blocks = sched.schedule(&lf);
            stats.tta = sched.stats;
            let (insts, starts) = lay_out(blocks, base);
            (Program::Tta(insts), starts)
        }
        CoreStyle::Scalar => {
            let (insts, starts) = lay_out(ScalarCodegen::new(machine).generate(&lf), base);
            (Program::Scalar(insts), starts)
        }
    };
    Ok((program, block_starts, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
    use tta_isa::{OpSrc, ScalarInst};
    use tta_model::presets;

    fn sum_module(n: i32) -> Module {
        let mut mb = ModuleBuilder::new("sum");
        let buf = mb.buffer(64);
        let mut fb = FunctionBuilder::new("main", 0, true);
        let i = fb.copy(0);
        let sum = fb.copy(0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(head);
        fb.switch_to(head);
        let c = fb.lt(i, n);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let addr = fb.shl(i, 2);
        let addr = fb.add(addr, buf.base());
        fb.stw(i, addr, buf.region);
        let v = fb.ldw(addr, buf.region);
        let s2 = fb.add(sum, v);
        fb.copy_to(sum, s2);
        let i2 = fb.add(i, 1);
        fb.copy_to(i, i2);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(sum);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        mb.finish()
    }

    #[test]
    fn compiles_for_every_design_point() {
        let m = sum_module(10);
        for machine in presets::all_design_points() {
            let c = compile(&m, &machine).unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            assert!(!c.program.is_empty(), "{}", machine.name);
            assert_eq!(c.block_starts.len(), c.stats.blocks);
        }
    }

    #[test]
    fn branch_targets_are_patched() {
        let m = sum_module(3);
        let machine = presets::mblaze_3();
        let c = compile(&m, &machine).unwrap();
        // No instruction may carry a zero jump-target placeholder pointing
        // nowhere: every control op's target must be a valid address.
        if let Program::Scalar(insts) = &c.program {
            for inst in insts {
                if let ScalarInst::Op(o) = inst {
                    if o.op.is_ctrl() && o.op != tta_model::Opcode::Halt {
                        let target = [o.a, o.b]
                            .into_iter()
                            .flatten()
                            .find_map(|s| match s {
                                OpSrc::Imm(v) => Some(v),
                                _ => None,
                            })
                            .expect("jump target immediate");
                        assert!((target as usize) < insts.len());
                    }
                }
            }
        } else {
            panic!("expected scalar program");
        }
    }

    /// A module whose `__irq` handler bumps a counter `main` reads back.
    fn irq_module() -> Module {
        use tta_ir::inst::MemRegion;
        let mut mb = ModuleBuilder::new("withirq");
        let buf = mb.buffer(8);
        let mut hb = FunctionBuilder::new("__irq", 0, false);
        let old = hb.ldw(buf.base(), buf.region);
        let n = hb.add(old, 1);
        hb.stw(n, buf.base(), buf.region);
        hb.ret_void();
        mb.add(hb.finish());
        let mut fb = FunctionBuilder::new("main", 0, true);
        fb.stw(1, tta_model::io::IRQ_CTRL_ADDR as i32, MemRegion::ANY);
        let v = fb.ldw(buf.base(), buf.region);
        fb.ret(v);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        mb.finish()
    }

    /// `main` calls `f(0)`; `f` calls itself on its (never taken)
    /// recursive branch, so the module runs but cannot be inlined.
    fn recursive_module() -> Module {
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
        let r = fb.call(f_id, &[tta_ir::Operand::Reg(n1)]);
        fb.ret(r);
        mb.define(f_id, fb.finish());
        let mut main = FunctionBuilder::new("main", 0, true);
        let r = main.call(f_id, &[tta_ir::Operand::Imm(0)]);
        main.ret(r);
        let id = mb.add(main.finish());
        mb.set_entry(id);
        mb.finish()
    }

    #[test]
    fn prepare_reports_front_half_errors() {
        let e = prepare(&recursive_module()).unwrap_err();
        assert!(
            matches!(e, CompileError::Inline(ref m) if m.contains("recursive")),
            "{e}"
        );

        let mut mb = ModuleBuilder::new("param");
        let mut fb = FunctionBuilder::new("main", 1, true);
        let p = fb.param(0);
        fb.ret(p);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let e = prepare(&mb.finish()).unwrap_err();
        assert!(matches!(e, CompileError::Unsupported(_)), "{e}");
    }

    #[test]
    fn prepared_back_end_matches_compile() {
        for m in [irq_module(), sum_module(10)] {
            let p = prepare(&m).unwrap();
            for machine in presets::all_design_points() {
                let whole = compile(&m, &machine).unwrap();
                let split = compile_prepared(&p, &machine, TtaOptions::default()).unwrap();
                assert_eq!(split.irq_entry, whole.irq_entry, "{}", machine.name);
                assert_eq!(split.block_starts, whole.block_starts, "{}", machine.name);
                assert_eq!(split.program, whole.program, "{}", machine.name);
            }
        }
    }

    #[test]
    fn irq_handler_compiles_as_appended_region() {
        let m = irq_module();
        for machine in presets::all_design_points() {
            let c = compile(&m, &machine).unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            let entry = c
                .irq_entry
                .unwrap_or_else(|| panic!("{}: no irq entry", machine.name));
            assert!(
                entry > 0 && (entry as usize) < c.program.len(),
                "{}: handler entry {entry} out of range",
                machine.name
            );
            // The handler region must be a block start.
            assert!(c.block_starts.contains(&entry), "{}", machine.name);
        }

        // Without a handler the entry stays empty.
        let plain = sum_module(3);
        let c = compile(&plain, &presets::m_tta_2()).unwrap();
        assert_eq!(c.irq_entry, None);
    }

    #[test]
    fn tta_stats_show_bypassing() {
        let m = sum_module(10);
        let machine = presets::m_tta_2();
        let c = compile(&m, &machine).unwrap();
        assert!(c.stats.tta.moves > 0);
        assert!(c.stats.tta.bypassed > 0, "expected some software bypassing");
    }
}

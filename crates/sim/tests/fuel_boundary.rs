//! Fuel-exhaustion boundary semantics under fused-block dispatch.
//!
//! The engines check fuel once per superblock entry and clamp the block's
//! dispatch length to the remaining budget, so a program exhausting fuel
//! *mid-superblock* must behave exactly like the per-cycle reference: for
//! every budget below the program's exact cost the run fails with
//! [`SimError::OutOfFuel`], and at or above it the result is identical to
//! the unconstrained run — on all three styles. The sweep is exhaustive
//! over every fuel value up to the boundary, so every possible mid-block
//! cut point (including inside jump delay-slot windows) is exercised.

use tta_compiler::compile;
use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
use tta_ir::inst::MemRegion;
use tta_ir::Module;
use tta_model::io::{IoSpec, IrqAt, IRQ_CTRL_ADDR, SOFT_LINE};
use tta_model::{presets, Machine};
use tta_sim::{SimError, SimResult, Tiers};

/// A small looping kernel: two dependent loops with stores and loads, so
/// the compiled programs have several superblocks, taken and fall-through
/// branches, and (on the TTA/VLIW machines) delay slots in play.
fn loop_module() -> Module {
    let mut mb = ModuleBuilder::new("fuelloop");
    let buf = mb.buffer(64);
    let mut fb = FunctionBuilder::new("main", 0, true);
    let i = fb.copy(0);
    let acc = fb.copy(0);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.jump(head);
    fb.switch_to(head);
    let c = fb.lt(i, 9);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let sq = fb.mul(i, i);
    let off = fb.shl(i, 2);
    let addr = fb.add(off, buf.base());
    fb.stw(sq, addr, buf.region);
    let back = fb.ldw(addr, buf.region);
    let acc2 = fb.add(acc, back);
    fb.copy_to(acc, acc2);
    let i2 = fb.add(i, 1);
    fb.copy_to(i, i2);
    fb.jump(head);
    fb.switch_to(exit);
    fb.ret(acc);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    mb.finish()
}

fn assert_same(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.ret, b.ret, "{what}: return value");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.memory, b.memory, "{what}: memory image");
}

/// The exact fuel boundary of a style: the minimum budget that lets the
/// program finish. TTA/VLIW fuel counts cycles; scalar fuel counts
/// executed instructions.
fn boundary(m: &Machine, full: &SimResult) -> u64 {
    if m.scalar.is_some() {
        full.stats.instructions
    } else {
        full.cycles
    }
}

fn sweep(machine: &Machine) {
    let module = loop_module();
    let compiled =
        compile(&module, machine).unwrap_or_else(|e| panic!("compile on {}: {e}", machine.name));
    let run = |fuel: u64| {
        tta_sim::run_with_fuel(machine, &compiled.program, module.initial_memory(), fuel)
    };

    let full =
        run(tta_sim::DEFAULT_FUEL).unwrap_or_else(|e| panic!("full run on {}: {e}", machine.name));
    let b = boundary(machine, &full);
    // Keep the exhaustive sweep meaningful and cheap: the kernel must loop
    // enough to cross many block boundaries but stay small.
    assert!(
        (50..5000).contains(&b),
        "{}: boundary {b} outside the expected window",
        machine.name
    );

    // Below the boundary: out of fuel at every possible cut point,
    // including mid-superblock and inside delay-slot windows.
    for fuel in 0..b {
        match run(fuel) {
            Err(SimError::OutOfFuel) => {}
            other => panic!(
                "{}: fuel {fuel} of {b} should exhaust, got {other:?}",
                machine.name
            ),
        }
    }
    // At and above the boundary: bit-identical to the unconstrained run.
    for fuel in b..b + 3 {
        let r = run(fuel)
            .unwrap_or_else(|e| panic!("{}: fuel {fuel} of {b} failed: {e}", machine.name));
        assert_same(&r, &full, &format!("{} at fuel {fuel}", machine.name));
    }
}

/// [`loop_module`] plus interrupts: a `__irq` handler bumps a counter
/// that the exit path folds into the return value (shifted clear of the
/// accumulator), and `main` enables interrupts first thing. Two
/// cycle-keyed arrivals land mid-loop, so the sweep below cuts fuel at
/// every point *around a trap* too: mid-drain, between trap entry and
/// the handler, inside the handler, and across the return.
fn reactive_loop_module() -> Module {
    let mut mb = ModuleBuilder::new("fuelloop_irq");
    let buf = mb.buffer(64);
    let ibuf = mb.buffer(8);
    let mut hb = FunctionBuilder::new("__irq", 0, false);
    let old = hb.ldw(ibuf.base(), ibuf.region);
    let n = hb.add(old, 1);
    hb.stw(n, ibuf.base(), ibuf.region);
    hb.ret_void();
    mb.add(hb.finish());
    let mut fb = FunctionBuilder::new("main", 0, true);
    fb.stw(1, IRQ_CTRL_ADDR as i32, MemRegion::ANY);
    let i = fb.copy(0);
    let acc = fb.copy(0);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.jump(head);
    fb.switch_to(head);
    let c = fb.lt(i, 9);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let sq = fb.mul(i, i);
    let off = fb.shl(i, 2);
    let addr = fb.add(off, buf.base());
    fb.stw(sq, addr, buf.region);
    let back = fb.ldw(addr, buf.region);
    let acc2 = fb.add(acc, back);
    fb.copy_to(acc, acc2);
    let i2 = fb.add(i, 1);
    fb.copy_to(i, i2);
    fb.jump(head);
    fb.switch_to(exit);
    let hits = fb.ldw(ibuf.base(), ibuf.region);
    let tagged = fb.shl(hits, 16);
    let out = fb.add(acc, tagged);
    fb.ret(out);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    mb.finish()
}

/// The interrupt leg of the boundary sweep: with a fixed schedule, every
/// fuel value below the exact cost errs with `OutOfFuel` and every value
/// at or above it reproduces the unconstrained run bit-for-bit — with
/// simulator state built fresh for every run and with one state shared by
/// the whole sweep alike, and the two agree on the unconstrained result.
fn reactive_sweep(machine: &Machine) {
    let module = reactive_loop_module();
    let compiled =
        compile(&module, machine).unwrap_or_else(|e| panic!("compile on {}: {e}", machine.name));
    let spec = IoSpec {
        schedule: vec![(IrqAt::Cycle(20), SOFT_LINE), (IrqAt::Cycle(60), SOFT_LINE)],
        ..IoSpec::default()
    };
    let mut baseline: Option<SimResult> = None;
    for what in ["fresh", "shared"] {
        // Shared across the whole sweep, the thunk array the first run
        // builds serves every later fuel value.
        let shared = Tiers::for_program(&compiled.program);
        let run = |fuel: u64| {
            let fresh = Tiers::for_program(&compiled.program);
            tta_sim::run_with_io_tiers(
                machine,
                &compiled.program,
                module.initial_memory(),
                fuel,
                &spec,
                compiled.irq_entry,
                if what == "fresh" { &fresh } else { &shared },
            )
        };
        let full = run(200_000)
            .unwrap_or_else(|e| panic!("{} ({what}): full run failed: {e}", machine.name));
        assert_eq!(
            full.stats.irqs, 2,
            "{} ({what}): both arrivals",
            machine.name
        );
        assert_eq!(
            full.ret >> 16,
            2,
            "{} ({what}): handler ran twice",
            machine.name
        );
        match &baseline {
            None => baseline = Some(full.clone()),
            Some(base) => assert_same(
                &full,
                base,
                &format!("{} ({what}) vs baseline", machine.name),
            ),
        }
        let b = boundary(machine, &full);
        for fuel in 0..b {
            match run(fuel) {
                Err(SimError::OutOfFuel) => {}
                other => panic!(
                    "{} ({what}): fuel {fuel} of {b} should exhaust, got {other:?}",
                    machine.name
                ),
            }
        }
        for fuel in b..b + 3 {
            let r = run(fuel).unwrap_or_else(|e| {
                panic!("{} ({what}): fuel {fuel} of {b} failed: {e}", machine.name)
            });
            assert_same(
                &r,
                &full,
                &format!("{} ({what}) at fuel {fuel}", machine.name),
            );
        }
    }
}

#[test]
fn tta_fuel_boundary_is_exact() {
    sweep(&presets::m_tta_2());
    sweep(&presets::m_tta_1());
}

#[test]
fn tta_fuel_boundary_is_exact_with_interrupts() {
    reactive_sweep(&presets::m_tta_2());
}

#[test]
fn vliw_fuel_boundary_is_exact_with_interrupts() {
    reactive_sweep(&presets::m_vliw_2());
}

#[test]
fn scalar_fuel_boundary_is_exact_with_interrupts() {
    reactive_sweep(&presets::mblaze_3());
}

#[test]
fn vliw_fuel_boundary_is_exact() {
    sweep(&presets::m_vliw_2());
}

#[test]
fn scalar_fuel_boundary_is_exact() {
    sweep(&presets::mblaze_3());
    sweep(&presets::mblaze_5());
}

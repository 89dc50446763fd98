//! Memory-mapped I/O end-to-end through the cycle-accurate simulators.
//!
//! The device-semantics unit tests live next to [`tta_model::io`]; this
//! suite drives the same machinery through real compiled guests on every
//! design point: UART bytes round-trip rx → handler → tx bit-identically
//! across the three styles (and the IR reference interpreter), the timer
//! edge cases (period 0 never fires, period 1 storms, arming near the
//! fuel boundary) behave the same compiled as interpreted, and a reactive
//! run on fresh simulator state equals the runs that build and reuse a
//! shared thunk array under a fixed schedule.

use tta_compiler::compile;
use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
use tta_ir::inst::MemRegion;
use tta_ir::interp::Interpreter;
use tta_ir::Module;
use tta_model::io::{
    IoSpec, IoSystem, IrqAt, IRQ_CTRL_ADDR, SOFT_LINE, TIMER_CTRL_ADDR, TIMER_PERIOD_ADDR,
    UART_RX_ADDR, UART_TX_ADDR,
};
use tta_model::presets;
use tta_sim::{run_with_io, run_with_io_tiers, SimResult, Tiers};

const FUEL: u64 = 200_000;

/// A reactive guest: `main` enables interrupts, transmits `markers`
/// sentinel bytes over the UART, and returns the accumulator the handler
/// maintains at `buf[0]`. The handler pops one rx byte, adds it into the
/// accumulator, and echoes it to the tx log.
fn echo_module(markers: u32) -> Module {
    let mut mb = ModuleBuilder::new("uart_echo");
    let buf = mb.buffer(8);
    let mut hb = FunctionBuilder::new("__irq", 0, false);
    let rx = hb.ldw(UART_RX_ADDR as i32, MemRegion::ANY);
    let old = hb.ldw(buf.base(), buf.region);
    let sum = hb.add(old, rx);
    hb.stw(sum, buf.base(), buf.region);
    hb.stw(rx, UART_TX_ADDR as i32, MemRegion::ANY);
    hb.ret_void();
    mb.add(hb.finish());
    let mut fb = FunctionBuilder::new("main", 0, true);
    fb.stw(1, IRQ_CTRL_ADDR as i32, MemRegion::ANY);
    for k in 0..markers {
        fb.stw(0x41 + k as i32, UART_TX_ADDR as i32, MemRegion::ANY);
    }
    let v = fb.ldw(buf.base(), buf.region);
    fb.ret(v);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    mb.finish()
}

/// Interrupt after the guest's 2nd and 4th MMIO store. Handler echoes
/// count as MMIO stores too, so with the IE store as #1: marker 'A' (#2)
/// fires irq 1, its echo is #3, marker 'B' (#4) fires irq 2, echo #5,
/// markers 'C'/'D' follow — `A a B b C D` on the wire.
fn echo_spec() -> IoSpec {
    IoSpec {
        schedule: vec![
            (IrqAt::MmioStore(2), SOFT_LINE),
            (IrqAt::MmioStore(4), SOFT_LINE),
        ],
        uart_rx: vec![(0, b'a'), (0, b'b')],
        ..IoSpec::default()
    }
}

fn interp_oracle(module: &Module, spec: &IoSpec) -> (i32, Vec<u8>, u64) {
    let mut io = IoSystem::new(spec);
    let r = Interpreter::new(module)
        .run_with_io(&[], &mut io)
        .expect("interpreter");
    (r.ret.unwrap_or(0), io.uart_tx(), io.irqs_delivered)
}

fn sim_reactive(machine: &tta_model::Machine, module: &Module, spec: &IoSpec) -> SimResult {
    let c = compile(module, machine).unwrap_or_else(|e| panic!("compile on {}: {e}", machine.name));
    run_with_io(
        machine,
        &c.program,
        module.initial_memory(),
        FUEL,
        spec,
        c.irq_entry,
    )
    .unwrap_or_else(|e| panic!("reactive run on {}: {e}", machine.name))
}

#[test]
fn uart_bytes_round_trip_identically_on_every_design_point() {
    let module = echo_module(4);
    let spec = echo_spec();
    let (oracle_ret, oracle_tx, oracle_irqs) = interp_oracle(&module, &spec);
    assert_eq!(oracle_tx, vec![b'A', b'a', b'B', b'b', b'C', b'D']);
    assert_eq!(oracle_ret, (b'a' + b'b') as i32);

    for machine in &presets::all_design_points() {
        let r = sim_reactive(machine, &module, &spec);
        assert_eq!(r.ret, oracle_ret, "{}: return value", machine.name);
        assert_eq!(r.uart_tx, oracle_tx, "{}: uart tx stream", machine.name);
        assert_eq!(
            r.stats.irqs, oracle_irqs,
            "{}: interrupts delivered",
            machine.name
        );
        assert!(
            r.stats.irq_cycles > 0,
            "{}: trap overhead must be charged",
            machine.name
        );
        // 1 IE + 4 markers + 2 handler echoes; EOI stores never count.
        assert_eq!(r.stats.mmio_stores, 7, "{}: mmio store clock", machine.name);
    }
}

#[test]
fn reactive_runs_are_bit_identical_on_shared_state() {
    let module = echo_module(4);
    let spec = echo_spec();
    for machine in &presets::all_design_points() {
        let c = compile(&module, machine)
            .unwrap_or_else(|e| panic!("compile on {}: {e}", machine.name));
        let fresh = run_with_io(
            machine,
            &c.program,
            module.initial_memory(),
            FUEL,
            &spec,
            c.irq_entry,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
        // The first run through shared state builds the TTA thunk array,
        // the second reuses it.
        let tiers = Tiers::for_program(&c.program);
        for what in ["building run", "reusing run"] {
            let r = run_with_io_tiers(
                machine,
                &c.program,
                module.initial_memory(),
                FUEL,
                &spec,
                c.irq_entry,
                &tiers,
            )
            .unwrap_or_else(|e| panic!("{} ({what}): {e}", machine.name));
            assert_eq!(r, fresh, "{}: {what} diverged", machine.name);
        }
    }
}

/// Timer guest: program `period`, enable the timer, spin `spins` empty
/// loop iterations, and return the interrupt count the handler keeps at
/// `buf[0]`.
fn timer_module(period: i32, spins: i32) -> Module {
    let mut mb = ModuleBuilder::new("timer_guest");
    let buf = mb.buffer(8);
    let mut hb = FunctionBuilder::new("__irq", 0, false);
    let old = hb.ldw(buf.base(), buf.region);
    let n = hb.add(old, 1);
    hb.stw(n, buf.base(), buf.region);
    hb.ret_void();
    mb.add(hb.finish());
    let mut fb = FunctionBuilder::new("main", 0, true);
    fb.stw(period, TIMER_PERIOD_ADDR as i32, MemRegion::ANY);
    fb.stw(1, TIMER_CTRL_ADDR as i32, MemRegion::ANY);
    fb.stw(1, IRQ_CTRL_ADDR as i32, MemRegion::ANY);
    let i = fb.copy(0);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.jump(head);
    fb.switch_to(head);
    let c = fb.lt(i, spins);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let i2 = fb.add(i, 1);
    fb.copy_to(i, i2);
    fb.jump(head);
    fb.switch_to(exit);
    let v = fb.ldw(buf.base(), buf.region);
    fb.ret(v);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    mb.finish()
}

#[test]
fn timer_period_zero_never_fires_on_any_style() {
    let module = timer_module(0, 50);
    for machine in &presets::all_design_points() {
        let r = sim_reactive(machine, &module, &IoSpec::default());
        assert_eq!(r.ret, 0, "{}: period-0 timer fired", machine.name);
        assert_eq!(r.stats.irqs, 0, "{}", machine.name);
    }
}

#[test]
fn timer_period_one_storms_deterministically_into_the_fuel_limit() {
    // The handler takes more than one cycle, so a period-1 timer re-fires
    // before the interrupted program can make progress: a livelocked
    // interrupt storm whose defined behaviour on *every* engine —
    // including the reference interpreter, whose boundary delivery drains
    // re-raised lines back-to-back — is a deterministic out-of-fuel
    // error. The storm is still excluded from the style-invariant
    // differential oracle because each style reaches the fuel limit at a
    // different point in the guest (see `IrqAt`).
    let module = timer_module(1, 30);
    let mut io = IoSystem::new(&IoSpec::default());
    let interp = Interpreter::new(&module)
        .with_fuel(FUEL)
        .run_with_io(&[], &mut io);
    assert!(
        matches!(interp, Err(tta_ir::interp::IrError::FuelExhausted)),
        "interpreter storms into the fuel limit by design: {interp:?}"
    );
    for machine in &presets::all_design_points() {
        let c = compile(&module, machine)
            .unwrap_or_else(|e| panic!("compile on {}: {e}", machine.name));
        let run = || {
            run_with_io(
                machine,
                &c.program,
                module.initial_memory(),
                FUEL,
                &IoSpec::default(),
                c.irq_entry,
            )
        };
        match run() {
            Err(tta_sim::SimError::OutOfFuel) => {}
            other => panic!("{}: expected OutOfFuel, got {other:?}", machine.name),
        }
        // Deterministic: the second run fails identically.
        assert!(
            matches!(run(), Err(tta_sim::SimError::OutOfFuel)),
            "{}",
            machine.name
        );
    }
}

#[test]
fn timer_interrupt_straddling_the_fuel_boundary_is_exact() {
    // A long-period timer guest whose only interrupt lands near the end:
    // sweep every fuel value across the full run's boundary and require
    // clean OutOfFuel below it and the unconstrained result at/above it
    // (the trap's own drain cycles are fuel-checked too).
    let module = timer_module(200, 80);
    for machine in &presets::all_design_points() {
        let c = compile(&module, machine)
            .unwrap_or_else(|e| panic!("compile on {}: {e}", machine.name));
        let run = |fuel: u64| {
            run_with_io(
                machine,
                &c.program,
                module.initial_memory(),
                fuel,
                &IoSpec::default(),
                c.irq_entry,
            )
        };
        let full = run(FUEL).unwrap_or_else(|e| panic!("full run on {}: {e}", machine.name));
        let boundary = if machine.scalar.is_some() {
            full.stats.instructions
        } else {
            full.cycles
        };
        for fuel in boundary.saturating_sub(40)..boundary {
            match run(fuel) {
                Err(tta_sim::SimError::OutOfFuel) => {}
                other => panic!("{}: fuel {fuel} of {boundary}: {other:?}", machine.name),
            }
        }
        for fuel in boundary..boundary + 3 {
            let r = run(fuel)
                .unwrap_or_else(|e| panic!("{}: fuel {fuel} of {boundary}: {e}", machine.name));
            assert_eq!(r, full, "{}: fuel {fuel}", machine.name);
        }
    }
}

//! Direct tests of the simulators' timing semantics with hand-built
//! machine programs — the contract the schedulers plan against, pinned
//! down independently of the compiler.

use tta_isa::{
    Move, MoveDst, MoveSrc, OpSrc, Operation, Program, ScalarInst, TtaInst, VliwBundle, VliwSlot,
};
use tta_model::{
    presets, FuId, Machine, Opcode, RegRef, RegisterFile, RfId, SearchConfig, TtaParams,
};
use tta_sim::{SimError, SimResult, Tiers};

const ALU: FuId = FuId(0);
// In the single-ALU presets the LSU is unit 1 and the control unit 2.
const LSU: FuId = FuId(1);
const CU: FuId = FuId(2);

fn rr(i: u16) -> RegRef {
    RegRef {
        rf: RfId(0),
        index: i,
    }
}

fn mv(src: MoveSrc, dst: MoveDst) -> Option<Move> {
    Some(Move { src, dst })
}

/// Run a TTA program on m-tta-1 with 64 KiB of memory (see
/// [`run_tta_on`]).
fn run_tta(insts: Vec<TtaInst>) -> Result<SimResult, SimError> {
    run_tta_on(&presets::m_tta_1(), insts)
}

/// Run a TTA program on `m` with 64 KiB of memory, twice on one shared
/// [`Tiers`]: the run that builds the thunk array and a run that reuses
/// it must agree.
fn run_tta_on(m: &Machine, insts: Vec<TtaInst>) -> Result<SimResult, SimError> {
    let program = Program::Tta(insts);
    let tiers = Tiers::for_program(&program);
    let [first, reused] =
        [(); 2].map(|()| tta_sim::run_with_tiers(m, &program, vec![0; 1 << 16], 10_000, &tiers));
    assert_eq!(first, reused, "a reused thunk array diverged");
    first
}

/// Run a VLIW program on `m` with 64 KiB of memory.
fn run_vliw(m: &Machine, bundles: &[VliwBundle], fuel: u64) -> Result<SimResult, SimError> {
    tta_sim::run_with_fuel(m, &Program::Vliw(bundles.to_vec()), vec![0; 1 << 16], fuel)
}

/// Run a scalar program on `m` with 64 KiB of memory.
fn run_scalar(m: &Machine, insts: &[ScalarInst], fuel: u64) -> Result<SimResult, SimError> {
    tta_sim::run_with_fuel(m, &Program::Scalar(insts.to_vec()), vec![0; 1 << 16], fuel)
}

/// Build an m-tta-1 instruction from up to three slot moves.
fn inst(slots: [Option<Move>; 3]) -> TtaInst {
    TtaInst {
        slots: slots.to_vec(),
        limm: None,
    }
}

fn store_and_halt(value_src: MoveSrc) -> Vec<TtaInst> {
    vec![
        // value -> lsu.o ; #8 -> lsu.t.stw  (RETVAL_ADDR = 8)
        inst([
            mv(value_src, MoveDst::FuOperand(LSU)),
            mv(MoveSrc::Imm(8), MoveDst::FuTrigger(LSU, Opcode::Stw)),
            None,
        ]),
        inst([
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(CU, Opcode::Halt)),
            None,
            None,
        ]),
    ]
}

#[test]
fn alu_result_is_readable_exactly_at_latency() {
    // add(5, 7) triggered at cycle 0; result port readable at cycle 1.
    let mut prog = vec![inst([
        mv(MoveSrc::Imm(5), MoveDst::FuOperand(ALU)),
        mv(MoveSrc::Imm(7), MoveDst::FuTrigger(ALU, Opcode::Add)),
        None,
    ])];
    prog.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    let r = run_tta(prog).unwrap();
    assert_eq!(r.ret, 12);
    assert_eq!(r.cycles, 3);
}

#[test]
fn reading_a_result_port_too_early_is_a_machine_error() {
    // Read the ALU result port in cycle 0, before any operation completed.
    let prog = vec![inst([
        mv(MoveSrc::FuResult(ALU), MoveDst::FuOperand(LSU)),
        None,
        None,
    ])];
    match run_tta(prog) {
        Err(SimError::Machine(msg)) => assert!(msg.contains("result port"), "{msg}"),
        other => panic!("expected a machine error, got {other:?}"),
    }
}

#[test]
fn rf_write_is_visible_one_cycle_later() {
    // Write r3 = 42 at cycle 0; read it at cycle 1 (gets 42). A same-cycle
    // read at cycle 0 would read the reset value 0 — check both paths.
    let mut prog = vec![
        inst([mv(MoveSrc::Imm(42), MoveDst::Rf(rr(3))), None, None]),
        // cycle 1: r3 -> alu.o ; 0 -> alu trigger add => 42
        inst([
            mv(MoveSrc::Rf(rr(3)), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
    ];
    prog.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    assert_eq!(run_tta(prog).unwrap().ret, 42);

    // Same-cycle read sees the old (zero) value.
    let mut prog2 = vec![inst([
        mv(MoveSrc::Imm(42), MoveDst::Rf(rr(3))),
        mv(MoveSrc::Rf(rr(3)), MoveDst::FuOperand(ALU)),
        mv(MoveSrc::Imm(0), MoveDst::FuTrigger(ALU, Opcode::Add)),
    ])];
    prog2.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    assert_eq!(run_tta(prog2).unwrap().ret, 0);
}

/// A single-issue TTA with one 2R/2W register bank on three fully
/// connected buses (a generated design point), so one instruction can
/// carry two RF writes that read each other's registers. Units are
/// numbered as in m-tta-1.
fn tta_2r2w() -> Machine {
    SearchConfig::Tta(TtaParams {
        issue: 1,
        banks: 1,
        regs_per_bank: 32,
        read_ports: 2,
        write_ports: 2,
        buses: 3,
        full_conn: true,
    })
    .build()
}

/// [`run_tta_on`] for a program that must pass static validation on `m`:
/// the same-cycle hazard cases are legal schedules, not malformed ones.
fn run_valid_tta(m: &Machine, insts: Vec<TtaInst>) -> Result<SimResult, SimError> {
    if let Err(errs) = Program::Tta(insts.clone()).validate(m) {
        panic!("invalid on {}: {errs:?}", m.name);
    }
    run_tta_on(m, insts)
}

/// `r3 - r4` into the ALU (operand port r3, trigger r4), then the result
/// stored as the return value.
fn return_r3_minus_r4() -> Vec<TtaInst> {
    let mut prog = vec![inst([
        mv(MoveSrc::Rf(rr(3)), MoveDst::FuOperand(ALU)),
        mv(MoveSrc::Rf(rr(4)), MoveDst::FuTrigger(ALU, Opcode::Sub)),
        None,
    ])];
    prog.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    prog
}

#[test]
fn trigger_samples_a_register_before_its_same_cycle_write() {
    // r3 = 5 and alu.o = 9; then one instruction writes r3 = 20 and
    // triggers an add on r3. The trigger samples r3 before the write
    // applies, so the sum is 9 + 5, not 9 + 20.
    let mut prog = vec![
        inst([
            mv(MoveSrc::Imm(5), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Imm(9), MoveDst::FuOperand(ALU)),
            None,
        ]),
        inst([
            mv(MoveSrc::Imm(20), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Rf(rr(3)), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
    ];
    prog.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    let r = run_valid_tta(&presets::m_tta_1(), prog).unwrap();
    assert_eq!(r.ret, 14);
    assert_eq!(r.cycles, 4);
}

#[test]
fn rf_write_chain_reads_the_pre_cycle_value() {
    // r3 = 5; then `r4 <- r3` and `r3 <- #30` in one instruction, in
    // both slot orders: r4 gets the old r3, so r3 - r4 = 30 - 5.
    let m = tta_2r2w();
    let chain = mv(MoveSrc::Rf(rr(3)), MoveDst::Rf(rr(4)));
    let set = mv(MoveSrc::Imm(30), MoveDst::Rf(rr(3)));
    for slots in [[set, chain, None], [chain, set, None]] {
        let mut prog = vec![
            inst([mv(MoveSrc::Imm(5), MoveDst::Rf(rr(3))), None, None]),
            inst(slots),
        ];
        prog.extend(return_r3_minus_r4());
        let r = run_valid_tta(&m, prog).unwrap();
        assert_eq!(r.ret, 25);
        assert_eq!(r.stats.rf_writes, 3);
    }
}

#[test]
fn rf_write_swap_exchanges_two_registers() {
    // r3 = 5, r4 = 7; then `r3 <- r4` and `r4 <- r3` in one
    // instruction: the registers trade values, so r3 - r4 = 7 - 5.
    let m = tta_2r2w();
    let mut prog = vec![
        inst([
            mv(MoveSrc::Imm(5), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Imm(7), MoveDst::Rf(rr(4))),
            None,
        ]),
        inst([
            mv(MoveSrc::Rf(rr(4)), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Rf(rr(3)), MoveDst::Rf(rr(4))),
            None,
        ]),
    ];
    prog.extend(return_r3_minus_r4());
    let r = run_valid_tta(&m, prog).unwrap();
    assert_eq!(r.ret, 2);
    assert_eq!(r.stats.rf_reads, 4);
    assert_eq!(r.stats.rf_writes, 4);
}

#[test]
fn rf_write_rotation_through_three_registers() {
    // One 3R/3W bank: r3, r4, r5 = 5, 7, 11, then `r3 <- r4`,
    // `r4 <- r5` and `r5 <- r3` in one instruction, a cycle of three RF
    // writes. Afterwards r3 - r4 = 7 - 11.
    let m = presets::custom_tta(
        "rot-3",
        1,
        vec![RegisterFile::new("rf0", 32, 3, 3)],
        3,
        true,
    );
    let mut prog = vec![
        inst([
            mv(MoveSrc::Imm(5), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Imm(7), MoveDst::Rf(rr(4))),
            mv(MoveSrc::Imm(11), MoveDst::Rf(rr(5))),
        ]),
        inst([
            mv(MoveSrc::Rf(rr(4)), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Rf(rr(5)), MoveDst::Rf(rr(4))),
            mv(MoveSrc::Rf(rr(3)), MoveDst::Rf(rr(5))),
        ]),
    ];
    prog.extend(return_r3_minus_r4());
    assert_eq!(run_valid_tta(&m, prog.clone()).unwrap().ret, -4);
    // Same schedule, r5 moved into r4 first: r3 - r5 = 7 - 5.
    prog.insert(
        2,
        inst([mv(MoveSrc::Rf(rr(5)), MoveDst::Rf(rr(4))), None, None]),
    );
    assert_eq!(run_valid_tta(&m, prog).unwrap().ret, 2);
}

#[test]
fn rf_writes_to_one_register_keep_slot_order() {
    // Two RF writes to r3 in one instruction: the later slot wins, and
    // an RF write reading r3 still gets the pre-cycle value. r3, r4 = 5,
    // 7 first, on a 3R/3W bank.
    let m = presets::custom_tta(
        "rot-3",
        1,
        vec![RegisterFile::new("rf0", 32, 3, 3)],
        3,
        true,
    );
    let init = || {
        inst([
            mv(MoveSrc::Imm(5), MoveDst::Rf(rr(3))),
            mv(MoveSrc::Imm(7), MoveDst::Rf(rr(4))),
            None,
        ])
    };
    let cases = [
        // `r4 <- r3`, `r3 <- #10`, `r3 <- #20`: r3 - r4 = 20 - 5.
        (
            [
                mv(MoveSrc::Rf(rr(3)), MoveDst::Rf(rr(4))),
                mv(MoveSrc::Imm(10), MoveDst::Rf(rr(3))),
                mv(MoveSrc::Imm(20), MoveDst::Rf(rr(3))),
            ],
            15,
        ),
        // `r3 <- #10`, `r4 <- r3`, `r3 <- r4`: a swap whose r3 half
        // must also land after an earlier-slot write to r3, so
        // r3 - r4 = 7 - 5.
        (
            [
                mv(MoveSrc::Imm(10), MoveDst::Rf(rr(3))),
                mv(MoveSrc::Rf(rr(3)), MoveDst::Rf(rr(4))),
                mv(MoveSrc::Rf(rr(4)), MoveDst::Rf(rr(3))),
            ],
            2,
        ),
    ];
    for (slots, want) in cases {
        let mut prog = vec![init(), inst(slots)];
        prog.extend(return_r3_minus_r4());
        assert_eq!(run_valid_tta(&m, prog).unwrap().ret, want);
    }
}

#[test]
fn operand_port_storage_persists_across_triggers() {
    // Load the operand port once (10), trigger two adds with different
    // trigger values; the port value is reused (operand sharing).
    let mut prog = vec![
        inst([
            mv(MoveSrc::Imm(10), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Imm(1), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
        // Second trigger, no operand move: still a = 10.
        inst([
            mv(MoveSrc::Imm(2), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
            None,
        ]),
    ];
    prog.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    assert_eq!(run_tta(prog).unwrap().ret, 12);
}

#[test]
fn long_immediate_becomes_visible_next_cycle() {
    let mut limm = TtaInst::nop(3);
    limm.limm = Some((0, 123_456_789));
    let mut prog = vec![limm];
    prog.extend(store_and_halt(MoveSrc::ImmReg(0)));
    assert_eq!(run_tta(prog).unwrap().ret, 123_456_789);
}

#[test]
fn reading_an_unwritten_imm_register_is_a_machine_error() {
    let prog = vec![inst([
        mv(MoveSrc::ImmReg(0), MoveDst::FuOperand(ALU)),
        None,
        None,
    ])];
    assert!(matches!(run_tta(prog), Err(SimError::Machine(_))));
}

#[test]
fn jump_executes_exactly_two_delay_slots() {
    // jump to the halt at index 5, triggered at cycle 0; the two delay
    // slots write r1 and r2; the skipped instruction would write r3.
    let mut limm = TtaInst::nop(3);
    limm.limm = Some((0, 5));
    let prog = vec![
        limm, // 0
        inst([
            mv(MoveSrc::ImmReg(0), MoveDst::FuTrigger(CU, Opcode::Jump)),
            None,
            None,
        ]), // 1
        inst([mv(MoveSrc::Imm(1), MoveDst::Rf(rr(1))), None, None]), // 2 (delay)
        inst([mv(MoveSrc::Imm(2), MoveDst::Rf(rr(2))), None, None]), // 3 (delay)
        inst([mv(MoveSrc::Imm(3), MoveDst::Rf(rr(3))), None, None]), // 4 (skipped)
        // 5: r1+r2 -> store
        inst([
            mv(MoveSrc::Rf(rr(1)), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Rf(rr(2)), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
        inst([
            mv(MoveSrc::FuResult(ALU), MoveDst::FuOperand(LSU)),
            mv(MoveSrc::Imm(8), MoveDst::FuTrigger(LSU, Opcode::Stw)),
            None,
        ]),
        inst([
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(CU, Opcode::Halt)),
            None,
            None,
        ]),
    ];
    let r = run_tta(prog).unwrap();
    // Delay slots executed: r1 + r2 = 3; the skipped store of r3 never ran.
    assert_eq!(r.ret, 3);
    assert_eq!(r.stats.branches_taken, 1);
}

#[test]
fn runaway_programs_exhaust_fuel() {
    // An infinite self-loop.
    let mut limm = TtaInst::nop(3);
    limm.limm = Some((0, 0));
    let prog = vec![
        limm,
        inst([
            mv(MoveSrc::ImmReg(0), MoveDst::FuTrigger(CU, Opcode::Jump)),
            None,
            None,
        ]),
        TtaInst::nop(3),
        TtaInst::nop(3),
    ];
    assert!(matches!(run_tta(prog), Err(SimError::OutOfFuel)));
}

#[test]
fn a_jump_in_the_delay_window_of_a_taken_jump_is_rejected() {
    // The jump at pc 1 is taken; the jump at pc 2 sits in its first delay
    // slot, a nested control transfer the scheduler must never emit.
    let jump = || {
        inst([
            mv(MoveSrc::Imm(5), MoveDst::FuTrigger(CU, Opcode::Jump)),
            None,
            None,
        ])
    };
    let prog = vec![
        TtaInst::nop(3),
        jump(),
        jump(),
        TtaInst::nop(3),
        TtaInst::nop(3),
        inst([
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(CU, Opcode::Halt)),
            None,
            None,
        ]),
    ];
    assert_eq!(
        run_tta(prog),
        Err(SimError::Machine(
            "jump triggered during an in-flight jump (pc 2)".into()
        ))
    );
}

#[test]
fn more_than_eight_results_in_flight_on_one_unit_are_rejected() {
    // Three multiplies (latency 3) per cycle on one ALU: by pc 2 eight
    // are in flight and none has landed, so the ninth launch faults.
    let muls = || {
        let mul = |b| mv(MoveSrc::Imm(b), MoveDst::FuTrigger(ALU, Opcode::Mul));
        inst([mul(1), mul(2), mul(3)])
    };
    let prog = vec![
        muls(),
        muls(),
        muls(),
        inst([
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(CU, Opcode::Halt)),
            None,
            None,
        ]),
    ];
    assert_eq!(
        run_tta(prog),
        Err(SimError::Machine(
            "more than 8 in-flight results on alu0 (pc 2)".into()
        ))
    );
}

#[test]
fn same_cycle_completions_on_one_unit_are_rejected() {
    // mul (latency 3) at cycle 0 and add (latency 1) at cycle 2 both
    // complete at cycle 3 — a hazard the scheduler must never emit.
    let prog = vec![
        inst([
            mv(MoveSrc::Imm(2), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Imm(3), MoveDst::FuTrigger(ALU, Opcode::Mul)),
            None,
        ]),
        TtaInst::nop(3),
        inst([
            mv(MoveSrc::Imm(1), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Imm(1), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
        TtaInst::nop(3),
        TtaInst::nop(3),
    ];
    match run_tta(prog) {
        Err(SimError::Machine(msg)) => assert!(msg.contains("results"), "{msg}"),
        other => panic!("expected a machine error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// VLIW timing.
// ---------------------------------------------------------------------

/// m-vliw-2: slot 0 hosts ALU+CU, slot 1 the LSU.
fn vliw_op(
    op: Opcode,
    fu: FuId,
    dst: Option<RegRef>,
    a: Option<OpSrc>,
    b: Option<OpSrc>,
) -> VliwSlot {
    VliwSlot::Op(Operation { op, fu, dst, a, b })
}

#[test]
fn vliw_writeback_visible_after_latency_plus_one() {
    let m = presets::m_vliw_2();
    let lsu = FuId(1);
    let cu = FuId(2);
    // c0: r1 = 5 + 7 (visible from cycle 2)
    // c1: store r1 (reads the OLD r1 = 0)
    // c2: store r1 to another address (reads 12)
    let prog = vec![
        VliwBundle {
            slots: vec![
                Some(vliw_op(
                    Opcode::Add,
                    ALU,
                    Some(rr(1)),
                    Some(OpSrc::Imm(5)),
                    Some(OpSrc::Imm(7)),
                )),
                None,
            ],
        },
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    Opcode::Stw,
                    lsu,
                    None,
                    Some(OpSrc::Reg(rr(1))),
                    Some(OpSrc::Imm(16)),
                )),
            ],
        },
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    Opcode::Stw,
                    lsu,
                    None,
                    Some(OpSrc::Reg(rr(1))),
                    Some(OpSrc::Imm(8)),
                )),
            ],
        },
        VliwBundle {
            slots: vec![
                Some(vliw_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0)))),
                None,
            ],
        },
    ];
    let r = run_vliw(&m, &prog, 1000).unwrap();
    assert_eq!(r.ret, 12); // cycle-2 store saw the new value
    assert_eq!(
        i32::from_le_bytes(r.memory[16..20].try_into().unwrap()),
        0,
        "cycle-1 store must see the pre-writeback value"
    );
}

#[test]
fn vliw_jump_in_the_delay_window_of_a_taken_jump_is_rejected() {
    let m = presets::m_vliw_2();
    let cu = FuId(2);
    let jump = || VliwBundle {
        slots: vec![
            Some(vliw_op(Opcode::Jump, cu, None, None, Some(OpSrc::Imm(4)))),
            None,
        ],
    };
    let nop = || VliwBundle {
        slots: vec![None, None],
    };
    let prog = vec![
        jump(),
        jump(),
        nop(),
        nop(),
        VliwBundle {
            slots: vec![
                Some(vliw_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0)))),
                None,
            ],
        },
    ];
    assert_eq!(
        run_vliw(&m, &prog, 1000),
        Err(SimError::Machine(
            "jump during in-flight jump (pc 1)".into()
        ))
    );
}

#[test]
fn vliw_limm_head_behaves_like_a_one_cycle_op() {
    let m = presets::m_vliw_2();
    let lsu = FuId(1);
    let cu = FuId(2);
    let prog = vec![
        VliwBundle {
            slots: vec![
                Some(VliwSlot::LimmHead {
                    dst: rr(2),
                    value: 1 << 30,
                }),
                Some(VliwSlot::LimmCont),
            ],
        },
        VliwBundle {
            slots: vec![None, None],
        },
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    Opcode::Stw,
                    lsu,
                    None,
                    Some(OpSrc::Reg(rr(2))),
                    Some(OpSrc::Imm(8)),
                )),
            ],
        },
        VliwBundle {
            slots: vec![
                Some(vliw_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0)))),
                None,
            ],
        },
    ];
    let r = run_vliw(&m, &prog, 1000).unwrap();
    assert_eq!(r.ret, 1 << 30);
    assert_eq!(r.stats.limms, 1);
}

// ---------------------------------------------------------------------
// Scalar pipeline timing.
// ---------------------------------------------------------------------

fn scalar_op(
    op: Opcode,
    fu: FuId,
    dst: Option<RegRef>,
    a: Option<OpSrc>,
    b: Option<OpSrc>,
) -> ScalarInst {
    ScalarInst::Op(Operation { op, fu, dst, a, b })
}

#[test]
fn scalar_load_use_stall_is_charged() {
    let m = presets::mblaze_3();
    let lsu = FuId(1);
    let cu = FuId(2);
    // Independent instructions: no stalls → 4 cycles. With a load-use
    // dependence the consumer waits for the 3-cycle load.
    let independent = vec![
        scalar_op(Opcode::Ldw, lsu, Some(rr(1)), None, Some(OpSrc::Imm(16))),
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(2)),
            Some(OpSrc::Imm(1)),
            Some(OpSrc::Imm(2)),
        ),
        scalar_op(
            Opcode::Stw,
            lsu,
            None,
            Some(OpSrc::Reg(rr(2))),
            Some(OpSrc::Imm(8)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    let r1 = run_scalar(&m, &independent, 1000).unwrap();
    assert_eq!(r1.stats.stall_cycles, 0);

    let dependent = vec![
        scalar_op(Opcode::Ldw, lsu, Some(rr(1)), None, Some(OpSrc::Imm(16))),
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(2)),
            Some(OpSrc::Reg(rr(1))),
            Some(OpSrc::Imm(2)),
        ),
        scalar_op(
            Opcode::Stw,
            lsu,
            None,
            Some(OpSrc::Reg(rr(2))),
            Some(OpSrc::Imm(8)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    let r2 = run_scalar(&m, &dependent, 1000).unwrap();
    assert!(
        r2.stats.stall_cycles >= 2,
        "load-use must stall: {:?}",
        r2.stats
    );
    assert!(r2.cycles > r1.cycles);
}

#[test]
fn scalar_taken_branch_pays_the_pipeline_penalty() {
    let cu = FuId(2);
    let make = |m: &tta_model::Machine| {
        let prog = vec![
            // Jump over one instruction.
            scalar_op(Opcode::Jump, cu, None, None, Some(OpSrc::Imm(2))),
            scalar_op(
                Opcode::Add,
                ALU,
                Some(rr(1)),
                Some(OpSrc::Imm(1)),
                Some(OpSrc::Imm(1)),
            ),
            scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
        ];
        run_scalar(m, &prog, 1000).unwrap()
    };
    let r3 = make(&presets::mblaze_3());
    let r5 = make(&presets::mblaze_5());
    // 3-stage penalty 2, 5-stage (branch-target cache) penalty 1.
    assert_eq!(r3.cycles - r5.cycles, 1);
    assert_eq!(r3.stats.branches_taken, 1);
}

#[test]
fn scalar_imm_prefix_costs_one_cycle() {
    let m = presets::mblaze_3();
    let cu = FuId(2);
    let with_prefix = vec![
        ScalarInst::ImmPrefix,
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(1)),
            Some(OpSrc::Imm(1 << 20)),
            Some(OpSrc::Imm(0)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    let without = vec![
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(1)),
            Some(OpSrc::Imm(7)),
            Some(OpSrc::Imm(0)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    let r1 = run_scalar(&m, &with_prefix, 100).unwrap();
    let r2 = run_scalar(&m, &without, 100).unwrap();
    assert_eq!(r1.cycles - r2.cycles, 1);
}

#[test]
fn scalar_without_forwarding_pays_an_extra_cycle_per_dependence() {
    // A custom pipeline with forwarding disabled: back-to-back dependent
    // adds stall one extra cycle each.
    let mut m = presets::mblaze_3();
    m.scalar = Some(tta_model::ScalarPipeline {
        stages: 3,
        branch_penalty: 2,
        forwarding: false,
        imm_bits: 16,
    });
    let cu = FuId(2);
    let prog = vec![
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(1)),
            Some(OpSrc::Imm(1)),
            Some(OpSrc::Imm(1)),
        ),
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(2)),
            Some(OpSrc::Reg(rr(1))),
            Some(OpSrc::Imm(1)),
        ),
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(3)),
            Some(OpSrc::Reg(rr(2))),
            Some(OpSrc::Imm(1)),
        ),
        scalar_op(
            Opcode::Stw,
            LSU,
            None,
            Some(OpSrc::Reg(rr(3))),
            Some(OpSrc::Imm(8)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    let slow = run_scalar(&m, &prog, 100).unwrap();
    let fast = run_scalar(&presets::mblaze_3(), &prog, 100).unwrap();
    assert_eq!(slow.ret, 4); // ((1+1)+1)+1
    assert_eq!(fast.ret, 4);
    assert!(
        slow.cycles > fast.cycles,
        "{} vs {}",
        slow.cycles,
        fast.cycles
    );
    assert!(slow.stats.stall_cycles >= fast.stats.stall_cycles + 3);
}

// ---------------------------------------------------------------------
// Directed ALU edge cases, pinned identically on all three styles.
//
// The opcode set has no Div/Rem, so the classic `i32::MIN / -1` trap is
// represented by its overflow analogues that do exist: wrapping Mul/Add/
// Sub at the integer extremes, plus shift amounts at and beyond the
// register width (hardware masks the amount to 5 bits) and signed/
// unsigned comparisons straddling `i32::MIN`/`i32::MAX`.
// ---------------------------------------------------------------------

/// Evaluate `op(a, b)` on m-tta-1 with both operands carried by long
/// immediates (edge values never fit the short bus immediates).
fn tta_alu(op: Opcode, a: i32, b: i32) -> i32 {
    let mut la = TtaInst::nop(3);
    la.limm = Some((0, a));
    let mut lb = TtaInst::nop(3);
    lb.limm = Some((1, b));
    let mut prog = vec![
        la,
        lb,
        // a -> alu.o ; b -> alu.t (operand port is the first input).
        inst([
            mv(MoveSrc::ImmReg(0), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::ImmReg(1), MoveDst::FuTrigger(ALU, op)),
            None,
        ]),
    ];
    // The result port is readable exactly `latency` cycles after trigger.
    for _ in 1..op.latency() {
        prog.push(TtaInst::nop(3));
    }
    prog.extend(store_and_halt(MoveSrc::FuResult(ALU)));
    run_tta(prog).unwrap().ret
}

/// Evaluate `op(a, b)` on m-vliw-2, operands loaded via limm heads.
fn vliw_alu(op: Opcode, a: i32, b: i32) -> i32 {
    let m = presets::m_vliw_2();
    let lsu = FuId(1);
    let cu = FuId(2);
    let nop = || VliwBundle {
        slots: vec![None, None],
    };
    let mut prog = vec![
        VliwBundle {
            slots: vec![
                Some(VliwSlot::LimmHead {
                    dst: rr(1),
                    value: a,
                }),
                Some(VliwSlot::LimmCont),
            ],
        },
        VliwBundle {
            slots: vec![
                Some(VliwSlot::LimmHead {
                    dst: rr(2),
                    value: b,
                }),
                Some(VliwSlot::LimmCont),
            ],
        },
        nop(), // r2 written at c1 becomes visible at c3
        VliwBundle {
            slots: vec![
                Some(vliw_op(
                    op,
                    ALU,
                    Some(rr(3)),
                    Some(OpSrc::Reg(rr(1))),
                    Some(OpSrc::Reg(rr(2))),
                )),
                None,
            ],
        },
    ];
    // Writeback is visible `latency + 1` cycles after issue.
    for _ in 0..op.latency() {
        prog.push(nop());
    }
    prog.push(VliwBundle {
        slots: vec![
            None,
            Some(vliw_op(
                Opcode::Stw,
                lsu,
                None,
                Some(OpSrc::Reg(rr(3))),
                Some(OpSrc::Imm(8)),
            )),
        ],
    });
    prog.push(VliwBundle {
        slots: vec![
            Some(vliw_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0)))),
            None,
        ],
    });
    run_vliw(&m, &prog, 1000).unwrap().ret
}

/// Evaluate `op(a, b)` on mblaze-3 (the interlocked pipeline resolves
/// hazards itself; the imm prefix models the wide-immediate encoding).
fn scalar_alu(op: Opcode, a: i32, b: i32) -> i32 {
    let m = presets::mblaze_3();
    let cu = FuId(2);
    let prog = vec![
        ScalarInst::ImmPrefix,
        scalar_op(
            op,
            ALU,
            Some(rr(1)),
            Some(OpSrc::Imm(a)),
            Some(OpSrc::Imm(b)),
        ),
        scalar_op(
            Opcode::Stw,
            LSU,
            None,
            Some(OpSrc::Reg(rr(1))),
            Some(OpSrc::Imm(8)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    run_scalar(&m, &prog, 1000).unwrap().ret
}

/// All three styles must agree with the shared reference semantics.
fn check_alu_edge(op: Opcode, a: i32, b: i32) {
    let want = op.eval_alu(a, b);
    assert_eq!(tta_alu(op, a, b), want, "tta: {op:?}({a}, {b})");
    assert_eq!(vliw_alu(op, a, b), want, "vliw: {op:?}({a}, {b})");
    assert_eq!(scalar_alu(op, a, b), want, "scalar: {op:?}({a}, {b})");
}

#[test]
fn reference_semantics_of_edge_cases_are_the_expected_constants() {
    // Shift amounts are masked to the low 5 bits (b & 31), like the FPGA
    // barrel shifter.
    assert_eq!(Opcode::Shl.eval_alu(1, 31), i32::MIN);
    assert_eq!(Opcode::Shl.eval_alu(1, 32), 1);
    assert_eq!(Opcode::Shl.eval_alu(1, 33), 2);
    assert_eq!(Opcode::Shl.eval_alu(1, -1), i32::MIN); // -1 & 31 == 31
    assert_eq!(Opcode::Shr.eval_alu(i32::MIN, 31), -1);
    assert_eq!(Opcode::Shr.eval_alu(i32::MIN, 32), i32::MIN);
    assert_eq!(Opcode::Shru.eval_alu(i32::MIN, 31), 1);
    assert_eq!(Opcode::Shru.eval_alu(-1, 32), -1);
    // Wrapping arithmetic at the extremes (the Div-overflow analogues).
    assert_eq!(Opcode::Mul.eval_alu(i32::MIN, -1), i32::MIN);
    assert_eq!(Opcode::Mul.eval_alu(i32::MAX, i32::MAX), 1);
    assert_eq!(Opcode::Add.eval_alu(i32::MAX, 1), i32::MIN);
    assert_eq!(Opcode::Sub.eval_alu(i32::MIN, 1), i32::MAX);
    // Comparisons straddling the sign boundary.
    assert_eq!(Opcode::Gt.eval_alu(i32::MIN, i32::MAX), 0);
    assert_eq!(Opcode::Gt.eval_alu(i32::MAX, i32::MIN), 1);
    assert_eq!(Opcode::Gtu.eval_alu(i32::MIN, i32::MAX), 1);
    assert_eq!(Opcode::Gtu.eval_alu(i32::MAX, i32::MIN), 0);
    assert_eq!(Opcode::Eq.eval_alu(i32::MIN, i32::MIN), 1);
}

#[test]
fn shift_amounts_at_and_beyond_width_on_all_styles() {
    for op in [Opcode::Shl, Opcode::Shr, Opcode::Shru] {
        for b in [31, 32, 33, 63, -1] {
            for a in [i32::MIN, -2, 0x4000_0001] {
                check_alu_edge(op, a, b);
            }
        }
    }
}

#[test]
fn wrapping_arithmetic_at_extremes_on_all_styles() {
    for (a, b) in [
        (i32::MIN, -1),
        (i32::MAX, i32::MAX),
        (i32::MIN, i32::MIN),
        (0x10000, 0x10000),
        (48271, 2_147_483_629),
    ] {
        check_alu_edge(Opcode::Mul, a, b);
    }
    check_alu_edge(Opcode::Add, i32::MAX, 1);
    check_alu_edge(Opcode::Add, i32::MIN, i32::MIN);
    check_alu_edge(Opcode::Sub, i32::MIN, 1);
    check_alu_edge(Opcode::Sub, 0, i32::MIN);
}

#[test]
fn comparisons_at_integer_extremes_on_all_styles() {
    for op in [Opcode::Gt, Opcode::Gtu, Opcode::Eq] {
        for (a, b) in [
            (i32::MIN, i32::MAX),
            (i32::MAX, i32::MIN),
            (i32::MIN, i32::MIN),
            (i32::MAX, i32::MAX),
            (i32::MIN, 0),
            (0, i32::MIN),
        ] {
            check_alu_edge(op, a, b);
        }
    }
}

// ---------------------------------------------------------------------
// Sub-word memory accesses at word-unaligned (but width-aligned)
// addresses, on all three styles.
// ---------------------------------------------------------------------

/// Store `value` with `store_op` at `addr`, load it back with `load_op`,
/// on m-tta-1.
fn tta_subword(store_op: Opcode, load_op: Opcode, value: i32, addr: i32) -> i32 {
    let mut limm = TtaInst::nop(3);
    limm.limm = Some((0, value));
    let prog = vec![
        limm,
        inst([
            mv(MoveSrc::ImmReg(0), MoveDst::FuOperand(LSU)),
            mv(MoveSrc::Imm(addr), MoveDst::FuTrigger(LSU, store_op)),
            None,
        ]),
        inst([
            mv(MoveSrc::Imm(addr), MoveDst::FuTrigger(LSU, load_op)),
            None,
            None,
        ]),
        TtaInst::nop(3),
        TtaInst::nop(3),
        // Load result ready (latency 3); route through the ALU so the
        // store trigger below does not race the LSU result port.
        inst([
            mv(MoveSrc::FuResult(LSU), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
        inst([
            mv(MoveSrc::FuResult(ALU), MoveDst::FuOperand(LSU)),
            mv(MoveSrc::Imm(8), MoveDst::FuTrigger(LSU, Opcode::Stw)),
            None,
        ]),
        inst([
            mv(MoveSrc::Imm(0), MoveDst::FuTrigger(CU, Opcode::Halt)),
            None,
            None,
        ]),
    ];
    run_tta(prog).unwrap().ret
}

/// The same round trip on m-vliw-2.
fn vliw_subword(store_op: Opcode, load_op: Opcode, value: i32, addr: i32) -> i32 {
    let m = presets::m_vliw_2();
    let lsu = FuId(1);
    let cu = FuId(2);
    let nop = || VliwBundle {
        slots: vec![None, None],
    };
    let mut prog = vec![
        VliwBundle {
            slots: vec![
                Some(VliwSlot::LimmHead { dst: rr(1), value }),
                Some(VliwSlot::LimmCont),
            ],
        },
        nop(), // r1 visible at c2
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    store_op,
                    lsu,
                    None,
                    Some(OpSrc::Reg(rr(1))),
                    Some(OpSrc::Imm(addr)),
                )),
            ],
        },
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    load_op,
                    lsu,
                    Some(rr(2)),
                    None,
                    Some(OpSrc::Imm(addr)),
                )),
            ],
        },
    ];
    for _ in 0..Opcode::Ldw.latency() {
        prog.push(nop());
    }
    prog.push(VliwBundle {
        slots: vec![
            None,
            Some(vliw_op(
                Opcode::Stw,
                lsu,
                None,
                Some(OpSrc::Reg(rr(2))),
                Some(OpSrc::Imm(8)),
            )),
        ],
    });
    prog.push(VliwBundle {
        slots: vec![
            Some(vliw_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0)))),
            None,
        ],
    });
    run_vliw(&m, &prog, 1000).unwrap().ret
}

/// The same round trip on mblaze-3.
fn scalar_subword(store_op: Opcode, load_op: Opcode, value: i32, addr: i32) -> i32 {
    let m = presets::mblaze_3();
    let cu = FuId(2);
    let prog = vec![
        ScalarInst::ImmPrefix,
        scalar_op(
            store_op,
            LSU,
            None,
            Some(OpSrc::Imm(value)),
            Some(OpSrc::Imm(addr)),
        ),
        scalar_op(load_op, LSU, Some(rr(1)), None, Some(OpSrc::Imm(addr))),
        scalar_op(
            Opcode::Stw,
            LSU,
            None,
            Some(OpSrc::Reg(rr(1))),
            Some(OpSrc::Imm(8)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    run_scalar(&m, &prog, 1000).unwrap().ret
}

fn check_subword(store_op: Opcode, load_op: Opcode, value: i32, addr: i32, want: i32) {
    assert_eq!(
        tta_subword(store_op, load_op, value, addr),
        want,
        "tta: {store_op:?}/{load_op:?} {value:#x} @ {addr}"
    );
    assert_eq!(
        vliw_subword(store_op, load_op, value, addr),
        want,
        "vliw: {store_op:?}/{load_op:?} {value:#x} @ {addr}"
    );
    assert_eq!(
        scalar_subword(store_op, load_op, value, addr),
        want,
        "scalar: {store_op:?}/{load_op:?} {value:#x} @ {addr}"
    );
}

#[test]
fn unaligned_subword_round_trips_on_all_styles() {
    // Half at addr 18: half-aligned but not word-aligned. The store
    // truncates to 16 bits; Ldh sign-extends, Ldhu zero-extends.
    let half = 0xDEAD_8765u32 as i32;
    check_subword(Opcode::Sth, Opcode::Ldh, half, 18, 0xFFFF_8765u32 as i32);
    check_subword(Opcode::Sth, Opcode::Ldhu, half, 18, 0x8765);
    // Byte at addr 19: any alignment is legal for bytes.
    let byte = 0xCAFE_FE99u32 as i32;
    check_subword(Opcode::Stq, Opcode::Ldq, byte, 19, 0xFFFF_FF99u32 as i32);
    check_subword(Opcode::Stq, Opcode::Ldqu, byte, 19, 0x99);
    // Positive sub-word values survive signed loads unchanged.
    check_subword(Opcode::Sth, Opcode::Ldh, 0x1234, 22, 0x1234);
    check_subword(Opcode::Stq, Opcode::Ldq, 0x56, 21, 0x56);
}

#[test]
fn word_access_at_unaligned_address_faults_on_all_styles() {
    // Word load at addr 18 violates the alignment contract everywhere.
    let m = presets::mblaze_3();
    let cu = FuId(2);
    let prog = vec![
        scalar_op(Opcode::Ldw, LSU, Some(rr(1)), None, Some(OpSrc::Imm(18))),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    assert!(matches!(run_scalar(&m, &prog, 1000), Err(SimError::Mem(_))));

    let tta_prog = vec![
        inst([
            mv(MoveSrc::Imm(18), MoveDst::FuTrigger(LSU, Opcode::Ldw)),
            None,
            None,
        ]),
        TtaInst::nop(3),
    ];
    assert!(matches!(run_tta(tta_prog), Err(SimError::Mem(_))));

    let mv2 = presets::m_vliw_2();
    let vliw_prog = vec![VliwBundle {
        slots: vec![
            None,
            Some(vliw_op(
                Opcode::Ldw,
                FuId(1),
                Some(rr(1)),
                None,
                Some(OpSrc::Imm(18)),
            )),
        ],
    }];
    assert!(matches!(
        run_vliw(&mv2, &vliw_prog, 1000),
        Err(SimError::Mem(_))
    ));
}

// ---------------------------------------------------------------------
// stall_cycles semantics: dynamic stalls are a scalar-pipeline concept.
// ---------------------------------------------------------------------

/// `SimStats::stall_cycles` counts *dynamic* interlock and refill cycles,
/// which only the in-order scalar pipeline has. The statically scheduled
/// styles encode all waiting as explicit NOP instructions/slots — visible
/// as NOP/padding density in `tta_sim::GuestProfile`, never as stalls —
/// so their counter must stay zero even for padding-heavy schedules.
#[test]
fn stall_cycles_semantics_are_scalar_only() {
    // TTA: pure padding ahead of the store still costs one *instruction*
    // per waited cycle, never a stall.
    let mut tta_prog = vec![TtaInst::nop(3), TtaInst::nop(3)];
    tta_prog.extend(store_and_halt(MoveSrc::Imm(5)));
    let r = run_tta(tta_prog).unwrap();
    assert_eq!(r.ret, 5);
    assert_eq!(r.stats.stall_cycles, 0);
    assert_eq!(r.cycles, r.stats.instructions);

    // VLIW: the scheduler's NOP bundle between the long immediate's
    // writeback and its consumer is likewise an instruction, not a stall.
    let m = presets::m_vliw_2();
    let prog = vec![
        VliwBundle {
            slots: vec![
                Some(VliwSlot::LimmHead {
                    dst: rr(1),
                    value: 5,
                }),
                Some(VliwSlot::LimmCont),
            ],
        },
        VliwBundle {
            slots: vec![None, None],
        },
        VliwBundle {
            slots: vec![
                Some(vliw_op(
                    Opcode::Stw,
                    LSU,
                    None,
                    Some(OpSrc::Reg(rr(1))),
                    Some(OpSrc::Imm(8)),
                )),
                None,
            ],
        },
        VliwBundle {
            slots: vec![
                Some(vliw_op(Opcode::Halt, CU, None, None, Some(OpSrc::Imm(0)))),
                None,
            ],
        },
    ];
    let r = run_vliw(&m, &prog, 1000).unwrap();
    assert_eq!(r.ret, 5);
    assert_eq!(r.stats.stall_cycles, 0);
    assert_eq!(r.cycles, r.stats.instructions);

    // Scalar: a load-use dependence stalls dynamically, and the cycle
    // count decomposes exactly into issue slots plus stalls.
    let m = presets::mblaze_3();
    let lsu = FuId(1);
    let cu = FuId(2);
    let prog = vec![
        scalar_op(Opcode::Ldw, lsu, Some(rr(1)), None, Some(OpSrc::Imm(16))),
        scalar_op(
            Opcode::Add,
            ALU,
            Some(rr(2)),
            Some(OpSrc::Reg(rr(1))),
            Some(OpSrc::Imm(2)),
        ),
        scalar_op(
            Opcode::Stw,
            lsu,
            None,
            Some(OpSrc::Reg(rr(2))),
            Some(OpSrc::Imm(8)),
        ),
        scalar_op(Opcode::Halt, cu, None, None, Some(OpSrc::Imm(0))),
    ];
    let r = run_scalar(&m, &prog, 1000).unwrap();
    assert!(
        r.stats.stall_cycles > 0,
        "load-use must stall: {:?}",
        r.stats
    );
    assert_eq!(r.cycles, r.stats.instructions + r.stats.stall_cycles);
}

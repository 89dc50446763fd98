//! Invariants of the guest-side profiler on hand-built machine programs:
//! the profiled entry points return bit-identical `SimResult`s, the
//! reconstructed profiles agree with `SimStats`, and the per-bus / per-RF
//! breakdowns match what the programs statically must do. The 13-machine
//! compiler-driven parity sweep lives in `tests/profile_parity.rs` at the
//! workspace root.

use tta_isa::{
    Move, MoveDst, MoveSrc, OpSrc, Operation, Program, ScalarInst, TtaInst, VliwBundle, VliwSlot,
};
use tta_model::{presets, FuId, Machine, Opcode, RegRef, RfId};
use tta_sim::{GuestProfile, SimResult, SimStats};

const ALU: FuId = FuId(0);
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

fn inst(slots: [Option<Move>; 3]) -> TtaInst {
    TtaInst {
        slots: slots.to_vec(),
        limm: None,
    }
}

fn vliw_op(
    op: Opcode,
    fu: FuId,
    dst: Option<RegRef>,
    a: Option<OpSrc>,
    b: Option<OpSrc>,
) -> VliwSlot {
    VliwSlot::Op(Operation { op, fu, dst, a, b })
}

fn assert_same_run(a: &SimResult, b: &SimResult) {
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.ret, b.ret);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.memory, b.memory);
}

/// Run `program` plainly and profiled, each with 64 KiB of memory.
fn plain_and_profiled(m: &Machine, program: Program) -> (SimResult, SimResult, GuestProfile) {
    let plain = tta_sim::run(m, &program, vec![0; 1 << 16]).unwrap();
    let (r, p) = tta_sim::run_profiled(m, &program, vec![0; 1 << 16]).unwrap();
    (plain, r, p)
}

/// A small TTA kernel exercising every profiled feature: an RF write, a
/// bypassed read, a long immediate, a NOP and a trigger.
fn tta_program() -> Vec<TtaInst> {
    vec![
        // #5 -> alu.o ; #2 -> alu.t.add
        inst([
            mv(MoveSrc::Imm(5), MoveDst::FuOperand(ALU)),
            mv(MoveSrc::Imm(2), MoveDst::FuTrigger(ALU, Opcode::Add)),
            None,
        ]),
        // alu.r -> r1 (bypass read + RF write)
        inst([mv(MoveSrc::FuResult(ALU), MoveDst::Rf(rr(1))), None, None]),
        // schedule padding
        TtaInst::nop(3),
        // limm #1234 -> imm reg 0 (blanks `limm.bus_slots` buses)
        TtaInst {
            slots: vec![None, None, None],
            limm: Some((0, 1234)),
        },
        // r1 -> lsu.o ; #8 -> lsu.t.stw (RF read)
        inst([
            mv(MoveSrc::Rf(rr(1)), MoveDst::FuOperand(LSU)),
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
fn tta_profile_matches_the_static_schedule() {
    let m = presets::m_tta_1();
    let prog = tta_program();
    let (plain, r, p) = plain_and_profiled(&m, Program::Tta(prog.clone()));

    assert_same_run(&plain, &r);
    p.check_against(&r.stats).unwrap();

    // Straight-line program: every pc executes exactly once.
    assert_eq!(p.samples, prog.len() as u64);
    assert!(p.pc_counts.iter().all(|&c| c == 1));
    assert_eq!(p.cycles, r.cycles);
    assert_eq!(p.slots, 3);

    // Bus 0 carries a move in every non-NOP, non-limm instruction; bus 2
    // never does.
    assert_eq!(p.slot_moves, vec![4, 2, 0]);
    assert_eq!(p.nop_samples, 1);
    assert_eq!(p.limm_slot_samples, m.limm.bus_slots as u64);

    // One bypassed read, one RF read.
    assert_eq!(p.bypass_reads, 1);
    assert_eq!(p.rf_reads, 1);
    assert!(p.bypass_fraction() > 0.4 && p.bypass_fraction() < 0.6);

    // FU occupancy: one add, one store; no ops on the control unit beyond
    // the halt trigger.
    assert_eq!(p.fu[ALU.0 as usize].ops, 1);
    assert_eq!(p.fu[LSU.0 as usize].ops, 1);
    assert_eq!(p.fu[CU.0 as usize].ops, 1);

    // 1R/1W machine: the hist has buckets {0, 1} and sums to the samples.
    let rf = &p.rf[0];
    assert_eq!(rf.read_hist.len(), 2);
    assert_eq!(rf.read_hist.iter().sum::<u64>(), p.samples);
    assert_eq!(rf.read_hist[1], 1);
    assert_eq!(rf.write_hist[1], 1);

    // Hotspots: all counts are 1, so ties break to the lowest pc.
    assert_eq!(p.hot_pcs(2), vec![(0, 1), (1, 1)]);
}

#[test]
fn vliw_profile_measures_dynamic_write_pressure() {
    let m = presets::m_vliw_2();
    // A 3-cycle load issued at c0 and a 1-cycle add issued at c2 drain
    // onto the register file in the same cycle — 2 simultaneous writes
    // on the 2W file, observable only dynamically (the static per-bundle
    // view sees one write each).
    let nop = || VliwBundle {
        slots: vec![None, None],
    };
    let prog = vec![
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    Opcode::Ldw,
                    LSU,
                    Some(rr(1)),
                    None,
                    Some(OpSrc::Imm(16)),
                )),
            ],
        },
        // limm r3 = 99: occupies both issue slots, the LimmCont slot is
        // encoding padding.
        VliwBundle {
            slots: vec![
                Some(VliwSlot::LimmHead {
                    dst: rr(3),
                    value: 99,
                }),
                Some(VliwSlot::LimmCont),
            ],
        },
        VliwBundle {
            slots: vec![
                Some(vliw_op(
                    Opcode::Add,
                    ALU,
                    Some(rr(2)),
                    Some(OpSrc::Imm(3)),
                    Some(OpSrc::Imm(4)),
                )),
                None,
            ],
        },
        nop(), // r2 written at end of c3, readable c4
        VliwBundle {
            slots: vec![
                None,
                Some(vliw_op(
                    Opcode::Stw,
                    LSU,
                    None,
                    Some(OpSrc::Reg(rr(2))),
                    Some(OpSrc::Imm(8)),
                )),
            ],
        },
        VliwBundle {
            slots: vec![
                Some(vliw_op(Opcode::Halt, CU, None, None, Some(OpSrc::Imm(0)))),
                None,
            ],
        },
    ];
    let (plain, r, p) = plain_and_profiled(&m, Program::Vliw(prog.clone()));

    assert_same_run(&plain, &r);
    p.check_against(&r.stats).unwrap();
    assert_eq!(r.ret, 7);

    // The write histogram is per *cycle* and must account for every cycle.
    let rf = &p.rf[0];
    assert_eq!(rf.write_hist.iter().sum::<u64>(), r.cycles);
    assert_eq!(rf.write_hist[2], 1, "both writebacks land together");
    assert!(rf.mean_writes() > 0.0);

    // The LimmCont slot is padding, not a move.
    assert_eq!(p.limm_slot_samples, 1);
    assert_eq!(p.slot_moves, vec![3, 2]);
    assert_eq!(p.nop_samples, 1);
}

#[test]
fn scalar_profile_samples_are_instructions_not_cycles() {
    let m = presets::mblaze_3();
    let lsu = FuId(1);
    let cu = FuId(2);
    // Load-use dependence: dynamic stalls make cycles > samples.
    let prog = vec![
        ScalarInst::ImmPrefix,
        ScalarInst::Op(Operation {
            op: Opcode::Ldw,
            fu: lsu,
            dst: Some(rr(1)),
            a: None,
            b: Some(OpSrc::Imm(16)),
        }),
        ScalarInst::Op(Operation {
            op: Opcode::Add,
            fu: ALU,
            dst: Some(rr(2)),
            a: Some(OpSrc::Reg(rr(1))),
            b: Some(OpSrc::Imm(2)),
        }),
        ScalarInst::Op(Operation {
            op: Opcode::Stw,
            fu: lsu,
            dst: None,
            a: Some(OpSrc::Reg(rr(2))),
            b: Some(OpSrc::Imm(8)),
        }),
        ScalarInst::Op(Operation {
            op: Opcode::Halt,
            fu: cu,
            dst: None,
            a: None,
            b: Some(OpSrc::Imm(0)),
        }),
    ];
    let (plain, r, p) = plain_and_profiled(&m, Program::Scalar(prog.clone()));

    assert_same_run(&plain, &r);
    p.check_against(&r.stats).unwrap();

    assert_eq!(p.samples, prog.len() as u64);
    assert!(p.cycles > p.samples, "stall cycles are not samples");
    assert_eq!(p.slots, 0);
    assert_eq!(p.slot_utilization(), 0.0);
    assert_eq!(p.nop_samples, 0);

    // The imm prefix is a 0-read/0-write sample; the three reads (add's
    // r1, store's r2) and two writes land in the 1-port buckets... the
    // mblaze RF has more ports, so just pin totals.
    assert_eq!(p.rf_reads, 2);
    assert_eq!(p.rf_writes, 2);
    assert_eq!(p.rf[0].read_hist.iter().sum::<u64>(), p.samples);
}

#[test]
fn static_activity_times_trace_reproduces_the_stats() {
    let m = presets::m_tta_1();
    let prog = tta_program();
    let program = Program::Tta(prog.clone());
    let activity = tta_sim::static_activity(&program);
    assert_eq!(activity.len(), prog.len());

    let (r, trace) = tta_sim::run_traced(&m, &program, vec![0; 1 << 16], 1000).unwrap();
    assert_eq!(trace.len() as u64, r.stats.instructions);

    // Summing the static per-PC activity over the executed trace must
    // reproduce the dynamic counters — the identity the Perfetto counter
    // tracks are built on.
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut moves = 0u64;
    for &pc in &trace {
        let a = activity[pc as usize];
        reads += a.rf_reads as u64;
        writes += a.rf_writes as u64;
        moves += a.moves as u64;
    }
    assert_eq!(reads, r.stats.rf_reads);
    assert_eq!(writes, r.stats.rf_writes);
    assert_eq!(moves, r.stats.payload);
}

#[test]
fn profiled_dispatcher_agrees_with_plain_run_on_all_styles() {
    // `run_profiled` vs `run` through the style dispatcher, with obs
    // compiled in but disabled (the default): bit-identical results.
    let cases: Vec<(tta_model::Machine, Program)> = vec![
        (presets::m_tta_1(), Program::Tta(tta_program())),
        (
            presets::mblaze_3(),
            Program::Scalar(vec![
                ScalarInst::Op(Operation {
                    op: Opcode::Stw,
                    fu: FuId(1),
                    dst: None,
                    a: Some(OpSrc::Imm(9)),
                    b: Some(OpSrc::Imm(8)),
                }),
                ScalarInst::Op(Operation {
                    op: Opcode::Halt,
                    fu: FuId(2),
                    dst: None,
                    a: None,
                    b: Some(OpSrc::Imm(0)),
                }),
            ]),
        ),
    ];
    for (m, program) in &cases {
        let plain = tta_sim::run(m, program, vec![0; 1 << 16]).unwrap();
        let (r, p) = tta_sim::run_profiled(m, program, vec![0; 1 << 16]).unwrap();
        assert_same_run(&plain, &r);
        p.check_against(&r.stats).unwrap();
    }
}

#[test]
fn check_against_reports_the_first_inconsistency() {
    let m = presets::m_tta_1();
    let prog = tta_program();
    let (_, r, p) = plain_and_profiled(&m, Program::Tta(prog));
    let mut bad = r.stats;
    bad.rf_reads += 1;
    let msg = p.check_against(&bad).unwrap_err();
    assert!(msg.contains("rf_reads"), "got: {msg}");
    assert_eq!(p.check_against(&SimStats::default()), {
        Err(format!("samples: profile {} vs stats 0", p.samples))
    });
}

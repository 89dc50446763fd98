//! Machine-space coverage: the compiler + simulator must handle every
//! reasonable point of the custom-TTA design space (bus count x register
//! banks x connectivity), not just the thirteen paper presets.

use std::collections::HashMap;

use tta_compiler::{compile_prepared, prepare, TtaOptions};
use tta_ir::{FunctionBuilder, ModuleBuilder};
use tta_isa::{Program, TtaCodec};
use tta_model::{gen, presets, Machine, RegisterFile};

/// A small but non-trivial program touching loops, memory and wide
/// constants.
fn probe_module() -> (tta_ir::Module, i32) {
    let mut mb = ModuleBuilder::new("probe");
    let buf = mb.buffer(64);
    let mut fb = FunctionBuilder::new("main", 0, true);
    let acc = fb.copy(0x00C0FFEE);
    let i = fb.copy(0);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.jump(head);
    fb.switch_to(head);
    let c = fb.lt(i, 12);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let off = fb.shl(i, 2);
    let addr = fb.add(off, buf.base());
    let x = fb.mul(i, 2654435761u32 as i32);
    fb.stw(x, addr, buf.region);
    let y = fb.ldw(addr, buf.region);
    let a2 = fb.xor(acc, y);
    let a3 = fb.add(a2, 0x1234);
    fb.copy_to(acc, a3);
    let i2 = fb.add(i, 1);
    fb.copy_to(i, i2);
    fb.jump(head);
    fb.switch_to(exit);
    fb.ret(acc);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    let m = mb.finish();
    let want = tta_ir::interp::run_ret(&m, &[]);
    (m, want)
}

#[test]
fn every_custom_tta_configuration_computes_correctly() {
    let (module, want) = probe_module();
    for issue in [1u8, 2, 3] {
        for banks in [1u16, 2, 3] {
            for buses in [3usize, 4, 5, 6, 8] {
                for full in [false, true] {
                    let rfs: Vec<RegisterFile> = (0..banks)
                        .map(|b| RegisterFile::new(format!("rf{b}"), 32, 1, 1))
                        .collect();
                    let name = format!("fuzz-{issue}w-{banks}rf-{buses}b-{full}");
                    let machine = presets::custom_tta(&name, issue, rfs, buses, full);
                    machine
                        .validate()
                        .unwrap_or_else(|e| panic!("{name}: {e:?}"));
                    let compiled = tta_compiler::compile(&module, &machine)
                        .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
                    let r = tta_sim::run(&machine, &compiled.program, module.initial_memory())
                        .unwrap_or_else(|e| panic!("{name}: sim: {e}"));
                    assert_eq!(r.ret, want, "{name}");
                }
            }
        }
    }
}

#[test]
fn custom_vliw_configurations_compute_correctly() {
    let (module, want) = probe_module();
    for issue in [2u8, 3] {
        for (banks, r, w) in [(1u16, 4u8, 2u8), (2, 2, 1), (3, 2, 1), (1, 6, 3)] {
            let per = if banks == 1 { 64 } else { 32 };
            let rfs: Vec<RegisterFile> = (0..banks)
                .map(|b| RegisterFile::new(format!("rf{b}"), per, r, w))
                .collect();
            let name = format!("fuzz-vliw-{issue}w-{banks}rf");
            let machine = presets::custom_vliw(&name, issue, rfs);
            machine
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let compiled = tta_compiler::compile(&module, &machine)
                .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
            let r = tta_sim::run(&machine, &compiled.program, module.initial_memory())
                .unwrap_or_else(|e| panic!("{name}: sim: {e}"));
            assert_eq!(r.ret, want, "{name}");
        }
    }
}

/// The premise of the search's run table: configs of the generated space
/// that share a `gen::datapath_hash` (they differ only in their
/// issue-width label) compile to byte-identical programs, run the same
/// cycles and get the same FPGA estimate. This fails the day a compiler,
/// simulator, encoder or estimator layer starts reading `issue_width`.
/// About 1 s in a debug build.
#[test]
fn issue_width_twins_compile_run_and_cost_the_same() {
    let (module, want) = probe_module();
    let front = prepare(&module).expect("probe module prepares");
    let mut classes: HashMap<u64, Vec<Machine>> = HashMap::new();
    for cfg in gen::enumerate_space() {
        let m = cfg.build();
        classes.entry(gen::datapath_hash(&m)).or_default().push(m);
    }
    let twins: Vec<&Vec<Machine>> = classes.values().filter(|c| c.len() > 1).collect();
    assert_eq!(
        (classes.len(), twins.len()),
        (1128, 576),
        "the 1740 configs' datapath classes, and those with twins"
    );
    for class in twins {
        let outcomes: Vec<_> = class
            .iter()
            .map(|m| {
                let c = compile_prepared(&front, m, TtaOptions::default())
                    .unwrap_or_else(|e| panic!("{}: compile: {e}", m.name));
                let image = match &c.program {
                    Program::Tta(insts) => TtaCodec::new(m).encode_program(insts).unwrap(),
                    _ => panic!("{}: a VLIW config with a twin", m.name),
                };
                let r = tta_sim::run(m, &c.program, module.initial_memory())
                    .unwrap_or_else(|e| panic!("{}: sim: {e}", m.name));
                assert_eq!(r.ret, want, "{}", m.name);
                let layout = (c.block_starts, c.irq_entry);
                (image, layout, r, tta_fpga::estimate(m))
            })
            .collect();
        for (m, o) in class.iter().zip(&outcomes).skip(1) {
            assert!(
                o == &outcomes[0],
                "{} differs from {}",
                m.name,
                class[0].name
            );
        }
    }
}

//! Ablation study of the TTA programming freedoms (paper §III-B/C).
//!
//! The paper credits three compiler freedoms for the TTA's cycle advantage:
//! software bypassing, dead-result elimination and operand sharing. This
//! binary disables them one at a time (and all together) on `m-tta-2` and
//! reports the cycle counts and register-file traffic per kernel — the
//! quantitative backing for the qualitative claims of §III.
//!
//!     cargo run --release -p tta-bench --bin ablation

use tta_compiler::{compile_prepared, prepare, TtaOptions};
use tta_model::presets;

fn variants() -> Vec<(&'static str, TtaOptions)> {
    let full = TtaOptions::default();
    vec![
        ("full", full),
        (
            "no-bypass",
            TtaOptions {
                bypass: false,
                ..full
            },
        ),
        (
            "no-dre",
            TtaOptions {
                dead_result_elim: false,
                ..full
            },
        ),
        (
            "no-share",
            TtaOptions {
                operand_share: false,
                ..full
            },
        ),
        (
            "none",
            TtaOptions {
                bypass: false,
                dead_result_elim: false,
                operand_share: false,
            },
        ),
    ]
}

fn main() {
    let machine = presets::m_tta_2();
    println!(
        "TTA programming-freedom ablation on {} (cycles | RF reads | RF writes)\n",
        machine.name
    );
    println!(
        "{:10} {:>22} {:>22} {:>22} {:>22} {:>22}",
        "kernel", "full", "no-bypass", "no-dre", "no-share", "none"
    );
    for kernel in tta_chstone::all_kernels() {
        let module = (kernel.build)();
        // The variants differ only in the back end: prepare once.
        let front = prepare(&module).expect("prepares");
        print!("{:10}", kernel.name);
        for (_, opts) in variants() {
            let compiled = compile_prepared(&front, &machine, opts).expect("compiles");
            let r =
                tta_sim::run(&machine, &compiled.program, module.initial_memory()).expect("runs");
            assert_eq!(
                r.ret,
                (kernel.expected)(),
                "ablated compile must stay correct"
            );
            print!(
                " {:>8} |{:>5}k|{:>5}k",
                r.cycles,
                r.stats.rf_reads / 1000,
                r.stats.rf_writes / 1000
            );
        }
        println!();
    }
    println!(
        "\nEvery variant still passes the golden-model check; the deltas are\n\
         pure schedule quality. 'none' approximates operation-triggered\n\
         execution on the TTA datapath."
    );
}

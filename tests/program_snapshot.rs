//! Compiled-program snapshot: every (kernel × design point) pair, and a
//! fixed stream of generated fuzz modules on every design point, must
//! compile to byte-identical programs across compiler refactors. Where
//! `cycle_snapshot` locks what the simulators report, this locks what the
//! compiler emits: the program, its block start addresses and its
//! interrupt-handler entry, folded into one stable hash per pair.
//!
//! Programs are compiled the way the multi-machine callers compile them:
//! each module is prepared once (`tta_compiler::prepare`) and its back
//! end run per machine (`compile_prepared`). For the kernels the result
//! must also equal a one-shot `compile`. The golden file was generated
//! with `compile` before the compiler was split into those two halves.
//!
//! Two aggregate lines pin the programs the presets under default options
//! do not reach: the kernels on a fixed-stride sample of the generated
//! design space (up to 10 buses, full connectivity, 2-port banks, both
//! styles), and every kernel × design-point pair with one TTA freedom
//! switched off (the eager-writeback paths the ablation study exercises).
//!
//! To regenerate after an *intentional* code-generation change:
//!
//! ```sh
//! UPDATE_SNAPSHOT=1 cargo test --release --test program_snapshot
//! ```

use std::fmt::Write as _;

use tta_compiler::{compile_prepared, prepare, CompileError, Compiled, Prepared, TtaOptions};
use tta_fuzz::gen::{generate, generate_reactive, GenConfig};
use tta_model::{gen, presets, Machine};

const SNAPSHOT_PATH: &str = "tests/snapshots/program_hashes.txt";

/// Generator seeds of the aggregate line, each run as a plain and as a
/// reactive module.
const GEN_SEEDS: u64 = 200;

/// Every `SPACE_STRIDE`-th config of `gen::enumerate_space()` (the last
/// of each stride, so the sample ends on a VLIW config): 60 machines.
const SPACE_STRIDE: usize = 29;

/// 64-bit FNV-1a: a hash that is stable across processes and platforms.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The hash of everything a simulator consumes from a compile.
fn program_hash(c: &Compiled) -> u64 {
    let text = format!("{:?}|{:?}|{:?}", c.program, c.block_starts, c.irq_entry);
    fnv1a(text.as_bytes(), FNV_OFFSET)
}

/// A compile result as a hash: the program's, or the error text's.
fn result_hash(r: Result<Compiled, CompileError>) -> u64 {
    match r {
        Ok(c) => program_hash(&c),
        Err(e) => fnv1a(format!("error: {e}").as_bytes(), FNV_OFFSET),
    }
}

/// The back end for `machine` over a prepared module (or its error).
fn back_end(
    front: &Result<Prepared, CompileError>,
    machine: &Machine,
) -> Result<Compiled, CompileError> {
    back_end_with(front, machine, TtaOptions::default())
}

fn back_end_with(
    front: &Result<Prepared, CompileError>,
    machine: &Machine,
    opts: TtaOptions,
) -> Result<Compiled, CompileError> {
    let front = front.as_ref().map_err(Clone::clone)?;
    compile_prepared(front, machine, opts)
}

fn render_snapshot() -> String {
    let machines = presets::all_design_points();
    let mut out = String::new();
    out.push_str("# machine kernel program_len fnv1a(program|block_starts|irq_entry)\n");
    let kernels: Vec<_> = tta_chstone::all_kernels()
        .iter()
        .map(|k| {
            let module = (k.build)();
            let front = prepare(&module);
            (k.name, module, front)
        })
        .collect();
    for machine in &machines {
        for (name, module, front) in &kernels {
            let c = back_end(front, machine)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", machine.name));
            let whole = tta_compiler::compile(module, machine).unwrap();
            assert_eq!(
                program_hash(&whole),
                program_hash(&c),
                "{name} on {}: compile and prepare + compile_prepared disagree",
                machine.name
            );
            writeln!(
                out,
                "{} {name} {} {:016x}",
                machine.name,
                c.program.len(),
                program_hash(&c)
            )
            .unwrap();
        }
    }

    // The generated modules: one hash over every program, in order.
    let cfg = GenConfig::default();
    let mut agg = FNV_OFFSET;
    let mut programs = 0u64;
    for seed in 0..GEN_SEEDS {
        for module in [generate(seed, &cfg), generate_reactive(seed, &cfg).0] {
            let front = prepare(&module);
            for machine in &machines {
                let h = result_hash(back_end(&front, machine));
                agg = fnv1a(&h.to_le_bytes(), agg);
                programs += 1;
            }
        }
    }
    writeln!(
        out,
        "generated seeds 0..{GEN_SEEDS} x {{generate, generate_reactive}} x {} machines: \
         {programs} programs {agg:016x}",
        machines.len()
    )
    .unwrap();

    // The kernels on a stride sample of the generated design space.
    let space: Vec<Machine> = gen::enumerate_space()
        .iter()
        .skip(SPACE_STRIDE - 1)
        .step_by(SPACE_STRIDE)
        .map(|c| c.build())
        .collect();
    let mut agg = FNV_OFFSET;
    let mut programs = 0u64;
    for machine in &space {
        for (_, _, front) in &kernels {
            agg = fnv1a(&result_hash(back_end(front, machine)).to_le_bytes(), agg);
            programs += 1;
        }
    }
    writeln!(
        out,
        "kernels x every {SPACE_STRIDE}th of {} generated configs ({} machines): \
         {programs} programs {agg:016x}",
        gen::enumerate_space().len(),
        space.len()
    )
    .unwrap();

    // Every kernel × design-point pair with one freedom off.
    let full = TtaOptions::default();
    let ablated = [
        TtaOptions {
            bypass: false,
            ..full
        },
        TtaOptions {
            dead_result_elim: false,
            ..full
        },
        TtaOptions {
            operand_share: false,
            ..full
        },
    ];
    let mut agg = FNV_OFFSET;
    let mut programs = 0u64;
    for opts in ablated {
        for machine in &machines {
            for (_, _, front) in &kernels {
                let h = result_hash(back_end_with(front, machine, opts));
                agg = fnv1a(&h.to_le_bytes(), agg);
                programs += 1;
            }
        }
    }
    writeln!(
        out,
        "kernels x {} machines x {{no bypass, no dead-result elim, no operand share}}: \
         {programs} programs {agg:016x}",
        machines.len()
    )
    .unwrap();
    out
}

#[test]
fn programs_match_golden_snapshot() {
    let rendered = render_snapshot();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT_PATH);
    if std::env::var("UPDATE_SNAPSHOT").is_ok() {
        std::fs::write(&path, &rendered).expect("write snapshot");
        eprintln!("snapshot updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    if rendered != golden {
        let mut mismatches = Vec::new();
        for (g, r) in golden.lines().zip(rendered.lines()) {
            if g != r {
                mismatches.push(format!("  golden: {g}\n  got:    {r}"));
            }
        }
        let gl = golden.lines().count();
        let rl = rendered.lines().count();
        if gl != rl {
            mismatches.push(format!("  line count changed: golden {gl}, got {rl}"));
        }
        panic!(
            "program snapshot mismatch ({} lines differ):\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}

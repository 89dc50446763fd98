//! Micro-benchmark of simulator dispatch: runs every CHStone kernel
//! compiled for one machine of each style (TTA, VLIW, scalar) and reports
//! superblock dispatch throughput, writing `BENCH_dispatch.json` so
//! engine-level regressions are caught even when the full evaluation
//! pipeline hides them behind compile time.
//!
//! Usage: `cargo run --release -p tta-bench --bin bench_dispatch [reps] [iters]`
//! (default 5 repetitions; each repetition simulates every kernel `iters`
//! times per style — default 20 — so one repetition is long enough for the
//! CI gate's relative tolerance to be meaningful).
//!
//! "Blocks" are dynamic superblock entries, counted *once per case* from
//! an execution trace against the program's `BlockMap` during setup — the
//! timed region only simulates, so `blocks_per_s` measures dispatch, not
//! tracing. A block is entered at the first instruction, after every
//! control-bearing (run-terminal) instruction, and at every pc
//! discontinuity.
//!
//! Each case carries shared simulator state ([`tta_sim::Tiers`]) warmed
//! by one untimed run, so the timed region measures steady-state
//! dispatch: for TTA, slices of the thunk array the warm-up run built.
//! `bench_report` diffs the file against the committed baseline in CI.

use std::time::Instant;

use tta_isa::BlockMap;
use tta_model::{presets, Machine};
use tta_obs::json::Json;

fn round(v: f64, places: i32) -> f64 {
    let p = 10f64.powi(places);
    (v * p).round() / p
}

struct Case {
    kernel: &'static str,
    machine: Machine,
    program: tta_isa::Program,
    memory: Vec<u8>,
    tiers: tta_sim::Tiers,
    /// Dynamic superblock entries of one run (counted during setup).
    blocks: u64,
    cycles: u64,
}

/// Count dynamic superblock entries in an executed-pc trace.
fn dynamic_blocks(map: &BlockMap, trace: &[u32]) -> u64 {
    let mut blocks = 0u64;
    let mut prev: Option<u32> = None;
    for &pc in trace {
        let entry = match prev {
            None => true,
            // A run-terminal instruction ends its block even on
            // fall-through; any non-sequential pc is a (re-)entry.
            Some(p) => map.run_len(p) == 1 || pc != p + 1,
        };
        if entry {
            blocks += 1;
        }
        prev = Some(pc);
    }
    blocks
}

fn prepare(kernel: &'static str, machine: Machine, module: &tta_ir::Module) -> Case {
    let compiled = tta_compiler::compile(module, &machine)
        .unwrap_or_else(|e| panic!("{kernel} on {}: {e}", machine.name));
    let memory = module.initial_memory();
    let (result, trace) = tta_sim::run_traced(
        &machine,
        &compiled.program,
        memory.clone(),
        tta_sim::DEFAULT_FUEL,
    )
    .unwrap_or_else(|e| panic!("{kernel} on {}: {e}", machine.name));
    let map = BlockMap::of_program(&compiled.program);
    // Shared state, warmed by one untimed run so the timed region
    // measures steady-state dispatch (the TTA thunk array is built here).
    let tiers = tta_sim::Tiers::for_program(&compiled.program);
    let warm = tta_sim::run_with_tiers(
        &machine,
        &compiled.program,
        memory.clone(),
        tta_sim::DEFAULT_FUEL,
        &tiers,
    )
    .unwrap_or_else(|e| panic!("{kernel} on {}: {e}", machine.name));
    assert_eq!(
        warm.cycles, result.cycles,
        "warm-up diverged from the traced run"
    );
    Case {
        kernel,
        machine,
        blocks: dynamic_blocks(&map, &trace),
        cycles: result.cycles,
        program: compiled.program,
        memory,
        tiers,
    }
}

fn main() {
    tta_obs::init_from_env();
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let iters: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);

    let kernels = tta_chstone::all_kernels();
    let machines = [presets::m_tta_2(), presets::m_vliw_2(), presets::mblaze_3()];
    let styles = ["tta", "vliw", "scalar"];
    let mut cases: Vec<Case> = Vec::new();
    for kernel in &kernels {
        let module = (kernel.build)();
        for m in &machines {
            cases.push(prepare(kernel.name, m.clone(), &module));
        }
    }

    // Wall-clock per rep: grand total plus per-style and per-kernel
    // slices (each minimised across reps independently).
    let mut per_style_min = vec![f64::INFINITY; styles.len()];
    let mut per_kernel_min = vec![f64::INFINITY; kernels.len()];
    let mut totals_s: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut total = 0.0;
        let mut style_s = vec![0.0; styles.len()];
        let mut kernel_s = vec![0.0; kernels.len()];
        for (ci, c) in cases.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..iters {
                let r = tta_sim::run_with_tiers(
                    &c.machine,
                    &c.program,
                    c.memory.clone(),
                    tta_sim::DEFAULT_FUEL,
                    &c.tiers,
                );
                std::hint::black_box(&r);
                r.unwrap_or_else(|e| panic!("{} on {}: {e}", c.kernel, c.machine.name));
            }
            let dt = t.elapsed().as_secs_f64();
            style_s[ci % styles.len()] += dt;
            kernel_s[ci / styles.len()] += dt;
            total += dt;
        }
        for (si, s) in style_s.iter().enumerate() {
            per_style_min[si] = per_style_min[si].min(*s);
        }
        for (ki, k) in kernel_s.iter().enumerate() {
            per_kernel_min[ki] = per_kernel_min[ki].min(*k);
        }
        totals_s.push(total);
    }
    totals_s.sort_by(|a, b| a.total_cmp(b));
    let min = totals_s[0];
    let median = totals_s[totals_s.len() / 2];

    // Per-repetition totals: each rep simulates every case `iters` times.
    let blocks: u64 = cases.iter().map(|c| c.blocks).sum::<u64>() * iters;
    let cycles: u64 = cases.iter().map(|c| c.cycles).sum::<u64>() * iters;

    let style_fields: Vec<(String, Json)> = styles
        .iter()
        .enumerate()
        .map(|(si, &label)| {
            let scases: Vec<&Case> = cases.iter().skip(si).step_by(styles.len()).collect();
            let scycles: u64 = scases.iter().map(|c| c.cycles).sum();
            let sblocks: u64 = scases.iter().map(|c| c.blocks).sum();
            let m = per_style_min[si];
            (
                label.to_string(),
                Json::Obj(vec![
                    ("machine".into(), Json::Str(scases[0].machine.name.clone())),
                    ("cycles".into(), Json::Num(scycles as f64)),
                    ("blocks".into(), Json::Num(sblocks as f64)),
                    ("wall_s_min".into(), Json::Num(round(m, 6))),
                    (
                        "blocks_per_s".into(),
                        Json::Num(round(sblocks as f64 * iters as f64 / m, 0)),
                    ),
                    (
                        "sim_cycles_per_s".into(),
                        Json::Num(round(scycles as f64 * iters as f64 / m, 0)),
                    ),
                ]),
            )
        })
        .collect();

    let kernel_fields: Vec<(String, Json)> = kernels
        .iter()
        .enumerate()
        .map(|(ki, kernel)| {
            let kcases = &cases[ki * styles.len()..(ki + 1) * styles.len()];
            let kcycles: u64 = kcases.iter().map(|c| c.cycles).sum();
            let kblocks: u64 = kcases.iter().map(|c| c.blocks).sum();
            let m = per_kernel_min[ki];
            (
                kernel.name.to_string(),
                Json::Obj(vec![
                    ("cycles".into(), Json::Num(kcycles as f64)),
                    ("blocks".into(), Json::Num(kblocks as f64)),
                    ("wall_s_min".into(), Json::Num(round(m, 6))),
                    (
                        "sim_cycles_per_s".into(),
                        Json::Num(round(kcycles as f64 * iters as f64 / m, 0)),
                    ),
                ]),
            )
        })
        .collect();

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("dispatch".into())),
        ("machines".into(), Json::Num(machines.len() as f64)),
        ("kernels".into(), Json::Num(kernels.len() as f64)),
        ("reps".into(), Json::Num(reps as f64)),
        ("iters".into(), Json::Num(iters as f64)),
        ("wall_s_min".into(), Json::Num(round(min, 6))),
        ("wall_s_median".into(), Json::Num(round(median, 6))),
        ("blocks".into(), Json::Num(blocks as f64)),
        (
            "blocks_per_s".into(),
            Json::Num(round(blocks as f64 / min, 0)),
        ),
        ("sim_cycles".into(), Json::Num(cycles as f64)),
        (
            "sim_cycles_per_s".into(),
            Json::Num(round(cycles as f64 / min, 0)),
        ),
        ("styles".into(), Json::Obj(style_fields)),
        ("per_kernel".into(), Json::Obj(kernel_fields)),
        ("obs".into(), tta_obs::report::to_json()),
    ]);
    let text = json.to_pretty();
    std::fs::write("BENCH_dispatch.json", &text).expect("write BENCH_dispatch.json");
    print!("{text}");
    eprintln!(
        "wrote BENCH_dispatch.json ({blocks} blocks/rep, min {min:.4}s, median {median:.4}s)"
    );
}

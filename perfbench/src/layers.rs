//! Per-layer measurements shared by the workloads' traced runs.

use std::time::Instant;

use tta_isa::Program;

use crate::stats::median;
use crate::sys::ratio;
use crate::tracer::Tracer;
use crate::{Metrics, PER_LAYER};

/// The compiler passes, by the span names the compiler already emits
/// under its `compile` span (`dce` nests inside `opt`).
pub const PASSES: [&str; 10] = [
    "verify", "inline", "opt", "dce", "consts", "regalloc", "lower", "sched", "layout", "validate",
];

/// Tracer span names of simulations, indexed by [`style`].
pub const SIM_SPANS: [&str; 3] = ["sim.tta", "sim.vliw", "sim.scalar"];

/// The style of `program`: 0 TTA, 1 VLIW, 2 scalar.
pub fn style(program: &Program) -> usize {
    match program {
        Program::Tta(_) => 0,
        Program::Vliw(_) => 1,
        Program::Scalar(_) => 2,
    }
}

/// IR instructions of a module, terminators included.
pub fn ir_insts(module: &tta_ir::Module) -> u64 {
    module
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .map(|b| b.insts.len() as u64 + 1)
        .sum()
}

/// Current value of an obs counter (0 when never touched).
pub fn counter(name: &str) -> u64 {
    tta_obs::counter::get(name).unwrap_or(0)
}

/// Per-pass compiler metrics from the obs span registry: every `compile`
/// span whose path starts with `root` and the pass spans beneath it.
pub fn compiler_passes(m: &mut Metrics, root: &str) {
    let base = format!("{root}/compile");
    let (mut compile_s, mut compiles) = (0.0, 0u64);
    let mut pass_s = [0.0; PASSES.len()];
    let mut dce_sweeps = 0u64;
    for s in tta_obs::span::snapshot() {
        if s.path == base {
            compile_s += s.total_s;
            compiles += s.count;
            continue;
        }
        let Some(rest) = s.path.strip_prefix(&format!("{base}/")) else {
            continue;
        };
        let leaf = rest.rsplit('/').next().unwrap_or(rest);
        if let Some(i) = PASSES.iter().position(|&p| p == leaf) {
            pass_s[i] += s.total_s;
            if leaf == "dce" {
                dce_sweeps += s.count;
            }
        }
    }
    let names = [
        "compiler.pass.verify_s",
        "compiler.pass.inline_s",
        "compiler.pass.opt_s",
        "compiler.pass.dce_s",
        "compiler.pass.consts_s",
        "compiler.pass.regalloc_s",
        "compiler.pass.lower_s",
        "compiler.pass.sched_s",
        "compiler.pass.layout_s",
        "compiler.pass.validate_s",
    ];
    for (name, s) in names.into_iter().zip(pass_s) {
        m.insert(name, s);
    }
    // verify + inline + opt (opt includes its dce sweeps).
    m.insert(
        "compiler.front_share",
        ratio(pass_s[0] + pass_s[1] + pass_s[2], compile_s),
    );
    m.insert("compiler.dce_share", ratio(pass_s[3], compile_s));
    m.insert(
        "compiler.dce_sweeps_per_call",
        ratio(dce_sweeps as f64, compiles as f64),
    );
}

/// Simulator metrics from the tracer's [`SIM_SPANS`]; `cycles` holds the
/// simulated cycles per [`style`].
pub fn sim_metrics(m: &mut Metrics, tracer: &Tracer, cycles: [u64; 3], total_s: f64) {
    let rates = [
        "sim.tta.cycles_per_s",
        "sim.vliw.cycles_per_s",
        "sim.scalar.cycles_per_s",
    ];
    let (mut busy, mut runs) = (0.0, 0u64);
    for ((span, metric), c) in SIM_SPANS.into_iter().zip(rates).zip(cycles) {
        let (s, n) = tracer.total(span);
        busy += s;
        runs += n;
        m.insert(metric, ratio(c as f64, s));
    }
    let all: u64 = cycles.iter().sum();
    m.insert("sim.busy_s", busy);
    m.insert("sim.share", ratio(busy, total_s));
    m.insert("sim.runs", runs as f64);
    m.insert("sim.cycles", all as f64);
    m.insert("sim.cycles_per_s", ratio(all as f64, busy));
}

/// Compile-cache metrics from the obs counter deltas since `before`
/// (`(hits, misses)`): the hit ratio with its base, and the misses.
pub fn cache_metrics(m: &mut Metrics, before: (u64, u64)) {
    let hits = counter("eval.compile_cache.hits") - before.0;
    let misses = counter("eval.compile_cache.misses") - before.1;
    let lookups = hits + misses;
    m.insert("cache.lookups", lookups as f64);
    m.insert("cache.misses", misses as f64);
    m.insert("cache.hit_ratio", ratio(hits as f64, lookups as f64));
}

/// The compile-cache counters now, for [`cache_metrics`].
pub fn cache_counters() -> (u64, u64) {
    (
        counter("eval.compile_cache.hits"),
        counter("eval.compile_cache.misses"),
    )
}

/// The microbenchmarks every traced run records: `tta_fpga::estimate`
/// over the whole generated space (median µs per estimate over five
/// sweeps) and `eval::prepare_kernel` over the CHStone suite (unless
/// the workload measured it in a cold process already).
pub fn common_layers(m: &mut Metrics) {
    let machines: Vec<_> = tta_model::gen::enumerate_space()
        .iter()
        .map(|c| c.build())
        .collect();
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for mach in &machines {
                std::hint::black_box(tta_fpga::estimate(std::hint::black_box(mach)));
            }
            t.elapsed().as_secs_f64() * 1e6 / machines.len() as f64
        })
        .collect();
    m.insert("fpga.estimate_us", median(&sweeps));
    let t = Instant::now();
    for k in tta_chstone::all_kernels() {
        std::hint::black_box(tta_explore::eval::prepare_kernel(&k));
    }
    m.entry("explore.prepare_s")
        .or_insert(t.elapsed().as_secs_f64());
}

/// Fill every per-layer metric the workload did not touch with 0.
pub fn zero_fill(m: &mut Metrics) {
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
}

/// Relative cost of `slow` over `fast` from paired samples (seconds per
/// unit of work, same work on both sides): the median of the per-pair
/// ratios, minus one.
pub fn overhead(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(s, f)| *s > 0.0 && *f > 0.0)
        .map(|(s, f)| s / f)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}

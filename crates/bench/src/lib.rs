//! # tta-bench — benchmark binaries and table/figure reproduction
//!
//! * `cargo run --release -p tta-bench --bin repro` regenerates every
//!   table and figure of the paper (Tables I–IV, Figs. 5–6) from one full
//!   evaluation (all thirteen design points, all eight kernels; used to
//!   fill `EXPERIMENTS.md`).
//! * `cargo run --release -p tta-bench --bin bench_eval` times the full
//!   evaluation pipeline and writes `BENCH_eval.json` (the perf
//!   trajectory tracked in `EXPERIMENTS.md`).
//! * `cargo run --release -p tta-bench --bin bench_serve` load-tests the
//!   batch simulation server over real sockets and writes
//!   `BENCH_serve.json` (throughput plus p50/p99 per-job latency).
//! * `bench_fuzz`, `bench_dispatch` and `bench_search` time the fuzz
//!   oracle, simulator dispatch and the Pareto search the same way, and
//!   `bench_report` diffs any of those files against a baseline. The
//!   repository's end-to-end benchmark is `perfbench/` (see
//!   `BENCHMARK.json`).

#![warn(missing_docs)]

pub mod report;

use std::time::Instant;

use tta_explore::MachineReport;
use tta_obs::json::Json;

/// Run the full evaluation once (13 machines x 8 kernels).
pub fn full_evaluation() -> Vec<MachineReport> {
    tta_explore::evaluate_all()
}

/// A small subset evaluation for fast smoke tests.
pub fn quick_evaluation() -> Vec<MachineReport> {
    let machines = vec![
        tta_model::presets::mblaze_3(),
        tta_model::presets::m_vliw_2(),
        tta_model::presets::m_tta_2(),
    ];
    let kernels: Vec<_> = ["sha", "motion"]
        .iter()
        .map(|n| tta_chstone::by_name(n).expect("kernel"))
        .collect();
    tta_explore::evaluate(&machines, &kernels)
}

fn round(v: f64, places: i32) -> f64 {
    let p = 10f64.powi(places);
    (v * p).round() / p
}

/// The `BENCH_eval.json` document for `reps` timed runs of `eval`, after
/// one untimed warm-up run (min and median wall time).
///
/// Wall times come from this function's own clock and `threads` from
/// [`tta_explore::eval::eval_threads`], so the document has the same
/// shape and metadata with telemetry off (`TTA_OBS=0`). Only the
/// per-stage split (`stages_s`) and the embedded `obs` report come from
/// telemetry, and read zero without it.
pub fn eval_bench_json(reps: usize, eval: impl Fn() -> Vec<MachineReport>) -> Json {
    // Warm-up run: faults in the kernel IR builders and touches the page
    // cache so rep timings measure the pipeline, not first-run effects.
    let reports = eval();
    let pairs: usize = reports.iter().map(|r| r.runs.len()).sum();
    let threads = tta_explore::eval::eval_threads(pairs);

    let mut totals_s: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(eval());
            t.elapsed().as_secs_f64()
        })
        .collect();
    totals_s.sort_by(|a, b| a.total_cmp(b));
    let min = totals_s[0];
    let median = totals_s[totals_s.len() / 2];

    let timing = tta_explore::eval::last_timing();
    let stage = |name: &str, s: f64| (name.to_string(), Json::Num(round(s, 6)));
    let mut fields = vec![
        ("bench".into(), Json::Str("evaluate_all".into())),
        ("machines".into(), Json::Num(reports.len() as f64)),
        (
            "kernels".into(),
            Json::Num(reports.first().map_or(0, |r| r.runs.len()) as f64),
        ),
        ("pairs".into(), Json::Num(pairs as f64)),
        ("reps".into(), Json::Num(totals_s.len() as f64)),
        ("wall_s_min".into(), Json::Num(round(min, 6))),
        ("wall_s_median".into(), Json::Num(round(median, 6))),
        (
            "pairs_per_s".into(),
            Json::Num(round(pairs as f64 / min, 2)),
        ),
        (
            "stages_s".into(),
            Json::Obj(vec![
                stage("build_ir", timing.build_ir_s),
                stage("golden_interp", timing.golden_interp_s),
                stage("compile", timing.compile_s),
                stage("simulate", timing.simulate_s),
                stage("verify_estimate", timing.verify_estimate_s),
            ]),
        ),
        ("threads".into(), Json::Num(threads as f64)),
    ];
    // Single-threaded runs are not comparable against multi-core
    // baselines; flag them so `bench_report` consumers can tell the
    // configurations apart.
    if threads <= 1 {
        fields.push((
            "threads_warning".into(),
            Json::Str("single-threaded run; not comparable to multi-core baselines".into()),
        ));
    }
    fields.push(("obs".into(), tta_obs::report::to_json()));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_evaluation_works() {
        let r = super::quick_evaluation();
        assert_eq!(r.len(), 3);
    }
}

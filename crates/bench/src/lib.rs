//! # tta-bench — benchmark harness and table/figure reproduction
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
//! * `cargo bench` runs the micro-benchmarks of the toolchain itself
//!   (scheduler, simulator, encoder, end-to-end pipeline) on the local
//!   [`harness`].

#![warn(missing_docs)]

pub mod harness;
pub mod report;

use tta_explore::MachineReport;

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

#[cfg(test)]
mod tests {
    #[test]
    fn quick_evaluation_works() {
        let r = super::quick_evaluation();
        assert_eq!(r.len(), 3);
    }
}

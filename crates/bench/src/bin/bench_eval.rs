//! Times the full evaluation pipeline (`evaluate_all`: 13 design points ×
//! 8 kernels, compile + simulate + verify) and writes `BENCH_eval.json`
//! so the performance trajectory is tracked in-repo from PR to PR.
//!
//! Usage: `cargo run --release -p tta-bench --bin bench_eval [reps]`
//! (default 5 repetitions; reports min and median, writes JSON to the
//! working directory). The file embeds the observability run report under
//! the `"obs"` key; `bench_report` diffs two such files in CI.

fn main() {
    tta_obs::init_from_env();
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let json = tta_bench::eval_bench_json(reps, tta_bench::full_evaluation);
    let num = |k: &str| json.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    if json.get("threads_warning").is_some() {
        eprintln!(
            "WARNING: evaluate_all ran on 1 worker thread (TTA_EVAL_THREADS or a \
             single-core host); wall-clock numbers are not comparable to \
             multi-threaded baselines"
        );
    }
    let text = json.to_pretty();
    std::fs::write("BENCH_eval.json", &text).expect("write BENCH_eval.json");
    print!("{text}");
    eprintln!(
        "wrote BENCH_eval.json ({} pairs, min {:.3}s, median {:.3}s)",
        num("pairs"),
        num("wall_s_min"),
        num("wall_s_median")
    );
}

//! Times the differential fuzzing pipeline (generate → interpret →
//! compile + simulate on all 13 design points) over a fixed seed range
//! and writes `BENCH_fuzz.json`, so fuzz throughput is tracked in-repo
//! from PR to PR alongside the evaluation-pipeline numbers.
//!
//! Usage: `cargo run --release -p tta-bench --bin bench_fuzz [seeds] [reps]`
//! (default 100 seeds, 3 repetitions; reports min and median). The file
//! embeds the observability run report under the `"obs"` key;
//! `bench_report` diffs two such files in CI.

use std::time::Instant;

use tta_fuzz::gen::{generate, GenConfig};
use tta_fuzz::oracle::Oracle;
use tta_obs::json::Json;

fn round(v: f64, places: i32) -> f64 {
    let p = 10f64.powi(places);
    (v * p).round() / p
}

fn main() {
    tta_obs::init_from_env();
    let mut args = std::env::args().skip(1);
    let seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    let oracle = Oracle::all_presets();
    let cfg = GenConfig::default();

    let run_once = || -> (u64, u64, u64) {
        let (mut insts, mut cycles, mut divergences) = (0u64, 0u64, 0u64);
        for seed in 0..seeds {
            let module = generate(seed, &cfg);
            match oracle.check(&module) {
                Ok(report) => {
                    insts += report.golden_insts;
                    cycles += report.runs.iter().map(|r| r.cycles).sum::<u64>();
                }
                Err(_) => divergences += 1,
            }
        }
        (insts, cycles, divergences)
    };

    // Warm-up: touches every code path once so rep timings measure the
    // steady-state pipeline.
    let (insts, cycles, divergences) = run_once();

    let mut totals_s: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(run_once());
        totals_s.push(t.elapsed().as_secs_f64());
    }
    totals_s.sort_by(|a, b| a.total_cmp(b));
    let min = totals_s[0];
    let median = totals_s[totals_s.len() / 2];

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("fuzz_differential".into())),
        ("seeds".into(), Json::Num(seeds as f64)),
        ("machines".into(), Json::Num(oracle.machines.len() as f64)),
        ("reps".into(), Json::Num(reps as f64)),
        ("wall_s_min".into(), Json::Num(round(min, 6))),
        ("wall_s_median".into(), Json::Num(round(median, 6))),
        (
            "cases_per_s".into(),
            Json::Num(round(seeds as f64 / min, 2)),
        ),
        ("golden_insts".into(), Json::Num(insts as f64)),
        ("sim_cycles".into(), Json::Num(cycles as f64)),
        (
            "sim_cycles_per_s".into(),
            Json::Num(round(cycles as f64 / min, 0)),
        ),
        ("divergences".into(), Json::Num(divergences as f64)),
        ("obs".into(), tta_obs::report::to_json()),
    ]);
    let text = json.to_pretty();
    std::fs::write("BENCH_fuzz.json", &text).expect("write BENCH_fuzz.json");
    print!("{text}");
    eprintln!("wrote BENCH_fuzz.json ({seeds} seeds, min {min:.3}s, median {median:.3}s)");
}

//! Times the Pareto design-space search (`tta_explore::search` with its
//! default funnel parameters over the full kernel suite) and writes
//! `BENCH_search.json` so search throughput is tracked in-repo from PR
//! to PR.
//!
//! Usage: `cargo run --release -p tta-bench --bin bench_search [reps]`
//! (default 3 repetitions; reports min and median wall time plus the
//! headline `configs_per_s` — unique configs through the staged funnel
//! per second — which CI gates as a higher-is-better metric). Runs are
//! pinned to one worker thread so numbers are comparable across hosts;
//! the warm-up rep also fills the process-wide compile cache, putting
//! the timed reps in the steady state a long-running search sees.

use std::time::Instant;

use tta_explore::search::search;
use tta_explore::SearchParams;
use tta_obs::json::Json;

fn round(v: f64, places: i32) -> f64 {
    let p = 10f64.powi(places);
    (v * p).round() / p
}

fn main() {
    tta_obs::init_from_env();
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);

    let params = SearchParams {
        threads: 1,
        ..SearchParams::default()
    };

    // Warm-up: faults in kernel IR builders and fills the compile cache.
    let warm = search(&params);

    let mut totals_s: Vec<f64> = Vec::with_capacity(reps);
    let mut last = warm;
    for _ in 0..reps {
        let t = Instant::now();
        last = search(&params);
        std::hint::black_box(&last.frontier);
        totals_s.push(t.elapsed().as_secs_f64());
    }
    totals_s.sort_by(|a, b| a.total_cmp(b));
    let min = totals_s[0];
    let median = totals_s[totals_s.len() / 2];
    let configs = last.stats.configs;
    let configs_per_s = configs as f64 / median;

    let fields = vec![
        ("bench".into(), Json::Str("pareto_search".into())),
        ("kernels".into(), Json::Num(8.0)),
        ("configs".into(), Json::Num(configs as f64)),
        ("generations".into(), Json::Num(params.generations as f64)),
        ("seed".into(), Json::Num(params.seed as f64)),
        ("reps".into(), Json::Num(reps as f64)),
        ("threads".into(), Json::Num(1.0)),
        ("wall_s_min".into(), Json::Num(round(min, 6))),
        ("wall_s_median".into(), Json::Num(round(median, 6))),
        ("configs_per_s".into(), Json::Num(round(configs_per_s, 2))),
        (
            "frontier_size".into(),
            Json::Num(last.frontier.len() as f64),
        ),
        ("probed".into(), Json::Num(last.stats.probed as f64)),
        ("full_evals".into(), Json::Num(last.stats.full_evals as f64)),
        ("obs".into(), tta_obs::report::to_json()),
    ];
    let json = Json::Obj(fields);
    let text = json.to_pretty();
    std::fs::write("BENCH_search.json", &text).expect("write BENCH_search.json");
    print!("{text}");
    eprintln!(
        "wrote BENCH_search.json ({configs} configs, min {min:.3}s, median {median:.3}s, \
         {configs_per_s:.0} configs/s)"
    );
}

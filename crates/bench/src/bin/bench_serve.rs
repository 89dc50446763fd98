//! Load-tests the batch simulation server end to end — real sockets, real
//! NDJSON streaming — and writes `BENCH_serve.json` so serving throughput
//! and per-job latency are tracked in-repo from PR to PR.
//!
//! Usage: `cargo run --release -p tta-bench --bin bench_serve [reps]`
//! (default 3 repetitions). Each rep posts one 1000-job mixed batch —
//! the 13 design points × 8 CHStone kernels repeated round-robin — to an
//! in-process `tta-serve` instance and timestamps every report line on
//! arrival. The JSON carries `jobs_per_s` plus `p50_ms`/`p99_ms` per-job
//! latencies, all gated by `bench_report` in the CI `serve-gate` job.
//!
//! The same latencies also feed a local log₂ [`obs::hist::HistStat`] as a
//! cross-check of the telemetry pipeline: the histogram-derived p50/p99
//! must land in the same log₂ bucket as the exact sorted percentiles, and
//! both are recorded (`hist_p50_ms`/`hist_p99_ms`, schema-checked but
//! ungated — bucket bounds double at boundaries).

use std::time::Duration;

use tta_obs as obs;
use tta_obs::json::Json;
use tta_serve::{client, schema, Server, ServerConfig};

/// Total jobs per batch; a workload key, so CI and the committed baseline
/// must agree on it.
const JOBS: usize = 1000;

const TIMEOUT: Duration = Duration::from_secs(600);

fn round(v: f64, places: i32) -> f64 {
    let p = 10f64.powi(places);
    (v * p).round() / p
}

/// Nearest-rank percentile of a sorted sample, `q` in (0, 1].
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Post one batch; returns (wall seconds, per-job latencies in ms).
fn run_batch(addr: std::net::SocketAddr, body: &str) -> (f64, Vec<f64>) {
    let resp = client::post_streaming(addr, "/v1/batch", body, TIMEOUT).expect("post /v1/batch");
    assert_eq!(resp.status, 200, "batch rejected: {:?}", resp.lines.first());
    let summary = resp.lines.last().expect("summary line");
    let doc = tta_obs::json::parse(&summary.text).expect("summary parses");
    assert_eq!(
        doc.get("ok").and_then(Json::as_f64),
        Some(JOBS as f64),
        "not all jobs succeeded: {}",
        summary.text
    );
    let wall_s = summary.at.as_secs_f64();
    let latencies_ms: Vec<f64> = resp.lines[..resp.lines.len() - 1]
        .iter()
        .map(|l| l.at.as_secs_f64() * 1e3)
        .collect();
    (wall_s, latencies_ms)
}

fn main() {
    tta_obs::init_from_env();
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);

    let machines = tta_model::presets::all_design_points();
    let kernels = tta_chstone::all_kernels();
    let pairs: Vec<schema::JobSpec> = machines
        .iter()
        .flat_map(|m| {
            kernels.iter().map(|k| schema::JobSpec {
                machine: m.name.clone(),
                kernel: k.name.to_string(),
            })
        })
        .collect();
    let jobs: Vec<schema::JobSpec> = pairs.iter().cycle().take(JOBS).cloned().collect();
    let body = schema::batch_to_json(&jobs, None).to_compact();

    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let threads = server.sim_threads();

    // Warm-up batch: compiles all distinct pairs into the shared cache so
    // rep timings measure steady-state serving, not first-touch compiles.
    run_batch(addr, &body);

    let mut walls_s: Vec<f64> = Vec::with_capacity(reps);
    let mut latencies_ms: Vec<f64> = Vec::new();
    for _ in 0..reps {
        let (wall, lats) = run_batch(addr, &body);
        walls_s.push(wall);
        latencies_ms.extend(lats);
    }
    walls_s.sort_by(|a, b| a.total_cmp(b));
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let min = walls_s[0];
    let median = walls_s[walls_s.len() / 2];
    let p50 = percentile(&latencies_ms, 0.50);
    let p99 = percentile(&latencies_ms, 0.99);
    server.shutdown();

    // Cross-check the log₂ histogram against the exact percentiles: feed
    // the same latencies (as µs) into a local HistStat and require its
    // nearest-rank quantiles to land in the same log₂ bucket as the exact
    // sorted values — the telemetry pipeline must agree with ground truth
    // to within one bucket width.
    let lat_us: Vec<u64> = latencies_ms.iter().map(|ms| (ms * 1e3) as u64).collect();
    let mut hist = obs::hist::HistStat::new("bench.serve.latency_us");
    for &us in &lat_us {
        hist.observe(us);
    }
    let check = |q: f64, exact_ms: f64, label: &str| -> f64 {
        let bound_us = hist.quantile(q).expect("histogram is non-empty");
        let exact_us = (exact_ms * 1e3) as u64;
        let (hb, eb) = (
            obs::hist::bucket_index(bound_us),
            obs::hist::bucket_index(exact_us),
        );
        assert!(
            hb.abs_diff(eb) <= 1,
            "{label}: histogram quantile {bound_us}µs (bucket {hb}) disagrees with \
             exact {exact_us}µs (bucket {eb}) by more than one bucket"
        );
        bound_us as f64 / 1e3
    };
    let hist_p50_ms = check(0.50, p50, "p50");
    let hist_p99_ms = check(0.99, p99, "p99");

    // Single-threaded runs are not comparable against multi-core baselines;
    // flag them loudly in both the log and the JSON so `bench_report`
    // consumers can tell the configurations apart.
    let threads_warning = threads <= 1;
    if threads_warning {
        eprintln!(
            "WARNING: the server ran on 1 simulation thread (TTA_EVAL_THREADS or a \
             single-core host); throughput and latency numbers are not \
             comparable to multi-threaded baselines"
        );
    }
    let mut fields = vec![
        ("bench".into(), Json::Str("serve_batch".into())),
        ("machines".into(), Json::Num(machines.len() as f64)),
        ("kernels".into(), Json::Num(kernels.len() as f64)),
        ("jobs".into(), Json::Num(JOBS as f64)),
        ("reps".into(), Json::Num(reps as f64)),
        ("wall_s_min".into(), Json::Num(round(min, 6))),
        ("wall_s_median".into(), Json::Num(round(median, 6))),
        ("jobs_per_s".into(), Json::Num(round(JOBS as f64 / min, 2))),
        ("p50_ms".into(), Json::Num(round(p50, 3))),
        ("p99_ms".into(), Json::Num(round(p99, 3))),
        ("hist_p50_ms".into(), Json::Num(round(hist_p50_ms, 3))),
        ("hist_p99_ms".into(), Json::Num(round(hist_p99_ms, 3))),
        ("threads".into(), Json::Num(threads as f64)),
    ];
    if threads_warning {
        fields.push((
            "threads_warning".into(),
            Json::Str("single-threaded run; not comparable to multi-core baselines".into()),
        ));
    }
    fields.push(("obs".into(), tta_obs::report::to_json()));
    let json = Json::Obj(fields);
    let text = json.to_pretty();
    std::fs::write("BENCH_serve.json", &text).expect("write BENCH_serve.json");
    print!("{text}");
    eprintln!(
        "wrote BENCH_serve.json ({JOBS} jobs, min {min:.3}s, median {median:.3}s, \
         p50 {p50:.1}ms, p99 {p99:.1}ms)"
    );
}

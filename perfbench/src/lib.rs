//! The repository's end-to-end benchmark.
//!
//! Three workloads, each run from one command, each checking its own
//! outputs (see `NOTES.md` beside this crate for why each was chosen):
//!
//! * `fuzz_diff` — seeded `tta_fuzz` modules through the differential
//!   oracle on all 13 design points: compile-bound, cache bypassed.
//! * `serve_closed_loop` — an in-process `tta-serve` driven by two
//!   closed-loop client connections: simulation-bound, cache hits only.
//! * `search_cold` — one `tta_explore::search` per fresh process: compile
//!   cache misses, FPGA estimates and non-preset machines.
//!
//! An untraced run prints the end-to-end metrics ([`E2E`]), its timings
//! host-normalised by [`calib`]; a traced run times the calls into each
//! layer's public functions and prints the per-layer metrics
//! ([`PER_LAYER`]).

pub mod calib;
pub mod fuzz;
pub mod layers;
pub mod search;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod tracer;

use std::collections::BTreeMap;

use tta_obs::json::Json;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "count"),
    ("program_bits", "bit"),
    ("frontier_hv", "1"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run (zero
/// where a workload never enters the layer).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("compiler.busy_s", "s"),
    ("compiler.share", "1"),
    ("compiler.calls", "count"),
    ("compiler.ir_insts_per_s", "1/s"),
    ("compiler.out_insts", "count"),
    ("compiler.front_share", "1"),
    ("compiler.dce_share", "1"),
    ("compiler.dce_sweeps_per_call", "count"),
    ("compiler.pass.verify_s", "s"),
    ("compiler.pass.inline_s", "s"),
    ("compiler.pass.opt_s", "s"),
    ("compiler.pass.dce_s", "s"),
    ("compiler.pass.consts_s", "s"),
    ("compiler.pass.regalloc_s", "s"),
    ("compiler.pass.lower_s", "s"),
    ("compiler.pass.sched_s", "s"),
    ("compiler.pass.layout_s", "s"),
    ("compiler.pass.validate_s", "s"),
    ("compiler.nondet_programs", "count"),
    ("sim.busy_s", "s"),
    ("sim.share", "1"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.tta.cycles_per_s", "1/s"),
    ("sim.vliw.cycles_per_s", "1/s"),
    ("sim.scalar.cycles_per_s", "1/s"),
    ("sim.jit.promotions", "count"),
    ("sim.jit.fallbacks", "count"),
    ("ir.verify_s", "s"),
    ("ir.interp_s", "s"),
    ("fuzz.gen_s", "s"),
    ("explore.prepare_s", "s"),
    ("cache.hit_ratio", "1"),
    ("cache.lookups", "count"),
    ("cache.misses", "count"),
    ("search.configs", "count"),
    ("search.probed", "count"),
    ("search.full_evals", "count"),
    ("search.pruned_analytic", "count"),
    ("search.pruned_probe", "count"),
    ("search.eval_failures", "count"),
    ("search.frontier_size", "count"),
    ("search.compile_s", "s"),
    ("search.simulate_s", "s"),
    ("fpga.estimate_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.service_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("obs.trace_overhead", "1"),
    ("obs.telemetry_overhead", "1"),
    ("latency.samples", "count"),
    ("latency.tail_q", "1"),
];

/// The workloads, by the names later runs are judged by.
pub const WORKLOADS: [&str; 3] = ["fuzz_diff", "serve_closed_loop", "search_cold"];

/// Set-up repetitions per run of `workload` (each in a fresh process);
/// `setup_s` is their median. A `search_cold` set-up takes about 10 ms,
/// so it gets more repetitions for the same share of the run.
pub fn setup_reps(workload: &str) -> usize {
    if workload == "search_cold" {
        45
    } else {
        9
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cases, requests or searches).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
    /// The timed metrics as measured, before host normalisation (for the
    /// run's metadata only).
    pub raw: Metrics,
    /// Every calibration sample of the run, ms (see [`calib`]).
    pub calib_ms: Vec<f64>,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `spec`, in order. A metric missing from `outcome` or
/// not finite makes the run incorrect.
pub fn result_line(outcome: &Outcome, spec: &[(&str, &str)]) -> String {
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let metrics = spec
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    eprintln!("perfbench: metric {name} is {other:?}");
                    correct = false;
                    0.0
                }
            };
            let m = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), m)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

/// Latency metrics of a sample of per-operation times (ms): the median,
/// and as `latency_p99_ms` the highest tail with ten samples beyond it
/// (see [`stats::tail`]), also recorded with the sample count.
pub fn latency_metrics(m: &mut Metrics, lat_ms: &mut [f64]) {
    lat_ms.sort_by(f64::total_cmp);
    let (q, tail) = stats::tail(lat_ms);
    m.insert("latency_p50_ms", stats::nearest_rank(lat_ms, 0.5));
    m.insert("latency_p99_ms", tail);
    m.insert("latency.samples", lat_ms.len() as f64);
    m.insert("latency.tail_q", q);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        for (name, _) in E2E {
            o.metrics.insert(name, 1.5);
        }
        let doc = tta_obs::json::parse(&result_line(&o, &E2E)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let metrics = doc.get("metrics").unwrap();
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        // A missing metric is an incorrect run, not a silent zero.
        o.metrics.remove("frontier_hv");
        let doc = tta_obs::json::parse(&result_line(&o, &E2E)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}

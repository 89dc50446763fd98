//! `search_cold`: one `tta_explore::search` per fresh process, so the
//! process-wide compile cache starts empty every time.
//!
//! The search compiles 8 CHStone modules for about 150 generated
//! machines; compile and simulate are each about half of it. It is the
//! only workload with cache writes, `tta_fpga` estimates over the whole
//! generated space, and non-preset machines. A run executes as many
//! searches (each in its own child process, one after the other) as fit
//! in its time, at least [`MIN_SEARCHES`].

use std::time::{Duration, Instant};

use tta_explore::eval::{self, PreparedKernel};
use tta_explore::search::{dominates, search, EvalPoint};
use tta_explore::SearchParams;
use tta_obs::json::{self, Json};

use crate::calib;
use crate::layers::{self, ir_insts, style, SIM_SPANS};
use crate::stats::{self, median};
use crate::sys::{self, ratio, ChildRun, Probes};
use crate::tracer::Tracer;
use crate::{Metrics, Outcome};

/// Searches per run, however short the run.
pub const MIN_SEARCHES: usize = 3;

/// Worker threads passed to the search.
pub const THREADS: usize = 1;

/// Reference box of `frontier_hv`: slices × geomean CHStone runtime (µs).
pub const HV_BOX: (f64, f64) = (1200.0, 600.0);

/// The search parameters of a run: the defaults, one thread, the seed.
pub fn params(seed: u64) -> SearchParams {
    SearchParams {
        seed,
        threads: THREADS,
        ..SearchParams::default()
    }
}

/// The search's set-up: the kernels built and interpreted, which a
/// search does before its first config enters the funnel.
pub fn setup() -> Vec<PreparedKernel> {
    tta_chstone::all_kernels()
        .iter()
        .map(eval::prepare_kernel)
        .collect()
}

/// Whether some frontier point dominates another.
pub fn self_dominated(frontier: &[EvalPoint]) -> bool {
    frontier
        .iter()
        .any(|a| frontier.iter().any(|b| dominates(a, b)))
}

/// One search in this process (a child of the run), printed as one JSON
/// line: its wall time, its checks, its counts, and with `traced` its
/// per-layer metrics.
pub fn child(seed: u64, traced: bool, t: &Tracer) -> Result<String, String> {
    let cache0 = layers::cache_counters();
    let compiles0 = layers::counter("compiler.compiles");
    // The reference is timed on this thread just before and after the
    // search, most likely on the core the search ran on.
    let ref_before_ms = calib::reference_ms();
    let root = t.begin("search", seed, 0, None);
    let outcome = search(&params(seed));
    let wall_s = t.end(root);
    let ref_ms = (ref_before_ms + calib::reference_ms()) / 2.0;
    // The search's own telemetry, before the frontier replay adds to it.
    let search_counts = [
        layers::counter("compiler.compiles") - compiles0,
        layers::counter("sim.runs"),
        layers::counter("sim.cycles"),
        layers::counter("sim.jit.promotions"),
        layers::counter("sim.jit.fallbacks"),
    ];
    let cache1 = layers::cache_counters();
    let frontier = &outcome.frontier;
    let frontier_ok = !frontier.is_empty() && !self_dominated(frontier);

    // Counts of the programs behind the frontier. Every point was fully
    // evaluated, so each lookup hits the cache the search filled.
    let prep_start = Instant::now();
    let prepared = setup();
    let prepare_s = prep_start.elapsed().as_secs_f64();
    let (mut bits, mut insts, mut cycles) = (0u64, 0u64, [0u64; 3]);
    let replay = t.begin("frontier", seed, 0, None);
    for point in frontier {
        let machine = point
            .config
            .ok_or("frontier point without a config")?
            .build();
        for p in &prepared {
            let (compiled, tiers) = eval::compile_cached(p, &machine);
            bits += compiled.program.image_bits(&machine);
            insts += compiled.program.len() as u64;
            if traced {
                let style = style(&compiled.program);
                let r = t.time(SIM_SPANS[style], replay, || {
                    tta_sim::run_with_tiers(
                        &machine,
                        &compiled.program,
                        p.module.initial_memory(),
                        tta_sim::DEFAULT_FUEL,
                        &tiers,
                    )
                });
                let r = r.map_err(|e| format!("{} on {}: {e}", p.name, machine.name))?;
                cycles[style] += r.cycles;
            }
        }
    }
    t.end(replay);
    let n = frontier.len().max(1) as f64;
    let points: Vec<(f64, f64)> = frontier
        .iter()
        .map(|p| (p.slices as f64, p.runtime_us))
        .collect();
    let st = &outcome.stats;
    let mut fields = vec![
        ("wall_s", wall_s),
        ("ref_ms", ref_ms),
        ("configs", st.configs as f64),
        ("frontier_ok", f64::from(u8::from(frontier_ok))),
        (
            "sim_cycles",
            frontier.iter().map(|p| p.geomean_cycles).sum::<f64>() / n,
        ),
        ("program_bits", bits as f64 / n),
        (
            "frontier_hv",
            stats::hypervolume(&points, HV_BOX.0, HV_BOX.1),
        ),
        ("peak_rss_mb", sys::peak_rss_mb()),
        ("search.configs", st.configs as f64),
        ("search.probed", st.probed as f64),
        ("search.full_evals", st.full_evals as f64),
        ("search.pruned_analytic", st.analytic_pruned as f64),
        ("search.pruned_probe", st.probe_pruned as f64),
        ("search.eval_failures", st.eval_failures as f64),
        ("search.frontier_size", frontier.len() as f64),
    ];
    if traced {
        let mut m = Metrics::new();
        let span_s = |path: &str| tta_obs::span::stat(path).map_or(0.0, |(s, _)| s);
        let compile_s = span_s("search/compile");
        let simulate_s = span_s("search/simulate");
        let [calls, runs, sim_cycles, promotions, fallbacks] = search_counts;
        m.insert("search.compile_s", compile_s);
        m.insert("search.simulate_s", simulate_s);
        m.insert("compiler.busy_s", compile_s);
        m.insert("compiler.share", ratio(compile_s, wall_s));
        m.insert("compiler.calls", calls as f64);
        // Which kernel each miss compiled is not visible from outside the
        // search: IR instructions are counted at the suite's mean size.
        let mean_ir = prepared.iter().map(|p| ir_insts(&p.module)).sum::<u64>() as f64
            / prepared.len() as f64;
        m.insert(
            "compiler.ir_insts_per_s",
            ratio(calls as f64 * mean_ir, compile_s),
        );
        m.insert("compiler.out_insts", insts as f64);
        layers::compiler_passes(&mut m, "search");
        layers::sim_metrics(&mut m, t, cycles, wall_s);
        // The search's own simulations; the per-style rates come from
        // the frontier replay.
        m.insert("sim.busy_s", simulate_s);
        m.insert("sim.share", ratio(simulate_s, wall_s));
        m.insert("sim.runs", runs as f64);
        m.insert("sim.cycles", sim_cycles as f64);
        m.insert("sim.cycles_per_s", ratio(sim_cycles as f64, simulate_s));
        m.insert("sim.jit.promotions", promotions as f64);
        m.insert("sim.jit.fallbacks", fallbacks as f64);
        m.insert("ir.interp_s", span_s("search/prepare/golden_interp"));
        let hits = cache1.0 - cache0.0;
        let misses = cache1.1 - cache0.1;
        m.insert("cache.lookups", (hits + misses) as f64);
        m.insert("cache.misses", misses as f64);
        m.insert(
            "cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        m.insert("explore.prepare_s", prepare_s);
        fields.extend(m);
    }
    let obj = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Num(v)))
        .collect();
    Ok(Json::Obj(obj).to_compact())
}

/// One finished child search, parsed.
struct Searched {
    fields: Vec<(String, f64)>,
}

impl Searched {
    fn get(&self, k: &str) -> f64 {
        self.fields
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The calibration factor of the search (see [`calib`]).
    fn factor(&self) -> f64 {
        calib::factor(self.get("ref_ms"))
    }
}

/// Run one search in a fresh child process.
fn spawn_search(seed: u64, traced: bool, env: &[(&str, &str)]) -> Result<Searched, String> {
    let mut args: Vec<String> = ["--child", "search", "--workload", "search_cold", "--seed"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(seed.to_string());
    if traced {
        args.push("--traced".into());
    }
    let line = ChildRun::spawn(&args, env)
        .map_err(|e| format!("spawn: {e}"))?
        .finish()?
        .ok_or("child printed nothing")?;
    match json::parse(&line).map_err(|e| format!("child result: {e}"))? {
        Json::Obj(fields) => Ok(Searched {
            fields: fields
                .into_iter()
                .map(|(k, v)| (k, v.as_f64().unwrap_or(0.0)))
                .collect(),
        }),
        other => Err(format!("child result {}", other.to_compact())),
    }
}

/// Counts every search of one seed must repeat exactly.
const COUNTS: [&str; 10] = [
    "sim_cycles",
    "program_bits",
    "frontier_hv",
    "search.configs",
    "search.probed",
    "search.full_evals",
    "search.pruned_analytic",
    "search.pruned_probe",
    "search.eval_failures",
    "search.frontier_size",
];

/// Tally one child: a failed process or a failed frontier check is a
/// failed operation.
fn tally(out: &mut Outcome, result: Result<Searched, String>) -> Option<Searched> {
    out.attempted += 1;
    match result {
        Ok(s) if s.get("frontier_ok") == 1.0 => Some(s),
        Ok(_) => {
            out.failed += 1;
            eprintln!("search_cold: empty or self-dominated frontier");
            None
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("search_cold: search failed: {e}");
            None
        }
    }
}

/// The untraced run: the end-to-end metrics over the run's searches,
/// with the set-up probes between them.
pub fn run(seed: u64, seconds: f64, probes: &mut Probes) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut done: Vec<Searched> = Vec::new();
    let mut deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while done.len() < MIN_SEARCHES || Instant::now() < deadline {
        deadline += probes.due()?;
        if let Some(s) = tally(&mut out, spawn_search(seed, false, &[])) {
            done.push(s);
        }
        if out.failed as usize > MIN_SEARCHES {
            break;
        }
    }
    let first = done.first().ok_or("no search succeeded")?;
    for (i, s) in done.iter().enumerate().skip(1) {
        for k in COUNTS {
            if s.get(k) != first.get(k) {
                eprintln!(
                    "search_cold: search {i} {k} = {} differs from {} (compiler non-determinism)",
                    s.get(k),
                    first.get(k)
                );
            }
        }
    }
    for (m, normalise) in [(&mut out.metrics, true), (&mut out.raw, false)] {
        // Wall seconds of each search, host-normalised or as measured.
        let walls: Vec<f64> = done
            .iter()
            .map(|s| s.get("wall_s") * if normalise { s.factor() } else { 1.0 })
            .collect();
        let configs: f64 = done.iter().map(|s| s.get("configs")).sum();
        let mut lat_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        m.insert("items_per_s", configs / walls.iter().sum::<f64>());
        crate::latency_metrics(m, &mut lat_ms);
    }
    out.calib_ms = done.iter().map(|s| s.get("ref_ms")).collect();
    let rss: Vec<f64> = done.iter().map(|s| s.get("peak_rss_mb")).collect();
    let m = &mut out.metrics;
    m.insert("peak_rss_mb", median(&rss));
    for k in ["sim_cycles", "program_bits", "frontier_hv"] {
        m.insert(k, first.get(k));
    }
    Ok(out)
}

/// The traced run: children rotate through default, telemetry-off
/// (`TTA_OBS=0`) and traced searches; the traced children report the
/// per-layer metrics, and the wall times of equal searches give the
/// overheads.
pub fn run_traced(seed: u64, seconds: f64, t: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut trace_pairs, mut obs_pairs) = (Vec::new(), Vec::new());
    let mut layers_of: Option<Searched> = None;
    let mut lat_ms = Vec::new();
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        let mut wall = [0.0; 3];
        for k in 0..3 {
            let mode = (round as usize + k) % 3;
            let span = t.begin(
                ["search.default", "search.no_obs", "search.traced"][mode],
                round,
                0,
                None,
            );
            let env: &[(&str, &str)] = if mode == 1 {
                &[("TTA_OBS", "0")]
            } else {
                &[("TTA_OBS", "1")]
            };
            let result = tally(&mut out, spawn_search(seed, mode == 2, env));
            t.end(span);
            if let Some(s) = result {
                // Host-normalised, like the untraced run's.
                wall[mode] = s.get("wall_s") * s.factor();
                lat_ms.push(wall[mode] * 1e3);
                if mode == 2 && layers_of.is_none() {
                    layers_of = Some(s);
                }
            }
        }
        trace_pairs.push((wall[2], wall[0]));
        obs_pairs.push((wall[0], wall[1]));
        round += 1;
    }
    let traced = layers_of.ok_or("no traced search succeeded")?;
    let m = &mut out.metrics;
    for (name, _) in crate::PER_LAYER {
        if let Some((_, v)) = traced.fields.iter().find(|(k, _)| k == name) {
            m.insert(name, *v);
        }
    }
    m.insert("obs.trace_overhead", layers::overhead(&trace_pairs));
    m.insert("obs.telemetry_overhead", layers::overhead(&obs_pairs));
    crate::latency_metrics(m, &mut lat_ms);
    layers::common_layers(m);
    layers::zero_fill(m);
    Ok(out)
}

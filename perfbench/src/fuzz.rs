//! `fuzz_diff`: a seeded stream of generated modules, each checked by
//! the differential oracle on all 13 design points, on one thread.
//!
//! Every module is new, so the compile cache is never used and every
//! simulation starts on fresh tier state: about 90 % of a case is
//! compilation. This is the workload compiler changes must move.

use std::time::{Duration, Instant};

use tta_compiler::compile;
use tta_fuzz::gen::{generate, GenConfig};
use tta_fuzz::oracle::{Oracle, MEM_COMPARE_HEADROOM, MEM_COMPARE_LO};
use tta_ir::{Interpreter, Module};
use tta_model::io::{IoSpec, IoSystem};
use tta_model::Machine;
use tta_testutil::Rng;

use crate::calib::Calib;
use crate::layers::{self, ir_insts, style, SIM_SPANS};
use crate::stats::{self, median};
use crate::sys::{ratio, Probes};
use crate::tracer::{SpanId, Tracer};
use crate::Outcome;

/// Cases whose results make up `sim_cycles`, `program_bits` and
/// `frontier_hv`: the first cases of the seed's stream, always completed
/// whatever the run length.
pub const COUNT_WINDOW: u64 = 1200;

/// Fixed warm-up cases run during set-up (the same for every seed).
pub const WARMUP: u64 = 24;

/// Cases per throughput slice; `items_per_s` is the median slice rate.
const SLICE: u64 = 50;

/// Cases per mode in each round of the traced run.
const TRACED_SLICE: u64 = 12;

/// Reference box of `frontier_hv`: slices × geomean runtime (µs) of a
/// generated module at the estimated fmax.
pub const HV_BOX: (f64, f64) = (1200.0, 12.0);

/// Generator seeds `0..POOL` are the modules the workload draws from.
/// Every one passed the oracle when the benchmark was defined, so a
/// failure means the program changed. The pool is needed because the
/// generator does reach real divergences elsewhere, rarely (one in about
/// 2·10^5 modules run while the benchmark was built): generator seed
/// 897 648 166 544 returns -7966 instead of -6232 on mblaze-3, a compiler
/// or simulator bug left for a later issue. A run that met one would
/// report a failure that no change caused.
pub const POOL: u64 = 20_000;

/// The generator seed of case `i` of the stream for `seed`: the pool
/// walked from a seeded offset (wrapping after `POOL` cases).
pub fn case_seed(seed: u64, i: u64) -> u64 {
    let offset = Rng::new(seed).below(POOL as usize) as u64;
    (offset + i) % POOL
}

/// Everything the first case needs: the oracle over the 13 presets and
/// a warm process (the fixed warm-up cases have run).
pub struct Setup {
    oracle: Oracle,
    cfg: GenConfig,
}

/// Build the oracle and run the warm-up cases.
pub fn setup() -> Result<Setup, String> {
    let s = Setup {
        oracle: Oracle::all_presets(),
        cfg: GenConfig::default(),
    };
    for i in 0..WARMUP {
        let module = generate(u64::MAX - i, &s.cfg);
        s.oracle
            .check(&module)
            .map_err(|d| format!("warm-up case {i} diverged: {d}"))?;
    }
    Ok(s)
}

/// Per-machine accumulators over the count window.
struct Window {
    cycles: u64,
    /// Sum of ln(cycles) per machine, for geomean runtimes.
    log_cycles: Vec<f64>,
    cases: u64,
}

impl Window {
    fn new(machines: usize) -> Window {
        Window {
            cycles: 0,
            log_cycles: vec![0.0; machines],
            cases: 0,
        }
    }

    fn add(&mut self, cycles: &[u64]) {
        for (acc, &c) in self.log_cycles.iter_mut().zip(cycles) {
            *acc += (c.max(1) as f64).ln();
        }
        self.cycles += cycles.iter().sum::<u64>();
        self.cases += 1;
    }

    /// Share of [`HV_BOX`] dominated by the presets' (slices, geomean
    /// runtime) points.
    fn hypervolume(&self, machines: &[Machine]) -> f64 {
        let points: Vec<(f64, f64)> = machines
            .iter()
            .zip(&self.log_cycles)
            .map(|(m, lc)| {
                let r = tta_fpga::estimate(m);
                let geo = (lc / self.cases.max(1) as f64).exp();
                (r.slices as f64, geo / r.fmax_mhz)
            })
            .collect();
        stats::hypervolume(&points, HV_BOX.0, HV_BOX.1)
    }
}

/// Image bits of every program behind the count window: each window
/// module compiled for each machine (untimed, after the measured loop).
fn window_program_bits(seed: u64, s: &Setup) -> Result<u64, String> {
    let mut bits = 0;
    for i in 0..COUNT_WINDOW {
        let module = generate(case_seed(seed, i), &s.cfg);
        for m in &s.oracle.machines {
            let c = compile(&module, m).map_err(|e| format!("case {i} on {}: {e}", m.name))?;
            bits += c.program.image_bits(m);
        }
    }
    Ok(bits)
}

/// The untraced run: the end-to-end metrics. A calibration sample (and,
/// when due, a set-up probe) runs between slices, outside the measured
/// time; `items_per_s` is the median slice's cases per second.
pub fn run(seed: u64, seconds: f64, probes: &mut Probes) -> Result<Outcome, String> {
    let s = setup()?;
    let mut out = Outcome::default();
    let mut window = Window::new(s.oracle.machines.len());
    let mut calib = Calib::new(1);
    let (mut lat_ms, mut raw_lat_ms) = (Vec::new(), Vec::new());
    let (mut slice_rates, mut raw_rates) = (Vec::new(), Vec::new());
    let mut active = Duration::ZERO;
    let mut i = 0u64;
    while i < COUNT_WINDOW || active.as_secs_f64() < seconds {
        probes.due()?;
        let slice_start = Instant::now();
        let mut slice_lat = Vec::with_capacity(SLICE as usize);
        for _ in 0..SLICE {
            let t = Instant::now();
            let module = generate(case_seed(seed, i), &s.cfg);
            let checked = s.oracle.check(&module);
            slice_lat.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match checked {
                Ok(report) => {
                    if i < COUNT_WINDOW {
                        let cycles: Vec<u64> = report.runs.iter().map(|r| r.cycles).collect();
                        window.add(&cycles);
                    }
                }
                Err(d) => {
                    out.failed += 1;
                    eprintln!(
                        "fuzz_diff: case {i} (generator seed {}) failed: {d}",
                        case_seed(seed, i)
                    );
                }
            }
            i += 1;
        }
        let slice = slice_start.elapsed();
        active += slice;
        let f = calib.sample();
        raw_rates.push(SLICE as f64 / slice.as_secs_f64());
        slice_rates.push(SLICE as f64 / (slice.as_secs_f64() * f));
        lat_ms.extend(slice_lat.iter().map(|l| l * f));
        raw_lat_ms.extend(slice_lat);
    }
    out.raw.insert("items_per_s", median(&raw_rates));
    crate::latency_metrics(&mut out.raw, &mut raw_lat_ms);
    out.calib_ms = calib.samples;
    let m = &mut out.metrics;
    m.insert("items_per_s", median(&slice_rates));
    crate::latency_metrics(m, &mut lat_ms);
    m.insert("sim_cycles", window.cycles as f64);
    m.insert("frontier_hv", window.hypervolume(&s.oracle.machines));
    m.insert("program_bits", window_program_bits(seed, &s)? as f64);
    Ok(out)
}

/// The three ways the traced run executes the same cases.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The oracle with telemetry on (the default run).
    Default,
    /// The oracle with telemetry off (`TTA_OBS=0`).
    NoObs,
    /// The benchmark's own replay of the oracle, a span per layer call.
    Traced,
}

/// Accumulators of the traced replay.
#[derive(Default)]
struct Replay {
    /// Simulated cycles per style: TTA, VLIW, scalar.
    cycles: [u64; 3],
    ir_insts: u64,
    out_insts: u64,
    nondet: u64,
    promotions: u64,
    fallbacks: u64,
}

/// One case through the same steps as `Oracle::check`, each layer call
/// in its own span under the case span `root`. Returns the compiled
/// programs for the non-determinism check.
fn replay_case(
    t: &Tracer,
    root: SpanId,
    s: &Setup,
    module: &Module,
    acc: &mut Replay,
) -> Result<Vec<tta_isa::Program>, String> {
    let o = &s.oracle;
    t.time("ir.verify", root, || tta_ir::verify_module(module))
        .map_err(|e| format!("verify: {}", e.len()))?;
    let spec = IoSpec::default();
    let mut golden_io = IoSystem::new(&spec);
    let golden = t
        .time("ir.interp", root, || {
            Interpreter::new(module)
                .with_fuel(o.interp_fuel)
                .run_with_io(&[], &mut golden_io)
        })
        .map_err(|e| format!("interpreter: {e}"))?;
    let golden_ret = golden.ret.ok_or("entry returned no value")?;
    let lo = MEM_COMPARE_LO.min(module.mem_size as usize);
    let hi = module.mem_size.saturating_sub(MEM_COMPARE_HEADROOM) as usize;
    let mut programs = Vec::with_capacity(o.machines.len());
    for m in &o.machines {
        let compiled = t
            .time("compiler.compile", root, || compile(module, m))
            .map_err(|e| format!("[{}] compile: {e}", m.name))?;
        acc.ir_insts += ir_insts(module);
        acc.out_insts += compiled.program.len() as u64;
        let style = style(&compiled.program);
        let run = || {
            let r = t.time(SIM_SPANS[style], root, || {
                tta_sim::run_with_io(
                    m,
                    &compiled.program,
                    module.initial_memory(),
                    o.sim_fuel,
                    &spec,
                    compiled.irq_entry,
                )
            });
            r.map_err(|e| format!("[{}] simulate: {e}", m.name))
        };
        let first = run()?;
        let again = run()?;
        acc.cycles[style] += first.cycles + again.cycles;
        if first.ret != golden_ret {
            return Err(format!("[{}] ret {} != {golden_ret}", m.name, first.ret));
        }
        if (lo..hi).any(|a| golden.memory[a] != first.memory[a]) {
            return Err(format!("[{}] memory differs", m.name));
        }
        if first.uart_tx != golden_io.uart_tx() || first.stats.irqs != golden_io.irqs_delivered {
            return Err(format!("[{}] I/O differs", m.name));
        }
        if first.cycles != again.cycles {
            return Err(format!(
                "[{}] cycles {} then {}",
                m.name, first.cycles, again.cycles
            ));
        }
        programs.push(compiled.program);
    }
    Ok(programs)
}

/// The traced run: the per-layer metrics. Rounds of [`TRACED_SLICE`]
/// cases run the same cases three ways (default, telemetry off, traced
/// replay) in rotating order, so the overheads compare equal work.
pub fn run_traced(seed: u64, seconds: f64, t: &Tracer) -> Result<Outcome, String> {
    let s = setup()?;
    let mut out = Outcome::default();
    let mut acc = Replay::default();
    let (mut trace_pairs, mut obs_pairs) = (Vec::new(), Vec::new());
    let mut lat_ms = Vec::new();
    let mut calib = Calib::new(1);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        let cases: Vec<u64> = (round * TRACED_SLICE..(round + 1) * TRACED_SLICE)
            .map(|i| case_seed(seed, i))
            .collect();
        // Host-normalised seconds per mode: default, telemetry off,
        // traced (the case spans only, without the non-determinism check).
        let mut secs = [0.0; 3];
        for k in 0..3 {
            let mode = [Mode::Default, Mode::NoObs, Mode::Traced][(round as usize + k) % 3];
            tta_obs::set_enabled(mode != Mode::NoObs);
            let started = Instant::now();
            let mut traced_s = 0.0;
            for &cs in &cases {
                if mode == Mode::Traced {
                    let root = t.begin("case", cs, 0, None);
                    let module = t.time("fuzz.generate", root, || generate(cs, &s.cfg));
                    let (p0, f0) = (
                        layers::counter("sim.jit.promotions"),
                        layers::counter("sim.jit.fallbacks"),
                    );
                    let programs = {
                        // Roots the compiler's own pass spans for the
                        // per-pass metrics.
                        let _obs = tta_obs::span("perfbench");
                        replay_case(t, root, &s, &module, &mut acc)
                    };
                    acc.promotions += layers::counter("sim.jit.promotions") - p0;
                    acc.fallbacks += layers::counter("sim.jit.fallbacks") - f0;
                    let case_s = t.end(root);
                    traced_s += case_s;
                    lat_ms.push(case_s * 1e3);
                    out.attempted += 1;
                    match programs {
                        Ok(programs) => {
                            // Outside the case span: compile every pair a
                            // second time and count differing programs.
                            for (m, p) in s.oracle.machines.iter().zip(&programs) {
                                let again = compile(&module, m).map_err(|e| e.to_string())?;
                                acc.nondet += u64::from(again.program != *p);
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            eprintln!("fuzz_diff: traced case (generator seed {cs}) failed: {e}");
                        }
                    }
                } else {
                    let module = generate(cs, &s.cfg);
                    if let Err(d) = s.oracle.check(&module) {
                        out.failed += 1;
                        eprintln!("fuzz_diff: case (generator seed {cs}) failed: {d}");
                    }
                    out.attempted += 1;
                }
            }
            let elapsed = started.elapsed().as_secs_f64();
            let f = calib.sample();
            match mode {
                Mode::Default => secs[0] = elapsed * f,
                Mode::NoObs => secs[1] = elapsed * f,
                Mode::Traced => secs[2] = traced_s * f,
            }
        }
        trace_pairs.push((secs[2], secs[0]));
        obs_pairs.push((secs[0], secs[1]));
        round += 1;
    }
    tta_obs::set_enabled(true);

    let m = &mut out.metrics;
    let cases_s: f64 = t.total("case").0;
    let (compile_s, calls) = t.total("compiler.compile");
    m.insert("compiler.busy_s", compile_s);
    m.insert("compiler.share", ratio(compile_s, cases_s));
    m.insert("compiler.calls", calls as f64);
    m.insert(
        "compiler.ir_insts_per_s",
        ratio(acc.ir_insts as f64, compile_s),
    );
    m.insert("compiler.out_insts", acc.out_insts as f64);
    m.insert("compiler.nondet_programs", acc.nondet as f64);
    layers::compiler_passes(m, "perfbench");
    layers::sim_metrics(m, t, acc.cycles, cases_s);
    m.insert("sim.jit.promotions", acc.promotions as f64);
    m.insert("sim.jit.fallbacks", acc.fallbacks as f64);
    m.insert("ir.verify_s", t.total("ir.verify").0);
    m.insert("ir.interp_s", t.total("ir.interp").0);
    m.insert("fuzz.gen_s", t.total("fuzz.generate").0);
    m.insert("obs.trace_overhead", layers::overhead(&trace_pairs));
    m.insert("obs.telemetry_overhead", layers::overhead(&obs_pairs));
    crate::latency_metrics(m, &mut lat_ms);
    layers::common_layers(m);
    layers::zero_fill(m);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_streams_stay_in_the_pool_and_follow_the_seed() {
        let stream = |seed| (0..3).map(|i| case_seed(seed, i)).collect::<Vec<_>>();
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let s = stream(7);
        assert!(s.iter().all(|&c| c < POOL));
        assert!(s.windows(2).all(|w| w[1] == (w[0] + 1) % POOL));
        assert_eq!(case_seed(7, POOL), case_seed(7, 0));
    }
}

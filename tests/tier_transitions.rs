//! Shared simulator state across runs and threads: a [`tta_sim::Tiers`]
//! holds the TTA thunk array its first run builds, and every later run —
//! in the same thread or in another, racing on the build or not — must
//! report a `SimResult` bit-identical to a run on fresh state (cycles,
//! return value, final memory, every `SimStats` field).
//!
//! Only the TTA engine keeps anything in that state; the VLIW and scalar
//! cases pin that sharing it changes nothing for them either.
//!
//! Beyond the kernels, every program of the fixed generator stream that
//! `program_snapshot` hashes (plain and reactive modules) must run
//! identically on the state its own first run built, on every TTA
//! preset. The executor itself is held to the interpreted reference by
//! the generated-stream lines of `cycle_snapshot`, which run that stream
//! on fresh state.

use std::sync::OnceLock;

use tta_compiler::{compile_prepared, prepare, TtaOptions};
use tta_fuzz::gen::{generate, generate_reactive, GenConfig};
use tta_isa::Program;
use tta_model::{presets, CoreStyle, Machine};
use tta_sim::{run_with_fuel, run_with_io_tiers, run_with_tiers, IoSpec, Tiers, DEFAULT_FUEL};

struct Case {
    kernel: &'static str,
    machine: Machine,
    program: Program,
    memory: Vec<u8>,
}

/// One branchy and one loop-heavy kernel on one machine of each style —
/// enough to cross every TTA dispatch path (whole runs and clamped
/// entries such as delay-slot windows) without snapshot-suite runtimes.
fn cases() -> &'static Vec<Case> {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut cases = Vec::new();
        for kernel in ["sha", "gsm"] {
            let k = tta_chstone::by_name(kernel).unwrap();
            let module = (k.build)();
            for machine in [presets::m_tta_2(), presets::m_vliw_2(), presets::mblaze_3()] {
                let compiled = tta_compiler::compile(&module, &machine)
                    .unwrap_or_else(|e| panic!("{kernel} on {}: {e}", machine.name));
                cases.push(Case {
                    kernel,
                    machine,
                    program: compiled.program,
                    memory: module.initial_memory(),
                });
            }
        }
        cases
    })
}

fn run_once(c: &Case, tiers: &Tiers) -> tta_sim::SimResult {
    run_with_tiers(
        &c.machine,
        &c.program,
        c.memory.clone(),
        DEFAULT_FUEL,
        tiers,
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", c.kernel, c.machine.name))
}

/// Two threads race on the first build of one shared state and then run
/// on it again; every run must match a run on fresh state.
#[test]
fn shared_state_across_runs_and_threads_is_bit_identical() {
    for c in cases() {
        let fresh = run_with_fuel(&c.machine, &c.program, c.memory.clone(), DEFAULT_FUEL)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", c.kernel, c.machine.name));
        let tiers = Tiers::for_program(&c.program);
        let runs: Vec<tta_sim::SimResult> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| [run_once(c, &tiers), run_once(c, &tiers)]))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r, &fresh,
                "{} on {}: run {i} on shared state diverged",
                c.kernel, c.machine.name
            );
        }
        assert_eq!(
            run_once(c, &tiers),
            fresh,
            "{} on {}: a later run on shared state diverged",
            c.kernel,
            c.machine.name
        );
    }
}

/// Generated programs, compiled for every TTA preset: the run that builds
/// a `Tiers` and a later run that reuses it must agree on every field of
/// the result (or on the error). Same seed stream as `program_snapshot`.
#[test]
fn generated_programs_match_across_tiers() {
    let cfg = GenConfig::default();
    let machines: Vec<Machine> = presets::all_design_points()
        .into_iter()
        .filter(|m| m.style == CoreStyle::Tta)
        .collect();
    assert_eq!(machines.len(), 7);
    let (mut pairs, mut completed) = (0, 0);
    for seed in 0..200 {
        let plain = (generate(seed, &cfg), IoSpec::default());
        for (kind, (module, spec)) in [
            ("plain", plain),
            ("reactive", generate_reactive(seed, &cfg)),
        ] {
            let front =
                prepare(&module).unwrap_or_else(|e| panic!("{kind} seed {seed}: prepare: {e}"));
            for machine in &machines {
                let compiled = compile_prepared(&front, machine, TtaOptions::default())
                    .unwrap_or_else(|e| panic!("{kind} seed {seed} on {}: {e}", machine.name));
                let tiers = Tiers::for_program(&compiled.program);
                let run = || {
                    run_with_io_tiers(
                        machine,
                        &compiled.program,
                        module.initial_memory(),
                        DEFAULT_FUEL,
                        &spec,
                        compiled.irq_entry,
                        &tiers,
                    )
                };
                let building = run();
                assert_eq!(
                    run(),
                    building,
                    "{kind} seed {seed} on {}: run on shared state diverged",
                    machine.name
                );
                completed += usize::from(building.is_ok());
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 2800);
    assert!(completed > 0, "no generated program ran to completion");
}

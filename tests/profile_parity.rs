//! The profiler's disable contract, end to end: for every design point,
//! running a compiled kernel (a) unprofiled with obs compiled in but
//! disabled (the default), (b) unprofiled with obs enabled, (c) through
//! the profiled entry points and (d) through the traced entry point must
//! produce bit-identical `SimResult`s — cycles, return value, memory image
//! and every `SimStats` field. The profile itself must be deterministic
//! and agree with the stats, and the trace must hold one pc per executed
//! instruction, with the profile's per-pc counts as its histogram.
//!
//! This is the cross-crate complement of the per-style unit tests in
//! `crates/sim/tests/profiling.rs`: it drives real compiled CHStone
//! kernels through `tta_sim::run` / `run_profiled` on all 13 machines.

use tta_compiler::compile;
use tta_ir::interp::Interpreter;
use tta_sim::SimResult;

const KERNELS: [&str; 2] = ["sha", "motion"];

fn assert_same_run(what: &str, a: &SimResult, b: &SimResult) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.ret, b.ret, "{what}: ret");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.memory, b.memory, "{what}: memory");
}

#[test]
fn profiling_and_obs_never_perturb_simulation_results() {
    for kernel_name in KERNELS {
        let kernel = tta_chstone::by_name(kernel_name).unwrap();
        let module = (kernel.build)();
        let golden = Interpreter::new(&module).run(&[]).expect("interpreter");

        for machine in tta_model::presets::all_design_points() {
            let what = format!("{kernel_name} on {}", machine.name);
            let compiled = compile(&module, &machine).unwrap_or_else(|e| panic!("{what}: {e}"));
            let mem = module.initial_memory();

            // (a) The default path: obs compiled in, disabled.
            tta_obs::set_enabled(false);
            let plain = tta_sim::run(&machine, &compiled.program, mem.clone())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(Some(plain.ret), golden.ret, "{what}");

            // (b) Same entry point with obs counters live.
            tta_obs::set_enabled(true);
            let with_obs = tta_sim::run(&machine, &compiled.program, mem.clone())
                .unwrap_or_else(|e| panic!("{what}: {e}"));

            // (c) The profiled monomorphisation, obs still enabled...
            let (profiled, p) = tta_sim::run_profiled(&machine, &compiled.program, mem.clone())
                .unwrap_or_else(|e| panic!("{what}: {e}"));

            // ...and once more with obs off; the profile is deterministic.
            tta_obs::set_enabled(false);
            let (profiled2, p2) = tta_sim::run_profiled(&machine, &compiled.program, mem.clone())
                .unwrap_or_else(|e| panic!("{what}: {e}"));

            // (d) The traced monomorphisation, the third sink.
            let (traced, trace) =
                tta_sim::run_traced(&machine, &compiled.program, mem, tta_sim::DEFAULT_FUEL)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));

            assert_same_run(&what, &plain, &with_obs);
            assert_same_run(&what, &plain, &profiled);
            assert_same_run(&what, &plain, &profiled2);
            assert_same_run(&what, &plain, &traced);
            assert_eq!(
                trace.len() as u64,
                plain.stats.instructions,
                "{what}: trace"
            );
            let mut hist = vec![0u64; compiled.program.len()];
            for &pc in &trace {
                hist[pc as usize] += 1;
            }
            assert_eq!(hist, p.pc_counts, "{what}: trace histogram");
            p.check_against(&plain.stats)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(p, p2, "{what}: profile must be deterministic");
            assert_eq!(p.cycles, plain.cycles, "{what}");
        }
    }
    tta_obs::reset();
}

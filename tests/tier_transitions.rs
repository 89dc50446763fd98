//! Tier-transition boundary tests: the promotion-threshold invariant
//! across *runs*, not just within one. A superblock promoted mid-run by
//! run N executes compiled from the first entry of run N+1 when the
//! promotion table is shared ([`tta_sim::Tiers`]); both runs — and every
//! threshold configuration, including promote-on-first-entry and the
//! tier disabled outright — must report bit-identical `SimResult`s
//! (cycles, return value, final memory, every `SimStats` field).
//!
//! Only the TTA engine has a compiled tier; the VLIW and scalar cases
//! pin that their tier state stays empty and changes nothing.
//!
//! Beyond the kernels, every program of the fixed generator stream that
//! `program_snapshot` hashes (plain and reactive modules) must also run
//! identically compiled and interpreted on every TTA preset.
//!
//! These tests pin the boundary with explicit [`TierConfig`] values so
//! they are independent of the `TTA_JIT` / `TTA_JIT_THRESHOLD`
//! environment; the CI `jit-parity` job covers the environment-driven
//! paths by replaying the cycle-snapshot and parity suites under each
//! setting.

use std::sync::OnceLock;

use tta_compiler::{compile_prepared, prepare, TtaOptions};
use tta_fuzz::gen::{generate, generate_reactive, GenConfig};
use tta_isa::Program;
use tta_model::{presets, CoreStyle, Machine};
use tta_sim::{run_with_io_tiers, run_with_tiers, IoSpec, TierConfig, Tiers, DEFAULT_FUEL};

struct Case {
    kernel: &'static str,
    machine: Machine,
    program: Program,
    memory: Vec<u8>,
}

/// One branchy and one loop-heavy kernel on one machine of each style —
/// enough to cross every TTA dispatch path (compiled whole blocks, and
/// clamped entries such as delay-slot windows falling back to the
/// interpreter) without snapshot-suite runtimes.
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

/// A run that promotes superblocks mid-flight and a later run that enters
/// them compiled from the start must both match the interpreted result.
#[test]
fn promotion_between_runs_is_bit_identical() {
    for c in cases() {
        let off = Tiers::with_config(
            &c.program,
            &TierConfig {
                enabled: false,
                threshold: 0,
            },
        );
        let baseline = run_once(c, &off);

        // Low threshold: hot blocks cross it early in run 1, so run 1
        // straddles the interpreted→compiled boundary and run 2 is
        // compiled throughout.
        let tiers = Tiers::with_config(
            &c.program,
            &TierConfig {
                enabled: true,
                threshold: 4,
            },
        );
        let run1 = run_once(c, &tiers);
        let promoted = tiers.compiled_blocks();
        let run2 = run_once(c, &tiers);
        if matches!(c.program, Program::Tta(_)) {
            assert!(
                promoted > 0,
                "{} on {}: no promotions at threshold 4",
                c.kernel,
                c.machine.name
            );
        } else {
            assert_eq!(
                tiers.compiled_blocks(),
                0,
                "{} on {}: only the TTA engine has a compiled tier",
                c.kernel,
                c.machine.name
            );
        }
        assert_eq!(
            run1, baseline,
            "{} on {}: promoting run diverged",
            c.kernel, c.machine.name
        );
        assert_eq!(
            run2, baseline,
            "{} on {}: compiled run diverged",
            c.kernel, c.machine.name
        );
        // Heat accumulates across runs, so run 2 may promote blocks whose
        // entries straddled the threshold — but never lose any.
        assert!(
            tiers.compiled_blocks() >= promoted,
            "{} on {}: promotion table shrank",
            c.kernel,
            c.machine.name
        );
    }
}

/// Promote-on-first-entry (threshold 0), the default threshold, and the
/// tier disabled must be indistinguishable in every reported number.
#[test]
fn threshold_extremes_match_disabled() {
    for c in cases() {
        let results: Vec<tta_sim::SimResult> = [
            TierConfig {
                enabled: false,
                threshold: 0,
            },
            TierConfig {
                enabled: true,
                threshold: 0,
            },
            TierConfig {
                enabled: true,
                threshold: TierConfig::DEFAULT_THRESHOLD,
            },
        ]
        .iter()
        .map(|cfg| run_once(c, &Tiers::with_config(&c.program, cfg)))
        .collect();
        assert_eq!(
            results[0], results[1],
            "{} on {}: threshold 0 diverged from disabled",
            c.kernel, c.machine.name
        );
        assert_eq!(
            results[0], results[2],
            "{} on {}: default threshold diverged from disabled",
            c.kernel, c.machine.name
        );
    }
}

/// Generated programs, compiled for every TTA preset: the tier disabled
/// and promote-on-first-entry must agree on every field of the result
/// (or on the error). Same seed stream as `program_snapshot`.
#[test]
fn generated_programs_match_across_tiers() {
    let cfg = GenConfig::default();
    let machines: Vec<Machine> = presets::all_design_points()
        .into_iter()
        .filter(|m| m.style == CoreStyle::Tta)
        .collect();
    assert_eq!(machines.len(), 7);
    let (mut pairs, mut compiled_blocks) = (0, 0);
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
                let run = |tiers: &Tiers| {
                    run_with_io_tiers(
                        machine,
                        &compiled.program,
                        module.initial_memory(),
                        DEFAULT_FUEL,
                        &spec,
                        compiled.irq_entry,
                        tiers,
                    )
                };
                let hot = Tiers::with_config(&compiled.program, &TierConfig::with_threshold(0));
                let off = Tiers::with_config(&compiled.program, &TierConfig::disabled());
                assert_eq!(
                    run(&hot),
                    run(&off),
                    "{kind} seed {seed} on {}: compiled tier diverged",
                    machine.name
                );
                compiled_blocks += hot.compiled_blocks();
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 2800);
    assert!(compiled_blocks > 0, "threshold 0 compiled no block");
}

//! The compiler is a pure function of (module, machine): compiling the
//! same generated module twice for the same design point must yield the
//! same program. Every hash map gets fresh random keys, so a pass that
//! emits code in hash-map iteration order shows up here as two differing
//! programs from one input.

use tta_fuzz::{generate, GenConfig};

/// Seeds per design point. Hash-ordered code emission has shown up in
/// about 0.7 % of (seed, machine) pairs, so 150 seeds × 13 machines expect
/// more than a dozen differing pairs when it is present.
const SEEDS: u64 = 150;

#[test]
fn compiling_twice_yields_identical_programs() {
    let cfg = GenConfig::default();
    let machines = tta_model::presets::all_design_points();
    let mut differing = Vec::new();
    for seed in 0..SEEDS {
        let module = generate(seed, &cfg);
        for m in &machines {
            let first = tta_compiler::compile(&module, m).map(|c| c.program);
            let second = tta_compiler::compile(&module, m).map(|c| c.program);
            let same = match (&first, &second) {
                (Ok(a), Ok(b)) => a == b,
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            };
            if !same {
                differing.push(format!("seed {seed} on {}", m.name));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} double compiles differ: {differing:?}",
        differing.len(),
        SEEDS as usize * machines.len()
    );
}

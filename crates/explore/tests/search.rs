//! End-to-end tests for the Pareto design-space search: seeded
//! determinism, rediscovery of the paper's frontier, and a run table that
//! changes no outcome.
//!
//! Debug builds are slow, so these runs use a two- or three-kernel subset
//! and small per-generation quotas — enough for the gen-0 analytic sweep
//! of the full space plus a few mutation generations.

use tta_explore::eval::{self, PreparedKernel};
use tta_explore::search::{dominates, evaluate_paper_points, search};
use tta_explore::SearchParams;
use tta_model::gen;

fn small_params() -> SearchParams {
    SearchParams {
        seed: 7,
        generations: 3,
        probe_quota: 24,
        full_quota: 8,
        kernels: vec!["sha", "aes"],
        ..SearchParams::default()
    }
}

#[test]
fn seeded_search_is_deterministic() {
    let params = SearchParams {
        generations: 1,
        probe_quota: 12,
        full_quota: 4,
        ..small_params()
    };
    let a = search(&params);
    let b = search(&params); // second run hits the compile cache
    let key = |o: &tta_explore::SearchOutcome| {
        o.frontier
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.slices,
                    p.structural,
                    p.geomean_cycles.to_bits(),
                    p.runtime_us.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b), "same seed must give the same frontier");
    assert!(!a.frontier.is_empty());
    assert_eq!(a.stats.probed, b.stats.probed);
    assert_eq!(a.stats.full_evals, b.stats.full_evals);
}

#[test]
fn search_rediscovers_or_dominates_the_paper_bm_points() {
    let params = small_params();
    let outcome = search(&params);
    let paper = evaluate_paper_points(&params);
    assert!(
        outcome.frontier.len() >= 4,
        "expected a non-trivial frontier, got {}",
        outcome.frontier.len()
    );

    // The paper's best TTAs (the bus-merged bm-tta points) must be
    // accounted for: either the search carries a structural twin on its
    // frontier, or it found configs that strictly dominate them.
    for bm in ["bm-tta-2", "bm-tta-3"] {
        let p = paper.iter().find(|p| p.name == bm).expect(bm);
        let on_frontier = outcome
            .frontier
            .iter()
            .any(|f| f.structural == p.structural);
        let dominated = outcome.frontier.iter().any(|f| dominates(f, p));
        assert!(
            on_frontier || dominated,
            "{bm} neither rediscovered nor improved upon (slices {}, {:.2} µs)",
            p.slices,
            p.runtime_us
        );
    }

    // No paper TTA/VLIW point may dominate the discovered frontier: the
    // search must never return points the known design sweep already
    // beats. (The scalar MicroBlaze presets are excluded — they sit
    // outside the searchable space and undercut every TTA on area.)
    for f in &outcome.frontier {
        assert!(
            !paper
                .iter()
                .filter(|p| !p.name.starts_with("mblaze"))
                .any(|p| dominates(p, f)),
            "frontier point {} is dominated by a paper preset",
            f.name
        );
    }

    // And the search must advance the state of the art somewhere: at
    // least one discovered config strictly dominates a paper point.
    assert!(
        outcome
            .frontier
            .iter()
            .any(|f| paper.iter().any(|p| dominates(f, p))),
        "no discovered config dominates any paper point"
    );
}

#[test]
fn gen0_sweep_covers_the_whole_space_and_funnel_tallies_balance() {
    let params = SearchParams {
        generations: 0,
        probe_quota: 10,
        full_quota: 3,
        ..small_params()
    };
    let outcome = search(&params);
    let space = gen::enumerate_space().len() as u64;
    assert_eq!(outcome.stats.proposed, space, "gen 0 proposes the grid");
    let s = &outcome.stats;
    assert_eq!(
        s.configs + s.invalid + s.duplicates,
        space,
        "every grid config is analyzed, rejected, or a structural twin"
    );
    assert!(
        s.configs >= space * 9 / 10,
        "the vast majority of the grid must survive validation, got {}",
        s.configs
    );
    // Every analyzed config ends in exactly one terminal state: pruned
    // (analytically or by probe), failed, fully evaluated, or pooled.
    assert_eq!(
        s.configs,
        s.analytic_pruned + s.probe_pruned + s.eval_failures + s.full_evals + s.deferred,
        "funnel states must partition the analyzed configs"
    );
    assert!(s.probed <= 10, "probe quota respected");
    assert_eq!(s.full_evals, 3, "full quota filled");
    assert!(s.wall_s > 0.0);
    assert!(s.configs_per_s() > 0.0);
}

/// 64-bit FNV-1a: a hash that is stable across processes and platforms.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every frontier field (floats as bits) and every funnel tally that
/// predates the run table, `wall_s` aside, folded into one hash.
fn outcome_hash(o: &tta_explore::SearchOutcome) -> u64 {
    let mut text = String::new();
    for p in &o.frontier {
        text += &format!(
            "{:?}|{}|{}|{}|{:x}|{:x}|{:x}|{:x}|{:x}\n",
            p.config,
            p.name,
            p.slices,
            p.lut_core,
            p.fmax_mhz.to_bits(),
            p.geomean_cycles.to_bits(),
            p.runtime_us.to_bits(),
            p.probe_runtime_us.to_bits(),
            p.structural
        );
    }
    let s = &o.stats;
    text += &format!(
        "{} {} {} {} {} {} {} {} {} {} {}",
        s.proposed,
        s.duplicates,
        s.invalid,
        s.configs,
        s.analytic_pruned,
        s.deferred,
        s.probed,
        s.probe_pruned,
        s.eval_failures,
        s.full_evals,
        s.inserted
    );
    fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

/// Reduced parameters under which issue-width twins reach full
/// evaluation: generation 0's 8 finalists build only 4 datapaths.
fn twin_params(threads: usize) -> SearchParams {
    SearchParams {
        seed: 7,
        generations: 2,
        probe_quota: 24,
        full_quota: 8,
        kernels: vec!["sha", "aes", "motion"],
        threads,
        ..SearchParams::default()
    }
}

/// [`outcome_hash`] of a [`twin_params`] search, generated before the
/// search had a run table, when every config was simulated on its own.
const TWIN_GOLDEN: u64 = 0x491a_4453_c838_e4ae;

#[test]
fn the_run_table_changes_no_outcome() {
    let mut frontier = Vec::new();
    for threads in [1, 2] {
        let o = search(&twin_params(threads));
        assert_eq!(
            outcome_hash(&o),
            TWIN_GOLDEN,
            "threads {threads}: frontier or funnel tallies moved"
        );
        let s = &o.stats;
        // Without twins the table would serve only the full evaluations'
        // probe kernels.
        assert!(s.reused_runs > s.full_evals * 2, "threads {threads}: {s:?}");
        frontier = o.frontier;
    }
    // Each point's cycles, simulated afresh for its own config, give its
    // geomean bit for bit: a twin served its representative's runs.
    let prepared: Vec<PreparedKernel> = twin_params(1)
        .kernels
        .iter()
        .map(|n| eval::prepare_kernel(&tta_chstone::by_name(n).unwrap()))
        .collect();
    for p in &frontier {
        let Some(config) = p.config else { continue };
        let machine = config.build();
        let logs: f64 = prepared
            .iter()
            .map(|k| {
                (eval::run_prepared(k, &machine).cycles as f64)
                    .max(1.0)
                    .ln()
            })
            .sum();
        let geomean = (logs / prepared.len() as f64).exp();
        assert_eq!(geomean.to_bits(), p.geomean_cycles.to_bits(), "{}", p.name);
    }
}

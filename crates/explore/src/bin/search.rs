//! Pareto design-space search CLI.
//!
//! Runs the staged-funnel search over the generated config space and
//! prints the discovered frontier next to the paper's 13 presets on the
//! Fig. 6 axes, plus the funnel tallies.
//!
//! Usage:
//! `cargo run --release -p tta-explore --bin search [--seed N]
//!  [--generations N] [--probe-quota N] [--full-quota N] [--threads N]
//!  [--kernels a,b,c]`

use tta_explore::search::{dominates, evaluate_paper_points, frontier_markdown, search};
use tta_explore::SearchParams;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    arg_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    tta_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = SearchParams::default();
    let kernels: Vec<&'static str> = arg_value(&args, "--kernels")
        .map(|list| {
            list.split(',')
                .map(|n| {
                    tta_chstone::by_name(n.trim())
                        .unwrap_or_else(|| panic!("unknown kernel {n}"))
                        .name
                })
                .collect()
        })
        .unwrap_or_default();
    let params = SearchParams {
        seed: parse(&args, "--seed", defaults.seed),
        generations: parse(&args, "--generations", defaults.generations),
        probe_quota: parse(&args, "--probe-quota", defaults.probe_quota),
        full_quota: parse(&args, "--full-quota", defaults.full_quota),
        threads: parse(&args, "--threads", defaults.threads),
        kernels,
        ..defaults
    };

    let outcome = search(&params);
    let paper = evaluate_paper_points(&params);

    println!("## Discovered frontier (seed {})\n", params.seed);
    println!("{}", frontier_markdown(&outcome.frontier));

    println!("## Paper presets on the same axes\n");
    println!("{}", frontier_markdown(&paper));

    println!("## Paper points vs the discovered frontier\n");
    for p in &paper {
        let matched = outcome
            .frontier
            .iter()
            .any(|f| f.structural == p.structural);
        let dominated_by: Vec<&str> = outcome
            .frontier
            .iter()
            .filter(|f| dominates(f, p))
            .map(|f| f.name.as_str())
            .collect();
        let verdict = if matched {
            "on the frontier".to_string()
        } else if dominated_by.is_empty() {
            "not dominated".to_string()
        } else {
            format!("dominated by {}", dominated_by.join(", "))
        };
        println!("- {}: {verdict}", p.name);
    }

    let s = &outcome.stats;
    println!(
        "\nfunnel: {} proposed, {} unique configs, {} analytic-pruned, \
         {} probed, {} probe-pruned, {} full evals, {} inserted, \
         {} probe failures, {} full-eval failures, {} still pooled",
        s.proposed,
        s.configs,
        s.analytic_pruned,
        s.probed,
        s.probe_pruned,
        s.full_evals,
        s.inserted,
        s.eval_failures,
        s.full_eval_failures,
        s.deferred
    );
    println!(
        "kernel runs: {} simulated, {} served from the run table",
        s.sim_runs, s.reused_runs
    );
    println!(
        "wall {:.2}s, {:.0} configs/s, frontier size {}",
        s.wall_s,
        s.configs_per_s(),
        outcome.frontier.len()
    );
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints as
//! its last stdout line `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Run metadata goes to stderr and to `out/` beside this
//! crate; a traced run also writes its spans there.

use std::process::ExitCode;

use tta_obs::json::Json;
use tta_perfbench::stats::median;
use tta_perfbench::tracer::Tracer;
use tta_perfbench::{fuzz, result_line, search, serve, setup_reps, sys, E2E, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <fuzz_diff|serve_closed_loop|search_cold> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Default)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: `setup` or `search`, run as a child of a run.
    child: Option<String>,
    traced_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.traced_child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--child" => a.child = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The thread counts this run passes to the program, for the metadata.
fn threads(workload: &str) -> Json {
    let n = |v: usize| Json::Num(v as f64);
    Json::Obj(match workload {
        "serve_closed_loop" => vec![
            ("sim_threads".into(), n(serve::SIM_THREADS)),
            ("conn_threads".into(), n(serve::CONN_THREADS)),
            ("client_connections".into(), n(serve::CONNECTIONS)),
        ],
        "search_cold" => vec![("search_threads".into(), n(search::THREADS))],
        _ => vec![("oracle_threads".into(), n(1))],
    })
}

/// A child process: `setup` runs the workload's set-up and prints
/// `ready`; `search` runs one search and prints its result line.
fn child(a: &Args, kind: &str) -> Result<(), String> {
    match (kind, a.workload.as_str()) {
        ("setup", "fuzz_diff") => drop(fuzz::setup()?),
        ("setup", "serve_closed_loop") => serve::setup()?.server.shutdown(),
        ("setup", "search_cold") => drop(search::setup()),
        ("search", "search_cold") => {
            let t = Tracer::new();
            let line = search::child(a.seed, a.traced_child, &t)?;
            if a.traced_child {
                let name = format!(
                    "trace-search_cold-seed{}-pid{}.json",
                    a.seed,
                    std::process::id()
                );
                sys::write_out(&name, &t.to_json("perfbench search_cold search"));
            }
            println!("{line}");
            return Ok(());
        }
        _ => return Err(format!("unknown child {kind} for {}", a.workload)),
    }
    println!("ready");
    Ok(())
}

fn run(a: &Args) -> Result<String, String> {
    let workload = WORKLOADS
        .into_iter()
        .find(|&w| w == a.workload)
        .expect("checked by parse_args");
    let mut meta = sys::metadata(
        &a.workload,
        a.seed,
        a.seconds,
        a.trace,
        threads(&a.workload),
    );
    let tag = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    if a.trace {
        eprintln!("perfbench: {}", meta.to_compact());
        sys::write_out(&format!("meta-{tag}.json"), &meta);
        let t = Tracer::new();
        let out = match a.workload.as_str() {
            "fuzz_diff" => fuzz::run_traced(a.seed, a.seconds, &t)?,
            "serve_closed_loop" => serve::run_traced(a.seed, a.seconds, &t)?,
            _ => search::run_traced(a.seed, a.seconds, &t)?,
        };
        sys::write_out(
            &format!("trace-{tag}.json"),
            &t.to_json(&format!("perfbench {}", a.workload)),
        );
        return Ok(result_line(&out, &PER_LAYER));
    }
    let mut probes = sys::Probes::new(workload, a.seconds, setup_reps(workload));
    let mut out = match workload {
        "fuzz_diff" => fuzz::run(a.seed, a.seconds, &mut probes)?,
        "serve_closed_loop" => serve::run(a.seed, a.seconds, &mut probes)?,
        _ => search::run(a.seed, a.seconds, &mut probes)?,
    };
    let (setups, raw_setups) = probes.finish()?;
    out.metrics.insert("setup_s", median(&setups));
    out.raw.insert("setup_s", median(&raw_setups));
    out.metrics
        .entry("peak_rss_mb")
        .or_insert_with(sys::peak_rss_mb);
    sys::add_run_facts(&mut meta, &out, &raw_setups);
    eprintln!("perfbench: {}", meta.to_compact());
    sys::write_out(&format!("meta-{tag}.json"), &meta);
    Ok(result_line(&out, &E2E))
}

fn main() -> ExitCode {
    tta_obs::init_from_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.child {
        Some(kind) => child(&args, kind).map(|()| None),
        None => run(&args).map(Some),
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

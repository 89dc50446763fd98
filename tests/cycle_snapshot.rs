//! Cycle-count snapshot regression: every (kernel × design point) pair
//! must report byte-identical `cycles` and `SimStats` across simulator
//! refactors. This locks the paper's *timing contract* — not merely the
//! return values — so a performance rewrite of the simulators (e.g. the
//! predecoded cores) cannot silently shift a single reported number.
//!
//! Beyond the kernels, one aggregate line per design point pins the fixed
//! generator stream `program_snapshot` hashes (seeds 0..200, each as a
//! plain and as a reactive module, compiled with `prepare` +
//! `compile_prepared` and run with its interrupt schedule): every run's
//! cycles, return value, final memory, UART bytes and every `SimStats`
//! field, or its error text, folded into one FNV-1a hash. Those lines were
//! generated with the interpreted TTA step before the thunk executor
//! replaced it, so they hold the executor to the reference phase order on
//! 2 800 generated TTA runs.
//!
//! The kernel lines were generated from the original (pre-predecode)
//! simulators. To regenerate after an *intentional* timing change:
//!
//! ```sh
//! UPDATE_SNAPSHOT=1 cargo test --release --test cycle_snapshot
//! ```

use std::fmt::Write as _;

use tta_compiler::{compile_prepared, prepare, TtaOptions};
use tta_fuzz::gen::{generate, generate_reactive, GenConfig};
use tta_model::presets;
use tta_sim::{run_with_io, IoSpec, SimError, SimResult, DEFAULT_FUEL};

const SNAPSHOT_PATH: &str = "tests/snapshots/cycle_counts.txt";

/// Generator seeds of the generated-stream lines, each run as a plain and
/// as a reactive module.
const GEN_SEEDS: u64 = 200;

/// 64-bit FNV-1a, as in `program_snapshot`: stable across processes.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One run as a hash: cycles, return value, every `SimStats` field (by
/// name), memory and UART bytes — or the error text.
fn run_hash(r: &Result<SimResult, SimError>) -> u64 {
    match r {
        Ok(r) => {
            let head = format!("{} {} {:?}|", r.cycles, r.ret, r.stats);
            let h = fnv1a(head.as_bytes(), FNV_OFFSET);
            fnv1a(&r.uart_tx, fnv1a(b"|", fnv1a(&r.memory, h)))
        }
        Err(e) => fnv1a(format!("error: {e}").as_bytes(), FNV_OFFSET),
    }
}

/// One line per design point over the generated stream: runs, completed
/// runs, their summed cycles and the hash of every run in stream order.
fn render_generated(out: &mut String) {
    let cfg = GenConfig::default();
    let machines = presets::all_design_points();
    let mut agg = vec![(0u64, 0u64, FNV_OFFSET); machines.len()];
    for seed in 0..GEN_SEEDS {
        let plain = (generate(seed, &cfg), IoSpec::default());
        for (module, spec) in [plain, generate_reactive(seed, &cfg)] {
            let front = prepare(&module).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for (machine, (ok, cycles, h)) in machines.iter().zip(&mut agg) {
                let run_h = match compile_prepared(&front, machine, TtaOptions::default()) {
                    Ok(c) => {
                        let r = run_with_io(
                            machine,
                            &c.program,
                            module.initial_memory(),
                            DEFAULT_FUEL,
                            &spec,
                            c.irq_entry,
                        );
                        if let Ok(r) = &r {
                            *ok += 1;
                            *cycles += r.cycles;
                        }
                        run_hash(&r)
                    }
                    Err(e) => fnv1a(format!("compile error: {e}").as_bytes(), FNV_OFFSET),
                };
                *h = fnv1a(&run_h.to_le_bytes(), *h);
            }
        }
    }
    for (machine, (ok, cycles, h)) in machines.iter().zip(agg) {
        writeln!(
            out,
            "generated {} seeds 0..{GEN_SEEDS} x {{generate, generate_reactive}}: \
             {} runs {ok} ok {cycles} cycles {h:016x}",
            machine.name,
            2 * GEN_SEEDS,
        )
        .unwrap();
    }
}

/// Render one stable line per (machine, kernel) pair: the cycle count and
/// every `SimStats` field, in declaration order.
fn render_snapshot() -> String {
    let reports = tta_explore::evaluate_all();
    let mut out = String::new();
    out.push_str(
        "# machine kernel cycles instructions payload rf_reads rf_writes \
         bypass_reads limms branches_taken stall_cycles loads stores\n",
    );
    for report in &reports {
        for run in &report.runs {
            let s = &run.sim;
            writeln!(
                out,
                "{} {} {} {} {} {} {} {} {} {} {} {} {}",
                report.name,
                run.kernel,
                run.cycles,
                s.instructions,
                s.payload,
                s.rf_reads,
                s.rf_writes,
                s.bypass_reads,
                s.limms,
                s.branches_taken,
                s.stall_cycles,
                s.loads,
                s.stores,
            )
            .unwrap();
        }
    }
    render_generated(&mut out);
    out
}

#[test]
fn cycles_and_stats_match_golden_snapshot() {
    let rendered = render_snapshot();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT_PATH);
    if std::env::var("UPDATE_SNAPSHOT").is_ok() {
        std::fs::write(&path, &rendered).expect("write snapshot");
        eprintln!("snapshot updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    if rendered != golden {
        // Diff line-by-line so a timing regression names the exact pair.
        let mut mismatches = Vec::new();
        for (g, r) in golden.lines().zip(rendered.lines()) {
            if g != r {
                mismatches.push(format!("  golden: {g}\n  got:    {r}"));
            }
        }
        let gl = golden.lines().count();
        let rl = rendered.lines().count();
        if gl != rl {
            mismatches.push(format!("  line count changed: golden {gl}, got {rl}"));
        }
        panic!(
            "cycle/SimStats snapshot mismatch ({} lines differ):\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}

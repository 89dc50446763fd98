//! Microarchitectural profile reports across the design space.
//!
//! Where [`crate::eval`] answers *how fast* each design point runs the
//! kernels, this module answers *why*: it re-runs the kernels through the
//! profiled simulator entry points ([`tta_sim::run_profiled`]) and
//! aggregates the per-bus move densities, per-FU occupancies, RF
//! port-pressure histograms and bypass ratios into one report — the
//! quantities the paper's utilization argument rests on. The report
//! renders as markdown ([`utilization_markdown`]) and as a
//! machine-readable JSON document under the stable
//! [`PROFILE_VERSION`] schema ([`report_json`], checked by
//! [`validate_report`] and the CI `profile-smoke` job).
//!
//! [`trace_json`] additionally renders one (machine, kernel) run as a
//! Chrome trace-event / Perfetto document: host-side pipeline spans from
//! the obs registry on one track, guest datapath activity (moves, RF
//! port traffic, FU starts per cycle bucket) as counter tracks below it.

use tta_chstone::Kernel;
use tta_compiler::{compile, compile_prepared, prepare, Prepared, TtaOptions};
use tta_ir::interp::Interpreter;
use tta_model::{CoreStyle, Machine};
use tta_obs::json::Json;
use tta_obs::TraceBuilder;
use tta_sim::{GuestProfile, SimStats};

/// Version of the JSON schema emitted by [`report_json`]. Bump when a
/// field is renamed or changes meaning; adding fields is backwards
/// compatible.
pub const PROFILE_VERSION: u64 = 1;

/// One kernel profiled on one machine.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name.
    pub kernel: String,
    /// The reconstructed microarchitectural profile.
    pub profile: GuestProfile,
    /// The run's dynamic statistics (bit-identical to an unprofiled run).
    pub stats: SimStats,
}

/// All kernel profiles of one design point.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    /// The machine description.
    pub machine: Machine,
    /// One entry per kernel, in kernel order.
    pub kernels: Vec<KernelProfile>,
}

/// The profile report of a (machines × kernels) sweep.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// One entry per machine, in machine order.
    pub machines: Vec<MachineProfile>,
}

fn style_name(style: CoreStyle) -> &'static str {
    match style {
        CoreStyle::Tta => "tta",
        CoreStyle::Vliw => "vliw",
        CoreStyle::Scalar => "scalar",
    }
}

/// Compile and profile `kernels` on `machines`, verifying every run
/// against the IR interpreter and the profile against the run's stats.
///
/// Panics on a compile/simulate failure or a profile inconsistency —
/// both indicate repo bugs, exactly like [`crate::evaluate`].
pub fn profile(machines: &[Machine], kernels: &[Kernel]) -> ProfileReport {
    let prepared: Vec<(String, tta_ir::Module, Option<i32>, Prepared)> = kernels
        .iter()
        .map(|k| {
            let module = (k.build)();
            let golden = Interpreter::new(&module).run(&[]).expect("interpreter");
            let front = prepare(&module).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            (k.name.to_string(), module, golden.ret, front)
        })
        .collect();
    let machines = machines
        .iter()
        .map(|machine| {
            let kernels = prepared
                .iter()
                .map(|(name, module, golden_ret, front)| {
                    let compiled = compile_prepared(front, machine, TtaOptions::default())
                        .unwrap_or_else(|e| panic!("{name} on {}: {e}", machine.name));
                    let (r, p) =
                        tta_sim::run_profiled(machine, &compiled.program, module.initial_memory())
                            .unwrap_or_else(|e| panic!("{name} on {}: {e}", machine.name));
                    assert_eq!(Some(r.ret), *golden_ret, "{name} on {}", machine.name);
                    p.check_against(&r.stats)
                        .unwrap_or_else(|e| panic!("{name} on {}: {e}", machine.name));
                    KernelProfile {
                        kernel: name.clone(),
                        profile: p,
                        stats: r.stats,
                    }
                })
                .collect();
            MachineProfile {
                machine: machine.clone(),
                kernels,
            }
        })
        .collect();
    ProfileReport { machines }
}

/// Profile all eight kernels on all thirteen design points.
pub fn profile_all() -> ProfileReport {
    profile(
        &tta_model::presets::all_design_points(),
        &tta_chstone::all_kernels(),
    )
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn hist_json(hist: &[u64]) -> Json {
    Json::Arr(hist.iter().map(|&c| num(c)).collect())
}

fn kernel_json(k: &KernelProfile) -> Json {
    let p = &k.profile;
    let fu =
        p.fu.iter()
            .map(|f| {
                let occupancy = if p.cycles == 0 {
                    0.0
                } else {
                    f.busy_cycles as f64 / p.cycles as f64
                };
                Json::Obj(vec![
                    ("name".into(), Json::Str(f.name.clone())),
                    ("ops".into(), num(f.ops)),
                    ("busy_cycles".into(), num(f.busy_cycles)),
                    ("occupancy".into(), Json::Num(occupancy)),
                ])
            })
            .collect();
    let rf =
        p.rf.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("read_ports".into(), num(r.read_ports as u64)),
                    ("write_ports".into(), num(r.write_ports as u64)),
                    ("read_hist".into(), hist_json(&r.read_hist)),
                    ("write_hist".into(), hist_json(&r.write_hist)),
                    ("mean_reads".into(), Json::Num(r.mean_reads())),
                    ("mean_writes".into(), Json::Num(r.mean_writes())),
                ])
            })
            .collect();
    let hot = p
        .hot_pcs(8)
        .into_iter()
        .map(|(pc, c)| Json::Arr(vec![num(pc as u64), num(c)]))
        .collect();
    Json::Obj(vec![
        ("kernel".into(), Json::Str(k.kernel.clone())),
        ("cycles".into(), num(p.cycles)),
        ("samples".into(), num(p.samples)),
        ("stall_cycles".into(), num(k.stats.stall_cycles)),
        ("slots".into(), num(p.slots as u64)),
        ("slot_moves".into(), hist_json(&p.slot_moves)),
        (
            "slot_density".into(),
            Json::Arr(p.slot_density().into_iter().map(Json::Num).collect()),
        ),
        ("slot_utilization".into(), Json::Num(p.slot_utilization())),
        ("limm_slot_samples".into(), num(p.limm_slot_samples)),
        ("nop_fraction".into(), Json::Num(p.nop_fraction())),
        ("fu".into(), Json::Arr(fu)),
        ("rf".into(), Json::Arr(rf)),
        (
            "reads".into(),
            Json::Obj(vec![
                ("rf".into(), num(p.rf_reads)),
                ("bypass".into(), num(p.bypass_reads)),
                ("bypass_fraction".into(), Json::Num(p.bypass_fraction())),
            ]),
        ),
        ("hot_pcs".into(), Json::Arr(hot)),
    ])
}

/// Render a report as the versioned JSON document (see
/// [`validate_report`] for the schema contract).
pub fn report_json(report: &ProfileReport) -> Json {
    let machines = report
        .machines
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("machine".into(), Json::Str(m.machine.name.clone())),
                (
                    "style".into(),
                    Json::Str(style_name(m.machine.style).into()),
                ),
                (
                    "kernels".into(),
                    Json::Arr(m.kernels.iter().map(kernel_json).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("profile_version".into(), num(PROFILE_VERSION)),
        ("machines".into(), Json::Arr(machines)),
    ])
}

fn expect_num(j: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    j.get(key)
        .ok_or_else(|| format!("{ctx}: missing \"{key}\""))?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not a number"))
}

fn expect_frac(j: &Json, key: &str, ctx: &str) -> Result<(), String> {
    let v = expect_num(j, key, ctx)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{ctx}: \"{key}\" = {v} outside [0, 1]"));
    }
    Ok(())
}

fn expect_hist(j: &Json, key: &str, ctx: &str) -> Result<(), String> {
    match j.get(key) {
        Some(Json::Arr(items)) => {
            for (i, item) in items.iter().enumerate() {
                if item.as_f64().is_none() {
                    return Err(format!("{ctx}: \"{key}\"[{i}] is not a number"));
                }
            }
            Ok(())
        }
        Some(_) => Err(format!("{ctx}: \"{key}\" is not an array")),
        None => Err(format!("{ctx}: missing \"{key}\"")),
    }
}

/// Validate a [`report_json`] document against the `profile_version: 1`
/// schema — the structural contract the CI `profile-smoke` job and
/// downstream consumers rely on. Returns the first violation.
pub fn validate_report(j: &Json) -> Result<(), String> {
    let version = expect_num(j, "profile_version", "report")?;
    if version != PROFILE_VERSION as f64 {
        return Err(format!("unsupported profile_version {version}"));
    }
    let Some(Json::Arr(machines)) = j.get("machines") else {
        return Err("report: \"machines\" is not an array".into());
    };
    if machines.is_empty() {
        return Err("report: \"machines\" is empty".into());
    }
    for m in machines {
        let name = m
            .get("machine")
            .and_then(|v| v.as_str())
            .ok_or("machine entry: missing \"machine\" name")?
            .to_string();
        let style = m
            .get("style")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{name}: missing \"style\""))?;
        if !["tta", "vliw", "scalar"].contains(&style) {
            return Err(format!("{name}: unknown style \"{style}\""));
        }
        let Some(Json::Arr(kernels)) = m.get("kernels") else {
            return Err(format!("{name}: \"kernels\" is not an array"));
        };
        if kernels.is_empty() {
            return Err(format!("{name}: \"kernels\" is empty"));
        }
        for k in kernels {
            let kn = k
                .get("kernel")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("{name}: kernel entry missing \"kernel\""))?;
            let ctx = format!("{name}/{kn}");
            for key in [
                "cycles",
                "samples",
                "stall_cycles",
                "slots",
                "limm_slot_samples",
            ] {
                let v = expect_num(k, key, &ctx)?;
                if v < 0.0 {
                    return Err(format!("{ctx}: \"{key}\" is negative"));
                }
            }
            if expect_num(k, "cycles", &ctx)? < expect_num(k, "samples", &ctx)? {
                return Err(format!("{ctx}: cycles < samples"));
            }
            expect_frac(k, "slot_utilization", &ctx)?;
            expect_frac(k, "nop_fraction", &ctx)?;
            expect_hist(k, "slot_moves", &ctx)?;
            expect_hist(k, "slot_density", &ctx)?;
            let Some(Json::Arr(fus)) = k.get("fu") else {
                return Err(format!("{ctx}: \"fu\" is not an array"));
            };
            for f in fus {
                let fctx = format!("{ctx} fu");
                f.get("name")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("{fctx}: missing \"name\""))?;
                expect_num(f, "ops", &fctx)?;
                expect_num(f, "busy_cycles", &fctx)?;
                expect_num(f, "occupancy", &fctx)?;
            }
            let Some(Json::Arr(rfs)) = k.get("rf") else {
                return Err(format!("{ctx}: \"rf\" is not an array"));
            };
            for r in rfs {
                let rctx = format!("{ctx} rf");
                r.get("name")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("{rctx}: missing \"name\""))?;
                let read_ports = expect_num(r, "read_ports", &rctx)?;
                let write_ports = expect_num(r, "write_ports", &rctx)?;
                expect_hist(r, "read_hist", &rctx)?;
                expect_hist(r, "write_hist", &rctx)?;
                let mr = expect_num(r, "mean_reads", &rctx)?;
                let mw = expect_num(r, "mean_writes", &rctx)?;
                if mr > read_ports || mw > write_ports {
                    return Err(format!("{rctx}: mean pressure exceeds the port count"));
                }
            }
            let reads = k
                .get("reads")
                .ok_or_else(|| format!("{ctx}: missing \"reads\""))?;
            expect_num(reads, "rf", &ctx)?;
            expect_num(reads, "bypass", &ctx)?;
            expect_frac(reads, "bypass_fraction", &ctx)?;
            expect_hist(k, "hot_pcs", &ctx).or_else(|_| -> Result<(), String> {
                // hot_pcs entries are [pc, count] pairs, not flat numbers.
                match k.get("hot_pcs") {
                    Some(Json::Arr(_)) => Ok(()),
                    _ => Err(format!("{ctx}: \"hot_pcs\" is not an array")),
                }
            })?;
        }
    }
    Ok(())
}

/// Render the per-machine utilization summary as a markdown table
/// (means across kernels; the EXPERIMENTS.md "where the cycles go"
/// table).
pub fn utilization_markdown(report: &ProfileReport) -> String {
    let mut out = String::new();
    out.push_str(
        "| machine | style | slot util | NOP frac | bypass frac | RF reads/sample | RF writes/sample |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for m in &report.machines {
        let n = m.kernels.len().max(1) as f64;
        let mean =
            |f: &dyn Fn(&KernelProfile) -> f64| -> f64 { m.kernels.iter().map(f).sum::<f64>() / n };
        let slot_util = mean(&|k| k.profile.slot_utilization());
        let nop = mean(&|k| k.profile.nop_fraction());
        let bypass = mean(&|k| k.profile.bypass_fraction());
        let reads = mean(&|k| {
            if k.profile.samples == 0 {
                0.0
            } else {
                k.profile.rf_reads as f64 / k.profile.samples as f64
            }
        });
        let writes = mean(&|k| {
            if k.profile.samples == 0 {
                0.0
            } else {
                k.profile.rf_writes as f64 / k.profile.samples as f64
            }
        });
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            m.machine.name,
            style_name(m.machine.style),
            slot_util,
            nop,
            bypass,
            reads,
            writes,
        ));
    }
    out
}

/// Render one (machine, kernel) run as a Chrome trace-event document:
/// host pipeline spans (whatever the obs registry currently holds) as a
/// synthetic flame on pid 0, the guest run and its datapath activity as
/// counter tracks on pid 1. One guest cycle is rendered as one
/// microsecond; `bucket` cycles are averaged per counter event to keep
/// the document small (clamped to ≥ 1).
pub fn trace_json(machine: &Machine, kernel: &Kernel, bucket: u64) -> Json {
    let bucket = bucket.max(1);
    let module = (kernel.build)();
    let compiled = compile(&module, machine)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, machine.name));
    let (r, trace) = tta_sim::run_traced(
        machine,
        &compiled.program,
        module.initial_memory(),
        tta_sim::DEFAULT_FUEL,
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, machine.name));
    let activity = tta_sim::static_activity(&compiled.program);

    let mut b = TraceBuilder::new();
    b.process_name(0, "host: tta pipeline");
    b.process_name(1, &format!("guest: {} / {}", machine.name, kernel.name));
    b.thread_name(1, 1, "datapath");
    b.add_host_spans(0);
    b.complete(
        1,
        1,
        &format!("{} on {}", kernel.name, machine.name),
        0.0,
        r.cycles as f64,
        vec![
            ("cycles", num(r.cycles)),
            ("instructions", num(r.stats.instructions)),
            ("ret", Json::Num(r.ret as f64)),
        ],
    );
    // One counter event per bucket of executed instructions, at the
    // bucket's first sample index (== cycle for the statically scheduled
    // styles).
    for (start, chunk) in trace
        .chunks(bucket as usize)
        .enumerate()
        .map(|(i, c)| (i as u64 * bucket, c))
    {
        let mut moves = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut fu_starts = 0u64;
        for &pc in chunk {
            let a = activity[pc as usize];
            moves += a.moves as u64;
            reads += a.rf_reads as u64;
            writes += a.rf_writes as u64;
            fu_starts += a.fu_starts as u64;
        }
        let per = chunk.len() as f64;
        b.counter(
            1,
            "datapath activity",
            start as f64,
            &[
                ("moves", moves as f64 / per),
                ("rf_reads", reads as f64 / per),
                ("rf_writes", writes as f64 / per),
                ("fu_starts", fu_starts as f64 / per),
            ],
        );
    }
    b.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::presets;

    fn small_report() -> ProfileReport {
        let machines = vec![presets::mblaze_3(), presets::m_vliw_2(), presets::m_tta_2()];
        let kernels = vec![tta_chstone::by_name("sha").unwrap()];
        profile(&machines, &kernels)
    }

    #[test]
    fn report_json_validates_against_its_own_schema() {
        let report = small_report();
        let j = report_json(&report);
        validate_report(&j).unwrap();
        // Round-trip through text keeps it valid.
        let parsed = tta_obs::json::parse(&j.to_pretty()).unwrap();
        validate_report(&parsed).unwrap();
    }

    #[test]
    fn profiles_reflect_the_styles() {
        let report = small_report();
        let scalar = &report.machines[0].kernels[0].profile;
        let vliw = &report.machines[1].kernels[0].profile;
        let tta = &report.machines[2].kernels[0].profile;
        // Only the TTA style bypasses reads; only the scalar style stalls.
        assert!(tta.bypass_fraction() > 0.0);
        assert_eq!(vliw.bypass_reads, 0);
        assert_eq!(scalar.bypass_reads, 0);
        assert!(report.machines[0].kernels[0].stats.stall_cycles > 0);
        assert!(scalar.cycles > scalar.samples);
        assert_eq!(tta.cycles, tta.samples);
    }

    #[test]
    fn validation_rejects_tampered_documents() {
        let j = report_json(&small_report());
        let mut bad = j.clone();
        if let Json::Obj(fields) = &mut bad {
            fields[0].1 = Json::Num(999.0);
        }
        assert!(validate_report(&bad).unwrap_err().contains("version"));

        let mut empty = j.clone();
        if let Json::Obj(fields) = &mut empty {
            fields[1].1 = Json::Arr(vec![]);
        }
        assert!(validate_report(&empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn markdown_has_one_row_per_machine() {
        let report = small_report();
        let md = utilization_markdown(&report);
        assert_eq!(md.lines().count(), 2 + report.machines.len());
        assert!(md.contains("| m-tta-2 | tta |"));
    }

    #[test]
    fn trace_json_is_a_valid_chrome_trace() {
        let m = presets::m_tta_2();
        let kernel = tta_chstone::by_name("sha").unwrap();
        let j = trace_json(&m, &kernel, 64);
        let Some(Json::Arr(events)) = j.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert!(events.len() > 4);
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            assert!(["M", "X", "C"].contains(&ph), "bad phase {ph}");
        }
        // Counter events cover the whole run.
        let counters = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .count();
        assert!(counters >= 1);
    }
}

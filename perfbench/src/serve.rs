//! `serve_closed_loop`: an in-process `tta-serve` driven by two
//! closed-loop client connections. Each connection posts an 8-job batch
//! drawn with the seed from the 104 preset × kernel pairs and waits for
//! the summary line before posting again.
//!
//! Compilation only hits the cache (set-up compiled every pair), and
//! simulation on warm shared tiers is most of a job's service time. It is
//! the only workload through HTTP framing, NDJSON, the shared work queue
//! and concurrent cache reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tta_explore::eval::{self, KernelRun, PreparedKernel};
use tta_model::{presets, Machine};
use tta_obs::json::{self, Json};
use tta_serve::{client, schema, Server, ServerConfig};
use tta_testutil::Rng;

use crate::calib::Calib;
use crate::layers::{self, style, SIM_SPANS};
use crate::stats::{self, median};
use crate::sys::{ratio, Probes};
use crate::tracer::Tracer;
use crate::Outcome;

/// Client connections, each a closed loop.
pub const CONNECTIONS: usize = 2;
/// Simulation worker threads of the server.
pub const SIM_THREADS: usize = 2;
/// Connection handler threads of the server.
pub const CONN_THREADS: usize = 2;
/// Jobs per posted batch.
pub const BATCH: usize = 8;
/// Reference box of `frontier_hv`: slices × geomean CHStone runtime (µs).
pub const HV_BOX: (f64, f64) = (1200.0, 600.0);

const TIMEOUT: Duration = Duration::from_secs(60);
/// Length of a throughput window of the untraced run.
const WINDOW: Duration = Duration::from_secs(1);
/// Length of each mode's phase in the traced run.
const PHASE: Duration = Duration::from_secs(1);
/// Traced requests replayed per traced run.
const REPLAY_MAX: usize = 400;

/// One preset × kernel pair and its reference report.
pub struct Pair {
    /// The design point.
    pub machine: Machine,
    /// Index into [`Setup::prepared`].
    pub kernel: usize,
    /// `eval::job_report_json` of the pair, compact, computed in-process.
    pub reference: String,
}

/// A running server with every pair compiled, simulated and checked once.
pub struct Setup {
    /// The server under test.
    pub server: Server,
    /// The CHStone kernels, built and interpreted.
    pub prepared: Vec<PreparedKernel>,
    /// All 104 pairs, machine-major.
    pub pairs: Vec<Pair>,
    /// Simulated cycles over one pass of all pairs through the server.
    pub pass_cycles: u64,
    /// Image bits of the programs behind that pass.
    pub pass_bits: u64,
    /// `frontier_hv` of the presets' (slices, geomean runtime) points.
    pub hv: f64,
}

/// Start the server, compute every pair's reference report in-process
/// (compiling all pairs into the shared cache), then post one warm pass
/// of all 104 pairs through the server and check it.
pub fn setup() -> Result<Setup, String> {
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        sim_threads: SIM_THREADS,
        conn_threads: CONN_THREADS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server: {e}"))?;
    let prepared: Vec<PreparedKernel> = tta_chstone::all_kernels()
        .iter()
        .map(eval::prepare_kernel)
        .collect();
    let mut pairs = Vec::new();
    for machine in presets::all_design_points() {
        for (kernel, p) in prepared.iter().enumerate() {
            let run = eval::run_prepared(p, &machine);
            let reference = eval::job_report_json(&machine.name, &run).to_compact();
            pairs.push(Pair {
                machine: machine.clone(),
                kernel,
                reference,
            });
        }
    }
    let all: Vec<usize> = (0..pairs.len()).collect();
    let warm = post_batch(server.addr(), &pairs, &prepared, &all)?;
    let (mut pass_cycles, mut pass_bits) = (0u64, 0u64);
    let mut log_cycles = vec![0.0; presets::all_design_points().len()];
    for (i, report) in warm.reports.iter().enumerate() {
        let doc = json::parse(report).map_err(|e| format!("warm report {i}: {e}"))?;
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        pass_cycles += num("cycles") as u64;
        pass_bits += num("image_bits") as u64;
        log_cycles[i / prepared.len()] += num("cycles").max(1.0).ln();
    }
    let points: Vec<(f64, f64)> = presets::all_design_points()
        .iter()
        .zip(&log_cycles)
        .map(|(m, lc)| {
            let r = tta_fpga::estimate(m);
            let geo = (lc / prepared.len() as f64).exp();
            (r.slices as f64, geo / r.fmax_mhz)
        })
        .collect();
    Ok(Setup {
        server,
        prepared,
        pairs,
        pass_cycles,
        pass_bits,
        hv: stats::hypervolume(&points, HV_BOX.0, HV_BOX.1),
    })
}

/// The `report` object of a server job line, byte for byte: the last
/// field of the line's object.
pub fn report_text(line: &str) -> Option<&str> {
    let at = line.find("\"report\":")?;
    line.strip_suffix('}')
        .map(|l| &l[at + "\"report\":".len()..])
}

/// Check a batch response against the expected reports, job by job:
/// status 200, one line per job plus a summary with `ok == jobs`, every
/// job index once, and every report byte-equal to its reference.
/// Returns the reports in job order.
pub fn check_response(
    status: u16,
    lines: &[&str],
    expected: &[&str],
) -> Result<Vec<String>, String> {
    let n = expected.len();
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let (summary, jobs) = lines.split_last().ok_or("empty response")?;
    let summary = json::parse(summary).map_err(|e| format!("summary: {e}"))?;
    let count = |k: &str| summary.get(k).and_then(Json::as_f64);
    if summary.get("summary") != Some(&Json::Bool(true))
        || count("jobs") != Some(n as f64)
        || count("ok") != Some(n as f64)
    {
        return Err(format!("summary {}", summary.to_compact()));
    }
    if jobs.len() != n {
        return Err(format!("{} job lines for {n} jobs", jobs.len()));
    }
    let mut reports: Vec<Option<String>> = vec![None; n];
    for line in jobs {
        let doc = json::parse(line).map_err(|e| format!("job line: {e}"))?;
        let j = doc
            .get("job")
            .and_then(Json::as_f64)
            .ok_or("job line without index")? as usize;
        if doc.get("ok") != Some(&Json::Bool(true)) || j >= n || reports[j].is_some() {
            return Err(format!("bad job line {line}"));
        }
        let report = report_text(line).ok_or("job line without report")?;
        if report != expected[j] {
            return Err(format!(
                "job {j}: report {report} != reference {}",
                expected[j]
            ));
        }
        reports[j] = Some(report.to_string());
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("every job seen"))
        .collect())
}

/// A posted and checked batch.
pub struct Posted {
    /// Send to summary line, ms.
    pub latency_ms: f64,
    /// The request body.
    pub body: String,
    /// The reports, in job order.
    pub reports: Vec<String>,
}

/// Post the pairs `jobs` as one batch and check the response.
pub fn post_batch(
    addr: std::net::SocketAddr,
    pairs: &[Pair],
    prepared: &[PreparedKernel],
    jobs: &[usize],
) -> Result<Posted, String> {
    let specs: Vec<schema::JobSpec> = jobs
        .iter()
        .map(|&i| schema::JobSpec {
            machine: pairs[i].machine.name.clone(),
            kernel: prepared[pairs[i].kernel].name.to_string(),
        })
        .collect();
    let body = schema::batch_to_json(&specs, None).to_compact();
    let resp = client::post_streaming(addr, "/v1/batch", &body, TIMEOUT)
        .map_err(|e| format!("post: {e}"))?;
    let latency_ms = resp.lines.last().map_or(0.0, |l| l.at.as_secs_f64() * 1e3);
    let lines: Vec<&str> = resp.lines.iter().map(|l| l.text.as_str()).collect();
    let expected: Vec<&str> = jobs.iter().map(|&i| pairs[i].reference.as_str()).collect();
    let reports = check_response(resp.status, &lines, &expected)?;
    Ok(Posted {
        latency_ms,
        body,
        reports,
    })
}

/// The seeded job stream of one connection: the 104 pairs dealt from a
/// shuffled deck, reshuffled when it runs out (13 batches a deck).
pub struct Deck {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    /// The deck of connection `conn` for `seed`.
    pub fn new(seed: u64, conn: usize, pairs: usize) -> Deck {
        Deck {
            rng: Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1)),
            order: (0..pairs).collect(),
            next: pairs,
        }
    }

    /// The next `k` pair indices.
    pub fn deal(&mut self, k: usize) -> Vec<usize> {
        (0..k)
            .map(|_| {
                if self.next == self.order.len() {
                    for i in (1..self.order.len()).rev() {
                        let j = self.rng.below(i + 1);
                        self.order.swap(i, j);
                    }
                    self.next = 0;
                }
                self.next += 1;
                self.order[self.next - 1]
            })
            .collect()
    }
}

/// One completed request of the closed loop.
struct Done {
    /// Request id, shared by its spans.
    id: u64,
    latency_ms: f64,
    jobs: Vec<usize>,
    /// `Some` when the request passed every check.
    posted: Option<Posted>,
}

/// Run `CONNECTIONS` closed loops until `until`; with a tracer, every
/// request gets a `serve.request` span on its connection's thread.
fn closed_loop(
    s: &Setup,
    decks: &mut [Deck],
    until: Instant,
    tracer: Option<&Tracer>,
) -> Vec<Done> {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (conn, deck) in decks.iter_mut().enumerate() {
            let done = &done;
            scope.spawn(move || {
                while Instant::now() < until {
                    let jobs = deck.deal(BATCH);
                    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
                    let span = tracer.map(|t| t.begin("serve.request", id, conn as u64 + 1, None));
                    let t0 = Instant::now();
                    let result = post_batch(s.server.addr(), &s.pairs, &s.prepared, &jobs);
                    let latency_ms = match &result {
                        Ok(p) => p.latency_ms,
                        Err(_) => t0.elapsed().as_secs_f64() * 1e3,
                    };
                    if let (Some(t), Some(span)) = (tracer, span) {
                        t.end(span);
                    }
                    if let Err(e) = &result {
                        eprintln!("serve_closed_loop: request {id} {jobs:?} failed: {e}");
                    }
                    done.lock().expect("done lock").push(Done {
                        id,
                        latency_ms,
                        jobs,
                        posted: result.ok(),
                    });
                }
            });
        }
    });
    done.into_inner().expect("done lock")
}

fn decks(seed: u64, pairs: usize) -> Vec<Deck> {
    (0..CONNECTIONS)
        .map(|c| Deck::new(seed, c, pairs))
        .collect()
}

/// The untraced run: the end-to-end metrics. The closed loop runs in
/// [`WINDOW`]s, with a calibration sample (and, when due, a set-up probe)
/// between them; `items_per_s` is the median window's jobs per second.
pub fn run(seed: u64, seconds: f64, probes: &mut Probes) -> Result<Outcome, String> {
    let s = setup()?;
    let mut decks = decks(seed, s.pairs.len());
    let mut calib = Calib::new(SIM_THREADS);
    let mut out = Outcome::default();
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    let (mut lat_ms, mut raw_lat_ms) = (Vec::new(), Vec::new());
    let mut active = Duration::ZERO;
    while active.as_secs_f64() < seconds {
        probes.due()?;
        let window_start = Instant::now();
        let done = closed_loop(&s, &mut decks, window_start + WINDOW, None);
        let window = window_start.elapsed();
        active += window;
        let f = calib.sample();
        out.attempted += done.len() as u64;
        out.failed += done.iter().filter(|d| d.posted.is_none()).count() as u64;
        let jobs: usize = done
            .iter()
            .filter(|d| d.posted.is_some())
            .map(|d| d.jobs.len())
            .sum();
        raw_rates.push(jobs as f64 / window.as_secs_f64());
        rates.push(jobs as f64 / (window.as_secs_f64() * f));
        raw_lat_ms.extend(done.iter().map(|d| d.latency_ms));
        lat_ms.extend(done.iter().map(|d| d.latency_ms * f));
    }
    out.raw.insert("items_per_s", median(&raw_rates));
    crate::latency_metrics(&mut out.raw, &mut raw_lat_ms);
    out.calib_ms = calib.samples;
    let m = &mut out.metrics;
    m.insert("items_per_s", median(&rates));
    crate::latency_metrics(m, &mut lat_ms);
    m.insert("sim_cycles", s.pass_cycles as f64);
    m.insert("program_bits", s.pass_bits as f64);
    m.insert("frontier_hv", s.hv);
    s.server.shutdown();
    Ok(out)
}

/// Replay one traced request in-process with a span per layer call:
/// `schema::parse_batch`, then per job the steps of `eval::run_prepared`
/// (cache lookup, simulation, golden check) and `eval::job_report_json`.
/// Every replayed report must equal the one the server sent. Returns the
/// request's replay time, seconds.
fn replay(
    t: &Tracer,
    s: &Setup,
    id: u64,
    jobs: &[usize],
    posted: &Posted,
    cycles: &mut [u64; 3],
) -> Result<f64, String> {
    let root = t.begin("serve.replay", id, 0, None);
    let req = t
        .time("serve.parse", root, || {
            schema::parse_batch(&posted.body, usize::MAX)
        })
        .map_err(|e| format!("parse: {}", e.message))?;
    for (j, spec) in req.jobs.iter().enumerate() {
        let pair = &s.pairs[jobs[j]];
        let p = &s.prepared[pair.kernel];
        if spec.machine != pair.machine.name || spec.kernel != p.name {
            return Err(format!("job {j} parsed as {spec:?}"));
        }
        let svc = t.begin("serve.service", id, 0, Some(root));
        let (compiled, tiers) = t.time("cache.lookup", svc, || {
            eval::compile_cached(p, &pair.machine)
        });
        let style = style(&compiled.program);
        let result = t.time(SIM_SPANS[style], svc, || {
            tta_sim::run_with_tiers(
                &pair.machine,
                &compiled.program,
                p.module.initial_memory(),
                tta_sim::DEFAULT_FUEL,
                &tiers,
            )
        });
        let result = result.map_err(|e| format!("job {j}: {e}"))?;
        if Some(result.ret) != p.golden_ret {
            return Err(format!("job {j}: ret {} != golden", result.ret));
        }
        cycles[style] += result.cycles;
        let run = KernelRun {
            kernel: p.name.to_string(),
            cycles: result.cycles,
            program_len: compiled.program.len(),
            image_bits: compiled.program.image_bits(&pair.machine),
            sim: result.stats,
            tta: compiled.stats.tta,
            spilled: compiled.stats.spilled,
        };
        t.end(svc);
        let text = t.time("serve.encode", root, || {
            eval::job_report_json(&pair.machine.name, &run).to_compact()
        });
        if text != posted.reports[j] {
            return Err(format!(
                "job {j}: replayed report differs from the served one"
            ));
        }
    }
    Ok(t.end(root))
}

/// The traced run: the per-layer metrics. One-second phases of the
/// closed loop rotate through default, telemetry-off and traced modes;
/// the traced phases' requests are then replayed in-process, a span per
/// layer call.
pub fn run_traced(seed: u64, seconds: f64, t: &Tracer) -> Result<Outcome, String> {
    let s = setup()?;
    let cache0 = layers::cache_counters();
    let mut decks = decks(seed, s.pairs.len());
    let mut out = Outcome::default();
    let (mut trace_pairs, mut obs_pairs) = (Vec::new(), Vec::new());
    let mut traced: Vec<Done> = Vec::new();
    let mut calib = Calib::new(SIM_THREADS);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0usize;
    while Instant::now() < deadline {
        // Host-normalised seconds per job in each mode: default,
        // telemetry off, traced.
        let mut per_job = [0.0; 3];
        for k in 0..3 {
            let mode = (round + k) % 3;
            tta_obs::set_enabled(mode != 1);
            let phase_start = Instant::now();
            let done = closed_loop(
                &s,
                &mut decks,
                phase_start + PHASE,
                (mode == 2).then_some(t),
            );
            let jobs: usize = done
                .iter()
                .filter(|d| d.posted.is_some())
                .map(|d| d.jobs.len())
                .sum();
            let elapsed = phase_start.elapsed().as_secs_f64();
            per_job[mode] = ratio(elapsed * calib.sample(), jobs as f64);
            out.attempted += done.len() as u64;
            out.failed += done.iter().filter(|d| d.posted.is_none()).count() as u64;
            if mode == 2 {
                traced.extend(done);
            }
        }
        trace_pairs.push((per_job[2], per_job[0]));
        obs_pairs.push((per_job[0], per_job[1]));
        round += 1;
    }
    tta_obs::set_enabled(true);

    let (p0, f0) = (
        layers::counter("sim.jit.promotions"),
        layers::counter("sim.jit.fallbacks"),
    );
    let mut cycles = [0u64; 3];
    let mut overhead_ms = Vec::new();
    let mut lat_ms: Vec<f64> = traced.iter().map(|d| d.latency_ms).collect();
    for d in traced
        .iter()
        .filter(|d| d.posted.is_some())
        .take(REPLAY_MAX)
    {
        let posted = d.posted.as_ref().expect("filtered");
        match replay(t, &s, d.id, &d.jobs, posted, &mut cycles) {
            Ok(replay_s) => overhead_ms.push(d.latency_ms - replay_s * 1e3),
            Err(e) => {
                out.failed += 1;
                eprintln!("serve_closed_loop: replay of request {} failed: {e}", d.id);
            }
        }
    }
    let m = &mut out.metrics;
    let replay_s = t.total("serve.replay").0;
    layers::sim_metrics(m, t, cycles, replay_s);
    m.insert(
        "sim.jit.promotions",
        (layers::counter("sim.jit.promotions") - p0) as f64,
    );
    m.insert(
        "sim.jit.fallbacks",
        (layers::counter("sim.jit.fallbacks") - f0) as f64,
    );
    layers::cache_metrics(m, cache0);
    let med = |name: &str, scale: f64| {
        let d = t.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * scale
        }
    };
    m.insert("serve.parse_us", med("serve.parse", 1e6));
    m.insert("serve.service_ms", med("serve.service", 1e3));
    m.insert("serve.encode_us", med("serve.encode", 1e6));
    m.insert(
        "serve.overhead_ms",
        if overhead_ms.is_empty() {
            0.0
        } else {
            median(&overhead_ms)
        },
    );
    m.insert("obs.trace_overhead", layers::overhead(&trace_pairs));
    m.insert("obs.telemetry_overhead", layers::overhead(&obs_pairs));
    if !lat_ms.is_empty() {
        crate::latency_metrics(m, &mut lat_ms);
    }
    layers::common_layers(m);
    layers::zero_fill(m);
    s.server.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_line(job: usize, report: &str) -> String {
        format!("{{\"obs_version\":1,\"trace_id\":\"t-1\",\"job\":{job},\"ok\":true,\"report\":{report}}}")
    }

    const SUMMARY: &str =
        "{\"obs_version\":1,\"trace_id\":\"t-1\",\"summary\":true,\"jobs\":2,\"ok\":2,\"errors\":0,\"timed_out\":false,\"wall_ms\":1.5}";

    #[test]
    fn report_parity_accepts_identical_reports_in_any_order() {
        let a = "{\"machine\":\"m-tta-2\",\"kernel\":\"sha\",\"cycles\":10}";
        let b = "{\"machine\":\"m-vliw-2\",\"kernel\":\"aes\",\"cycles\":20}";
        let lines = [job_line(1, b), job_line(0, a), SUMMARY.to_string()];
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let got = check_response(200, &lines, &[a, b]).unwrap();
        assert_eq!(got, vec![a.to_string(), b.to_string()]);
    }

    #[test]
    fn report_parity_rejects_a_changed_byte_or_a_missing_job() {
        let a = "{\"machine\":\"m-tta-2\",\"kernel\":\"sha\",\"cycles\":10}";
        let b = "{\"machine\":\"m-vliw-2\",\"kernel\":\"aes\",\"cycles\":20}";
        let changed = "{\"machine\":\"m-vliw-2\",\"kernel\":\"aes\",\"cycles\":21}";
        let lines = [job_line(0, a), job_line(1, changed), SUMMARY.to_string()];
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        assert!(check_response(200, &lines, &[a, b])
            .unwrap_err()
            .contains("job 1"));
        let twice = [job_line(0, a), job_line(0, a), SUMMARY.to_string()];
        let twice: Vec<&str> = twice.iter().map(String::as_str).collect();
        assert!(check_response(200, &twice, &[a, b]).is_err());
        let lines = [job_line(0, a), job_line(1, b), SUMMARY.to_string()];
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        assert!(check_response(500, &lines, &[a, b]).is_err());
    }

    #[test]
    fn decks_deal_every_pair_once_per_deck() {
        let mut d = Deck::new(7, 0, 104);
        let mut seen: Vec<usize> = (0..13).flat_map(|_| d.deal(BATCH)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..104).collect::<Vec<_>>());
        assert_eq!(Deck::new(7, 0, 104).deal(16), Deck::new(7, 0, 104).deal(16));
        assert_ne!(Deck::new(7, 0, 104).deal(16), Deck::new(7, 1, 104).deal(16));
    }

    /// Two set-ups report identical counts, every request of a short
    /// closed loop passes its checks, and one pass over the 104 pairs
    /// simulates exactly the snapshot's cycles.
    #[test]
    fn serve_counts_are_exact_and_repeat() {
        let counts = |seed| {
            let s = setup().unwrap();
            let mut decks = decks(seed, s.pairs.len());
            let now = Instant::now();
            let done = closed_loop(&s, &mut decks, now + Duration::from_millis(300), None);
            assert!(!done.is_empty() && done.iter().all(|d| d.posted.is_some()));
            let counts = (s.pass_cycles, s.pass_bits, s.hv);
            s.server.shutdown();
            counts
        };
        let a = counts(1);
        assert_eq!(a, counts(2));
        assert_eq!(a.0, 15_605_466);
    }
}

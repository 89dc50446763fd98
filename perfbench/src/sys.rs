//! Process-level plumbing: peak memory, run metadata, output files and
//! the benchmark's child processes.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tta_obs::json::Json;

use crate::calib;

/// Where traces and run metadata are written (ignored by git).
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The run's metadata, from the benchmark's own arguments, constants and
/// environment reads — never from telemetry, so `TTA_OBS=0` cannot
/// change it.
pub fn metadata(workload: &str, seed: u64, seconds: f64, trace: bool, threads: Json) -> Json {
    let mut env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k == "TTA_OBS" || k == "TTA_EVAL_THREADS" || k.starts_with("TTA_JIT"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("threads".into(), threads),
        ("env".into(), Json::Obj(env)),
    ])
}

/// Add what an untraced run measured besides its metrics to its
/// metadata: operations, latency samples and the tail percentile used,
/// the timed metrics as measured, the set-up times as measured, and the
/// calibration samples.
pub fn add_run_facts(meta: &mut Json, out: &crate::Outcome, raw_setups: &[f64]) {
    let Json::Obj(fields) = meta else {
        return;
    };
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let raw = out
        .raw
        .iter()
        .map(|(k, &v)| (k.to_string(), Json::Num(v)))
        .collect();
    let get = |k: &str| Json::Num(out.metrics.get(k).copied().unwrap_or(0.0));
    fields.extend([
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("latency_samples".into(), get("latency.samples")),
        ("latency_tail_q".into(), get("latency.tail_q")),
        ("raw".into(), Json::Obj(raw)),
        ("raw_setup_s".into(), nums(raw_setups)),
        ("calib_ms".into(), nums(&out.calib_ms)),
    ]);
}

/// Write `doc` to `OUT_DIR/name`; a failure is reported, not fatal.
pub fn write_out(name: &str, doc: &Json) {
    let path = format!("{OUT_DIR}/{name}");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.to_compact()));
    match written {
        Ok(()) => eprintln!("perfbench: wrote {path}"),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}

/// A child process of this benchmark binary, with its stdout read line
/// by line.
pub struct ChildRun {
    child: Child,
    lines: std::io::Lines<BufReader<ChildStdout>>,
    started: Instant,
}

impl ChildRun {
    /// Start this executable with `args` (and extra environment).
    pub fn spawn(args: &[String], env: &[(&str, &str)]) -> std::io::Result<ChildRun> {
        let exe = std::env::current_exe()?;
        let started = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(ChildRun {
            child,
            lines: BufReader::new(stdout).lines(),
            started,
        })
    }

    /// Read until the child prints `line`; returns the time since spawn.
    pub fn wait_for(&mut self, line: &str) -> Result<Duration, String> {
        for l in self.lines.by_ref() {
            let l = l.map_err(|e| format!("child stdout: {e}"))?;
            if l == line {
                return Ok(self.started.elapsed());
            }
        }
        Err(format!("child exited before printing {line:?}"))
    }

    /// Read the rest of the child's output, wait for it to exit, and
    /// return its last line (an error if it failed).
    pub fn finish(mut self) -> Result<Option<String>, String> {
        let mut last = None;
        for l in self.lines.by_ref() {
            last = Some(l.map_err(|e| format!("child stdout: {e}"))?);
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("child failed: {status}"));
        }
        Ok(last)
    }
}

impl Drop for ChildRun {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Set-up probes spread over a run. Each probe is a fresh process that
/// runs the workload's set-up (`--child setup`) and reports when it is
/// done; `setup_s` is the median of their host-normalised times (the
/// reference is timed just before and after each probe, see
/// [`crate::calib`]). The host's speed swings within seconds, so probes
/// taken back to back would sample one moment of it: the workloads call
/// [`Probes::due`] at pause points instead, and the time a probe takes is
/// kept out of their measurements.
pub struct Probes {
    workload: &'static str,
    reps: usize,
    every: Duration,
    next: Instant,
    /// Host-normalised set-up times, seconds.
    times: Vec<f64>,
    /// The same, as measured.
    raw: Vec<f64>,
}

impl Probes {
    /// `reps` probes, one due every `seconds / reps`.
    pub fn new(workload: &'static str, seconds: f64, reps: usize) -> Probes {
        Probes {
            workload,
            reps,
            every: Duration::from_secs_f64(seconds / reps as f64),
            next: Instant::now(),
            times: Vec::new(),
            raw: Vec::new(),
        }
    }

    fn probe(&mut self) -> Result<(), String> {
        let args: Vec<String> = ["--child", "setup", "--workload", self.workload]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let before_ms = calib::reference_ms();
        let mut c = ChildRun::spawn(&args, &[]).map_err(|e| format!("spawn: {e}"))?;
        let t = c.wait_for("ready")?.as_secs_f64();
        c.finish()?;
        let f = calib::factor((before_ms + calib::reference_ms()) / 2.0);
        self.raw.push(t);
        self.times.push(t * f);
        Ok(())
    }

    /// Run the probes that are due; returns the time they took (zero when
    /// none was due).
    pub fn due(&mut self) -> Result<Duration, String> {
        let now = Instant::now();
        while now >= self.next && self.times.len() < self.reps {
            self.next += self.every;
            self.probe()?;
        }
        Ok(now.elapsed())
    }

    /// Run the probes still missing; returns every set-up time, seconds,
    /// host-normalised and as measured.
    pub fn finish(mut self) -> Result<(Vec<f64>, Vec<f64>), String> {
        while self.times.len() < self.reps {
            self.probe()?;
        }
        Ok((self.times, self.raw))
    }
}

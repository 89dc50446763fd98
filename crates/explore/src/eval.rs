//! The paper's evaluation pipeline: compile every kernel for every design
//! point, simulate cycle-accurately, estimate FPGA cost, and collect the
//! raw numbers behind Tables II–IV and Figs. 5–6.
//!
//! Stage timing is recorded through `tta-obs` spans: [`evaluate`] opens a
//! root `eval` span, workers attach to it, and the compiler/simulator
//! crates charge their own `compile`/`simulate` spans underneath, so the
//! whole call aggregates as one `eval/...` subtree in the obs run report.
//! [`last_timing`] reads that subtree back in the historical
//! [`EvalTiming`] shape.

use std::sync::{Arc, Mutex, OnceLock};
use tta_chstone::reactive::ReactiveGuest;
use tta_chstone::Kernel;
use tta_compiler::{compile, CompileError, Compiled, Prepared};
use tta_fpga::Resources;
use tta_ir::interp::Interpreter;
use tta_isa::encoding;
use tta_model::io::IoSystem;
use tta_model::{presets, Machine};
use tta_obs as obs;
use tta_obs::json::Json;
use tta_sim::SimStats;

use crate::cache::{self, CompileCache};
use crate::queue;

/// Cumulative per-stage timing of the most recent [`evaluate`] call.
///
/// Stage fields are summed across worker threads (thread-seconds, not
/// wall-clock); `wall_s` and `threads` describe the call itself. Backed
/// by the `eval/...` spans of the obs registry (all zero when obs is
/// disabled). Retrieved with [`last_timing`] and emitted by the
/// `bench_eval` binary into `BENCH_eval.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalTiming {
    /// Building kernel IR modules from their builders.
    pub build_ir_s: f64,
    /// Golden-model interpreter runs.
    pub golden_interp_s: f64,
    /// Compilation (all passes + scheduling).
    pub compile_s: f64,
    /// Cycle-accurate simulation.
    pub simulate_s: f64,
    /// Result verification plus FPGA estimation and encoding-width work.
    pub verify_estimate_s: f64,
    /// Wall-clock of the whole evaluate call.
    pub wall_s: f64,
    /// Worker threads used.
    pub threads: usize,
}

/// Per-stage timing of the most recent [`evaluate`] call in this process,
/// read back from the obs span registry.
pub fn last_timing() -> EvalTiming {
    let s = |p: &str| obs::span::stat(p).map_or(0.0, |(total_s, _)| total_s);
    EvalTiming {
        build_ir_s: s("eval/build_ir"),
        golden_interp_s: s("eval/golden_interp"),
        compile_s: s("eval/compile"),
        simulate_s: s("eval/simulate"),
        verify_estimate_s: s("eval/verify_estimate"),
        wall_s: s("eval"),
        threads: obs::counter::get_gauge("eval.threads").unwrap_or(0).max(0) as usize,
    }
}

/// Worker threads for [`evaluate`] (and the serve layer's simulation
/// pool): the `TTA_EVAL_THREADS` environment variable when set to a
/// positive integer, otherwise every available core; always capped at
/// the job count (pass `usize::MAX` for an uncapped long-lived pool).
pub fn eval_threads(n_jobs: usize) -> usize {
    std::env::var("TTA_EVAL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8)
        })
        .min(n_jobs.max(1))
}

/// One kernel executed on one machine.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub kernel: String,
    /// Cycle count from the cycle-accurate simulation.
    pub cycles: u64,
    /// Static program length in instructions.
    pub program_len: usize,
    /// Program image size in bits.
    pub image_bits: u64,
    /// Dynamic statistics.
    pub sim: SimStats,
    /// TTA schedule quality (zeroed for other styles).
    pub tta: tta_compiler::tta_sched::TtaStats,
    /// Register values spilled during allocation.
    pub spilled: usize,
}

/// A design point with its estimated resources and per-kernel results.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Paper name of the design point.
    pub name: String,
    /// The machine description.
    pub machine: Machine,
    /// FPGA cost estimate.
    pub resources: Resources,
    /// Instruction width in bits.
    pub instr_bits: u32,
    /// One entry per kernel, in kernel order.
    pub runs: Vec<KernelRun>,
}

impl MachineReport {
    /// The run for a named kernel.
    pub fn run(&self, kernel: &str) -> &KernelRun {
        self.runs
            .iter()
            .find(|r| r.kernel == kernel)
            .unwrap_or_else(|| panic!("no run of {kernel} on {}", self.name))
    }

    /// Geometric-mean cycle count across kernels.
    pub fn geomean_cycles(&self) -> f64 {
        let s: f64 = self.runs.iter().map(|r| (r.cycles as f64).ln()).sum();
        (s / self.runs.len() as f64).exp()
    }

    /// Geometric-mean runtime in microseconds at the estimated fmax.
    pub fn geomean_runtime_us(&self) -> f64 {
        self.geomean_cycles() / self.resources.fmax_mhz
    }
}

/// A kernel with its IR module built and golden return value interpreted —
/// both machine-independent, so [`evaluate`] (and the batch server) does
/// this once per kernel instead of once per (kernel × machine). The
/// compiler's machine-independent front half is kept here too, built on
/// the first compile-cache miss ([`PreparedKernel::front`]).
pub struct PreparedKernel {
    /// Kernel name.
    pub name: &'static str,
    /// The built IR module.
    pub module: tta_ir::Module,
    /// The golden interpreter's return value.
    pub golden_ret: Option<i32>,
    /// The golden interpreter's dynamic execution counts —
    /// machine-independent demand the design-space search turns into
    /// per-config cycle lower bounds without compiling anything.
    pub golden_stats: tta_ir::interp::ExecStats,
    /// Content hash of the kernel's IR text (compile-cache key half).
    pub ir_hash: u64,
    /// The compiler front half, filled once by [`PreparedKernel::front`].
    front: OnceLock<Result<Prepared, CompileError>>,
}

impl PreparedKernel {
    /// The module run through the compiler's machine-independent front
    /// half ([`tta_compiler::prepare`], charged to a `compile` span), on
    /// the first call only. [`prepare_kernel`] leaves it empty: callers
    /// that only hit the compile cache never pay for it.
    pub fn front(&self) -> Result<&Prepared, &CompileError> {
        self.front
            .get_or_init(|| tta_compiler::prepare(&self.module))
            .as_ref()
    }
}

/// Build a kernel's IR module and run the golden interpreter once,
/// charging the `build_ir`/`golden_interp` spans.
pub fn prepare_kernel(kernel: &Kernel) -> PreparedKernel {
    let module = {
        let _s = obs::span("build_ir");
        (kernel.build)()
    };
    let golden = {
        let _s = obs::span("golden_interp");
        Interpreter::new(&module).run(&[]).expect("interpreter")
    };
    let ir_hash = cache::hash_of(&tta_ir::module_to_text(&module));
    PreparedKernel {
        name: kernel.name,
        module,
        golden_ret: golden.ret,
        golden_stats: golden.stats,
        ir_hash,
        front: OnceLock::new(),
    }
}

/// Compile through the process-wide sharded content-keyed cache
/// ([`crate::cache`]). Each (machine × kernel) pair compiles exactly
/// once per process (while resident), however many callers revisit it.
pub fn compile_cached(
    p: &PreparedKernel,
    machine: &Machine,
) -> (Arc<Compiled>, Arc<tta_sim::Tiers>) {
    let key = CompileCache::key_for(machine, p.ir_hash);
    cache::global().get_or_compile(key, p, machine)
}

/// Compile + simulate one prepared kernel on one machine and verify the
/// result against the golden model. The compiler and simulator charge
/// their own `compile`/`simulate` spans under this thread's ambient span.
///
/// # Panics
/// On compile or simulation failure, and when the simulated return value
/// disagrees with the golden interpreter — all three indicate toolchain
/// bugs (callers that must stay alive, like the batch server, catch the
/// unwind and report a structured error instead).
pub fn run_prepared(p: &PreparedKernel, machine: &Machine) -> KernelRun {
    let (compiled, tiers) = compile_cached(p, machine);
    let result = tta_sim::run_with_tiers(
        machine,
        &compiled.program,
        p.module.initial_memory(),
        tta_sim::DEFAULT_FUEL,
        &tiers,
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", p.name, machine.name));
    {
        let _s = obs::span("verify_estimate");
        // Guard the evaluation numbers with the golden model.
        assert_eq!(
            Some(result.ret),
            p.golden_ret,
            "{} on {}",
            p.name,
            machine.name
        );
    }
    KernelRun {
        kernel: p.name.to_string(),
        cycles: result.cycles,
        program_len: compiled.program.len(),
        image_bits: compiled.program.image_bits(machine),
        sim: result.stats,
        tta: compiled.stats.tta,
        spilled: compiled.stats.spilled,
    }
}

/// Run one kernel on one machine (compile + simulate + verify against the
/// interpreter).
pub fn run_kernel(kernel: &Kernel, machine: &Machine) -> KernelRun {
    run_prepared(&prepare_kernel(kernel), machine)
}

/// Evaluate `kernels` on `machines`.
///
/// Kernel modules and golden interpreter runs happen once per kernel; the
/// remaining (machine × kernel) compile/simulate jobs are then drained by a
/// pool of workers off a shared atomic counter, so a slow machine's jobs
/// spread across threads instead of serialising on one
/// machine-per-thread worker.
pub fn evaluate(machines: &[Machine], kernels: &[Kernel]) -> Vec<MachineReport> {
    let n_jobs = machines.len() * kernels.len();
    let threads = eval_threads(n_jobs);
    // Zero this call's subtree so `last_timing` describes the most recent
    // call — the historical contract of the old stage accumulators.
    obs::span::reset_prefix("eval");
    obs::counter::set_gauge("eval.threads", threads as i64);
    let eval_span = obs::span_under(obs::SpanHandle::ROOT, "eval");
    let here = obs::current();

    let prepared: Vec<PreparedKernel> = kernels.iter().map(prepare_kernel).collect();

    // One result slot per job; each is written by exactly one worker.
    let slots: Vec<Mutex<Option<KernelRun>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    queue::drain_indexed(n_jobs, threads, here, |ji| {
        let (mi, ki) = (ji / kernels.len(), ji % kernels.len());
        let run = run_prepared(&prepared[ki], &machines[mi]);
        *slots[ji].lock().unwrap() = Some(run);
    });

    let mut runs = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("job completed"));
    let reports = machines
        .iter()
        .map(|machine| {
            let runs: Vec<KernelRun> = runs.by_ref().take(kernels.len()).collect();
            let _s = obs::span("verify_estimate");
            MachineReport {
                name: machine.name.clone(),
                machine: machine.clone(),
                resources: tta_fpga::estimate(machine),
                instr_bits: encoding::instruction_bits(machine),
                runs,
            }
        })
        .collect();
    drop(eval_span);
    reports
}

/// Evaluate all eight kernels on all thirteen design points.
pub fn evaluate_all() -> Vec<MachineReport> {
    evaluate(&presets::all_design_points(), &tta_chstone::all_kernels())
}

/// The canonical machine-readable form of one [`KernelRun`] — the per-job
/// payload the batch server streams as NDJSON. Built from the same
/// [`KernelRun`] values [`evaluate`] produces, so a served job's report is
/// bit-identical to the equivalent single-run evaluation (the simulators
/// are cycle-deterministic and the compile cache is shared).
pub fn job_report_json(machine: &str, run: &KernelRun) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("machine".into(), Json::Str(machine.into())),
        ("kernel".into(), Json::Str(run.kernel.clone())),
        ("cycles".into(), n(run.cycles)),
        ("program_len".into(), Json::Num(run.program_len as f64)),
        ("image_bits".into(), n(run.image_bits)),
        ("spilled".into(), Json::Num(run.spilled as f64)),
        (
            "sim".into(),
            Json::Obj(vec![
                ("instructions".into(), n(run.sim.instructions)),
                ("payload".into(), n(run.sim.payload)),
                ("rf_reads".into(), n(run.sim.rf_reads)),
                ("rf_writes".into(), n(run.sim.rf_writes)),
                ("bypass_reads".into(), n(run.sim.bypass_reads)),
                ("limms".into(), n(run.sim.limms)),
                ("branches_taken".into(), n(run.sim.branches_taken)),
                ("stall_cycles".into(), n(run.sim.stall_cycles)),
                ("loads".into(), n(run.sim.loads)),
                ("stores".into(), n(run.sim.stores)),
            ]),
        ),
    ])
}

/// One reactive guest executed on one machine: cycle numbers plus the
/// interrupt-side observables.
#[derive(Debug, Clone)]
pub struct ReactiveRun {
    /// Guest name.
    pub guest: String,
    /// Cycle count from the cycle-accurate simulation.
    pub cycles: u64,
    /// Interrupts delivered during the run.
    pub irqs: u64,
    /// Cycles charged to trap entry/return overhead.
    pub irq_cycles: u64,
    /// The UART transmit stream (bit-identical across styles by
    /// construction of the guests).
    pub uart_tx: Vec<u8>,
    /// Dynamic statistics.
    pub sim: SimStats,
}

/// Compile + simulate one reactive guest on one machine under the
/// guest's own I/O spec, verified three ways: the golden interpreter run
/// must match the guest's native expected checksum and transmit stream,
/// and the simulated run must match both.
///
/// Interrupt *counts* are only checked against the golden run for
/// guests driven by an external schedule; self-clocked guests (the
/// timer producer/consumer) legitimately take a style-dependent number
/// of interrupts, which is exactly why their checksums are
/// timing-invariant.
pub fn run_reactive(guest: &ReactiveGuest, machine: &Machine) -> ReactiveRun {
    let module = {
        let _s = obs::span("build_ir");
        (guest.build)()
    };
    let spec = (guest.spec)();
    let (golden_ret, golden_tx, golden_irqs) = {
        let _s = obs::span("golden_interp");
        let mut io = IoSystem::new(&spec);
        let r = Interpreter::new(&module)
            .run_with_io(&[], &mut io)
            .unwrap_or_else(|e| panic!("{} interpreter: {e}", guest.name));
        (r.ret, io.uart_tx(), io.irqs_delivered)
    };
    let compiled = compile(&module, machine)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", guest.name, machine.name));
    let result = tta_sim::run_with_io(
        machine,
        &compiled.program,
        module.initial_memory(),
        tta_sim::DEFAULT_FUEL,
        &spec,
        compiled.irq_entry,
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", guest.name, machine.name));
    {
        let _s = obs::span("verify_estimate");
        assert_eq!(
            golden_ret,
            Some((guest.expected)()),
            "{}: golden interpreter vs native checksum",
            guest.name
        );
        assert_eq!(
            golden_tx,
            (guest.expected_tx)(),
            "{}: golden interpreter transmit stream",
            guest.name
        );
        assert_eq!(
            result.ret,
            (guest.expected)(),
            "{} on {}: checksum (tx {:x?}, stats {:?})",
            guest.name,
            machine.name,
            result.uart_tx,
            result.stats
        );
        assert_eq!(
            result.uart_tx, golden_tx,
            "{} on {}: transmit stream",
            guest.name, machine.name
        );
        if spec.uart_irq_on_rx || !spec.schedule.is_empty() {
            assert_eq!(
                result.stats.irqs, golden_irqs,
                "{} on {}: interrupts delivered",
                guest.name, machine.name
            );
        }
        assert!(
            result.stats.irqs > 0,
            "{} on {}: a reactive guest must actually take interrupts",
            guest.name,
            machine.name
        );
    }
    ReactiveRun {
        guest: guest.name.to_string(),
        cycles: result.cycles,
        irqs: result.stats.irqs,
        irq_cycles: result.stats.irq_cycles,
        uart_tx: result.uart_tx,
        sim: result.stats,
    }
}

/// Evaluate reactive guests on `machines`: one `(machine name, runs)`
/// entry per machine, guests in order. The jobs are few (guests ×
/// machines) and sub-millisecond, so this runs serially under one
/// `eval` span.
pub fn evaluate_reactive(
    machines: &[Machine],
    guests: &[ReactiveGuest],
) -> Vec<(String, Vec<ReactiveRun>)> {
    let eval_span = obs::span_under(obs::SpanHandle::ROOT, "eval");
    let reports = machines
        .iter()
        .map(|m| {
            let runs = guests.iter().map(|g| run_reactive(g, m)).collect();
            (m.name.clone(), runs)
        })
        .collect();
    drop(eval_span);
    reports
}

/// Evaluate all reactive example guests on all thirteen design points.
pub fn evaluate_reactive_all() -> Vec<(String, Vec<ReactiveRun>)> {
    evaluate_reactive(
        &presets::all_design_points(),
        &tta_chstone::reactive::all_guests(),
    )
}

/// The issue-width class a design point is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueClass {
    /// mblaze-3/5, m-tta-1 (normalised to mblaze-3).
    Single,
    /// the 2-issue machines (normalised to m-vliw-2).
    Two,
    /// the 3-issue machines (normalised to m-vliw-3).
    Three,
}

/// Classify a report by its machine's issue width.
pub fn issue_class(m: &Machine) -> IssueClass {
    match m.issue_width {
        1 => IssueClass::Single,
        2 => IssueClass::Two,
        _ => IssueClass::Three,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eval tests share the global obs registry (the `eval` subtree
    /// is reset per call), so they must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn small_eval() -> Vec<MachineReport> {
        let machines = vec![presets::mblaze_3(), presets::m_vliw_2(), presets::m_tta_2()];
        let kernels: Vec<Kernel> = ["sha", "motion"]
            .iter()
            .map(|n| tta_chstone::by_name(n).unwrap())
            .collect();
        evaluate(&machines, &kernels)
    }

    #[test]
    fn evaluation_produces_ordered_reports() {
        let _l = lock();
        let reports = small_eval();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].name, "mblaze-3");
        assert_eq!(reports[2].name, "m-tta-2");
        for r in &reports {
            assert_eq!(r.runs.len(), 2);
            assert!(r.runs.iter().all(|k| k.cycles > 0));
            assert!(r.resources.fmax_mhz > 50.0);
        }
    }

    #[test]
    fn geomeans_are_positive_and_bounded() {
        let _l = lock();
        let reports = small_eval();
        for r in &reports {
            let g = r.geomean_cycles();
            let min = r.runs.iter().map(|k| k.cycles).min().unwrap() as f64;
            let max = r.runs.iter().map(|k| k.cycles).max().unwrap() as f64;
            assert!(
                g >= min && g <= max,
                "{}: {g} not within [{min}, {max}]",
                r.name
            );
        }
    }

    #[test]
    fn tta_beats_vliw_in_cycles_on_this_sample() {
        let _l = lock();
        let reports = small_eval();
        let vliw = reports[1].geomean_cycles();
        let tta = reports[2].geomean_cycles();
        assert!(tta < vliw, "m-tta-2 {tta} vs m-vliw-2 {vliw}");
    }

    #[test]
    fn timing_comes_from_obs_spans() {
        let _l = lock();
        let _ = small_eval();
        let t = last_timing();
        assert!(t.wall_s > 0.0, "{t:?}");
        assert!(t.compile_s > 0.0, "{t:?}");
        assert!(t.simulate_s > 0.0, "{t:?}");
        assert!(t.golden_interp_s > 0.0, "{t:?}");
        assert!(t.threads >= 1, "{t:?}");
        // Thread-seconds can exceed wall-clock, but never by more than the
        // worker count.
        let stages = t.compile_s + t.simulate_s + t.verify_estimate_s;
        assert!(stages <= t.wall_s * t.threads as f64 + 0.5, "{t:?}");
    }

    /// The full reactive sweep: every example guest on every design
    /// point converges on its timing-invariant checksum and an
    /// identical UART transmit stream (`run_reactive` asserts both
    /// internally), and the interrupt observables are live.
    #[test]
    fn reactive_guests_sweep_all_design_points() {
        let _l = lock();
        let reports = evaluate_reactive_all();
        assert_eq!(reports.len(), presets::all_design_points().len());
        let guests = tta_chstone::reactive::all_guests();
        for (name, runs) in &reports {
            assert_eq!(runs.len(), guests.len(), "{name}");
            for r in runs {
                assert!(r.cycles > 0, "{name}/{}", r.guest);
                assert!(r.irqs > 0, "{name}/{}", r.guest);
                assert!(
                    r.irq_cycles > 0,
                    "{name}/{}: trap overhead must be charged",
                    r.guest
                );
            }
        }
        // The transmit stream is style-invariant: every machine saw the
        // same bytes for the same guest.
        for gi in 0..guests.len() {
            let first = &reports[0].1[gi].uart_tx;
            for (name, runs) in &reports {
                assert_eq!(&runs[gi].uart_tx, first, "{name}/{}", runs[gi].guest);
            }
        }
        // And the sweep charged the eval span tree.
        assert!(last_timing().golden_interp_s > 0.0);
    }

    #[test]
    fn issue_classes() {
        assert_eq!(issue_class(&presets::mblaze_3()), IssueClass::Single);
        assert_eq!(issue_class(&presets::p_tta_2()), IssueClass::Two);
        assert_eq!(issue_class(&presets::bm_tta_3()), IssueClass::Three);
    }
}

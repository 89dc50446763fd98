//! Parallel Pareto-frontier search over the generated config space.
//!
//! Where [`crate::eval`] *enumerates* the paper's 13 design points, this
//! module *searches* the ~1500-config space of [`tta_model::gen`] on the
//! paper's Fig. 6 axes — geomean runtime at the estimated fmax versus
//! slices — and keeps the non-dominated set. The throughput story is a
//! staged evaluation funnel; each stage prunes before the next pays:
//!
//! 1. **Analytic** (µs/config, no compiler): the `tta-fpga` area/fmax
//!    estimate plus a machine-independent cycle *lower bound* derived
//!    from the golden interpreter's dynamic counts ([`KernelDemand`],
//!    computed once per kernel and shared by every config). Because the
//!    bound is optimistic, pruning a config whose *bound* is strictly
//!    dominated by a frontier point is sound: its real runtime can only
//!    be worse. A Pareto-layered quota then admits the most promising
//!    survivors.
//! 2. **Probe** (couple of compiles/config): short-fuel simulation of the
//!    two dynamically smallest kernels. Pruning here is heuristic —
//!    sampled geomeans are estimates, so a configurable margin keeps
//!    near-frontier configs alive.
//! 3. **Full** (the price [`crate::evaluate`] pays): all kernels,
//!    golden-verified, default fuel — only for frontier candidates, which
//!    insert into the [`Frontier`] one at a time, in finalist order.
//!
//! **Run table.** Both simulating stages read their cycle counts from a
//! table that maps a (datapath, kernel) pair to one golden-checked run,
//! keyed by [`gen::datapath_hash`]. Configs that differ only in their
//! issue-width label (TTA issue 1 and 2 both get one ALU) build the same
//! datapath, and nothing downstream of [`SearchConfig::build`] reads the
//! label, so such *twins* share every run. A probe run that finished
//! within [`PROBE_FUEL`] is the same run as a default-fuel one, so the
//! full evaluation reuses it. Each stage groups its configs by datapath,
//! simulates each missing pair once (in parallel over one representative
//! per group), records the run, failures included, and then builds every
//! config's result from the table. Twins stay separate configs and
//! frontier points: only simulation is shared, so every [`SearchStats`]
//! tally and [`EvalPoint`] is what simulating each config on its own
//! would give. The table lives for one [`search`] call, so repeated
//! searches in one process each pay for their own runs.
//!
//! Compiles all go through the bounded process-wide
//! [`crate::cache::CompileCache`], so a config revisited by a later
//! stage (or a later generation's profile run) never compiles twice.
//! Each stage bumps a `search.*` obs counter.
//!
//! **Determinism.** Same seed, same params ⇒ same frontier and tallies,
//! whatever the thread count: proposals are drawn serially from the
//! seeded PRNG and the generation-start frontier snapshot; each stage
//! picks its representatives serially in stage order, its parallel runs
//! write to per-job slots, and the table, the pruning/admission decisions
//! and the frontier insertions (in finalist order, sorted by structural
//! hash) all replay serially from those slots. The Pareto set itself is
//! insertion-order independent (ties on both axes keep both points,
//! structural duplicates are rejected).
//!
//! Mutation is profile-guided, echoing the dynamic hardware/software
//! partitioning idea: a parent's microarchitectural profile
//! ([`tta_sim::GuestProfile`]) proposes spending hardware where the
//! pressure is (add a bus when move slots saturate, a read port when the
//! RF port-pressure histogram rides its ceiling) and reclaiming it where
//! there is none (drop an idle ALU, shed a bus).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use tta_chstone::Kernel;
use tta_model::gen::{self, SearchConfig, TtaParams, VliwParams};
use tta_model::{presets, CoreStyle, FuKind, Machine};
use tta_obs as obs;
use tta_sim::GuestProfile;
use tta_testutil::Rng;

use crate::eval::{self, PreparedKernel};
use crate::queue;

/// Fuel cap for stage-2 probe simulations: an order of magnitude above
/// any kernel's real cycle count, two orders below [`tta_sim::DEFAULT_FUEL`]
/// — a pathological schedule burns milliseconds, not minutes.
pub const PROBE_FUEL: u64 = 4_000_000;

/// Tuning knobs of one search run. Every field participates in the
/// deterministic replay: same params + same seed ⇒ same frontier.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// PRNG seed for mutation/fresh-config draws.
    pub seed: u64,
    /// Mutation generations after the generation-0 analytic sweep of the
    /// whole space.
    pub generations: usize,
    /// Stage-A survivors admitted to probe simulation per generation
    /// (Pareto-layered admission).
    pub probe_quota: usize,
    /// Probe survivors admitted to full evaluation per generation.
    pub full_quota: usize,
    /// Frontier members expanded (profiled + mutated) per generation.
    pub parents: usize,
    /// Random mutations proposed per parent per generation.
    pub mutants_per_parent: usize,
    /// Fresh uniform-random configs proposed per generation.
    pub fresh_per_generation: usize,
    /// Stage-B pruning margin: a config is dropped only when a frontier
    /// point's probe runtime beats it by more than this fraction at equal
    /// or smaller area. 0 = aggressive, 1 = probe pruning off.
    pub probe_margin: f64,
    /// Probe-kernel count (the dynamically smallest kernels).
    pub probe_kernels: usize,
    /// Kernel subset by name; empty = the full suite.
    pub kernels: Vec<&'static str>,
    /// Worker threads; 0 = [`eval::eval_threads`].
    pub threads: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            seed: 1,
            generations: 6,
            probe_quota: 48,
            full_quota: 16,
            parents: 8,
            mutants_per_parent: 4,
            fresh_per_generation: 16,
            probe_margin: 0.15,
            probe_kernels: 2,
            kernels: Vec::new(),
            threads: 0,
        }
    }
}

/// Machine-independent dynamic demand of one kernel, read off the golden
/// interpreter's counts once and reused for every config's cycle lower
/// bound.
#[derive(Debug, Clone, Copy)]
pub struct KernelDemand {
    /// Dynamic ALU-class operations (non-memory instructions).
    pub alu_ops: u64,
    /// Dynamic loads + stores.
    pub mem_ops: u64,
    /// Dynamic control transfers.
    pub ctrl_ops: u64,
}

impl KernelDemand {
    /// Derive the demand from a prepared kernel's golden stats.
    pub fn of(p: &PreparedKernel) -> KernelDemand {
        let s = &p.golden_stats;
        let mem_ops = s.loads + s.stores;
        KernelDemand {
            alu_ops: s.insts.saturating_sub(mem_ops),
            mem_ops,
            ctrl_ops: s.terminators,
        }
    }

    /// Total dynamic operations.
    pub fn total(&self) -> u64 {
        self.alu_ops + self.mem_ops + self.ctrl_ops
    }
}

/// An *optimistic* cycle count for running a kernel with demand `d` on
/// `m`: the binding structural resource at perfect utilisation. Real
/// schedules pay dependences, transport conflicts, delay slots and
/// spills on top, so `real_cycles >= cycle_lower_bound` always — which
/// is what makes analytic pruning sound.
pub fn cycle_lower_bound(d: &KernelDemand, m: &Machine) -> u64 {
    let n_alu = m
        .funits
        .iter()
        .filter(|f| f.kind == FuKind::Alu)
        .count()
        .max(1) as u64;
    let n_lsu = m
        .funits
        .iter()
        .filter(|f| f.kind == FuKind::Lsu)
        .count()
        .max(1) as u64;
    let per_fu = (d.alu_ops.div_ceil(n_alu)).max(d.mem_ops.div_ceil(n_lsu));
    match m.style {
        // Every operation costs at least its trigger move on some bus.
        CoreStyle::Tta => per_fu.max(d.total().div_ceil(m.buses.len().max(1) as u64)),
        CoreStyle::Vliw => per_fu.max(d.total().div_ceil(m.slots.len().max(1) as u64)),
        CoreStyle::Scalar => d.total(),
    }
}

/// One fully evaluated design point on the Fig. 6 axes.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// The generating config; `None` for paper presets evaluated for
    /// comparison.
    pub config: Option<SearchConfig>,
    /// Machine name.
    pub name: String,
    /// Slices (area axis).
    pub slices: u32,
    /// Core LUTs (finer-grained area, informational).
    pub lut_core: u32,
    /// Estimated fmax in MHz.
    pub fmax_mhz: f64,
    /// Geomean cycle count over the kernel set.
    pub geomean_cycles: f64,
    /// Geomean runtime in µs at fmax (performance axis).
    pub runtime_us: f64,
    /// Geomean runtime over the probe-kernel subset (stage-B pruning
    /// reference; computed from the same full-run cycle counts).
    pub probe_runtime_us: f64,
    /// Name-erased structural hash ([`gen::structural_hash`]).
    pub structural: u64,
}

/// Pareto dominance on (area, runtime): `a` at least as good on both
/// axes and strictly better on one.
pub fn dominates(a: &EvalPoint, b: &EvalPoint) -> bool {
    a.slices <= b.slices
        && a.runtime_us <= b.runtime_us
        && (a.slices < b.slices || a.runtime_us < b.runtime_us)
}

/// The incrementally maintained non-dominated set. Its final contents
/// are independent of insertion order: dominated points never enter (or
/// are swept out by their dominator, whichever arrives first), ties on
/// both axes coexist, and structural duplicates are rejected.
#[derive(Default)]
pub struct Frontier {
    pts: Vec<EvalPoint>,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// Insert `p` if no current point dominates it (and it is not a
    /// structural duplicate), sweeping out any points it dominates.
    /// Returns whether the point was kept.
    pub fn insert(&mut self, p: EvalPoint) -> bool {
        let pts = &mut self.pts;
        if pts.iter().any(|q| q.structural == p.structural) {
            return false;
        }
        if pts.iter().any(|q| dominates(q, &p)) {
            return false;
        }
        pts.retain(|q| !dominates(&p, q));
        pts.push(p);
        true
    }

    /// Current size.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// Whether the frontier holds no points yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current points, sorted by (slices, runtime, structural hash) —
    /// a canonical order so two identical frontiers compare equal.
    pub fn snapshot(&self) -> Vec<EvalPoint> {
        let mut pts = self.pts.clone();
        pts.sort_by(|a, b| {
            a.slices
                .cmp(&b.slices)
                .then(a.runtime_us.total_cmp(&b.runtime_us))
                .then(a.structural.cmp(&b.structural))
        });
        pts
    }
}

/// Funnel tallies of one search run (also mirrored onto `search.*` obs
/// counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Configs proposed (grid + mutations + fresh), pre-dedup.
    pub proposed: u64,
    /// Proposals already seen this run (O(1) rejects).
    pub duplicates: u64,
    /// Proposals outside the space bounds or failing
    /// [`Machine::validate_generated`].
    pub invalid: u64,
    /// Unique valid configs that entered the funnel (received an
    /// analytic estimate).
    pub configs: u64,
    /// Dropped by the analytic stage (bound dominated by the frontier).
    pub analytic_pruned: u64,
    /// Configs still pooled (analyzed but never probed or evaluated)
    /// when the search ended — quota deferral is not a drop.
    pub deferred: u64,
    /// Configs probed (a config, not a kernel run: see `sim_runs`).
    pub probed: u64,
    /// Dropped after probing (margin-dominated by the frontier).
    pub probe_pruned: u64,
    /// Probed configs discarded because a probe kernel ran out of
    /// [`PROBE_FUEL`], returned a value other than the golden one, or
    /// panicked.
    pub eval_failures: u64,
    /// Configs fully evaluated, failed evaluations included.
    pub full_evals: u64,
    /// Full evaluations that failed (a kernel out of fuel, off the golden
    /// value, or panicking); counted in `full_evals` too, never inserted.
    pub full_eval_failures: u64,
    /// Frontier insertions that were kept.
    pub inserted: u64,
    /// Kernel runs simulated by the probe and full stages (counter
    /// `search.sim_runs`).
    pub sim_runs: u64,
    /// Kernel runs the probe and full stages read from the run table
    /// instead of simulating: an issue-width twin's runs, and a full
    /// evaluation's probe kernels (counter `search.runs_reused`).
    pub reused_runs: u64,
    /// Wall-clock of the whole search, seconds.
    pub wall_s: f64,
}

impl SearchStats {
    /// The headline throughput: unique configs through the funnel per
    /// wall-clock second.
    pub fn configs_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.configs as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Result of one [`search`] run.
pub struct SearchOutcome {
    /// The final frontier in canonical order.
    pub frontier: Vec<EvalPoint>,
    /// Funnel tallies.
    pub stats: SearchStats,
}

/// A stage-A survivor: pooled across generations until probed, pruned,
/// or fully evaluated.
struct Analyzed {
    cfg: SearchConfig,
    machine: Machine,
    slices: u32,
    fmax_mhz: f64,
    /// Optimistic analytic runtime bound (µs).
    bound_us: f64,
    /// Probe-stage sampled runtime (µs), once stage B has run — kept so
    /// a config deferred at the full-eval quota never re-simulates.
    probe_us: Option<f64>,
    structural: u64,
}

impl Analyzed {
    /// Best current runtime estimate: the probe sample when we have one,
    /// the analytic bound otherwise.
    fn score_us(&self) -> f64 {
        self.probe_us.unwrap_or(self.bound_us)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v.max(1.0).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Resolve the kernel set (all when `names` is empty).
fn resolve_kernels(names: &[&'static str]) -> Vec<Kernel> {
    if names.is_empty() {
        tta_chstone::all_kernels()
    } else {
        names
            .iter()
            .map(|n| tta_chstone::by_name(n).unwrap_or_else(|| panic!("unknown kernel {n}")))
            .collect()
    }
}

/// Indices of the `count` dynamically smallest kernels — cheapest to
/// compile and simulate, which is what a probe wants.
fn probe_indices(prepared: &[PreparedKernel], count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..prepared.len()).collect();
    order.sort_by_key(|&i| (prepared[i].golden_stats.insts, prepared[i].name));
    order.truncate(count.max(1).min(prepared.len()));
    order
}

/// One kernel run on one datapath, as the run table keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Finished within its fuel with the golden return value.
    Cycles(u64),
    /// Ran out of fuel, returned a value other than the golden one, or
    /// panicked in the compiler or simulator.
    Failed,
}

/// Compile (through the cache), simulate with `fuel` and check one kernel
/// against its golden return value.
fn run_kernel(p: &PreparedKernel, machine: &Machine, fuel: u64) -> Run {
    catch_unwind(AssertUnwindSafe(|| {
        let (compiled, tiers) = eval::compile_cached(p, machine);
        let r = tta_sim::run_with_tiers(
            machine,
            &compiled.program,
            p.module.initial_memory(),
            fuel,
            &tiers,
        );
        r.ok().filter(|r| Some(r.ret) == p.golden_ret)
    }))
    .ok()
    .flatten()
    .map_or(Run::Failed, |r| Run::Cycles(r.cycles))
}

/// The runs of one search (see the module docs): (datapath hash, kernel
/// index) → run, with counts of the runs simulated and read.
///
/// A probe run that ran out of [`PROBE_FUEL`] is kept as a failure that
/// only probes ever read: every config of its datapath fails its probe,
/// so none reaches full evaluation.
#[derive(Default)]
struct RunTable {
    runs: HashMap<(u64, usize), Run>,
    simulated: u64,
    read: u64,
}

impl RunTable {
    /// Make every run `stage` will read: for each datapath, on the first
    /// of its machines in stage order, simulate the `kernels` the table
    /// lacks, in order, up to the first failure (which ends a lookup, so
    /// later kernels are never read). Datapaths run in parallel over
    /// `threads` workers attached to `here`; the table is written
    /// serially afterwards.
    fn settle(
        &mut self,
        stage: &[(u64, &Machine)],
        kernels: &[usize],
        fuel: u64,
        prepared: &[PreparedKernel],
        threads: usize,
        here: obs::SpanHandle,
    ) {
        let mut seen = HashSet::new();
        let mut jobs: Vec<(u64, &Machine, Vec<usize>)> = Vec::new();
        for &(datapath, machine) in stage {
            if !seen.insert(datapath) {
                continue;
            }
            let mut missing = Vec::new();
            for &k in kernels {
                match self.runs.get(&(datapath, k)) {
                    Some(Run::Failed) => break,
                    Some(Run::Cycles(_)) => {}
                    None => missing.push(k),
                }
            }
            if !missing.is_empty() {
                jobs.push((datapath, machine, missing));
            }
        }
        let slots: Vec<Mutex<Vec<Run>>> = jobs.iter().map(|_| Mutex::default()).collect();
        queue::drain_indexed(jobs.len(), threads, here, |j| {
            let (_, machine, missing) = &jobs[j];
            let mut runs = Vec::with_capacity(missing.len());
            for &k in missing {
                let run = run_kernel(&prepared[k], machine, fuel);
                runs.push(run);
                if run == Run::Failed {
                    break;
                }
            }
            *slots[j].lock().unwrap() = runs;
        });
        for ((datapath, _, missing), slot) in jobs.iter().zip(slots) {
            let runs = slot.into_inner().unwrap();
            self.simulated += runs.len() as u64;
            for (&k, run) in missing.iter().zip(runs) {
                self.runs.insert((*datapath, k), run);
            }
        }
    }

    /// The cycles of `kernels` on `datapath`, in order, or `None` at the
    /// first failed run.
    ///
    /// # Panics
    /// When a run it reaches is missing: [`RunTable::settle`] the stage
    /// first.
    fn cycles(&mut self, datapath: u64, kernels: &[usize]) -> Option<Vec<u64>> {
        let mut out = Vec::with_capacity(kernels.len());
        for &k in kernels {
            self.read += 1;
            match self.runs[&(datapath, k)] {
                Run::Cycles(c) => out.push(c),
                Run::Failed => return None,
            }
        }
        Some(out)
    }
}

/// Evaluate one machine fully from the run table: every kernel (`all`,
/// settled at default fuel) with golden verification. `None` when a run
/// failed.
fn eval_machine_full(
    config: Option<SearchConfig>,
    machine: &Machine,
    datapath: u64,
    table: &mut RunTable,
    all: &[usize],
    probe_idx: &[usize],
) -> Option<EvalPoint> {
    let cycles = table.cycles(datapath, all)?;
    let res = tta_fpga::estimate(machine);
    let geomean_cycles = geomean(cycles.iter().map(|&c| c as f64));
    let probe_geo = geomean(probe_idx.iter().map(|&i| cycles[i] as f64));
    Some(EvalPoint {
        config,
        name: machine.name.clone(),
        slices: res.slices,
        lut_core: res.lut_core,
        fmax_mhz: res.fmax_mhz,
        geomean_cycles,
        runtime_us: geomean_cycles / res.fmax_mhz,
        probe_runtime_us: probe_geo / res.fmax_mhz,
        structural: gen::structural_hash(machine),
    })
}

/// Evaluate the paper's 13 presets on the same axes/kernel set as a
/// search run, for frontier-quality comparison. Uses the shared compile
/// cache, so after a search this mostly hits.
///
/// # Panics
/// When a kernel fails on a preset.
pub fn evaluate_paper_points(params: &SearchParams) -> Vec<EvalPoint> {
    let kernels = resolve_kernels(&params.kernels);
    let prepared: Vec<PreparedKernel> = kernels.iter().map(eval::prepare_kernel).collect();
    let probe_idx = probe_indices(&prepared, params.probe_kernels);
    let all: Vec<usize> = (0..prepared.len()).collect();
    let machines = presets::all_design_points();
    let stage: Vec<(u64, &Machine)> = machines
        .iter()
        .map(|m| (gen::datapath_hash(m), m))
        .collect();
    let mut table = RunTable::default();
    table.settle(
        &stage,
        &all,
        tta_sim::DEFAULT_FUEL,
        &prepared,
        1,
        obs::current(),
    );
    stage
        .iter()
        .map(|&(datapath, m)| {
            eval_machine_full(None, m, datapath, &mut table, &all, &probe_idx)
                .unwrap_or_else(|| panic!("a kernel failed on {}", m.name))
        })
        .collect()
}

/// Probe one machine from the run table: the geomean runtime in µs of
/// the probe kernels (settled at [`PROBE_FUEL`]), or `None` when one ran
/// out of fuel or failed (the config is discarded).
fn probe_machine(
    datapath: u64,
    table: &mut RunTable,
    probe_idx: &[usize],
    fmax_mhz: f64,
) -> Option<f64> {
    let cycles = table.cycles(datapath, probe_idx)?;
    Some(geomean(cycles.iter().map(|&c| c as f64)) / fmax_mhz)
}

/// Stage C's tallies from its per-finalist outcomes, in finalist order:
/// `None` for a failed evaluation, `Some(kept)` for a point offered to
/// the frontier. A failure is a full evaluation too, so the funnel
/// states still partition the analysed configs.
#[derive(Debug, Default, PartialEq, Eq)]
struct FullTally {
    full_evals: u64,
    failures: u64,
    inserted: u64,
}

fn tally_full(outcomes: &[Option<bool>]) -> FullTally {
    FullTally {
        full_evals: outcomes.len() as u64,
        failures: outcomes.iter().filter(|o| o.is_none()).count() as u64,
        inserted: outcomes.iter().filter(|o| **o == Some(true)).count() as u64,
    }
}

/// Pareto-layered admission: keep whole non-dominated layers of
/// (slices, score) until `quota` fills; break the overflowing layer by
/// the area×runtime product. Returns `(admitted, deferred)` — deferred
/// candidates go back to the pool, not to the floor. Deterministic:
/// the sort key ends on the (unique) structural hash.
fn admit(mut cands: Vec<Analyzed>, quota: usize) -> (Vec<Analyzed>, Vec<Analyzed>) {
    if cands.len() <= quota {
        return (cands, Vec::new());
    }
    cands.sort_by(|a, b| {
        a.slices
            .cmp(&b.slices)
            .then(a.score_us().total_cmp(&b.score_us()))
            .then(a.structural.cmp(&b.structural))
    });
    let mut admitted: Vec<Analyzed> = Vec::with_capacity(quota);
    while admitted.len() < quota && !cands.is_empty() {
        // Non-dominated layer of the remainder.
        let mut layer_idx: Vec<usize> = Vec::new();
        for i in 0..cands.len() {
            let dominated = cands.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.slices <= cands[i].slices
                    && q.score_us() <= cands[i].score_us()
                    && (q.slices < cands[i].slices || q.score_us() < cands[i].score_us())
            });
            if !dominated {
                layer_idx.push(i);
            }
        }
        if layer_idx.len() > quota - admitted.len() {
            layer_idx.sort_by(|&a, &b| {
                let pa = cands[a].slices as f64 * cands[a].score_us();
                let pb = cands[b].slices as f64 * cands[b].score_us();
                pa.total_cmp(&pb)
                    .then(cands[a].structural.cmp(&cands[b].structural))
            });
            layer_idx.truncate(quota - admitted.len());
        }
        layer_idx.sort_unstable();
        for &i in layer_idx.iter().rev() {
            admitted.push(cands.swap_remove(i));
        }
    }
    (admitted, cands)
}

/// Profile-guided proposals: read the parent's microarchitectural
/// pressure and move hardware toward it (or away from idle resources).
fn guided_mutations(cfg: &SearchConfig, prof: &GuestProfile) -> Vec<SearchConfig> {
    let mut out = Vec::new();
    match *cfg {
        SearchConfig::Tta(p) => {
            let tta = |p: TtaParams| SearchConfig::Tta(p);
            let util = prof.slot_utilization();
            // Moves stalling on transport: add a bus. Mostly-idle
            // buses: shed one (narrower instruction, same schedule).
            if util > 0.5 {
                out.push(tta(TtaParams {
                    buses: p.buses + 1,
                    ..p
                }));
            }
            if util < 0.22 && p.buses > gen::MIN_BUSES {
                out.push(tta(TtaParams {
                    buses: p.buses - 1,
                    ..p
                }));
            }
            // FU occupancy: a saturated ALU asks for a second one
            // (issue 3 widens the inventory); an idle second ALU asks
            // to be dropped.
            let alu_occ: Vec<f64> = prof
                .fu
                .iter()
                .filter(|f| f.name.starts_with("alu"))
                .map(|f| {
                    if prof.cycles == 0 {
                        0.0
                    } else {
                        f.busy_cycles as f64 / prof.cycles as f64
                    }
                })
                .collect();
            let max_occ = alu_occ.iter().cloned().fold(0.0, f64::max);
            let min_occ = alu_occ.iter().cloned().fold(1.0, f64::min);
            if max_occ > 0.45 && p.issue < 3 {
                out.push(tta(TtaParams {
                    issue: p.issue + 1,
                    ..p
                }));
            }
            if min_occ < 0.10 && p.issue > 1 {
                out.push(tta(TtaParams {
                    issue: p.issue - 1,
                    ..p
                }));
            }
            // RF port pressure: mean accesses per cycle riding the port
            // ceiling wants another port (or another bank to spread
            // across); a cold port wants dropping.
            let (mut reads, mut read_cap) = (0.0, 0.0);
            let (mut writes, mut write_cap) = (0.0, 0.0);
            for r in &prof.rf {
                reads += r.mean_reads();
                read_cap += r.read_ports as f64;
                writes += r.mean_writes();
                write_cap += r.write_ports as f64;
            }
            if read_cap > 0.0 && reads / read_cap > 0.7 {
                out.push(tta(TtaParams {
                    read_ports: p.read_ports + 1,
                    ..p
                }));
                out.push(tta(TtaParams {
                    banks: p.banks + 1,
                    ..p
                }));
            }
            if read_cap > 0.0 && reads / read_cap < 0.15 && p.read_ports > 1 {
                out.push(tta(TtaParams {
                    read_ports: p.read_ports - 1,
                    ..p
                }));
            }
            if write_cap > 0.0 && writes / write_cap > 0.7 {
                out.push(tta(TtaParams {
                    write_ports: p.write_ports + 1,
                    ..p
                }));
            }
            if write_cap > 0.0 && writes / write_cap < 0.15 && p.write_ports > 1 {
                out.push(tta(TtaParams {
                    write_ports: p.write_ports - 1,
                    ..p
                }));
            }
            // Saturated transport also wants richer wiring per bus.
            if util > 0.5 && !p.full_conn {
                out.push(tta(TtaParams {
                    full_conn: true,
                    ..p
                }));
            }
        }
        SearchConfig::Vliw(p) => {
            let occ_any_high = prof.fu.iter().any(|f| {
                f.name.starts_with("alu")
                    && prof.cycles > 0
                    && f.busy_cycles as f64 / prof.cycles as f64 > 0.45
            });
            if occ_any_high && p.issue < 3 {
                out.push(SearchConfig::Vliw(VliwParams {
                    issue: p.issue + 1,
                    ..p
                }));
            }
            out.push(SearchConfig::Vliw(VliwParams {
                partitioned: !p.partitioned,
                ..p
            }));
            // The paper's own move: transform the VLIW into the TTA with
            // the same datapath and let the frontier decide.
            out.push(SearchConfig::Tta(TtaParams {
                issue: p.issue,
                banks: if p.partitioned { p.issue } else { 1 },
                regs_per_bank: p.regs_per_bank,
                read_ports: 1,
                write_ports: 1,
                buses: 3 * p.issue,
                full_conn: false,
            }));
        }
    }
    out
}

fn step_regs(regs: u16, up: bool) -> u16 {
    let i = gen::REGS_CHOICES
        .iter()
        .position(|&r| r == regs)
        .unwrap_or(0);
    let n = gen::REGS_CHOICES.len();
    gen::REGS_CHOICES[if up { (i + 1) % n } else { (i + n - 1) % n }]
}

/// One random structural step from `cfg` (may land out of space — the
/// proposal filter counts and drops those).
fn random_mutation(cfg: &SearchConfig, rng: &mut Rng) -> SearchConfig {
    match *cfg {
        SearchConfig::Tta(p) => {
            let mut p = p;
            match rng.below(7) {
                0 => {
                    p.issue = if rng.next_bool() {
                        p.issue + 1
                    } else {
                        p.issue.wrapping_sub(1)
                    }
                }
                1 => {
                    p.banks = if rng.next_bool() {
                        p.banks + 1
                    } else {
                        p.banks.wrapping_sub(1)
                    }
                }
                2 => p.regs_per_bank = step_regs(p.regs_per_bank, rng.next_bool()),
                3 => {
                    p.read_ports = if rng.next_bool() {
                        p.read_ports + 1
                    } else {
                        p.read_ports.wrapping_sub(1)
                    }
                }
                4 => {
                    p.write_ports = if rng.next_bool() {
                        p.write_ports + 1
                    } else {
                        p.write_ports.wrapping_sub(1)
                    }
                }
                5 => {
                    p.buses = if rng.next_bool() {
                        p.buses + 1
                    } else {
                        p.buses.wrapping_sub(1)
                    }
                }
                _ => p.full_conn = !p.full_conn,
            }
            SearchConfig::Tta(p)
        }
        SearchConfig::Vliw(p) => {
            let mut p = p;
            match rng.below(3) {
                0 => {
                    p.issue = if rng.next_bool() {
                        p.issue + 1
                    } else {
                        p.issue.wrapping_sub(1)
                    }
                }
                1 => p.partitioned = !p.partitioned,
                _ => p.regs_per_bank = step_regs(p.regs_per_bank, rng.next_bool()),
            }
            SearchConfig::Vliw(p)
        }
    }
}

/// A uniform-random in-space config.
fn random_config(rng: &mut Rng) -> SearchConfig {
    if rng.chance(1, 8) {
        SearchConfig::Vliw(VliwParams {
            issue: rng.range(2, 4) as u8,
            partitioned: rng.next_bool(),
            regs_per_bank: gen::REGS_CHOICES[rng.below(gen::REGS_CHOICES.len())],
        })
    } else {
        SearchConfig::Tta(TtaParams {
            issue: rng.range(1, 4) as u8,
            banks: rng.range(1, gen::MAX_BANKS as usize + 1) as u8,
            regs_per_bank: gen::REGS_CHOICES[rng.below(gen::REGS_CHOICES.len())],
            read_ports: rng.range(1, gen::MAX_PORTS as usize + 1) as u8,
            write_ports: rng.range(1, gen::MAX_PORTS as usize + 1) as u8,
            buses: rng.range(gen::MIN_BUSES as usize, gen::MAX_BUSES as usize + 1) as u8,
            full_conn: rng.next_bool(),
        })
    }
}

/// Profile a frontier parent on the smallest probe kernel (compile is a
/// cache hit — the parent went through full evaluation) and return its
/// microarchitectural profile.
fn profile_parent(
    parent: &EvalPoint,
    prepared: &[PreparedKernel],
    probe_idx: &[usize],
) -> Option<GuestProfile> {
    let machine = parent.config.as_ref()?.build();
    let p = &prepared[probe_idx[0]];
    let (compiled, _tiers) = eval::compile_cached(p, &machine);
    let (r, prof) =
        tta_sim::run_profiled(&machine, &compiled.program, p.module.initial_memory()).ok()?;
    if Some(r.ret) != p.golden_ret {
        return None;
    }
    Some(prof)
}

/// Deterministically spread `count` parent picks across the frontier
/// snapshot (always including both ends).
fn pick_parents(snapshot: &[EvalPoint], count: usize) -> Vec<&EvalPoint> {
    if snapshot.is_empty() || count == 0 {
        return Vec::new();
    }
    let count = count.min(snapshot.len());
    if count == 1 {
        return vec![&snapshot[0]];
    }
    let mut idx: Vec<usize> = (0..count)
        .map(|i| i * (snapshot.len() - 1) / (count - 1))
        .collect();
    idx.dedup();
    idx.into_iter().map(|i| &snapshot[i]).collect()
}

/// Run the staged Pareto search. See the module docs for the design and
/// the determinism contract.
pub fn search(params: &SearchParams) -> SearchOutcome {
    let t0 = Instant::now();
    let search_span = obs::span_under(obs::SpanHandle::ROOT, "search");
    let here = obs::current();

    let kernels = resolve_kernels(&params.kernels);
    let prepared: Vec<PreparedKernel> = {
        let _s = obs::span("prepare");
        kernels.iter().map(eval::prepare_kernel).collect()
    };
    let demands: Vec<KernelDemand> = prepared.iter().map(KernelDemand::of).collect();
    let probe_idx = probe_indices(&prepared, params.probe_kernels);
    let all: Vec<usize> = (0..prepared.len()).collect();

    let mut frontier = Frontier::new();
    let mut table = RunTable::default();
    let mut seen: HashSet<SearchConfig> = HashSet::new();
    // Stage-A survivors not yet probed away or fully evaluated. Deferred
    // at a quota means *pooled*, not dropped: every generation re-prunes
    // the pool against the improved frontier and re-admits from it, so a
    // config missed in one generation competes again in the next.
    let mut pool: Vec<Analyzed> = Vec::new();
    let mut rng = Rng::new(params.seed);
    let mut stats = SearchStats::default();

    for generation in 0..=params.generations {
        let snapshot = frontier.snapshot();

        // ---- propose ----
        let proposals: Vec<SearchConfig> = if generation == 0 {
            gen::enumerate_space()
        } else {
            let mut out = Vec::new();
            for parent in pick_parents(&snapshot, params.parents) {
                if let Some(prof) = profile_parent(parent, &prepared, &probe_idx) {
                    if let Some(cfg) = parent.config {
                        out.extend(guided_mutations(&cfg, &prof));
                    }
                }
                if let Some(cfg) = parent.config {
                    for _ in 0..params.mutants_per_parent {
                        out.push(random_mutation(&cfg, &mut rng));
                    }
                }
            }
            for _ in 0..params.fresh_per_generation {
                out.push(random_config(&mut rng));
            }
            out
        };
        stats.proposed += proposals.len() as u64;
        obs::counter::add("search.proposed", proposals.len() as u64);

        // ---- dedup + boost ----
        // A mutation proposing a config the grid already pooled is not
        // wasted: it marks that config *boosted* — the parent's profile
        // vouches for its neighbourhood — and boosted pool entries get
        // admission priority this generation.
        let mut unique: Vec<SearchConfig> = Vec::new();
        let mut boost: HashSet<SearchConfig> = HashSet::new();
        for cfg in proposals {
            if !cfg.in_space() {
                stats.invalid += 1;
                obs::counter::add("search.invalid", 1);
                continue;
            }
            if generation > 0 {
                boost.insert(cfg);
            }
            if !seen.insert(cfg) {
                stats.duplicates += 1;
                obs::counter::add("search.duplicates", 1);
                continue;
            }
            unique.push(cfg);
        }

        // ---- stage A: analytic estimate + demand lower bound ----
        for cfg in unique {
            let machine = cfg.build();
            if machine.validate_generated().is_err() {
                stats.invalid += 1;
                obs::counter::add("search.invalid", 1);
                continue;
            }
            let structural = gen::structural_hash(&machine);
            if pool.iter().any(|a| a.structural == structural) {
                stats.duplicates += 1;
                obs::counter::add("search.duplicates", 1);
                continue;
            }
            stats.configs += 1;
            let res = tta_fpga::estimate(&machine);
            let bound_us = geomean(
                demands
                    .iter()
                    .map(|d| cycle_lower_bound(d, &machine) as f64),
            ) / res.fmax_mhz;
            pool.push(Analyzed {
                cfg,
                machine,
                slices: res.slices,
                fmax_mhz: res.fmax_mhz,
                bound_us,
                probe_us: None,
                structural,
            });
        }

        // ---- analytic prune of the whole pool ----
        // Sound: a frontier point strictly better than even a config's
        // optimistic bound dominates its real point too. Repeated every
        // generation, so the pool shrinks as the frontier improves.
        pool.retain(|a| {
            let pruned = snapshot
                .iter()
                .any(|f| f.slices <= a.slices && f.runtime_us < a.bound_us);
            if pruned {
                stats.analytic_pruned += 1;
                obs::counter::add("search.pruned_analytic", 1);
            }
            !pruned
        });

        // ---- probe-quota admission (Pareto-layered, boosted first) ----
        let (boosted, rest): (Vec<Analyzed>, Vec<Analyzed>) = std::mem::take(&mut pool)
            .into_iter()
            .partition(|a| boost.contains(&a.cfg));
        let (mut admitted, deferred) = admit(boosted, params.probe_quota);
        pool = deferred;
        let (more, deferred) = admit(rest, params.probe_quota - admitted.len());
        admitted.extend(more);
        pool.extend(deferred);

        // ---- stage B: short-fuel probes, from the run table ----
        // Entries that kept a probe result from an earlier generation
        // skip the simulator entirely.
        let threads = if params.threads > 0 {
            params.threads
        } else {
            eval::eval_threads(admitted.len())
        };
        let todo: Vec<usize> = (0..admitted.len())
            .filter(|&i| admitted[i].probe_us.is_none())
            .collect();
        let stage: Vec<(u64, &Machine)> = todo
            .iter()
            .map(|&i| {
                (
                    gen::datapath_hash(&admitted[i].machine),
                    &admitted[i].machine,
                )
            })
            .collect();
        table.settle(&stage, &probe_idx, PROBE_FUEL, &prepared, threads, here);
        let probes: Vec<Option<f64>> = todo
            .iter()
            .zip(&stage)
            .map(|(&i, &(datapath, _))| {
                probe_machine(datapath, &mut table, &probe_idx, admitted[i].fmax_mhz)
            })
            .collect();
        stats.probed += todo.len() as u64;
        obs::counter::add("search.probed", todo.len() as u64);
        let mut failed: HashSet<usize> = HashSet::new();
        for (&t, probe) in todo.iter().zip(probes) {
            match probe {
                None => {
                    stats.eval_failures += 1;
                    obs::counter::add("search.eval_failures", 1);
                    failed.insert(t);
                }
                Some(probe_us) => admitted[t].probe_us = Some(probe_us),
            }
        }
        let mut survivors: Vec<Analyzed> = Vec::new();
        for (i, a) in admitted.into_iter().enumerate() {
            if failed.contains(&i) {
                continue;
            }
            let probe_us = a.probe_us.expect("probed or cached");
            // Heuristic prune with margin: only drop configs a frontier
            // point beats clearly on the probe subset.
            let margin = params.probe_margin.clamp(0.0, 1.0);
            let pruned = snapshot
                .iter()
                .any(|f| f.slices <= a.slices && f.probe_runtime_us < probe_us * (1.0 - margin));
            if pruned {
                stats.probe_pruned += 1;
                obs::counter::add("search.pruned_probe", 1);
            } else {
                survivors.push(a);
            }
        }

        // ---- full-eval admission (ranks on the probe sample now) ----
        let (mut finalists, deferred) = admit(survivors, params.full_quota);
        finalists.sort_by_key(|a| a.structural);
        pool.extend(deferred);

        // ---- stage C: full evaluation from the run table ----
        // Points insert one at a time in finalist order, so `inserted`
        // does not depend on which run finished first.
        let stage: Vec<(u64, &Machine)> = finalists
            .iter()
            .map(|a| (gen::datapath_hash(&a.machine), &a.machine))
            .collect();
        table.settle(
            &stage,
            &all,
            tta_sim::DEFAULT_FUEL,
            &prepared,
            threads,
            here,
        );
        let outcomes: Vec<Option<bool>> = finalists
            .iter()
            .zip(&stage)
            .map(|(a, &(datapath, _))| {
                eval_machine_full(
                    Some(a.cfg),
                    &a.machine,
                    datapath,
                    &mut table,
                    &all,
                    &probe_idx,
                )
                .map(|p| frontier.insert(p))
            })
            .collect();
        let tally = tally_full(&outcomes);
        stats.full_evals += tally.full_evals;
        obs::counter::add("search.full_evals", tally.full_evals);
        stats.full_eval_failures += tally.failures;
        obs::counter::add("search.full_eval_failures", tally.failures);
        stats.inserted += tally.inserted;
        obs::counter::add("search.frontier_inserted", tally.inserted);
    }

    stats.deferred = pool.len() as u64;
    stats.sim_runs = table.simulated;
    stats.reused_runs = table.read - table.simulated;
    obs::counter::add("search.sim_runs", stats.sim_runs);
    obs::counter::add("search.runs_reused", stats.reused_runs);
    stats.wall_s = t0.elapsed().as_secs_f64();
    obs::counter::set_gauge("search.pool_remaining", pool.len() as i64);
    obs::counter::set_gauge("search.frontier_size", frontier.len() as i64);
    drop(search_span);
    SearchOutcome {
        frontier: frontier.snapshot(),
        stats,
    }
}

/// Render a frontier (or any point list) as a markdown table on the
/// Fig. 6 axes.
pub fn frontier_markdown(points: &[EvalPoint]) -> String {
    let mut out = String::from(
        "| design | slices | LUTs | fmax (MHz) | geomean cycles | runtime (µs) |\n|---|---|---|---|---|---|\n",
    );
    for p in points {
        out.push_str(&format!(
            "| {} | {} | {} | {:.0} | {:.0} | {:.2} |\n",
            p.name, p.slices, p.lut_core, p.fmax_mhz, p.geomean_cycles, p.runtime_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(name: &str, slices: u32, runtime_us: f64, structural: u64) -> EvalPoint {
        EvalPoint {
            config: None,
            name: name.into(),
            slices,
            lut_core: slices * 4,
            fmax_mhz: 100.0,
            geomean_cycles: runtime_us * 100.0,
            runtime_us,
            probe_runtime_us: runtime_us,
            structural,
        }
    }

    #[test]
    fn dominance_is_strict_on_at_least_one_axis() {
        let a = pt("a", 100, 10.0, 1);
        let b = pt("b", 100, 10.0, 2);
        let c = pt("c", 90, 10.0, 3);
        let d = pt("d", 90, 9.0, 4);
        assert!(!dominates(&a, &b), "equal points do not dominate");
        assert!(!dominates(&b, &a));
        assert!(dominates(&c, &a), "better area, equal runtime dominates");
        assert!(!dominates(&a, &c));
        assert!(dominates(&d, &a), "better on both axes dominates");
        assert!(!dominates(&a, &d));
    }

    #[test]
    fn frontier_insertion_and_domination() {
        let mut f = Frontier::new();
        assert!(f.insert(pt("a", 100, 10.0, 1)));
        assert!(f.insert(pt("b", 200, 5.0, 2)), "incomparable point joins");
        assert_eq!(f.len(), 2);
        assert!(!f.insert(pt("c", 250, 6.0, 3)), "dominated point rejected");
        assert_eq!(f.len(), 2);
        assert!(f.insert(pt("d", 90, 4.0, 4)), "dominating point sweeps");
        assert_eq!(f.len(), 1, "both originals were dominated by d");
        assert_eq!(f.snapshot()[0].name, "d");
    }

    #[test]
    fn frontier_keeps_ties_but_rejects_structural_duplicates() {
        let mut f = Frontier::new();
        assert!(f.insert(pt("a", 100, 10.0, 1)));
        assert!(
            f.insert(pt("b", 100, 10.0, 2)),
            "tie on both axes, different structure: both stay"
        );
        assert_eq!(f.len(), 2);
        assert!(
            !f.insert(pt("a2", 100, 10.0, 1)),
            "structural duplicate rejected"
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn frontier_content_is_insertion_order_independent() {
        let points = [
            pt("a", 100, 10.0, 1),
            pt("b", 200, 5.0, 2),
            pt("c", 250, 6.0, 3), // dominated by b
            pt("d", 90, 4.0, 4),  // dominates everything
            pt("e", 90, 4.0, 5),  // ties d
        ];
        let orders: [[usize; 5]; 4] = [
            [0, 1, 2, 3, 4],
            [4, 3, 2, 1, 0],
            [2, 0, 4, 1, 3],
            [3, 4, 0, 1, 2],
        ];
        let mut results: Vec<Vec<(String, u64)>> = Vec::new();
        for order in orders {
            let mut f = Frontier::new();
            for i in order {
                f.insert(points[i].clone());
            }
            results.push(
                f.snapshot()
                    .iter()
                    .map(|p| (p.name.clone(), p.structural))
                    .collect(),
            );
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(results[0].len(), 2, "d and its tie e survive");
    }

    #[test]
    fn cycle_lower_bound_is_optimistic_and_style_aware() {
        let d = KernelDemand {
            alu_ops: 900,
            mem_ops: 300,
            ctrl_ops: 100,
        };
        let tta = presets::m_tta_2(); // 1 ALU, 1 LSU, 6 buses
        let lb = cycle_lower_bound(&d, &tta);
        assert_eq!(lb, 900, "ALU-bound: 900 ops on one ALU");
        let tta3 = presets::m_tta_3(); // 2 ALUs
        assert_eq!(cycle_lower_bound(&d, &tta3), 450);
        let scalar = presets::mblaze_3();
        assert_eq!(cycle_lower_bound(&d, &scalar), 1300, "scalar: 1/cycle");
        // A 3-bus TTA is transport-bound on this demand mix with 2 ALUs
        // hypothetically — check the bus term binds when buses are scarce.
        let m1 = presets::m_tta_1(); // 3 buses, 1 ALU
        assert_eq!(cycle_lower_bound(&d, &m1), 900.max(1300u64.div_ceil(3)));
    }

    #[test]
    fn admission_respects_quota_and_keeps_the_first_layer() {
        let mk = |slices: u32, bound: f64, s: u64| Analyzed {
            cfg: gen::paper_configs()[0].1,
            machine: presets::m_tta_1(),
            slices,
            fmax_mhz: 100.0,
            bound_us: bound,
            probe_us: None,
            structural: s,
        };
        let cands = vec![
            mk(100, 10.0, 1), // layer 1
            mk(200, 5.0, 2),  // layer 1
            mk(210, 11.0, 3), // dominated
            mk(300, 12.0, 4), // dominated
        ];
        let (admitted, deferred) = admit(cands, 2);
        assert_eq!(admitted.len(), 2);
        assert_eq!(deferred.len(), 2, "the rest is deferred, not dropped");
        let mut s: Vec<u64> = admitted.iter().map(|a| a.structural).collect();
        s.sort_unstable();
        assert_eq!(s, [1, 2], "the non-dominated layer is admitted first");
        let mut d: Vec<u64> = deferred.iter().map(|a| a.structural).collect();
        d.sort_unstable();
        assert_eq!(d, [3, 4]);
    }

    #[test]
    fn a_failed_full_evaluation_counts_inside_full_evals() {
        let t = tally_full(&[Some(true), None, Some(false)]);
        assert_eq!(
            t,
            FullTally {
                full_evals: 3,
                failures: 1,
                inserted: 1,
            }
        );
    }

    #[test]
    fn twins_share_runs_and_failures() {
        let prepared: Vec<PreparedKernel> = ["sha", "aes"]
            .iter()
            .map(|n| eval::prepare_kernel(&tta_chstone::by_name(n).unwrap()))
            .collect();
        let twin = |issue| {
            SearchConfig::Tta(TtaParams {
                issue,
                banks: 1,
                regs_per_bank: 32,
                read_ports: 1,
                write_ports: 1,
                buses: 3,
                full_conn: false,
            })
            .build()
        };
        let (i1, i2) = (twin(1), twin(2));
        let dp = gen::datapath_hash(&i1);
        let stage = [(dp, &i1), (dp, &i2)];
        let mut table = RunTable::default();
        let here = obs::current();

        // Out of fuel on the first kernel: one run, the second kernel is
        // never simulated, and both twins read the failure.
        table.settle(&stage, &[0, 1], 1, &prepared, 1, here);
        assert_eq!(table.cycles(dp, &[0, 1]), None);
        assert_eq!(table.cycles(dp, &[0, 1]), None);
        assert_eq!((table.simulated, table.read), (1, 2));

        // Another datapath at default fuel: both kernels run once and
        // serve the second reader.
        let i3 = twin(3);
        let dp3 = gen::datapath_hash(&i3);
        table.settle(
            &[(dp3, &i3)],
            &[0, 1],
            tta_sim::DEFAULT_FUEL,
            &prepared,
            1,
            here,
        );
        let cycles = table.cycles(dp3, &[0, 1]).expect("runs finish");
        assert_eq!(table.cycles(dp3, &[1]), Some(vec![cycles[1]]));
        assert_eq!((table.simulated, table.read), (3, 5));
    }

    #[test]
    fn admission_prefers_a_probe_sample_over_the_bound() {
        let mk = |slices: u32, bound: f64, probe: Option<f64>, s: u64| Analyzed {
            cfg: gen::paper_configs()[0].1,
            machine: presets::m_tta_1(),
            slices,
            fmax_mhz: 100.0,
            bound_us: bound,
            probe_us: probe,
            structural: s,
        };
        // Same area: the probed entry's (worse) sample outranks its own
        // optimistic bound, so the unprobed candidate wins the slot.
        let cands = vec![mk(100, 2.0, Some(20.0), 1), mk(100, 10.0, None, 2)];
        let (admitted, _) = admit(cands, 1);
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].structural, 2);
    }
}

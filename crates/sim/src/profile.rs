//! Opt-in guest-side microarchitectural profiling.
//!
//! The paper's argument for transport triggering is made in *utilization*
//! terms: data transports ride the buses, software bypassing absorbs RF
//! traffic, and that is why 1R/1W register files suffice. This module
//! measures exactly those quantities on the simulated machines — per-bus
//! move density, per-FU occupancy, RF port-pressure histograms, NOP/padding
//! slot density, bypass-vs-RF read ratios and a per-PC hotspot histogram —
//! without perturbing the timing model.
//!
//! ## The disable contract
//!
//! Profiling mirrors the `TTA_OBS=0` promise of `crates/obs`, but goes one
//! step further: the cycle loops are generic over a crate-private sink
//! trait, and the default entry points ([`crate::run`] and friends)
//! instantiate them with a sink whose hook methods are empty
//! `#[inline(always)]` bodies — the profiling code is *compiled out* of
//! that monomorphisation, not branched around. [`crate::run_profiled`] is
//! a separate monomorphisation feeding a collector that builds the
//! [`GuestProfile`]. Either way `SimResult` (cycles,
//! return value, memory image, `SimStats`) is bit-identical — enforced by
//! `tests/profile_parity.rs` at the workspace root.
//!
//! ## Why collection is cheap
//!
//! For the TTA and scalar cores, everything the profile reports is *static
//! per program counter*: a TTA instruction always performs the same moves,
//! reads and triggers every time it executes. The hot-loop hook is therefore
//! a single `counts[pc] += 1`; the full profile is reconstructed after the
//! run by walking the program once per core style with the counts as
//! multipliers. The VLIW core additionally records dynamic
//! RF write-port pressure, because writebacks land at `issue + latency` and
//! several issue cycles can drain onto the same register file in one cycle.

use crate::result::SimStats;
use tta_isa::{MoveDst, MoveSrc, OpSrc, Program, ScalarInst, TtaInst, VliwBundle, VliwSlot};
use tta_model::{CoreStyle, Machine};

/// Per-cycle hooks the simulator cycle loops invoke. Crate-private: the
/// public surface is [`crate::run_profiled`] and [`crate::run_traced`].
pub(crate) trait ProfileSink {
    /// Whether every hook is a no-op, which lets the VLIW writeback
    /// drain skip its per-cycle pressure count. `NoProfile` is the only
    /// passive sink.
    const PASSIVE: bool;
    /// One instruction/bundle at `pc` entered execution this cycle.
    fn retire(&mut self, pc: u32);
    /// RF write-port usage of the cycle that just completed (VLIW only;
    /// indexed by register-file id).
    fn writeback_pressure(&mut self, writes_per_rf: &[u32]);
}

/// The sink of the default entry points: every hook is an empty
/// `#[inline(always)]` body, so the profiling paths vanish from the
/// generated code entirely.
pub(crate) struct NoProfile;

impl ProfileSink for NoProfile {
    const PASSIVE: bool = true;
    #[inline(always)]
    fn retire(&mut self, _pc: u32) {}
    #[inline(always)]
    fn writeback_pressure(&mut self, _writes_per_rf: &[u32]) {}
}

/// The sink of [`crate::run_traced`]: records the program
/// counter of every executed instruction. A third monomorphisation of the
/// same cycle loops, so tracing shares the bit-identity guarantee of the
/// other sinks instead of threading an `Option<&mut Vec<u32>>` through
/// every engine.
pub(crate) struct TraceSink {
    /// Executed pcs in order.
    pub trace: Vec<u32>,
}

impl TraceSink {
    /// A sink pre-sized by the [`crate::state::trace_capacity`] heuristic.
    pub fn for_program(program_len: usize) -> TraceSink {
        TraceSink {
            trace: Vec::with_capacity(crate::state::trace_capacity(program_len)),
        }
    }
}

impl ProfileSink for TraceSink {
    const PASSIVE: bool = false;
    #[inline]
    fn retire(&mut self, pc: u32) {
        self.trace.push(pc);
    }
    #[inline(always)]
    fn writeback_pressure(&mut self, _writes_per_rf: &[u32]) {}
}

/// The collecting sink: a per-PC execution counter plus (for VLIW) dynamic
/// write-port pressure histograms. Everything else is derived post-run.
pub(crate) struct Collector {
    pc_counts: Vec<u64>,
    /// `wb_hist[rf][k]` = cycles in which `rf` performed exactly `k`
    /// writebacks. Only the VLIW core reports writeback pressure; the
    /// other styles leave it at zero.
    wb_hist: Vec<Vec<u64>>,
}

impl Collector {
    /// A zeroed collector for a `program_len`-instruction program on `m`,
    /// with one write-pressure bucket per possible port count
    /// (0 ..= write_ports).
    pub fn new(m: &Machine, program_len: usize) -> Collector {
        Collector {
            pc_counts: vec![0; program_len],
            wb_hist: m
                .rfs
                .iter()
                .map(|rf| vec![0; rf.write_ports as usize + 1])
                .collect(),
        }
    }
}

impl ProfileSink for Collector {
    const PASSIVE: bool = false;
    #[inline]
    fn retire(&mut self, pc: u32) {
        self.pc_counts[pc as usize] += 1;
    }

    #[inline]
    fn writeback_pressure(&mut self, writes_per_rf: &[u32]) {
        for (ri, &n) in writes_per_rf.iter().enumerate() {
            let h = &mut self.wb_hist[ri];
            let last = h.len() - 1;
            h[(n as usize).min(last)] += 1;
        }
    }
}

/// Per-FU profile row.
#[derive(Debug, Clone, PartialEq)]
pub struct FuProfile {
    /// Unit name (from the machine description).
    pub name: String,
    /// Operations triggered/issued on this unit.
    pub ops: u64,
    /// Op-cycles in flight: each operation contributes `max(latency, 1)`
    /// cycles. Can exceed the run's cycle count on pipelined units.
    pub busy_cycles: u64,
}

/// Per-register-file profile row.
#[derive(Debug, Clone, PartialEq)]
pub struct RfProfile {
    /// Register-file name (from the machine description).
    pub name: String,
    /// Configured simultaneous read ports.
    pub read_ports: u8,
    /// Configured simultaneous write ports.
    pub write_ports: u8,
    /// `read_hist[k]` = samples in which this RF served exactly `k` reads
    /// (`k` ranges `0 ..= read_ports`; the schedulers can never exceed the
    /// budget, the top bucket absorbs defensively).
    pub read_hist: Vec<u64>,
    /// `write_hist[k]` = samples with exactly `k` writes. For VLIW this is
    /// measured per *cycle* (writebacks land at `issue + latency`); for TTA
    /// and scalar it is static per instruction.
    pub write_hist: Vec<u64>,
}

impl RfProfile {
    fn hist_mean(hist: &[u64]) -> f64 {
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = hist.iter().enumerate().map(|(k, &c)| k as u64 * c).sum();
        weighted as f64 / total as f64
    }

    /// Mean reads per sample.
    pub fn mean_reads(&self) -> f64 {
        Self::hist_mean(&self.read_hist)
    }

    /// Mean writes per sample.
    pub fn mean_writes(&self) -> f64 {
        Self::hist_mean(&self.write_hist)
    }
}

/// The microarchitectural profile of one simulated run.
///
/// A *sample* is one executed instruction: a TTA instruction, a VLIW bundle
/// (for both, samples == cycles) or a scalar instruction (the scalar core
/// inserts dynamic stall cycles between samples, so samples < cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct GuestProfile {
    /// Programming model of the profiled machine.
    pub style: CoreStyle,
    /// Total cycles of the run (filled by the `run_*_profiled` wrappers).
    pub cycles: u64,
    /// Executed instructions (see the type docs for the sample unit).
    pub samples: u64,
    /// Transport buses (TTA) or issue slots (VLIW) per instruction; 0 for
    /// scalar.
    pub slots: usize,
    /// Per-slot executed move/op counts (`slots` entries; indexed by bus or
    /// issue-slot id).
    pub slot_moves: Vec<u64>,
    /// Slot-samples consumed by long-immediate encoding (TTA: the
    /// `limm.bus_slots` slots a template blanks; VLIW: `LimmCont` slots).
    pub limm_slot_samples: u64,
    /// Samples that were complete NOPs (schedule padding: delay slots and
    /// latency waiting).
    pub nop_samples: u64,
    /// Per-function-unit rows (indexed by FU id).
    pub fu: Vec<FuProfile>,
    /// Per-register-file rows (indexed by RF id).
    pub rf: Vec<RfProfile>,
    /// Register-file reads (must agree with `SimStats::rf_reads`).
    pub rf_reads: u64,
    /// Register-file writes (must agree with `SimStats::rf_writes`).
    pub rf_writes: u64,
    /// Reads served by FU result ports (must agree with
    /// `SimStats::bypass_reads`; TTA only).
    pub bypass_reads: u64,
    /// Executions per program counter (the hotspot histogram; indexed by
    /// pc, same length as the program).
    pub pc_counts: Vec<u64>,
}

impl GuestProfile {
    fn base(m: &Machine, style: CoreStyle, slots: usize) -> GuestProfile {
        GuestProfile {
            style,
            cycles: 0,
            samples: 0,
            slots,
            slot_moves: vec![0; slots],
            limm_slot_samples: 0,
            nop_samples: 0,
            fu: m
                .funits
                .iter()
                .map(|f| FuProfile {
                    name: f.name.clone(),
                    ops: 0,
                    busy_cycles: 0,
                })
                .collect(),
            rf: m
                .rfs
                .iter()
                .map(|rf| RfProfile {
                    name: rf.name.clone(),
                    read_ports: rf.read_ports,
                    write_ports: rf.write_ports,
                    read_hist: vec![0; rf.read_ports as usize + 1],
                    write_hist: vec![0; rf.write_ports as usize + 1],
                })
                .collect(),
            rf_reads: 0,
            rf_writes: 0,
            bypass_reads: 0,
            pc_counts: Vec::new(),
        }
    }

    /// Fraction of slot-samples carrying a move/op or long-immediate
    /// payload (0.0 for scalar, which has no slots).
    pub fn slot_utilization(&self) -> f64 {
        let total = self.samples * self.slots as u64;
        if total == 0 {
            return 0.0;
        }
        let used: u64 = self.slot_moves.iter().sum::<u64>() + self.limm_slot_samples;
        used as f64 / total as f64
    }

    /// Fraction of samples that were complete NOPs.
    pub fn nop_fraction(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.nop_samples as f64 / self.samples as f64
    }

    /// Per-slot utilization: executed moves/ops per sample for each bus or
    /// issue slot.
    pub fn slot_density(&self) -> Vec<f64> {
        self.slot_moves
            .iter()
            .map(|&c| {
                if self.samples == 0 {
                    0.0
                } else {
                    c as f64 / self.samples as f64
                }
            })
            .collect()
    }

    /// Fraction of operand reads served by FU result ports instead of RF
    /// ports (the paper's software-bypassing ratio; 0.0 for VLIW/scalar).
    pub fn bypass_fraction(&self) -> f64 {
        let total = self.bypass_reads + self.rf_reads;
        if total == 0 {
            return 0.0;
        }
        self.bypass_reads as f64 / total as f64
    }

    /// The `n` most-executed program counters as `(pc, count)`, hottest
    /// first (ties broken by lower pc).
    pub fn hot_pcs(&self, n: usize) -> Vec<(u32, u64)> {
        let mut idx: Vec<u32> = (0..self.pc_counts.len() as u32).collect();
        idx.sort_by_key(|&pc| (std::cmp::Reverse(self.pc_counts[pc as usize]), pc));
        idx.into_iter()
            .map(|pc| (pc, self.pc_counts[pc as usize]))
            .take_while(|&(_, c)| c > 0)
            .take(n)
            .collect()
    }

    /// Sanity-check the profile against the run's `SimStats`; returns the
    /// first inconsistency. Used by tests and the report pipeline.
    pub fn check_against(&self, stats: &SimStats) -> Result<(), String> {
        let err = |what: &str, a: u64, b: u64| Err(format!("{what}: profile {a} vs stats {b}"));
        if self.samples != stats.instructions {
            return err("samples", self.samples, stats.instructions);
        }
        if self.rf_reads != stats.rf_reads {
            return err("rf_reads", self.rf_reads, stats.rf_reads);
        }
        if self.rf_writes != stats.rf_writes {
            return err("rf_writes", self.rf_writes, stats.rf_writes);
        }
        if self.bypass_reads != stats.bypass_reads {
            return err("bypass_reads", self.bypass_reads, stats.bypass_reads);
        }
        let retired: u64 = self.pc_counts.iter().sum();
        if retired != stats.instructions {
            return err("pc_counts total", retired, stats.instructions);
        }
        Ok(())
    }
}

/// Charge `n` samples to histogram bucket `k` (clamped to the top bucket).
fn bump(hist: &mut [u64], k: u32, n: u64) {
    let last = hist.len() - 1;
    hist[(k as usize).min(last)] += n;
}

/// Reconstruct the profile of a finished run of `program` from its
/// collector.
pub(crate) fn finish(m: &Machine, program: &Program, c: Collector) -> GuestProfile {
    match program {
        Program::Tta(insts) => finish_tta(m, insts, c),
        Program::Vliw(bundles) => finish_vliw(m, bundles, c),
        Program::Scalar(insts) => finish_scalar(m, insts, c),
    }
}

/// Reconstruct a TTA profile from per-PC execution counts (every per-PC
/// quantity is static; see the module docs).
fn finish_tta(m: &Machine, program: &[TtaInst], c: Collector) -> GuestProfile {
    let mut p = GuestProfile::base(m, CoreStyle::Tta, m.buses.len());
    let counts = c.pc_counts;
    let mut reads = vec![0u32; m.rfs.len()];
    let mut writes = vec![0u32; m.rfs.len()];
    for (inst, &n) in program.iter().zip(&counts) {
        if n == 0 {
            continue;
        }
        p.samples += n;
        if inst.is_nop() {
            p.nop_samples += n;
        }
        reads.fill(0);
        writes.fill(0);
        for (bus, slot) in inst.slots.iter().enumerate() {
            let Some(mv) = slot else { continue };
            p.slot_moves[bus] += n;
            match mv.src {
                MoveSrc::Rf(r) => {
                    reads[r.rf.0 as usize] += 1;
                    p.rf_reads += n;
                }
                MoveSrc::FuResult(_) => p.bypass_reads += n,
                MoveSrc::Imm(_) | MoveSrc::ImmReg(_) => {}
            }
            match mv.dst {
                MoveDst::Rf(r) => {
                    writes[r.rf.0 as usize] += 1;
                    p.rf_writes += n;
                }
                MoveDst::FuOperand(_) => {}
                MoveDst::FuTrigger(f, op) => {
                    let fu = &mut p.fu[f.0 as usize];
                    fu.ops += n;
                    fu.busy_cycles += n * (op.latency() as u64).max(1);
                }
            }
        }
        if inst.limm.is_some() {
            p.limm_slot_samples += n * m.limm.bus_slots as u64;
        }
        for (ri, rf) in p.rf.iter_mut().enumerate() {
            bump(&mut rf.read_hist, reads[ri], n);
            bump(&mut rf.write_hist, writes[ri], n);
        }
    }
    p.pc_counts = counts;
    p
}

/// Reconstruct a VLIW profile: reads and issue are static per PC, write
/// pressure comes from the collector's dynamic histogram.
fn finish_vliw(m: &Machine, program: &[VliwBundle], c: Collector) -> GuestProfile {
    let mut p = GuestProfile::base(m, CoreStyle::Vliw, m.slots.len());
    let counts = c.pc_counts;
    let mut reads = vec![0u32; m.rfs.len()];
    for (bundle, &n) in program.iter().zip(&counts) {
        if n == 0 {
            continue;
        }
        p.samples += n;
        if bundle.is_nop() {
            p.nop_samples += n;
        }
        reads.fill(0);
        for (si, slot) in bundle.slots.iter().enumerate() {
            match slot {
                None => {}
                Some(VliwSlot::LimmCont) => p.limm_slot_samples += n,
                Some(VliwSlot::LimmHead { .. }) => p.slot_moves[si] += n,
                Some(VliwSlot::Op(o)) => {
                    p.slot_moves[si] += n;
                    for src in [o.a, o.b].into_iter().flatten() {
                        if let OpSrc::Reg(r) = src {
                            reads[r.rf.0 as usize] += 1;
                            p.rf_reads += n;
                        }
                    }
                    let fu = &mut p.fu[o.fu.0 as usize];
                    fu.ops += n;
                    fu.busy_cycles += n * (o.op.latency() as u64).max(1);
                }
            }
        }
        for (ri, rf) in p.rf.iter_mut().enumerate() {
            bump(&mut rf.read_hist, reads[ri], n);
        }
    }
    for (ri, hist) in c.wb_hist.into_iter().enumerate() {
        p.rf_writes += hist
            .iter()
            .enumerate()
            .map(|(k, &cnt)| k as u64 * cnt)
            .sum::<u64>();
        p.rf[ri].write_hist = hist;
    }
    p.pc_counts = counts;
    p
}

/// Reconstruct a scalar profile from per-PC execution counts. The sample
/// unit is the executed instruction (issue cycle); dynamic stall cycles
/// between instructions carry no port activity and appear only in
/// `SimStats::stall_cycles`.
fn finish_scalar(m: &Machine, program: &[ScalarInst], c: Collector) -> GuestProfile {
    let mut p = GuestProfile::base(m, CoreStyle::Scalar, 0);
    let counts = c.pc_counts;
    let mut reads = vec![0u32; m.rfs.len()];
    let mut writes = vec![0u32; m.rfs.len()];
    for (inst, &n) in program.iter().zip(&counts) {
        if n == 0 {
            continue;
        }
        p.samples += n;
        reads.fill(0);
        writes.fill(0);
        if let ScalarInst::Op(o) = inst {
            for src in [o.a, o.b].into_iter().flatten() {
                if let OpSrc::Reg(r) = src {
                    reads[r.rf.0 as usize] += 1;
                    p.rf_reads += n;
                }
            }
            if let Some(d) = o.dst {
                writes[d.rf.0 as usize] += 1;
                p.rf_writes += n;
            }
            let fu = &mut p.fu[o.fu.0 as usize];
            fu.ops += n;
            fu.busy_cycles += n * (o.op.latency() as u64).max(1);
        }
        for (ri, rf) in p.rf.iter_mut().enumerate() {
            bump(&mut rf.read_hist, reads[ri], n);
            bump(&mut rf.write_hist, writes[ri], n);
        }
    }
    p.pc_counts = counts;
    p
}

/// Static per-PC datapath activity, for rendering a PC trace as timeline
/// counter tracks (the Perfetto exporter buckets a `run_*_traced` trace
/// and multiplies by these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleActivity {
    /// Moves (TTA) or issued ops (VLIW/scalar) at this PC.
    pub moves: u32,
    /// RF reads at this PC.
    pub rf_reads: u32,
    /// RF writes caused by this PC (VLIW writebacks are attributed to
    /// their *issue* PC, not the cycle they land).
    pub rf_writes: u32,
    /// Operations started on function units at this PC.
    pub fu_starts: u32,
}

/// The static activity table of a program, indexed by PC.
pub fn static_activity(program: &Program) -> Vec<CycleActivity> {
    match program {
        Program::Tta(insts) => insts
            .iter()
            .map(|inst| {
                let mut a = CycleActivity::default();
                for mv in inst.slots.iter().flatten() {
                    a.moves += 1;
                    match mv.src {
                        MoveSrc::Rf(_) => a.rf_reads += 1,
                        MoveSrc::FuResult(_) | MoveSrc::Imm(_) | MoveSrc::ImmReg(_) => {}
                    }
                    match mv.dst {
                        MoveDst::Rf(_) => a.rf_writes += 1,
                        MoveDst::FuTrigger(..) => a.fu_starts += 1,
                        MoveDst::FuOperand(_) => {}
                    }
                }
                a
            })
            .collect(),
        Program::Vliw(bundles) => bundles
            .iter()
            .map(|bundle| {
                let mut a = CycleActivity::default();
                for slot in bundle.slots.iter().flatten() {
                    match slot {
                        VliwSlot::LimmCont => {}
                        VliwSlot::LimmHead { .. } => {
                            a.moves += 1;
                            a.rf_writes += 1;
                        }
                        VliwSlot::Op(o) => {
                            a.moves += 1;
                            a.fu_starts += 1;
                            for src in [o.a, o.b].into_iter().flatten() {
                                if matches!(src, OpSrc::Reg(_)) {
                                    a.rf_reads += 1;
                                }
                            }
                            if o.dst.is_some() {
                                a.rf_writes += 1;
                            }
                        }
                    }
                }
                a
            })
            .collect(),
        Program::Scalar(insts) => insts
            .iter()
            .map(|inst| {
                let mut a = CycleActivity::default();
                if let ScalarInst::Op(o) = inst {
                    a.moves += 1;
                    a.fu_starts += 1;
                    for src in [o.a, o.b].into_iter().flatten() {
                        if matches!(src, OpSrc::Reg(_)) {
                            a.rf_reads += 1;
                        }
                    }
                    if o.dst.is_some() {
                        a.rf_writes += 1;
                    }
                }
                a
            })
            .collect(),
    }
}

//! The machine (core template) description, covering all three programming
//! models compared in the paper: transport-triggered (TTA),
//! operation-triggered VLIW, and single-issue scalar RISC (MicroBlaze-like).

use crate::bus::{Bus, BusId, DstConn, SrcConn};
use crate::fu::{FuId, FuKind, FunctionUnit};
use crate::op::Opcode;
use crate::rf::{RegisterFile, RfId};

/// Programming model of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreStyle {
    /// Transport-triggered: instructions are bundles of explicit data moves.
    Tta,
    /// Operation-triggered VLIW: instructions are bundles of operations, all
    /// operands read from and results written to register files.
    Vliw,
    /// Single-issue in-order scalar RISC.
    Scalar,
}

/// One VLIW issue slot: the set of function units whose operations may be
/// encoded in this slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueSlot {
    /// Slot name for diagnostics.
    pub name: String,
    /// Function units issuable through this slot.
    pub units: Vec<FuId>,
}

/// Timing parameters for the scalar in-order pipeline model.
///
/// These play the role of the MicroBlaze pipeline variants in the paper. The
/// functional-unit latencies are the same Table-I latencies used by the TTA
/// and VLIW cores (the paper configures MicroBlaze with a "similar datapath")
/// and the pipeline parameters add the per-style hazard costs on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarPipeline {
    /// Pipeline depth (3 or 5 in the paper); affects the FPGA timing model.
    pub stages: u8,
    /// Extra cycles lost on a taken control transfer (pipeline refill). The
    /// 5-stage MicroBlaze is configured with its branch-target cache, which
    /// is why the deeper pipeline loses *fewer* cycles per taken branch —
    /// matching Table IV where mblaze-5 always executes fewer cycles than
    /// mblaze-3.
    pub branch_penalty: u32,
    /// Whether results forward to dependent instructions as soon as their
    /// functional latency elapses. Without forwarding an extra write-back
    /// cycle is charged on every dependence.
    pub forwarding: bool,
    /// Immediate bits encodable inline in one instruction; wider constants
    /// cost one extra `imm`-prefix instruction (as on the real MicroBlaze).
    pub imm_bits: u8,
}

impl ScalarPipeline {
    /// The 3-stage, area-optimised MicroBlaze-like pipeline.
    pub fn three_stage() -> Self {
        ScalarPipeline {
            stages: 3,
            branch_penalty: 2,
            forwarding: true,
            imm_bits: 16,
        }
    }

    /// The 5-stage, performance-optimised MicroBlaze-like pipeline (with
    /// branch-target cache).
    pub fn five_stage() -> Self {
        ScalarPipeline {
            stages: 5,
            branch_penalty: 1,
            forwarding: true,
            imm_bits: 16,
        }
    }
}

/// Long-immediate support of a TTA machine.
///
/// TCE encodes long immediates by repurposing the move slots of designated
/// buses through instruction templates: writing a 32-bit immediate consumes
/// `bus_slots` slots in one instruction and lands in one of `imm_regs`
/// immediate registers, readable as a move source from the *next* cycle
/// until overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimmConfig {
    /// Number of long-immediate registers.
    pub imm_regs: u8,
    /// Move slots consumed by transporting one 32-bit long immediate.
    pub bus_slots: u8,
}

impl Default for LimmConfig {
    fn default() -> Self {
        // Two immediate registers: typical blocks need one for a data
        // constant and one for the branch target, and two registers let the
        // scheduler overlap them freely.
        LimmConfig {
            imm_regs: 2,
            bus_slots: 3,
        }
    }
}

/// The most buses, function units or VLIW issue slots a machine may have:
/// the schedulers track each kind as the bits of one `u64`.
pub const MAX_PER_KIND: usize = 64;

/// A validation problem found in a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError(pub String);

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ModelError {}

/// A complete soft-core description.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Design-point name (e.g. `"m-tta-2"`).
    pub name: String,
    /// Programming model.
    pub style: CoreStyle,
    /// Nominal issue width (1, 2 or 3 in the paper); for TTA this is the
    /// sustained operation rate the datapath is sized for, not the move
    /// count.
    pub issue_width: u8,
    /// Function units (always containing exactly one control unit).
    pub funits: Vec<FunctionUnit>,
    /// Register files.
    pub rfs: Vec<RegisterFile>,
    /// Transport buses (TTA style only; empty otherwise).
    pub buses: Vec<Bus>,
    /// Issue slots (VLIW style only; empty otherwise).
    pub slots: Vec<IssueSlot>,
    /// Scalar pipeline parameters (scalar style only).
    pub scalar: Option<ScalarPipeline>,
    /// Delay slots after a control-transfer trigger before it takes effect
    /// (TTA and VLIW; the scalar model charges `branch_penalty` dynamically
    /// instead).
    pub jump_delay_slots: u32,
    /// Long-immediate support (TTA).
    pub limm: LimmConfig,
    /// Issue slots consumed by a 32-bit long-immediate operation (VLIW).
    pub vliw_limm_slots: u8,
}

impl Machine {
    /// Look up a function unit.
    pub fn fu(&self, id: FuId) -> &FunctionUnit {
        &self.funits[id.0 as usize]
    }

    /// Look up a register file.
    pub fn rf(&self, id: RfId) -> &RegisterFile {
        &self.rfs[id.0 as usize]
    }

    /// Look up a bus.
    pub fn bus(&self, id: BusId) -> &Bus {
        &self.buses[id.0 as usize]
    }

    /// Iterate function unit ids.
    pub fn fu_ids(&self) -> impl Iterator<Item = FuId> + '_ {
        (0..self.funits.len() as u16).map(FuId)
    }

    /// Iterate register file ids.
    pub fn rf_ids(&self) -> impl Iterator<Item = RfId> + '_ {
        (0..self.rfs.len() as u16).map(RfId)
    }

    /// Iterate bus ids.
    pub fn bus_ids(&self) -> impl Iterator<Item = BusId> + '_ {
        (0..self.buses.len() as u16).map(BusId)
    }

    /// The control unit's id.
    pub fn ctrl_unit(&self) -> FuId {
        self.fu_ids()
            .find(|&id| self.fu(id).kind == FuKind::Ctrl)
            .expect("validated machine has a control unit")
    }

    /// The id of the (first) load/store unit.
    pub fn lsu(&self) -> FuId {
        self.fu_ids()
            .find(|&id| self.fu(id).kind == FuKind::Lsu)
            .expect("validated machine has a load/store unit")
    }

    /// Function units able to execute the given opcode.
    pub fn units_for(&self, op: Opcode) -> impl Iterator<Item = FuId> + '_ {
        self.fu_ids().filter(move |&id| self.fu(id).supports(op))
    }

    /// Total general-purpose registers across all register files.
    pub fn total_regs(&self) -> u32 {
        self.rfs.iter().map(|rf| rf.regs as u32).sum()
    }

    /// Total RF read ports (the headline complexity metric of the paper).
    pub fn total_read_ports(&self) -> u32 {
        self.rfs.iter().map(|rf| rf.read_ports as u32).sum()
    }

    /// Total RF write ports.
    pub fn total_write_ports(&self) -> u32 {
        self.rfs.iter().map(|rf| rf.write_ports as u32).sum()
    }

    /// Buses whose slot can transport a move with the given source and
    /// destination.
    pub fn buses_connecting(&self, src: SrcConn, dst: DstConn) -> impl Iterator<Item = BusId> + '_ {
        self.bus_ids()
            .filter(move |&b| self.bus(b).reads(src) && self.bus(b).writes(dst))
    }

    /// Structural validation. Returns all problems found (empty = valid).
    pub fn validate(&self) -> Result<(), Vec<ModelError>> {
        let mut errs = Vec::new();
        let mut err = |m: String| errs.push(ModelError(m));

        // Exactly one control unit.
        let ctrls = self
            .funits
            .iter()
            .filter(|f| f.kind == FuKind::Ctrl)
            .count();
        if ctrls != 1 {
            err(format!(
                "machine must have exactly one control unit, found {ctrls}"
            ));
        }

        // Unique names.
        for (what, names) in [
            (
                "function unit",
                self.funits
                    .iter()
                    .map(|f| f.name.clone())
                    .collect::<Vec<_>>(),
            ),
            (
                "register file",
                self.rfs.iter().map(|r| r.name.clone()).collect(),
            ),
            ("bus", self.buses.iter().map(|b| b.name.clone()).collect()),
        ] {
            let mut sorted = names.clone();
            sorted.sort();
            sorted.dedup();
            if sorted.len() != names.len() {
                err(format!("duplicate {what} names"));
            }
        }

        // Opcode classes match unit kinds, units non-empty.
        for f in &self.funits {
            if f.ops.is_empty() {
                err(format!("function unit {} hosts no operations", f.name));
            }
            for &op in &f.ops {
                if op.class() != f.kind.op_class() {
                    err(format!("unit {} ({:?}) cannot host {op}", f.name, f.kind));
                }
            }
        }

        // Register files sane.
        if self.rfs.is_empty() {
            err("machine has no register files".into());
        }
        for rf in &self.rfs {
            if rf.regs == 0 || rf.width == 0 || rf.read_ports == 0 || rf.write_ports == 0 {
                err(format!("register file {} has a zero dimension", rf.name));
            }
        }

        for (what, n) in [
            ("buses", self.buses.len()),
            ("function units", self.funits.len()),
            ("issue slots", self.slots.len()),
        ] {
            if n > MAX_PER_KIND {
                err(format!("machine has {n} {what}, more than {MAX_PER_KIND}"));
            }
        }

        match self.style {
            CoreStyle::Tta => self.validate_tta(&mut errs),
            CoreStyle::Vliw => self.validate_vliw(&mut errs),
            CoreStyle::Scalar => {
                if self.scalar.is_none() {
                    errs.push(ModelError(
                        "scalar machine lacks pipeline parameters".into(),
                    ));
                }
            }
        }

        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn validate_tta(&self, errs: &mut Vec<ModelError>) {
        let mut err = |m: String| errs.push(ModelError(m));
        if self.buses.is_empty() {
            err("TTA machine has no buses".into());
            return;
        }
        let in_fu = |id: FuId| (id.0 as usize) < self.funits.len();
        let in_rf = |id: RfId| (id.0 as usize) < self.rfs.len();
        for b in &self.buses {
            for s in &b.sources {
                match *s {
                    SrcConn::RfRead(r) if !in_rf(r) => err(format!("bus {}: bad RF {r:?}", b.name)),
                    SrcConn::FuResult(f) if !in_fu(f) => {
                        err(format!("bus {}: bad FU {f:?}", b.name))
                    }
                    _ => {}
                }
            }
            for d in &b.dests {
                match *d {
                    DstConn::RfWrite(r) if !in_rf(r) => {
                        err(format!("bus {}: bad RF {r:?}", b.name))
                    }
                    DstConn::FuOperand(f) | DstConn::FuTrigger(f) if !in_fu(f) => {
                        err(format!("bus {}: bad FU {f:?}", b.name))
                    }
                    _ => {}
                }
            }
        }
        // Every needed port must be reachable.
        for (i, f) in self.funits.iter().enumerate() {
            let id = FuId(i as u16);
            if !self.buses.iter().any(|b| b.writes(DstConn::FuTrigger(id))) {
                err(format!(
                    "trigger port of {} unreachable from any bus",
                    f.name
                ));
            }
            if f.has_operand_port() && !self.buses.iter().any(|b| b.writes(DstConn::FuOperand(id)))
            {
                err(format!(
                    "operand port of {} unreachable from any bus",
                    f.name
                ));
            }
            if f.has_result_port() && !self.buses.iter().any(|b| b.reads(SrcConn::FuResult(id))) {
                err(format!(
                    "result port of {} not connected to any bus",
                    f.name
                ));
            }
        }
        for (i, rf) in self.rfs.iter().enumerate() {
            let id = RfId(i as u16);
            if !self.buses.iter().any(|b| b.reads(SrcConn::RfRead(id))) {
                err(format!("read port of {} not connected to any bus", rf.name));
            }
            if !self.buses.iter().any(|b| b.writes(DstConn::RfWrite(id))) {
                err(format!(
                    "write port of {} not connected to any bus",
                    rf.name
                ));
            }
        }
        if self.limm.imm_regs == 0 || self.limm.bus_slots == 0 {
            err("TTA machine needs long-immediate support (imm_regs and bus_slots >= 1)".into());
        }
        if (self.limm.bus_slots as usize) > self.buses.len() {
            err(format!(
                "long immediate needs {} bus slots but machine has only {} buses",
                self.limm.bus_slots,
                self.buses.len()
            ));
        }
    }

    fn validate_vliw(&self, errs: &mut Vec<ModelError>) {
        let mut err = |m: String| errs.push(ModelError(m));
        if self.slots.is_empty() {
            err("VLIW machine has no issue slots".into());
            return;
        }
        let mut covered = vec![false; self.funits.len()];
        for s in &self.slots {
            if s.units.is_empty() {
                err(format!("issue slot {} lists no units", s.name));
            }
            for &u in &s.units {
                if (u.0 as usize) >= self.funits.len() {
                    err(format!("issue slot {} references bad unit {u:?}", s.name));
                } else {
                    covered[u.0 as usize] = true;
                }
            }
        }
        for (i, c) in covered.iter().enumerate() {
            if !c {
                err(format!(
                    "unit {} not issuable through any slot",
                    self.funits[i].name
                ));
            }
        }
        if self.vliw_limm_slots == 0 || (self.vliw_limm_slots as usize) > self.slots.len() {
            err(format!(
                "vliw_limm_slots = {} invalid for {} issue slots",
                self.vliw_limm_slots,
                self.slots.len()
            ));
        }
    }

    /// Validation for *generated* configs, as produced by the design-space
    /// search mutator ([`crate::gen`]): everything [`Machine::validate`]
    /// checks, plus the stronger invariants the compiler needs to make
    /// progress on arbitrary kernels. A hand-written machine may
    /// legitimately violate these (e.g. an ALU-only datapath for a
    /// load-free guest); a machine the mutator feeds to the full kernel
    /// suite may not.
    pub fn validate_generated(&self) -> Result<(), Vec<ModelError>> {
        let mut errs = match self.validate() {
            Ok(()) => Vec::new(),
            Err(e) => e,
        };
        let mut err = |m: String| errs.push(ModelError(m));

        // The kernel suite needs arithmetic and memory traffic.
        if !self.funits.iter().any(|f| f.kind == FuKind::Alu) {
            err("generated config has no ALU".into());
        }
        if !self.funits.iter().any(|f| f.kind == FuKind::Lsu) {
            err("generated config has no LSU".into());
        }
        if !(1..=3).contains(&self.issue_width) {
            err(format!(
                "generated config has issue width {} outside 1..=3",
                self.issue_width
            ));
        }
        // Register allocation must have head room; the smallest paper RF
        // is 32 registers and the allocator's spill machinery is tuned
        // for that floor.
        if self.total_regs() < 32 {
            err(format!(
                "generated config has only {} registers (minimum 32)",
                self.total_regs()
            ));
        }
        // A VLIW slot reads up to two operands and writes one result per
        // cycle; fewer aggregate ports than the issue contract can
        // demand would wedge the scheduler (RF ports < connectivity
        // needs). TTA needs no such rule — that asymmetry is the paper's
        // point — its per-port reachability is checked by `validate`.
        if self.style == CoreStyle::Vliw {
            let slots = self.slots.len() as u32;
            if self.total_read_ports() < 2 * slots {
                err(format!(
                    "generated VLIW has {} read ports for {} slots (needs 2 per slot)",
                    self.total_read_ports(),
                    slots
                ));
            }
            if self.total_write_ports() < slots {
                err(format!(
                    "generated VLIW has {} write ports for {} slots (needs 1 per slot)",
                    self.total_write_ports(),
                    slots
                ));
            }
        }

        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn all_presets_validate() {
        for m in presets::all_design_points() {
            if let Err(es) = m.validate() {
                panic!(
                    "{} failed validation:\n{}",
                    m.name,
                    es.iter()
                        .map(|e| e.0.clone())
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }

    #[test]
    fn missing_control_unit_is_rejected() {
        let mut m = presets::m_tta_1();
        m.funits.retain(|f| f.kind != FuKind::Ctrl);
        let errs = m.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("control unit")));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = presets::m_tta_1();
        let n = m.rfs[0].name.clone();
        m.rfs.push(RegisterFile::new(n, 32, 1, 1));
        let errs = m.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("duplicate register file")));
    }

    #[test]
    fn unreachable_trigger_rejected() {
        let mut m = presets::m_tta_1();
        let alu = m.fu_ids().find(|&f| m.fu(f).kind == FuKind::Alu).unwrap();
        for b in &mut m.buses {
            b.dests.retain(|d| *d != DstConn::FuTrigger(alu));
        }
        let errs = m.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("trigger port")));
    }

    #[test]
    fn more_than_64_buses_rejected() {
        let rfs = vec![RegisterFile::new("rf0", 32, 1, 1)];
        let mut m = presets::custom_tta("wide", 1, rfs, MAX_PER_KIND, false);
        m.validate().unwrap();
        let mut extra = m.buses[0].clone();
        extra.name = "b64".into();
        m.buses.push(extra);
        let errs = m.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("65 buses")), "{errs:?}");
    }

    #[test]
    fn vliw_uncovered_unit_rejected() {
        let mut m = presets::m_vliw_2();
        m.slots[0].units.clear();
        assert!(m.validate().is_err());
    }

    #[test]
    fn generated_validation_accepts_all_presets_except_scalar_port_rule() {
        // Every multi-issue preset satisfies the generated-config rules.
        for m in presets::all_design_points() {
            if m.style != CoreStyle::Scalar {
                m.validate_generated()
                    .unwrap_or_else(|e| panic!("{}: {e:?}", m.name));
            }
        }
    }

    #[test]
    fn generated_validation_rejects_missing_alu_and_lsu() {
        let mut m = presets::m_tta_1();
        m.funits.retain(|f| f.kind != FuKind::Alu);
        let errs = m.validate_generated().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("no ALU")), "{errs:?}");

        let mut m = presets::m_tta_1();
        m.funits.retain(|f| f.kind != FuKind::Lsu);
        let errs = m.validate_generated().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("no LSU")), "{errs:?}");
    }

    #[test]
    fn generated_validation_rejects_zero_buses() {
        let mut m = presets::m_tta_2();
        m.buses.clear();
        let errs = m.validate_generated().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("no buses")), "{errs:?}");
    }

    #[test]
    fn generated_validation_rejects_starved_vliw_ports() {
        // Two slots need 4 read / 2 write ports; halve the RF.
        let mut m = presets::m_vliw_2();
        m.rfs = vec![RegisterFile::new("rf0", 64, 2, 1)];
        let errs = m.validate_generated().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("read ports")), "{errs:?}");
        assert!(errs.iter().any(|e| e.0.contains("write ports")), "{errs:?}");
        // validate() itself is fine with it — the rule is search-specific.
        m.validate().unwrap();
    }

    #[test]
    fn generated_validation_rejects_tiny_register_budgets() {
        let mut m = presets::m_tta_1();
        m.rfs = vec![RegisterFile::new("rf0", 16, 1, 1)];
        let errs = m.validate_generated().unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("minimum 32")), "{errs:?}");
    }

    #[test]
    fn port_totals() {
        let m = presets::m_vliw_2();
        assert_eq!(m.total_read_ports(), 4);
        assert_eq!(m.total_write_ports(), 2);
        assert_eq!(m.total_regs(), 64);
        let p = presets::p_tta_3();
        assert_eq!(p.total_read_ports(), 3);
        assert_eq!(p.total_write_ports(), 3);
        assert_eq!(p.total_regs(), 96);
    }

    #[test]
    fn ctrl_unit_lookup() {
        let m = presets::m_tta_2();
        let cu = m.ctrl_unit();
        assert_eq!(m.fu(cu).kind, FuKind::Ctrl);
        assert!(m.fu(cu).supports(Opcode::Jump));
        assert!(m.fu(m.lsu()).supports(Opcode::Stw));
    }

    #[test]
    fn units_for_opcode() {
        let m = presets::m_tta_3();
        assert_eq!(m.units_for(Opcode::Add).count(), 2); // two ALUs
        assert_eq!(m.units_for(Opcode::Ldw).count(), 1);
        assert_eq!(m.units_for(Opcode::Jump).count(), 1);
    }
}

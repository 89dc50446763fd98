//! Complete machine-code programs and their validation against a machine
//! description.
//!
//! The validator enforces every *static* resource rule the scheduler must
//! respect (connectivity, port counts per cycle, immediate ranges, template
//! constraints); the cycle-accurate simulator additionally checks the
//! dynamic rules (result-port lifetimes, write-port collisions across
//! cycles). Together they make scheduler bugs loud instead of silent.

use crate::code::{MoveDst, MoveSrc, OpSrc, Operation, ScalarInst, TtaInst, VliwBundle, VliwSlot};
use crate::encoding::{fits_signed, image_bits, vliw_imm_bits};
use tta_model::{CoreStyle, DstConn, Machine, RegRef, SrcConn};

/// A validation problem in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaError(pub String);

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for IsaError {}

/// A compiled program for one machine, in that machine's native form.
#[derive(Debug, Clone, PartialEq)]
pub enum Program {
    /// Transport-triggered instruction stream.
    Tta(Vec<TtaInst>),
    /// VLIW bundle stream.
    Vliw(Vec<VliwBundle>),
    /// Scalar instruction stream.
    Scalar(Vec<ScalarInst>),
}

impl Program {
    /// Number of instructions (bundles count once).
    pub fn len(&self) -> usize {
        match self {
            Program::Tta(v) => v.len(),
            Program::Vliw(v) => v.len(),
            Program::Scalar(v) => v.len(),
        }
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Program image size in bits on the given machine.
    pub fn image_bits(&self, m: &Machine) -> u64 {
        image_bits(m, self.len())
    }

    /// Validate against a machine. The program style must match the machine
    /// style.
    pub fn validate(&self, m: &Machine) -> Result<(), Vec<IsaError>> {
        let mut errs = Vec::new();
        match (self, m.style) {
            (Program::Tta(insts), CoreStyle::Tta) => validate_tta(m, insts, &mut errs),
            (Program::Vliw(bundles), CoreStyle::Vliw) => validate_vliw(m, bundles, &mut errs),
            (Program::Scalar(insts), CoreStyle::Scalar) => validate_scalar(m, insts, &mut errs),
            _ => errs.push(IsaError(format!(
                "program style does not match machine {} ({:?})",
                m.name, m.style
            ))),
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// Where a problem is (`pc N`, `pc N bus B` or `pc N slot S`), formatted
/// only when an error is pushed, so a valid program costs no strings.
#[derive(Clone, Copy)]
struct Ctx(usize, Option<(&'static str, usize)>);

impl std::fmt::Display for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.1 {
            Some((what, i)) => write!(f, "pc {} {what} {i}", self.0),
            None => write!(f, "pc {}", self.0),
        }
    }
}

fn check_reg(m: &Machine, r: RegRef, ctx: Ctx, errs: &mut Vec<IsaError>) {
    if (r.rf.0 as usize) >= m.rfs.len() {
        errs.push(IsaError(format!(
            "{ctx}: register file {} out of range",
            r.rf
        )));
    } else if r.index >= m.rf(r.rf).regs {
        errs.push(IsaError(format!("{ctx}: register {r} out of range")));
    }
}

fn validate_tta(m: &Machine, insts: &[TtaInst], errs: &mut Vec<IsaError>) {
    // Per-cycle RF port pressure and FU port collisions, reset per
    // instruction.
    let mut reads = vec![0u32; m.rfs.len()];
    let mut writes = vec![0u32; m.rfs.len()];
    let mut trig = vec![0u32; m.funits.len()];
    let mut oper = vec![0u32; m.funits.len()];
    for (pc, inst) in insts.iter().enumerate() {
        let ctx = |b: usize| Ctx(pc, Some(("bus", b)));
        if inst.slots.len() != m.buses.len() {
            errs.push(IsaError(format!(
                "pc {pc}: {} slots for {} buses",
                inst.slots.len(),
                m.buses.len()
            )));
            continue;
        }
        if let Some((reg, _)) = inst.limm {
            if reg >= m.limm.imm_regs {
                errs.push(IsaError(format!(
                    "pc {pc}: long-immediate register {reg} out of range"
                )));
            }
            for s in 0..m.limm.bus_slots as usize {
                if inst.slots[s].is_some() {
                    errs.push(IsaError(format!(
                        "pc {pc}: slot {s} must be empty in a long-immediate template"
                    )));
                }
            }
        }
        for counts in [&mut reads, &mut writes, &mut trig, &mut oper] {
            counts.fill(0);
        }
        for (bi, slot) in inst.slots.iter().enumerate() {
            let Some(mv) = slot else { continue };
            let bus = m.bus(tta_model::BusId(bi as u16));
            match mv.src {
                MoveSrc::Rf(r) => {
                    check_reg(m, r, ctx(bi), errs);
                    if !bus.reads(SrcConn::RfRead(r.rf)) {
                        errs.push(IsaError(format!("{}: bus cannot read {}", ctx(bi), r.rf)));
                    }
                    if (r.rf.0 as usize) < reads.len() {
                        reads[r.rf.0 as usize] += 1;
                    }
                }
                MoveSrc::FuResult(fu) => {
                    if (fu.0 as usize) >= m.funits.len() {
                        errs.push(IsaError(format!("{}: bad FU {fu}", ctx(bi))));
                    } else if !bus.reads(SrcConn::FuResult(fu)) {
                        errs.push(IsaError(format!(
                            "{}: bus cannot read result of {fu}",
                            ctx(bi)
                        )));
                    }
                }
                MoveSrc::Imm(v) => {
                    // Control-flow targets are instruction addresses; they
                    // are materialised through long immediates just like
                    // data constants, so a short immediate must always fit.
                    if !bus.simm_fits(v) {
                        errs.push(IsaError(format!(
                            "{}: immediate {v} does not fit {} simm bits",
                            ctx(bi),
                            bus.simm_bits
                        )));
                    }
                }
                MoveSrc::ImmReg(i) => {
                    if i >= m.limm.imm_regs {
                        errs.push(IsaError(format!(
                            "{}: long-immediate register {i} out of range",
                            ctx(bi)
                        )));
                    }
                }
            }
            match mv.dst {
                MoveDst::Rf(r) => {
                    check_reg(m, r, ctx(bi), errs);
                    if !bus.writes(DstConn::RfWrite(r.rf)) {
                        errs.push(IsaError(format!("{}: bus cannot write {}", ctx(bi), r.rf)));
                    }
                    if (r.rf.0 as usize) < writes.len() {
                        writes[r.rf.0 as usize] += 1;
                    }
                }
                MoveDst::FuOperand(fu) => {
                    if (fu.0 as usize) >= m.funits.len() {
                        errs.push(IsaError(format!("{}: bad FU {fu}", ctx(bi))));
                    } else {
                        if !bus.writes(DstConn::FuOperand(fu)) {
                            errs.push(IsaError(format!(
                                "{}: bus cannot write operand of {fu}",
                                ctx(bi)
                            )));
                        }
                        oper[fu.0 as usize] += 1;
                    }
                }
                MoveDst::FuTrigger(fu, op) => {
                    if (fu.0 as usize) >= m.funits.len() {
                        errs.push(IsaError(format!("{}: bad FU {fu}", ctx(bi))));
                    } else {
                        if !bus.writes(DstConn::FuTrigger(fu)) {
                            errs.push(IsaError(format!(
                                "{}: bus cannot write trigger of {fu}",
                                ctx(bi)
                            )));
                        }
                        if !m.fu(fu).supports(op) {
                            errs.push(IsaError(format!(
                                "{}: {fu} does not implement {op}",
                                ctx(bi)
                            )));
                        }
                        trig[fu.0 as usize] += 1;
                    }
                }
            }
        }
        for (ri, &n) in reads.iter().enumerate() {
            let ports = m.rfs[ri].read_ports as u32;
            if n > ports {
                errs.push(IsaError(format!(
                    "pc {pc}: {n} reads of {} but only {ports} read ports",
                    m.rfs[ri].name
                )));
            }
        }
        for (ri, &n) in writes.iter().enumerate() {
            let ports = m.rfs[ri].write_ports as u32;
            if n > ports {
                errs.push(IsaError(format!(
                    "pc {pc}: {n} writes of {} but only {ports} write ports",
                    m.rfs[ri].name
                )));
            }
        }
        for (fi, &n) in trig.iter().enumerate() {
            if n > 1 {
                errs.push(IsaError(format!(
                    "pc {pc}: {n} simultaneous triggers of {}",
                    m.funits[fi].name
                )));
            }
        }
        for (fi, &n) in oper.iter().enumerate() {
            if n > 1 {
                errs.push(IsaError(format!(
                    "pc {pc}: {n} simultaneous operand writes of {}",
                    m.funits[fi].name
                )));
            }
        }
    }
}

fn validate_operation(
    m: &Machine,
    o: &Operation,
    imm_bits: u32,
    ctx: Ctx,
    errs: &mut Vec<IsaError>,
) {
    if (o.fu.0 as usize) >= m.funits.len() {
        errs.push(IsaError(format!("{ctx}: bad FU {}", o.fu)));
        return;
    }
    if !m.fu(o.fu).supports(o.op) {
        errs.push(IsaError(format!(
            "{ctx}: {} does not implement {}",
            o.fu, o.op
        )));
    }
    if let Some(d) = o.dst {
        check_reg(m, d, ctx, errs);
    }
    if o.op.has_result() != o.dst.is_some() {
        errs.push(IsaError(format!(
            "{ctx}: {} result/destination mismatch",
            o.op
        )));
    }
    let need = o.op.num_inputs();
    let have = usize::from(o.a.is_some()) + usize::from(o.b.is_some());
    if need != have {
        errs.push(IsaError(format!(
            "{ctx}: {} needs {need} inputs, has {have}",
            o.op
        )));
    }
    for s in [o.a, o.b].into_iter().flatten() {
        match s {
            OpSrc::Reg(r) => check_reg(m, r, ctx, errs),
            OpSrc::Imm(v) => {
                if !fits_signed(v, imm_bits) {
                    errs.push(IsaError(format!(
                        "{ctx}: immediate {v} does not fit {imm_bits} bits"
                    )));
                }
            }
        }
    }
}

fn validate_vliw(m: &Machine, bundles: &[VliwBundle], errs: &mut Vec<IsaError>) {
    let imm_bits = vliw_imm_bits(m);
    let mut reads = vec![0u32; m.rfs.len()];
    for (pc, b) in bundles.iter().enumerate() {
        if b.slots.len() != m.slots.len() {
            errs.push(IsaError(format!(
                "pc {pc}: {} slots for {} issue slots",
                b.slots.len(),
                m.slots.len()
            )));
            continue;
        }
        reads.fill(0);
        let mut si = 0usize;
        while si < b.slots.len() {
            let ctx = Ctx(pc, Some(("slot", si)));
            match &b.slots[si] {
                None => {}
                Some(VliwSlot::Op(o)) => {
                    if !m.slots[si].units.contains(&o.fu) {
                        errs.push(IsaError(format!(
                            "{ctx}: {} not issuable through this slot",
                            o.fu
                        )));
                    }
                    validate_operation(m, o, imm_bits, ctx, errs);
                    for s in [o.a, o.b].into_iter().flatten() {
                        if let OpSrc::Reg(r) = s {
                            if (r.rf.0 as usize) < reads.len() {
                                reads[r.rf.0 as usize] += 1;
                            }
                        }
                    }
                }
                Some(VliwSlot::LimmHead { dst, .. }) => {
                    check_reg(m, *dst, ctx, errs);
                    for k in 1..m.vliw_limm_slots as usize {
                        match b.slots.get(si + k) {
                            Some(Some(VliwSlot::LimmCont)) => {}
                            _ => errs.push(IsaError(format!(
                                "{ctx}: long immediate missing continuation slot {}",
                                si + k
                            ))),
                        }
                    }
                    si += m.vliw_limm_slots as usize - 1;
                }
                Some(VliwSlot::LimmCont) => {
                    errs.push(IsaError(format!("{ctx}: orphan limm continuation")));
                }
            }
            si += 1;
        }
        for (ri, &n) in reads.iter().enumerate() {
            let ports = m.rfs[ri].read_ports as u32;
            if n > ports {
                errs.push(IsaError(format!(
                    "pc {pc}: {n} reads of {} but only {ports} read ports",
                    m.rfs[ri].name
                )));
            }
        }
    }
}

fn validate_scalar(m: &Machine, insts: &[ScalarInst], errs: &mut Vec<IsaError>) {
    let pipe = m.scalar.expect("scalar machine");
    for (pc, inst) in insts.iter().enumerate() {
        let ctx = Ctx(pc, None);
        match inst {
            ScalarInst::ImmPrefix => {
                // Must be followed by an operation using an immediate.
                match insts.get(pc + 1) {
                    Some(ScalarInst::Op(o))
                        if [o.a, o.b]
                            .into_iter()
                            .flatten()
                            .any(|s| matches!(s, OpSrc::Imm(_))) => {}
                    _ => errs.push(IsaError(format!(
                        "{ctx}: imm-prefix not followed by an immediate-using op"
                    ))),
                }
            }
            ScalarInst::Op(o) => {
                // An op right after a prefix may carry a full 32-bit
                // immediate; otherwise it is limited to the pipeline's
                // inline immediate width.
                let prefixed =
                    matches!(insts.get(pc.wrapping_sub(1)), Some(ScalarInst::ImmPrefix)) && pc > 0;
                let imm_bits = if prefixed { 32 } else { pipe.imm_bits as u32 };
                validate_operation(m, o, imm_bits, ctx, errs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Move;
    use tta_model::{presets, FuId, Opcode, RfId};

    fn rr(rf: u16, i: u16) -> RegRef {
        RegRef {
            rf: RfId(rf),
            index: i,
        }
    }

    #[test]
    fn empty_programs_validate() {
        assert!(Program::Tta(vec![]).validate(&presets::m_tta_1()).is_ok());
        assert!(Program::Vliw(vec![]).validate(&presets::m_vliw_2()).is_ok());
        assert!(Program::Scalar(vec![])
            .validate(&presets::mblaze_3())
            .is_ok());
    }

    #[test]
    fn style_mismatch_rejected() {
        assert!(Program::Tta(vec![]).validate(&presets::m_vliw_2()).is_err());
    }

    #[test]
    fn tta_read_port_overflow_detected() {
        let m = presets::m_tta_2(); // single 1R/1W RF
                                    // Find two buses that can read the RF.
        let readers: Vec<usize> = (0..m.buses.len())
            .filter(|&b| m.buses[b].reads(SrcConn::RfRead(RfId(0))))
            .collect();
        assert!(
            readers.len() >= 2,
            "preset should connect the read socket to 2 buses"
        );
        let mut inst = TtaInst::nop(m.buses.len());
        for (k, &b) in readers.iter().take(2).enumerate() {
            inst.slots[b] = Some(Move {
                src: MoveSrc::Rf(rr(0, k as u16)),
                dst: MoveDst::FuOperand(FuId(0)),
            });
        }
        // Two simultaneous reads on a 1-read-port RF (also two operand
        // writes on the same FU).
        let errs = Program::Tta(vec![inst]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("read ports")), "{errs:?}");
    }

    #[test]
    fn tta_unconnected_move_rejected() {
        let m = presets::m_tta_2();
        // Find a bus that can NOT read the RF.
        let bad = (0..m.buses.len())
            .find(|&b| !m.buses[b].reads(SrcConn::RfRead(RfId(0))))
            .expect("pruned preset leaves some bus without RF read");
        let mut inst = TtaInst::nop(m.buses.len());
        inst.slots[bad] = Some(Move {
            src: MoveSrc::Rf(rr(0, 0)),
            dst: MoveDst::FuOperand(FuId(0)),
        });
        let errs = Program::Tta(vec![inst]).validate(&m).unwrap_err();
        let want = format!("pc 0 bus {bad}: bus cannot read RF0");
        assert!(errs.iter().any(|e| e.0 == want), "{errs:?}");
    }

    #[test]
    fn tta_oversized_simm_rejected() {
        let m = presets::m_tta_1();
        let mut inst = TtaInst::nop(m.buses.len());
        inst.slots[0] = Some(Move {
            src: MoveSrc::Imm(1 << 20),
            dst: MoveDst::FuOperand(FuId(0)),
        });
        let errs = Program::Tta(vec![inst]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("does not fit")));
    }

    #[test]
    fn tta_limm_template_requires_empty_slots() {
        let m = presets::m_tta_2();
        let mut inst = TtaInst::nop(m.buses.len());
        inst.limm = Some((0, 123_456));
        inst.slots[0] = Some(Move {
            src: MoveSrc::Imm(1),
            dst: MoveDst::FuOperand(FuId(0)),
        });
        let errs = Program::Tta(vec![inst]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("long-immediate template")));
        let mut ok = TtaInst::nop(m.buses.len());
        ok.limm = Some((1, i32::MIN));
        assert!(Program::Tta(vec![ok]).validate(&m).is_ok());
    }

    #[test]
    fn tta_double_trigger_rejected() {
        let m = presets::m_tta_2();
        let alu = FuId(0);
        let triggers: Vec<usize> = (0..m.buses.len())
            .filter(|&b| m.buses[b].writes(DstConn::FuTrigger(alu)))
            .collect();
        let mut inst = TtaInst::nop(m.buses.len());
        for &b in triggers.iter().take(2) {
            inst.slots[b] = Some(Move {
                src: MoveSrc::Imm(1),
                dst: MoveDst::FuTrigger(alu, Opcode::Add),
            });
        }
        let errs = Program::Tta(vec![inst]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("simultaneous triggers")));
    }

    #[test]
    fn vliw_slot_unit_restriction() {
        let m = presets::m_vliw_2();
        // LSU op in slot 0 (which hosts ALU+CTRL) must be rejected.
        let lsu = m.lsu();
        let mut b = VliwBundle::nop(m.slots.len());
        b.slots[0] = Some(VliwSlot::Op(Operation {
            op: Opcode::Ldw,
            fu: lsu,
            dst: Some(rr(0, 0)),
            a: Some(OpSrc::Imm(0)),
            b: None,
        }));
        let errs = Program::Vliw(vec![b]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("not issuable")));
    }

    #[test]
    fn vliw_limm_needs_continuation() {
        let m = presets::m_vliw_3(); // 3 slots, limm takes 2
        let mut b = VliwBundle::nop(3);
        b.slots[0] = Some(VliwSlot::LimmHead {
            dst: rr(0, 1),
            value: 1 << 30,
        });
        let errs = Program::Vliw(vec![b.clone()]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("continuation")));
        b.slots[1] = Some(VliwSlot::LimmCont);
        assert!(Program::Vliw(vec![b]).validate(&m).is_ok());
    }

    #[test]
    fn vliw_imm_width_enforced() {
        let m = presets::m_vliw_2(); // 6-bit inline immediates
        let alu = FuId(0);
        let mut b = VliwBundle::nop(2);
        b.slots[0] = Some(VliwSlot::Op(Operation {
            op: Opcode::Add,
            fu: alu,
            dst: Some(rr(0, 0)),
            a: Some(OpSrc::Imm(31)),
            b: Some(OpSrc::Imm(100)), // too wide
        }));
        let errs = Program::Vliw(vec![b]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("does not fit")));
    }

    #[test]
    fn scalar_imm_prefix_rules() {
        let m = presets::mblaze_3();
        let alu = FuId(0);
        let wide = ScalarInst::Op(Operation {
            op: Opcode::Add,
            fu: alu,
            dst: Some(rr(0, 0)),
            a: Some(OpSrc::Reg(rr(0, 1))),
            b: Some(OpSrc::Imm(1 << 20)),
        });
        // Without prefix: rejected.
        let errs = Program::Scalar(vec![wide]).validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("does not fit")));
        // With prefix: accepted.
        assert!(Program::Scalar(vec![ScalarInst::ImmPrefix, wide])
            .validate(&m)
            .is_ok());
        // Dangling prefix: rejected.
        let errs = Program::Scalar(vec![ScalarInst::ImmPrefix])
            .validate(&m)
            .unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("imm-prefix")));
    }
}

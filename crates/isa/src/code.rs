//! Machine-code data structures for the three programming models.
//!
//! * TTA programs are sequences of [`TtaInst`]s: one optional [`Move`] per
//!   transport bus plus an optional long-immediate write.
//! * VLIW programs are sequences of [`VliwBundle`]s: one optional operation
//!   per issue slot, with long immediates spanning several slots.
//! * Scalar programs are flat [`ScalarInst`] streams with MicroBlaze-style
//!   `imm`-prefix instructions for wide constants.
//!
//! Control-flow targets are absolute instruction indices, matching the
//! paper's machines whose control units implement absolute jumps only.

use tta_model::{FuId, Opcode, RegRef};

/// Absolute byte address where a program stores its entry function's return
/// value before halting. The simulators read it back; the address lies in
/// the reserved low-memory area no data buffer occupies.
pub const RETVAL_ADDR: u32 = 8;

/// Source of a TTA data transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveSrc {
    /// Read a general-purpose register (occupies one RF read port this
    /// cycle).
    Rf(RegRef),
    /// Read a function unit's result port (software bypassing; no RF port
    /// used).
    FuResult(FuId),
    /// A short immediate carried in the move slot's source field.
    Imm(i32),
    /// Read a long-immediate register previously written by
    /// [`TtaInst::limm`].
    ImmReg(u8),
}

/// Destination of a TTA data transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveDst {
    /// Write a general-purpose register (occupies one RF write port).
    Rf(RegRef),
    /// Write a function unit's (storing) operand port.
    FuOperand(FuId),
    /// Write a function unit's trigger port, starting `op`.
    FuTrigger(FuId, Opcode),
}

/// One programmed data transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Move {
    /// Where the data comes from.
    pub src: MoveSrc,
    /// Where the data goes.
    pub dst: MoveDst,
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// One TTA instruction: a move slot per bus, plus an optional long-immediate
/// write that repurposes the first `limm.bus_slots` move slots (which must
/// therefore be empty).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TtaInst {
    /// One optional move per bus, indexed by bus id.
    pub slots: Vec<Option<Move>>,
    /// Optional long-immediate write `(imm_reg, value)`, visible to reads
    /// from the *next* cycle onward.
    pub limm: Option<(u8, i32)>,
}

impl TtaInst {
    /// An all-NOP instruction for a machine with `n_buses` buses.
    pub fn nop(n_buses: usize) -> Self {
        TtaInst {
            slots: vec![None; n_buses],
            limm: None,
        }
    }

    /// Number of programmed moves.
    fn move_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether nothing happens this cycle.
    pub fn is_nop(&self) -> bool {
        self.move_count() == 0 && self.limm.is_none()
    }
}

/// Source of a VLIW or scalar operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSrc {
    /// Read a register.
    Reg(RegRef),
    /// An immediate (the encoding model checks its width).
    Imm(i32),
}

/// An operation-triggered operation (VLIW slot payload or scalar
/// instruction body): `dst = op(a, b)` with RF-resident operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// The opcode.
    pub op: Opcode,
    /// The executing function unit.
    pub fu: FuId,
    /// Result register (if the op produces a value).
    pub dst: Option<RegRef>,
    /// First input (missing for zero-operand encodings; in practice always
    /// present).
    pub a: Option<OpSrc>,
    /// Second input (only for two-input ops).
    pub b: Option<OpSrc>,
}

/// Payload of one VLIW issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VliwSlot {
    /// A normal operation.
    Op(Operation),
    /// First slot of a long-immediate: `dst = value`, latency 1. Occupies
    /// this slot plus `vliw_limm_slots - 1` following [`VliwSlot::LimmCont`]
    /// slots.
    LimmHead {
        /// Destination register.
        dst: RegRef,
        /// The 32-bit constant.
        value: i32,
    },
    /// Continuation slot of a long immediate (carries its payload bits).
    LimmCont,
}

/// One VLIW instruction (bundle).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VliwBundle {
    /// One optional payload per issue slot.
    pub slots: Vec<Option<VliwSlot>>,
}

impl VliwBundle {
    /// An all-NOP bundle for a machine with `n_slots` issue slots.
    pub fn nop(n_slots: usize) -> Self {
        VliwBundle {
            slots: vec![None; n_slots],
        }
    }

    /// Whether the bundle does nothing.
    pub fn is_nop(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }
}

/// One scalar instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarInst {
    /// A normal operation.
    Op(Operation),
    /// MicroBlaze-style immediate prefix: supplies the upper bits of the
    /// next instruction's immediate (costs one instruction slot and one
    /// cycle).
    ImmPrefix,
}

impl std::fmt::Display for MoveSrc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveSrc::Rf(r) => write!(f, "{r}"),
            MoveSrc::FuResult(u) => write!(f, "{u}.r"),
            MoveSrc::Imm(v) => write!(f, "#{v}"),
            MoveSrc::ImmReg(i) => write!(f, "imm{i}"),
        }
    }
}

impl std::fmt::Display for MoveDst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveDst::Rf(r) => write!(f, "{r}"),
            MoveDst::FuOperand(u) => write!(f, "{u}.o"),
            MoveDst::FuTrigger(u, op) => write!(f, "{u}.t.{op}"),
        }
    }
}

impl std::fmt::Display for TtaInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        if let Some((reg, v)) = self.limm {
            write!(f, "limm imm{reg}=#{v}")?;
            first = false;
        }
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(mv) = s {
                if !first {
                    write!(f, " ; ")?;
                }
                write!(f, "b{i}: {} -> {}", mv.src, mv.dst)?;
                first = false;
            }
        }
        if first {
            write!(f, "nop")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        let src = |s: &OpSrc| match s {
            OpSrc::Reg(r) => format!("{r}"),
            OpSrc::Imm(v) => format!("#{v}"),
        };
        if let Some(a) = &self.a {
            write!(f, " {}", src(a))?;
        }
        if let Some(b) = &self.b {
            write!(f, ", {}", src(b))?;
        }
        Ok(())
    }
}

impl std::fmt::Display for VliwBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, s) in self.slots.iter().enumerate() {
            if !first {
                write!(f, " | ")?;
            }
            first = false;
            match s {
                None => write!(f, "s{i}: nop")?,
                Some(VliwSlot::Op(o)) => write!(f, "s{i}: {o}")?,
                Some(VliwSlot::LimmHead { dst, value }) => {
                    write!(f, "s{i}: limm {dst} <- #{value}")?
                }
                Some(VliwSlot::LimmCont) => write!(f, "s{i}: (limm)")?,
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for ScalarInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalarInst::Op(o) => write!(f, "{o}"),
            ScalarInst::ImmPrefix => write!(f, "imm-prefix"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::RfId;

    #[test]
    fn nop_detection() {
        let mut i = TtaInst::nop(4);
        assert!(i.is_nop());
        assert_eq!(i.move_count(), 0);
        i.slots[2] = Some(Move {
            src: MoveSrc::Imm(3),
            dst: MoveDst::FuOperand(FuId(0)),
        });
        assert!(!i.is_nop());
        assert_eq!(i.move_count(), 1);
        let mut j = TtaInst::nop(4);
        j.limm = Some((0, 99));
        assert!(!j.is_nop());
    }

    #[test]
    fn bundle_counts() {
        let mut b = VliwBundle::nop(3);
        assert!(b.is_nop());
        b.slots[0] = Some(VliwSlot::LimmHead {
            dst: RegRef {
                rf: RfId(0),
                index: 1,
            },
            value: 1 << 20,
        });
        b.slots[1] = Some(VliwSlot::LimmCont);
        assert!(!b.is_nop());
    }

    #[test]
    fn display_smoke() {
        let mv = Move {
            src: MoveSrc::Rf(RegRef {
                rf: RfId(0),
                index: 7,
            }),
            dst: MoveDst::FuTrigger(FuId(1), Opcode::Add),
        };
        let mut i = TtaInst::nop(2);
        i.slots[1] = Some(mv);
        assert_eq!(i.to_string(), "b1: rf0.r7 -> FU1.t.add");
        assert_eq!(TtaInst::nop(2).to_string(), "nop");
    }
}

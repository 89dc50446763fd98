//! Function units.
//!
//! The evaluated TTA variant (paper §III-B, Fig. 3) gives every function unit
//! one *trigger* input port (writing to it starts an operation), at most one
//! additional *operand* input port with storage, and one *result* output
//! port. Units are fully pipelined with semi-virtual time latching: a new
//! operation may be triggered every cycle, and a result stays readable in the
//! result register until the next operation on the same unit overwrites it.

use crate::op::{OpClass, Opcode};

/// Index of a function unit within its [`Machine`](crate::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuId(pub u16);

impl std::fmt::Display for FuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FU{}", self.0)
    }
}

/// The kind of a function unit, constraining which opcodes it may host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Arithmetic-logic unit.
    Alu,
    /// Load-store unit.
    Lsu,
    /// Control unit (jumps, halt). Exactly one per machine.
    Ctrl,
}

impl FuKind {
    /// The operation class hosted by this unit kind.
    pub fn op_class(self) -> OpClass {
        match self {
            FuKind::Alu => OpClass::Alu,
            FuKind::Lsu => OpClass::Lsu,
            FuKind::Ctrl => OpClass::Ctrl,
        }
    }
}

/// A function unit description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionUnit {
    /// Human-readable name, unique within the machine (e.g. `"alu0"`).
    pub name: String,
    /// Unit kind.
    pub kind: FuKind,
    /// Operations implemented by this unit (opcode selected by the trigger
    /// move's destination field).
    pub ops: Vec<Opcode>,
}

impl FunctionUnit {
    /// A full Table-I ALU (all fourteen integer operations).
    pub fn full_alu(name: impl Into<String>) -> Self {
        FunctionUnit {
            name: name.into(),
            kind: FuKind::Alu,
            ops: Opcode::ALU_OPS.to_vec(),
        }
    }

    /// A full Table-I LSU (all eight memory operations, absolute addresses).
    pub fn full_lsu(name: impl Into<String>) -> Self {
        FunctionUnit {
            name: name.into(),
            kind: FuKind::Lsu,
            ops: Opcode::LSU_OPS.to_vec(),
        }
    }

    /// The control unit (absolute jump, conditional jumps, halt).
    pub fn control_unit(name: impl Into<String>) -> Self {
        FunctionUnit {
            name: name.into(),
            kind: FuKind::Ctrl,
            ops: Opcode::CTRL_OPS.to_vec(),
        }
    }

    /// Whether the unit implements the given opcode.
    pub fn supports(&self, op: Opcode) -> bool {
        self.ops.contains(&op)
    }

    /// Number of distinct opcodes, which sizes the trigger port's opcode
    /// field in the instruction encoding.
    pub fn opcode_count(&self) -> usize {
        self.ops.len()
    }

    /// Whether any hosted operation uses the (non-trigger) operand port.
    pub fn has_operand_port(&self) -> bool {
        self.ops.iter().any(|op| op.num_inputs() == 2)
    }

    /// Whether any hosted operation produces a result (sizes the result
    /// port).
    pub fn has_result_port(&self) -> bool {
        self.ops.iter().any(|op| op.has_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_units_cover_table1() {
        let alu = FunctionUnit::full_alu("alu");
        assert_eq!(alu.opcode_count(), 14);
        assert!(alu.supports(Opcode::Mul));
        assert!(!alu.supports(Opcode::Ldw));
        assert!(alu.has_operand_port());
        assert!(alu.has_result_port());

        let lsu = FunctionUnit::full_lsu("lsu");
        assert_eq!(lsu.opcode_count(), 8);
        assert!(lsu.supports(Opcode::Stq));
        assert!(lsu.has_operand_port()); // stores carry data on the operand port
        assert!(lsu.has_result_port()); // loads produce results

        let cu = FunctionUnit::control_unit("ctrl");
        assert_eq!(cu.opcode_count(), 4);
        assert!(cu.has_operand_port()); // conditional jumps carry the target
        assert!(!cu.has_result_port());
    }
}

//! Register files.
//!
//! The central trade-off studied by the paper lives here: an
//! "operation-triggered" VLIW must scale RF port counts with the issue width
//! (2 reads + 1 write per parallel operation), while the TTA programming
//! model sustains the same issue rates with drastically fewer ports by
//! software bypassing and explicit transport timing. On FPGAs each extra
//! port multiplies the distributed-RAM replication cost, which is what
//! Table III of the paper measures.

/// Index of a register file within its [`Machine`](crate::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RfId(pub u16);

impl std::fmt::Display for RfId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RF{}", self.0)
    }
}

/// A general-purpose register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    /// Human-readable name, unique within the machine (e.g. `"rf0"`).
    pub name: String,
    /// Number of registers. The paper picks multiples of 32 to avoid
    /// under-utilising the minimum-depth distributed RAM primitives of the
    /// Zynq target.
    pub regs: u16,
    /// Register width in bits (32 throughout the paper).
    pub width: u16,
    /// Simultaneous read ports.
    pub read_ports: u8,
    /// Simultaneous write ports.
    pub write_ports: u8,
}

impl RegisterFile {
    /// Convenience constructor with the default 32-bit width.
    pub fn new(name: impl Into<String>, regs: u16, read_ports: u8, write_ports: u8) -> Self {
        RegisterFile {
            name: name.into(),
            regs,
            width: 32,
            read_ports,
            write_ports,
        }
    }

    /// Bits needed to address a register in this file.
    pub fn index_bits(&self) -> u32 {
        (self.regs.max(2) as u32)
            .next_power_of_two()
            .trailing_zeros()
    }
}

/// A location in one of the machine's register files: the unit of register
/// allocation for partitioned-RF design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegRef {
    /// Which register file.
    pub rf: RfId,
    /// Register index within the file.
    pub index: u16,
}

impl std::fmt::Display for RegRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rf{}.r{}", self.rf.0, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_bits() {
        assert_eq!(RegisterFile::new("a", 32, 1, 1).index_bits(), 5);
        assert_eq!(RegisterFile::new("a", 64, 1, 1).index_bits(), 6);
        assert_eq!(RegisterFile::new("a", 96, 1, 1).index_bits(), 7); // rounds up
        assert_eq!(RegisterFile::new("a", 33, 1, 1).index_bits(), 6);
        assert_eq!(RegisterFile::new("a", 1, 1, 1).index_bits(), 1);
    }
}

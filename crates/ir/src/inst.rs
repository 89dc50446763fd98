//! IR instructions.
//!
//! The IR is a conventional virtual-register three-address code over the
//! Table-I operation set: the form a C compiler front end (the paper uses
//! TCE's LLVM-based `tcecc`) would hand to the target-specific scheduler.
//! Programs at this level are *operation triggered*; it is the compiler
//! back end (`tta-compiler`) that lowers them into data transports for TTA
//! targets, into operation bundles for VLIW targets, or into a sequential
//! stream for scalar targets.

use tta_model::Opcode;

/// A virtual register (SSA-like but reassignable; the IR allows multiple
/// definitions of the same vreg, e.g. loop induction variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl std::fmt::Display for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An instruction operand: a virtual register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a virtual register.
    Reg(VReg),
    /// A 32-bit constant.
    Imm(i32),
}

impl Operand {
    /// The register read by this operand, if any.
    pub fn reg(self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate value of this operand, if any.
    pub fn imm(self) -> Option<i32> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(v) => Some(v),
        }
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Index of a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of a function within its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A memory alias region.
///
/// The builder tags each memory access with the static buffer it touches;
/// accesses to *different* non-zero regions are guaranteed disjoint, which
/// the scheduler's dependence analysis exploits (standing in for the alias
/// analysis a production compiler performs). Region 0 ([`MemRegion::ANY`])
/// may alias everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRegion(pub u16);

impl MemRegion {
    /// The conservative "may alias anything" region.
    pub const ANY: MemRegion = MemRegion(0);

    /// Whether two accesses may touch the same memory.
    pub fn may_alias(self, other: MemRegion) -> bool {
        self == MemRegion::ANY || other == MemRegion::ANY || self == other
    }
}

/// A non-terminator IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Two-input ALU operation: `dst = a <op> b`.
    Bin {
        /// An ALU opcode with two inputs.
        op: Opcode,
        /// Destination register.
        dst: VReg,
        /// First input (operand port on a TTA).
        a: Operand,
        /// Second input (trigger port on a TTA).
        b: Operand,
    },
    /// One-input ALU operation (`sxhw`, `sxqw`): `dst = <op> a`.
    Un {
        /// An ALU opcode with one input.
        op: Opcode,
        /// Destination register.
        dst: VReg,
        /// The input.
        a: Operand,
    },
    /// Register/constant copy: `dst = src`.
    Copy {
        /// Destination register.
        dst: VReg,
        /// Source operand.
        src: Operand,
    },
    /// Memory load: `dst = <op> [addr]` (absolute address).
    Load {
        /// A load opcode.
        op: Opcode,
        /// Destination register.
        dst: VReg,
        /// Absolute byte address.
        addr: Operand,
        /// Alias region of the access.
        region: MemRegion,
    },
    /// Memory store: `<op> [addr] = value` (absolute address).
    Store {
        /// A store opcode.
        op: Opcode,
        /// The value to store.
        value: Operand,
        /// Absolute byte address.
        addr: Operand,
        /// Alias region of the access.
        region: MemRegion,
    },
    /// Direct call: `dst = func(args...)`. Calls are eliminated by the
    /// compiler's exhaustive inlining pass before scheduling (mirroring the
    /// whole-program optimisation of the paper's LLVM-based toolchain).
    Call {
        /// Callee.
        func: FuncId,
        /// Argument operands, one per callee parameter.
        args: Vec<Operand>,
        /// Where the return value goes (if the callee returns one).
        dst: Option<VReg>,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Bin { dst, .. } | Inst::Un { dst, .. } | Inst::Copy { dst, .. } => Some(*dst),
            Inst::Load { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => *dst,
        }
    }

    /// Where the defined register is written, if anything is.
    pub fn def_mut(&mut self) -> Option<&mut VReg> {
        match self {
            Inst::Bin { dst, .. } | Inst::Un { dst, .. } | Inst::Copy { dst, .. } => Some(dst),
            Inst::Load { dst, .. } => Some(dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => dst.as_mut(),
        }
    }

    /// The operands this instruction reads, in operand order: `a` before
    /// `b`, a store's value before its address, call arguments left to
    /// right. Every pass that walks operands goes through this or
    /// [`operands_mut`](Inst::operands_mut), which yields the same slots in
    /// the same order.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, args): ([Option<Operand>; 2], &[Operand]) = match self {
            Inst::Bin { a, b, .. } => ([Some(*a), Some(*b)], &[]),
            Inst::Un { a, .. } | Inst::Copy { src: a, .. } | Inst::Load { addr: a, .. } => {
                ([Some(*a), None], &[])
            }
            Inst::Store { value, addr, .. } => ([Some(*value), Some(*addr)], &[]),
            Inst::Call { args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// The operand slots of [`operands`](Inst::operands), for rewriting.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        let (fixed, args): ([Option<&mut Operand>; 2], &mut [Operand]) = match self {
            Inst::Bin { a, b, .. } => ([Some(a), Some(b)], &mut []),
            Inst::Un { a, .. } | Inst::Copy { src: a, .. } | Inst::Load { addr: a, .. } => {
                ([Some(a), None], &mut [])
            }
            Inst::Store { value, addr, .. } => ([Some(value), Some(addr)], &mut []),
            Inst::Call { args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(args.iter_mut())
    }

    /// The registers read by this instruction, in operand order. A
    /// register read twice is yielded twice.
    pub fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        self.operands().filter_map(Operand::reg)
    }

    /// Whether this instruction touches memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inst::Bin { op, dst, a, b } => write!(f, "{dst} = {op} {a}, {b}"),
            Inst::Un { op, dst, a } => write!(f, "{dst} = {op} {a}"),
            Inst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Load {
                op,
                dst,
                addr,
                region,
            } => {
                write!(f, "{dst} = {op} [{addr}] @r{}", region.0)
            }
            Inst::Store {
                op,
                value,
                addr,
                region,
            } => {
                write!(f, "{op} [{addr}] = {value} @r{}", region.0)
            }
            Inst::Call { func, args, dst } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call f{}(", func.0)?;
                } else {
                    write!(f, "call f{}(", func.0)?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// The condition operand.
        cond: Operand,
        /// Successor when `cond != 0`.
        if_true: BlockId,
        /// Successor when `cond == 0`.
        if_false: BlockId,
    },
    /// Return from the function (with an optional value).
    Ret(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator (a branch's `if_true` first).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let pair = match *self {
            Terminator::Jump(b) => [Some(b), None],
            Terminator::Branch {
                if_true, if_false, ..
            } => [Some(if_true), Some(if_false)],
            Terminator::Ret(_) => [None, None],
        };
        pair.into_iter().flatten()
    }

    /// The operand the terminator reads (a branch condition or a returned
    /// value), if any.
    pub fn operand(&self) -> Option<Operand> {
        match *self {
            Terminator::Branch { cond, .. } => Some(cond),
            Terminator::Ret(v) => v,
            Terminator::Jump(_) => None,
        }
    }

    /// The slot of [`operand`](Terminator::operand), for rewriting.
    pub fn operand_mut(&mut self) -> Option<&mut Operand> {
        match self {
            Terminator::Branch { cond, .. } => Some(cond),
            Terminator::Ret(v) => v.as_mut(),
            Terminator::Jump(_) => None,
        }
    }

    /// The register read by the terminator, if any.
    pub fn uses(&self) -> impl Iterator<Item = VReg> {
        self.operand().and_then(Operand::reg).into_iter()
    }
}

impl std::fmt::Display for Terminator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                write!(f, "branch {cond} ? {if_true} : {if_false}")
            }
            Terminator::Ret(Some(v)) => write!(f, "ret {v}"),
            Terminator::Ret(None) => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::Opcode;

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin {
            op: Opcode::Add,
            dst: VReg(3),
            a: Operand::Reg(VReg(1)),
            b: Operand::Imm(7),
        };
        assert_eq!(i.def(), Some(VReg(3)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VReg(1)]);

        let s = Inst::Store {
            op: Opcode::Stw,
            value: Operand::Reg(VReg(2)),
            addr: Operand::Reg(VReg(4)),
            region: MemRegion(1),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![VReg(2), VReg(4)]);
        assert!(s.is_mem());
    }

    /// `operands_mut` and `def_mut` restate the layout `operands` and
    /// `def` read, so they must name the same slots in the same order.
    #[test]
    fn mutable_walkers_name_the_slots_the_readers_read() {
        let r = |n| Operand::Reg(VReg(n));
        let (imm, region) = (Operand::Imm, MemRegion(1));
        let cases = [
            (
                Inst::Bin {
                    op: Opcode::Add,
                    dst: VReg(20),
                    a: r(1),
                    b: imm(2),
                },
                vec![r(1), imm(2)],
            ),
            (
                Inst::Un {
                    op: Opcode::Sxhw,
                    dst: VReg(20),
                    a: r(3),
                },
                vec![r(3)],
            ),
            (
                Inst::Copy {
                    dst: VReg(20),
                    src: imm(4),
                },
                vec![imm(4)],
            ),
            (
                Inst::Load {
                    op: Opcode::Ldw,
                    dst: VReg(20),
                    addr: r(5),
                    region,
                },
                vec![r(5)],
            ),
            (
                Inst::Store {
                    op: Opcode::Stw,
                    value: r(6),
                    addr: imm(7),
                    region,
                },
                vec![r(6), imm(7)],
            ),
            (
                Inst::Call {
                    func: FuncId(1),
                    args: vec![r(8), imm(9), r(10)],
                    dst: Some(VReg(20)),
                },
                vec![r(8), imm(9), r(10)],
            ),
        ];
        for (mut i, want) in cases {
            assert_eq!(i.operands().collect::<Vec<_>>(), want, "{i}");
            let copied: Vec<Operand> = i.operands_mut().map(|o| *o).collect();
            assert_eq!(copied, want, "{i}");
            // Writing through each slot is what the reader then sees.
            for (k, o) in i.operands_mut().enumerate() {
                *o = imm(100 + k as i32);
            }
            let renumbered: Vec<Operand> = (0..want.len()).map(|k| imm(100 + k as i32)).collect();
            assert_eq!(i.operands().collect::<Vec<_>>(), renumbered, "{i}");
            let def = i.def();
            assert_eq!(i.def_mut().map(|d| *d), def, "{i}");
            if let Some(d) = i.def_mut() {
                *d = VReg(30);
                assert_eq!(i.def(), Some(VReg(30)), "{i}");
            }
        }

        let terms = [
            Terminator::Jump(BlockId(1)),
            Terminator::Branch {
                cond: r(1),
                if_true: BlockId(1),
                if_false: BlockId(2),
            },
            Terminator::Ret(Some(r(2))),
            Terminator::Ret(None),
        ];
        for mut t in terms {
            let uses: Vec<VReg> = t.uses().collect();
            assert_eq!(
                t.operand().and_then(Operand::reg),
                uses.first().copied(),
                "{t}"
            );
            let read = t.operand();
            assert_eq!(t.operand_mut().map(|o| *o), read, "{t}");
            if let Some(o) = t.operand_mut() {
                *o = imm(5);
                assert_eq!(t.operand(), Some(imm(5)), "{t}");
                assert_eq!(t.uses().count(), 0, "{t}");
            }
        }
    }

    #[test]
    fn region_aliasing() {
        assert!(MemRegion::ANY.may_alias(MemRegion(5)));
        assert!(MemRegion(5).may_alias(MemRegion::ANY));
        assert!(MemRegion(5).may_alias(MemRegion(5)));
        assert!(!MemRegion(5).may_alias(MemRegion(6)));
    }

    #[test]
    fn terminator_successors() {
        let succs = |t: &Terminator| t.successors().collect::<Vec<_>>();
        assert_eq!(succs(&Terminator::Jump(BlockId(2))), vec![BlockId(2)]);
        let b = Terminator::Branch {
            cond: Operand::Reg(VReg(0)),
            if_true: BlockId(1),
            if_false: BlockId(2),
        };
        assert_eq!(succs(&b), vec![BlockId(1), BlockId(2)]);
        assert_eq!(b.uses().collect::<Vec<_>>(), vec![VReg(0)]);
        assert!(succs(&Terminator::Ret(None)).is_empty());
        let ret = Terminator::Ret(Some(Operand::Reg(VReg(5))));
        assert_eq!(ret.uses().collect::<Vec<_>>(), vec![VReg(5)]);
        assert_eq!(Terminator::Ret(Some(Operand::Imm(1))).uses().count(), 0);
    }

    #[test]
    fn display_forms() {
        let i = Inst::Bin {
            op: Opcode::Add,
            dst: VReg(3),
            a: Operand::Reg(VReg(1)),
            b: Operand::Imm(7),
        };
        assert_eq!(i.to_string(), "v3 = add v1, #7");
        assert_eq!(Terminator::Jump(BlockId(4)).to_string(), "jump bb4");
    }
}

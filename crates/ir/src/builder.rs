//! Ergonomic construction of IR modules and functions.
//!
//! The benchmark kernels in `tta-chstone` are written against this API. It
//! provides named static buffers with automatic address assignment and alias
//! regions, convenience emitters for every Table-I operation, and the
//! derived comparisons (`lt`, `le`, `ne`, …) that desugar to the primitive
//! `eq`/`gt`/`gtu` ops exactly like a C compiler would emit them.

use crate::func::{Block, DataInit, Function, Module};
use crate::inst::{BlockId, FuncId, Inst, MemRegion, Operand, Terminator, VReg};
use tta_model::Opcode;

/// A static buffer allocated by the [`ModuleBuilder`]: an absolute base
/// address plus the alias region covering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    /// Absolute base byte address.
    pub addr: u32,
    /// Alias region tag for accesses to this buffer.
    pub region: MemRegion,
    /// Size in bytes.
    pub size: u32,
}

impl Buffer {
    /// Operand for the base address.
    pub fn base(&self) -> Operand {
        Operand::Imm(self.addr as i32)
    }

    /// Operand for the address of byte offset `off`.
    pub fn at(&self, off: u32) -> Operand {
        debug_assert!(
            off < self.size,
            "offset {off} outside buffer of {} bytes",
            self.size
        );
        Operand::Imm((self.addr + off) as i32)
    }

    /// Operand for the address of 32-bit word index `idx`.
    pub fn word(&self, idx: u32) -> Operand {
        self.at(idx * 4)
    }
}

/// Builds a [`Module`]: functions plus statically allocated data buffers.
pub struct ModuleBuilder {
    name: String,
    funcs: Vec<Option<Function>>,
    names: Vec<String>,
    data: Vec<DataInit>,
    next_addr: u32,
    next_region: u16,
    entry: Option<FuncId>,
}

impl ModuleBuilder {
    /// Start a module. Address 0 is kept unallocated so a zero address can
    /// serve as a null-like sentinel in kernels.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            funcs: Vec::new(),
            names: Vec::new(),
            data: Vec::new(),
            next_addr: 16,
            next_region: 1,
            entry: None,
        }
    }

    /// Reserve a zero-initialised buffer of `size` bytes (4-byte aligned).
    pub fn buffer(&mut self, size: u32) -> Buffer {
        let addr = self.next_addr;
        self.next_addr = (self.next_addr + size + 3) & !3;
        let region = MemRegion(self.next_region);
        self.next_region += 1;
        Buffer { addr, region, size }
    }

    /// Reserve a buffer initialised with `bytes`.
    pub fn data(&mut self, bytes: &[u8]) -> Buffer {
        let buf = self.buffer(bytes.len() as u32);
        self.data.push(DataInit {
            addr: buf.addr,
            bytes: bytes.to_vec(),
        });
        buf
    }

    /// Reserve a buffer initialised with little-endian 32-bit words.
    pub fn data_words(&mut self, words: &[i32]) -> Buffer {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.data(&bytes)
    }

    /// Declare a function signature, reserving its id for forward calls.
    pub fn declare(&mut self, name: impl Into<String>) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(None);
        self.names.push(name.into());
        id
    }

    /// Provide the body for a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if the id was already defined or the name differs from the
    /// declaration.
    pub fn define(&mut self, id: FuncId, f: Function) {
        assert_eq!(
            self.names[id.0 as usize], f.name,
            "definition name mismatch"
        );
        let slot = &mut self.funcs[id.0 as usize];
        assert!(slot.is_none(), "function {} defined twice", f.name);
        *slot = Some(f);
    }

    /// Declare and define in one step.
    pub fn add(&mut self, f: Function) -> FuncId {
        let id = self.declare(f.name.clone());
        self.define(id, f);
        id
    }

    /// Mark the entry function.
    pub fn set_entry(&mut self, id: FuncId) {
        self.entry = Some(id);
    }

    /// Finish the module.
    ///
    /// # Panics
    ///
    /// Panics if any declared function lacks a definition or no entry was
    /// set.
    pub fn finish(self) -> Module {
        let funcs: Vec<Function> = self
            .funcs
            .into_iter()
            .zip(&self.names)
            .map(|(f, n)| f.unwrap_or_else(|| panic!("function {n} declared but never defined")))
            .collect();
        Module {
            name: self.name,
            funcs,
            entry: self.entry.expect("module entry not set"),
            data: self.data,
            // Round the data segment up and leave headroom for the compiler's
            // spill slots.
            mem_size: (self.next_addr + 4096).next_power_of_two(),
        }
    }
}

/// Builds one [`Function`] block by block.
pub struct FunctionBuilder {
    f: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Start a function with `nparams` parameters (`v0..v(nparams-1)`).
    pub fn new(name: impl Into<String>, nparams: u32, returns_value: bool) -> Self {
        FunctionBuilder {
            f: Function {
                name: name.into(),
                params: (0..nparams).map(VReg).collect(),
                returns_value,
                blocks: vec![Block::new()],
                next_vreg: nparams,
            },
            cur: Function::ENTRY,
        }
    }

    /// The `i`-th parameter register.
    pub fn param(&self, i: usize) -> VReg {
        self.f.params[i]
    }

    /// Allocate a fresh virtual register (not yet defined).
    pub fn vreg(&mut self) -> VReg {
        self.f.new_vreg()
    }

    /// Create a new (unterminated) block without switching to it.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.f.blocks.len() as u32);
        self.f.blocks.push(Block::new());
        id
    }

    /// Continue emitting into the given block.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// The block currently being emitted into.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    fn emit(&mut self, i: Inst) {
        let cur = self.cur;
        assert!(
            self.f.block(cur).term.is_none(),
            "emitting into terminated block {cur} of {}",
            self.f.name
        );
        self.f.block_mut(cur).insts.push(i);
    }

    /// Emit a two-input ALU op into a fresh register.
    pub fn bin(&mut self, op: Opcode, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        let dst = self.vreg();
        self.emit(Inst::Bin {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Emit a one-input ALU op into a fresh register.
    pub fn un(&mut self, op: Opcode, a: impl Into<Operand>) -> VReg {
        let dst = self.vreg();
        self.emit(Inst::Un {
            op,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Copy into a fresh register.
    pub fn copy(&mut self, src: impl Into<Operand>) -> VReg {
        let dst = self.vreg();
        self.copy_to(dst, src);
        dst
    }

    /// Copy into an existing register (loop-carried variables, merges).
    pub fn copy_to(&mut self, dst: VReg, src: impl Into<Operand>) {
        self.emit(Inst::Copy {
            dst,
            src: src.into(),
        });
    }

    /// Emit a load into a fresh register.
    pub fn load(&mut self, op: Opcode, addr: impl Into<Operand>, region: MemRegion) -> VReg {
        assert!(op.is_load(), "{op} is not a load");
        let dst = self.vreg();
        self.emit(Inst::Load {
            op,
            dst,
            addr: addr.into(),
            region,
        });
        dst
    }

    /// Emit a store.
    pub fn store(
        &mut self,
        op: Opcode,
        value: impl Into<Operand>,
        addr: impl Into<Operand>,
        region: MemRegion,
    ) {
        assert!(op.is_store(), "{op} is not a store");
        self.emit(Inst::Store {
            op,
            value: value.into(),
            addr: addr.into(),
            region,
        });
    }

    /// Emit a call with a result.
    pub fn call(&mut self, func: FuncId, args: &[Operand]) -> VReg {
        let dst = self.vreg();
        self.emit(Inst::Call {
            func,
            args: args.to_vec(),
            dst: Some(dst),
        });
        dst
    }

    /// Emit a call without a result.
    pub fn call_void(&mut self, func: FuncId, args: &[Operand]) {
        self.emit(Inst::Call {
            func,
            args: args.to_vec(),
            dst: None,
        });
    }

    fn terminate(&mut self, t: Terminator) {
        let cur = self.cur;
        assert!(
            self.f.block(cur).term.is_none(),
            "block {cur} of {} terminated twice",
            self.f.name
        );
        self.f.block_mut(cur).term = Some(t);
    }

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, b: BlockId) {
        self.terminate(Terminator::Jump(b));
    }

    /// Terminate the current block with a two-way branch on `cond != 0`.
    pub fn branch(&mut self, cond: impl Into<Operand>, if_true: BlockId, if_false: BlockId) {
        self.terminate(Terminator::Branch {
            cond: cond.into(),
            if_true,
            if_false,
        });
    }

    /// Terminate with `ret value`.
    pub fn ret(&mut self, value: impl Into<Operand>) {
        self.terminate(Terminator::Ret(Some(value.into())));
    }

    /// Terminate with a bare `ret`.
    pub fn ret_void(&mut self) {
        self.terminate(Terminator::Ret(None));
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.f
    }

    // ---- Table-I convenience emitters ----

    /// `a + b`.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Add, a, b)
    }
    /// `a - b`.
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Sub, a, b)
    }
    /// `a & b`.
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::And, a, b)
    }
    /// `a | b`.
    pub fn ior(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Ior, a, b)
    }
    /// `a ^ b`.
    pub fn xor(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Xor, a, b)
    }
    /// `a * b` (low 32 bits).
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Mul, a, b)
    }
    /// `a << b`.
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Shl, a, b)
    }
    /// arithmetic `a >> b`.
    pub fn shr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Shr, a, b)
    }
    /// logical `a >> b`.
    pub fn shru(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Shru, a, b)
    }
    /// `a == b` (0/1).
    pub fn eq(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Eq, a, b)
    }
    /// signed `a > b` (0/1).
    pub fn gt(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Gt, a, b)
    }
    /// unsigned `a > b` (0/1).
    pub fn gtu(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Gtu, a, b)
    }
    /// sign-extend low 16 bits.
    pub fn sxhw(&mut self, a: impl Into<Operand>) -> VReg {
        self.un(Opcode::Sxhw, a)
    }
    /// sign-extend low 8 bits.
    pub fn sxqw(&mut self, a: impl Into<Operand>) -> VReg {
        self.un(Opcode::Sxqw, a)
    }

    // ---- Derived comparisons (desugared like a C front end) ----

    /// signed `a < b` = `b > a`.
    pub fn lt(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Gt, b, a)
    }
    /// unsigned `a < b` = `b >u a`.
    pub fn ltu(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Gtu, b, a)
    }
    /// signed `a >= b` = `!(b > a)`.
    pub fn ge(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        let t = self.bin(Opcode::Gt, b, a);
        self.bin(Opcode::Eq, t, 0)
    }
    /// signed `a <= b` = `!(a > b)`.
    pub fn le(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        let t = self.bin(Opcode::Gt, a, b);
        self.bin(Opcode::Eq, t, 0)
    }
    /// `a != b` = `!(a == b)`.
    pub fn ne(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> VReg {
        let t = self.bin(Opcode::Eq, a, b);
        self.bin(Opcode::Eq, t, 0)
    }
    /// logical not: `x == 0`.
    pub fn not(&mut self, a: impl Into<Operand>) -> VReg {
        self.bin(Opcode::Eq, a, 0)
    }

    // ---- Memory convenience emitters ----

    /// 32-bit load.
    pub fn ldw(&mut self, addr: impl Into<Operand>, region: MemRegion) -> VReg {
        self.load(Opcode::Ldw, addr, region)
    }
    /// 16-bit sign-extending load.
    pub fn ldh(&mut self, addr: impl Into<Operand>, region: MemRegion) -> VReg {
        self.load(Opcode::Ldh, addr, region)
    }
    /// 16-bit zero-extending load.
    pub fn ldhu(&mut self, addr: impl Into<Operand>, region: MemRegion) -> VReg {
        self.load(Opcode::Ldhu, addr, region)
    }
    /// 8-bit sign-extending load.
    pub fn ldq(&mut self, addr: impl Into<Operand>, region: MemRegion) -> VReg {
        self.load(Opcode::Ldq, addr, region)
    }
    /// 8-bit zero-extending load.
    pub fn ldqu(&mut self, addr: impl Into<Operand>, region: MemRegion) -> VReg {
        self.load(Opcode::Ldqu, addr, region)
    }
    /// 32-bit store.
    pub fn stw(&mut self, value: impl Into<Operand>, addr: impl Into<Operand>, region: MemRegion) {
        self.store(Opcode::Stw, value, addr, region);
    }
    /// 16-bit store.
    pub fn sth(&mut self, value: impl Into<Operand>, addr: impl Into<Operand>, region: MemRegion) {
        self.store(Opcode::Sth, value, addr, region);
    }
    /// 8-bit store.
    pub fn stq(&mut self, value: impl Into<Operand>, addr: impl Into<Operand>, region: MemRegion) {
        self.store(Opcode::Stq, value, addr, region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    #[test]
    fn buffers_are_disjoint_and_aligned() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.buffer(10);
        let b = mb.buffer(4);
        assert_eq!(a.addr % 4, 0);
        assert!(b.addr >= a.addr + 10);
        assert_ne!(a.region, b.region);
        assert_ne!(a.region, MemRegion::ANY);
    }

    #[test]
    fn data_words_little_endian() {
        let mut mb = ModuleBuilder::new("m");
        let w = mb.data_words(&[0x0102_0304]);
        let mut fb = FunctionBuilder::new("main", 0, true);
        let v = fb.ldw(w.base(), w.region);
        fb.ret(v);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let m = mb.finish();
        let r = Interpreter::new(&m).run(&[]).unwrap();
        assert_eq!(r.ret, Some(0x0102_0304));
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut fb = FunctionBuilder::new("f", 0, false);
        fb.ret_void();
        fb.ret_void();
    }

    #[test]
    #[should_panic(expected = "emitting into terminated block")]
    fn emit_after_terminate_panics() {
        let mut fb = FunctionBuilder::new("f", 0, false);
        fb.ret_void();
        fb.add(1, 2);
    }

    #[test]
    #[should_panic(expected = "declared but never defined")]
    fn undefined_function_panics() {
        let mut mb = ModuleBuilder::new("m");
        let id = mb.declare("ghost");
        mb.set_entry(id);
        mb.finish();
    }

    #[test]
    fn derived_comparisons() {
        // lt/le/ge/ne/not all reduce to Table-I primitives; check semantics
        // through the interpreter.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("main", 0, true);
        let a = fb.copy(-5);
        let b = fb.copy(3);
        let lt = fb.lt(a, b); // 1
        let le = fb.le(b, b); // 1
        let ge = fb.ge(a, b); // 0
        let ne = fb.ne(a, b); // 1
        let ltu = fb.ltu(a, b); // -5 as unsigned is huge -> 0
        let t1 = fb.shl(lt, 4);
        let t2 = fb.shl(le, 3);
        let t3 = fb.shl(ge, 2);
        let t4 = fb.shl(ne, 1);
        let s1 = fb.ior(t1, t2);
        let s2 = fb.ior(t3, t4);
        let s3 = fb.ior(s1, s2);
        let packed = fb.ior(s3, ltu);
        fb.ret(packed);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let m = mb.finish();
        let r = Interpreter::new(&m).run(&[]).unwrap();
        assert_eq!(r.ret, Some(0b11010));
    }
}

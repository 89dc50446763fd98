//! Textual serialisation of IR modules.
//!
//! A line-oriented, whitespace-tokenised format that round-trips every
//! [`Module`] the builder can produce. Its purpose is the differential
//! fuzzer's regression corpus (`crates/fuzz/corpus/*.ir`): when the fuzzer
//! shrinks a diverging program to a minimal repro, the repro is written in
//! this format, committed, and replayed by an integration test forever
//! after. The format is also handy for dumping modules while debugging.
//!
//! Grammar (one construct per line; `;` starts a comment — `#` is taken
//! by immediate operands):
//!
//! ```text
//! module <name>
//! memsize <bytes>
//! entry <func-index>
//! data <addr> <hex-bytes>            # zero or more
//! func <name> <nparams> <ret|void> <next-vreg>
//! block                              # starts block 0, 1, ... of the func
//!   copy  v1 #42
//!   bin   add v2 v1 #-1
//!   un    sxhw v3 v2
//!   load  ldw v4 v2 r1               # dst addr region
//!   store stw v4 #16 r1              # value addr region
//!   call  1 v5 v1 #3                 # callee dst|_ args...
//!   jump 1                           # terminators end the block
//!   branch v2 1 2
//!   ret v2                           # or: ret _
//! ```

use crate::func::{Block, DataInit, Function, Module};
use crate::inst::{BlockId, FuncId, Inst, MemRegion, Operand, Terminator, VReg};
use tta_model::Opcode;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Serialise a module to its textual form.
pub fn module_to_text(m: &Module) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "module {}", m.name);
    let _ = writeln!(s, "memsize {}", m.mem_size);
    let _ = writeln!(s, "entry {}", m.entry.0);
    for d in &m.data {
        let hex: String = d.bytes.iter().map(|b| format!("{b:02x}")).collect();
        let _ = writeln!(s, "data {} {hex}", d.addr);
    }
    for f in &m.funcs {
        let _ = writeln!(
            s,
            "func {} {} {} {}",
            f.name,
            f.params.len(),
            if f.returns_value { "ret" } else { "void" },
            f.next_vreg
        );
        for b in &f.blocks {
            let _ = writeln!(s, "block");
            for i in &b.insts {
                let _ = writeln!(s, "  {}", inst_to_text(i));
            }
            match &b.term {
                Some(Terminator::Jump(t)) => {
                    let _ = writeln!(s, "  jump {}", t.0);
                }
                Some(Terminator::Branch {
                    cond,
                    if_true,
                    if_false,
                }) => {
                    let _ = writeln!(
                        s,
                        "  branch {} {} {}",
                        operand(*cond),
                        if_true.0,
                        if_false.0
                    );
                }
                Some(Terminator::Ret(Some(o))) => {
                    let _ = writeln!(s, "  ret {}", operand(*o));
                }
                Some(Terminator::Ret(None)) => {
                    let _ = writeln!(s, "  ret _");
                }
                None => {
                    let _ = writeln!(s, "  unterminated");
                }
            }
        }
    }
    s
}

fn operand(o: Operand) -> String {
    match o {
        Operand::Reg(r) => format!("v{}", r.0),
        Operand::Imm(v) => format!("#{v}"),
    }
}

fn inst_to_text(i: &Inst) -> String {
    match i {
        Inst::Bin { op, dst, a, b } => {
            format!("bin {op} v{} {} {}", dst.0, operand(*a), operand(*b))
        }
        Inst::Un { op, dst, a } => format!("un {op} v{} {}", dst.0, operand(*a)),
        Inst::Copy { dst, src } => format!("copy v{} {}", dst.0, operand(*src)),
        Inst::Load {
            op,
            dst,
            addr,
            region,
        } => format!("load {op} v{} {} r{}", dst.0, operand(*addr), region.0),
        Inst::Store {
            op,
            value,
            addr,
            region,
        } => format!(
            "store {op} {} {} r{}",
            operand(*value),
            operand(*addr),
            region.0
        ),
        Inst::Call { func, args, dst } => {
            let mut s = format!(
                "call {} {}",
                func.0,
                match dst {
                    Some(d) => format!("v{}", d.0),
                    None => "_".into(),
                }
            );
            for a in args {
                s.push(' ');
                s.push_str(&operand(*a));
            }
            s
        }
    }
}

/// Look an opcode up by its Table-I mnemonic.
fn opcode_from_mnemonic(m: &str) -> Option<Opcode> {
    Opcode::ALL.into_iter().find(|o| o.mnemonic() == m)
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

/// One meaningful line: its 1-based number plus its tokens.
type TokLine<'a> = (usize, Vec<&'a str>);

impl<'a> Parser<'a> {
    fn next_line(&mut self) -> Option<TokLine<'a>> {
        for (i, raw) in self.lines.by_ref() {
            let line = match raw.split_once(';') {
                Some((before, _)) => before,
                None => raw,
            };
            let toks: Vec<&str> = line.split_whitespace().collect();
            if !toks.is_empty() {
                return Some((i + 1, toks));
            }
        }
        None
    }
}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

fn parse_u32(line: usize, tok: &str, what: &str) -> Result<u32, ParseError> {
    tok.parse()
        .map_err(|_| err(line, format!("bad {what} `{tok}`")))
}

fn parse_vreg(line: usize, tok: &str) -> Result<VReg, ParseError> {
    let rest = tok
        .strip_prefix('v')
        .ok_or_else(|| err(line, format!("expected vreg, got `{tok}`")))?;
    Ok(VReg(parse_u32(line, rest, "vreg")?))
}

fn parse_operand(line: usize, tok: &str) -> Result<Operand, ParseError> {
    if let Some(rest) = tok.strip_prefix('#') {
        let v: i32 = rest
            .parse()
            .map_err(|_| err(line, format!("bad immediate `{tok}`")))?;
        Ok(Operand::Imm(v))
    } else {
        Ok(Operand::Reg(parse_vreg(line, tok)?))
    }
}

fn parse_region(line: usize, tok: &str) -> Result<MemRegion, ParseError> {
    let rest = tok
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected region, got `{tok}`")))?;
    rest.parse()
        .map(MemRegion)
        .map_err(|_| err(line, format!("bad region `{tok}`")))
}

fn parse_opcode(line: usize, tok: &str) -> Result<Opcode, ParseError> {
    opcode_from_mnemonic(tok).ok_or_else(|| err(line, format!("unknown opcode `{tok}`")))
}

/// Expect exactly `n` tokens after the keyword.
fn arity(line: usize, toks: &[&str], n: usize) -> Result<(), ParseError> {
    if toks.len() != n + 1 {
        return Err(err(
            line,
            format!("`{}` expects {n} operands, got {}", toks[0], toks.len() - 1),
        ));
    }
    Ok(())
}

/// Parse the textual form back into a [`Module`]. The result is *not*
/// verified; callers that execute it should run
/// [`verify_module`](crate::verify::verify_module) first.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut p = Parser {
        lines: text.lines().enumerate(),
    };

    let (ln, toks) = p.next_line().ok_or_else(|| err(0, "empty input"))?;
    if toks[0] != "module" || toks.len() != 2 {
        return Err(err(ln, "expected `module <name>`"));
    }
    let name = toks[1].to_string();

    let (ln, toks) = p.next_line().ok_or_else(|| err(ln, "missing `memsize`"))?;
    if toks[0] != "memsize" || toks.len() != 2 {
        return Err(err(ln, "expected `memsize <bytes>`"));
    }
    let mem_size = parse_u32(ln, toks[1], "memsize")?;

    let (ln, toks) = p.next_line().ok_or_else(|| err(ln, "missing `entry`"))?;
    if toks[0] != "entry" || toks.len() != 2 {
        return Err(err(ln, "expected `entry <func-index>`"));
    }
    let entry = FuncId(parse_u32(ln, toks[1], "entry index")?);

    let mut data = Vec::new();
    let mut funcs = Vec::new();

    let mut pending = p.next_line();
    // data lines (all before the first func)
    while let Some((ln, toks)) = &pending {
        if toks[0] != "data" {
            break;
        }
        if toks.len() != 3 {
            return Err(err(*ln, "expected `data <addr> <hex>`"));
        }
        let addr = parse_u32(*ln, toks[1], "data address")?;
        let hex = toks[2];
        if hex.len() % 2 != 0 {
            return Err(err(*ln, "odd-length hex data"));
        }
        // Checked first, so every digit is one byte and the pairs below
        // never split a character.
        if let Some(bad) = hex.chars().find(|c| !c.is_ascii_hexdigit()) {
            return Err(err(*ln, format!("bad hex digit `{bad}`")));
        }
        let bytes = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("two hex digits"))
            .collect();
        data.push(DataInit { addr, bytes });
        pending = p.next_line();
    }

    // functions
    while let Some((ln, toks)) = pending {
        if toks[0] != "func" {
            return Err(err(ln, format!("expected `func`, got `{}`", toks[0])));
        }
        if toks.len() != 5 {
            return Err(err(
                ln,
                "expected `func <name> <nparams> <ret|void> <next-vreg>`",
            ));
        }
        let fname = toks[1].to_string();
        let nparams = parse_u32(ln, toks[2], "param count")?;
        let returns_value = match toks[3] {
            "ret" => true,
            "void" => false,
            other => return Err(err(ln, format!("expected `ret`/`void`, got `{other}`"))),
        };
        let next_vreg = parse_u32(ln, toks[4], "next-vreg")?;
        let mut f = Function {
            name: fname,
            params: (0..nparams).map(VReg).collect(),
            returns_value,
            blocks: Vec::new(),
            next_vreg,
        };

        pending = p.next_line();
        while let Some((ln, toks)) = pending.clone() {
            if toks[0] != "block" {
                break;
            }
            let mut block = Block::new();
            pending = p.next_line();
            while let Some((ln2, toks2)) = pending.clone() {
                let toks2s: Vec<&str> = toks2.clone();
                match toks2s[0] {
                    // -- terminators close the block --
                    "jump" => {
                        arity(ln2, &toks2s, 1)?;
                        block.term = Some(Terminator::Jump(BlockId(parse_u32(
                            ln2, toks2s[1], "block",
                        )?)));
                        pending = p.next_line();
                        break;
                    }
                    "branch" => {
                        arity(ln2, &toks2s, 3)?;
                        block.term = Some(Terminator::Branch {
                            cond: parse_operand(ln2, toks2s[1])?,
                            if_true: BlockId(parse_u32(ln2, toks2s[2], "block")?),
                            if_false: BlockId(parse_u32(ln2, toks2s[3], "block")?),
                        });
                        pending = p.next_line();
                        break;
                    }
                    "ret" => {
                        arity(ln2, &toks2s, 1)?;
                        let v = if toks2s[1] == "_" {
                            None
                        } else {
                            Some(parse_operand(ln2, toks2s[1])?)
                        };
                        block.term = Some(Terminator::Ret(v));
                        pending = p.next_line();
                        break;
                    }
                    "unterminated" => {
                        block.term = None;
                        pending = p.next_line();
                        break;
                    }
                    // -- instructions --
                    "bin" => {
                        arity(ln2, &toks2s, 4)?;
                        block.insts.push(Inst::Bin {
                            op: parse_opcode(ln2, toks2s[1])?,
                            dst: parse_vreg(ln2, toks2s[2])?,
                            a: parse_operand(ln2, toks2s[3])?,
                            b: parse_operand(ln2, toks2s[4])?,
                        });
                    }
                    "un" => {
                        arity(ln2, &toks2s, 3)?;
                        block.insts.push(Inst::Un {
                            op: parse_opcode(ln2, toks2s[1])?,
                            dst: parse_vreg(ln2, toks2s[2])?,
                            a: parse_operand(ln2, toks2s[3])?,
                        });
                    }
                    "copy" => {
                        arity(ln2, &toks2s, 2)?;
                        block.insts.push(Inst::Copy {
                            dst: parse_vreg(ln2, toks2s[1])?,
                            src: parse_operand(ln2, toks2s[2])?,
                        });
                    }
                    "load" => {
                        arity(ln2, &toks2s, 4)?;
                        block.insts.push(Inst::Load {
                            op: parse_opcode(ln2, toks2s[1])?,
                            dst: parse_vreg(ln2, toks2s[2])?,
                            addr: parse_operand(ln2, toks2s[3])?,
                            region: parse_region(ln2, toks2s[4])?,
                        });
                    }
                    "store" => {
                        arity(ln2, &toks2s, 4)?;
                        block.insts.push(Inst::Store {
                            op: parse_opcode(ln2, toks2s[1])?,
                            value: parse_operand(ln2, toks2s[2])?,
                            addr: parse_operand(ln2, toks2s[3])?,
                            region: parse_region(ln2, toks2s[4])?,
                        });
                    }
                    "call" => {
                        if toks2s.len() < 3 {
                            return Err(err(ln2, "expected `call <callee> <dst|_> args...`"));
                        }
                        let func = FuncId(parse_u32(ln2, toks2s[1], "callee")?);
                        let dst = if toks2s[2] == "_" {
                            None
                        } else {
                            Some(parse_vreg(ln2, toks2s[2])?)
                        };
                        let args = toks2s[3..]
                            .iter()
                            .map(|t| parse_operand(ln2, t))
                            .collect::<Result<Vec<_>, _>>()?;
                        block.insts.push(Inst::Call { func, args, dst });
                    }
                    other => {
                        return Err(err(ln2, format!("unknown construct `{other}`")));
                    }
                }
                pending = p.next_line();
                if pending.is_none() {
                    return Err(err(ln, "block not terminated before end of input"));
                }
            }
            f.blocks.push(block);
        }
        funcs.push(f);
    }

    Ok(Module {
        name,
        funcs,
        entry,
        data,
        mem_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::interp::Interpreter;

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("sample");
        let buf = mb.data_words(&[11, 22, 33]);
        let mut cb = FunctionBuilder::new("leaf", 2, true);
        let s = cb.add(cb.param(0), cb.param(1));
        cb.ret(s);
        let leaf = mb.add(cb.finish());
        let mut fb = FunctionBuilder::new("main", 0, true);
        let a = fb.ldw(buf.word(1), buf.region);
        let b = fb.sxhw(a);
        let c = fb.call(leaf, &[Operand::Reg(b), Operand::Imm(-7)]);
        fb.stw(c, buf.word(0), buf.region);
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.sth(c, buf.at(4), buf.region);
        fb.jump(exit);
        fb.switch_to(exit);
        fb.ret(c);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        mb.finish()
    }

    #[test]
    fn round_trip_preserves_module_exactly() {
        let m = sample_module();
        let text = module_to_text(&m);
        let back = parse_module(&text).unwrap();
        assert_eq!(m, back);
        // And again, for stability.
        assert_eq!(module_to_text(&back), text);
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let m = sample_module();
        let back = parse_module(&module_to_text(&m)).unwrap();
        crate::verify::verify_module(&back).unwrap();
        let a = Interpreter::new(&m).run(&[]).unwrap();
        let b = Interpreter::new(&back).run(&[]).unwrap();
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.memory, b.memory);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
; a corpus header comment
module tiny

memsize 64
entry 0          ; trailing comment
func main 0 ret 1
block
  copy v0 #5
  ret v0
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.name, "tiny");
        assert_eq!(crate::interp::run_ret(&m, &[]), 5);
    }

    #[test]
    fn data_bytes_round_trip() {
        let mut mb = ModuleBuilder::new("d");
        let _ = mb.data(&[0x00, 0xff, 0x7f, 0x80]);
        let mut fb = FunctionBuilder::new("main", 0, false);
        fb.ret_void();
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        let m = mb.finish();
        let back = parse_module(&module_to_text(&m)).unwrap();
        assert_eq!(m.data, back.data);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text =
            "module m\nmemsize 64\nentry 0\nfunc main 0 ret 1\nblock\n  bogus v0 #1\n  ret v0\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.msg.contains("bogus"), "{e}");
    }

    #[test]
    fn non_hex_data_is_an_error_not_a_panic() {
        // `é` is two bytes: a byte-pair slice would split it.
        let text = "module m\nmemsize 64\nentry 0\ndata 0 0\u{e9}0\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("hex"), "{e}");
        // A sign is not a hex digit either, though `from_str_radix` takes it.
        let e = parse_module("module m\nmemsize 64\nentry 0\ndata 0 +f\n").unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn out_of_range_region_is_an_error_not_a_wrap() {
        let text = "module m\nmemsize 64\nentry 0\nfunc main 0 ret 2\nblock\n  \
                    load ldw v1 #0 r70000\n  ret v1\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.msg.contains("r70000"), "{e}");
        let top = text.replace("r70000", "r65535");
        let m = parse_module(&top).unwrap();
        assert!(module_to_text(&m).contains("r65535"));
    }

    #[test]
    fn mnemonic_lookup_total() {
        for op in Opcode::ALL {
            assert_eq!(opcode_from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(opcode_from_mnemonic("nope"), None);
    }
}

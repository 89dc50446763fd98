//! Greedy automatic test-case reduction.
//!
//! Given a module and a `reproduces` predicate (normally "the oracle still
//! reports a semantic divergence"), the shrinker repeatedly tries
//! structure-preserving simplifications and keeps each one that still
//! reproduces, until a full pass makes no progress:
//!
//! 1. delete a whole instruction,
//! 2. replace an instruction with `copy dst, #0` (keeps the def so later
//!    uses stay verified, removes the computation),
//! 3. replace a register operand with `#0`,
//! 4. turn a conditional branch into an unconditional jump,
//! 5. drop trailing functions that are no longer called.
//!
//! Candidates that fail IR verification are rejected before the predicate
//! runs, so the result is always a well-formed module. The process is a
//! fixpoint of local moves — greedy, not optimal, but in practice it cuts
//! generated ~50-instruction programs down to a handful.

use tta_ir::{BlockId, FuncId, Function, Inst, Module, Operand, Terminator};
use tta_model::io::IoSpec;

/// Count every instruction in the module (terminators excluded).
pub fn inst_count(m: &Module) -> usize {
    m.funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len())
        .sum()
}

fn well_formed(m: &Module) -> bool {
    tta_ir::verify_module(m).is_ok()
}

/// One shrink attempt: mutate a clone, keep it if it verifies and still
/// reproduces.
fn try_candidate(
    best: &mut Module,
    mutate: impl FnOnce(&mut Module),
    reproduces: &dyn Fn(&Module) -> bool,
) -> bool {
    let mut cand = best.clone();
    mutate(&mut cand);
    if well_formed(&cand) && reproduces(&cand) {
        *best = cand;
        true
    } else {
        false
    }
}

/// Resolve a jump target through chains of empty jump-only blocks.
fn thread_target(f: &Function, mut b: BlockId) -> BlockId {
    let mut hops = 0;
    while hops <= f.blocks.len() {
        let blk = &f.blocks[b.0 as usize];
        match blk.term {
            Some(Terminator::Jump(t)) if blk.insts.is_empty() && t != b => {
                b = t;
                hops += 1;
            }
            _ => break,
        }
    }
    b
}

/// Semantics-preserving control-flow cleanup: thread jumps through empty
/// blocks, collapse branches whose arms coincide, and drop blocks that
/// become unreachable (renumbering the survivors).
fn cleanup_blocks(m: &mut Module) {
    for f in &mut m.funcs {
        for bi in 0..f.blocks.len() {
            let new_term = match f.blocks[bi].term.clone() {
                Some(Terminator::Jump(t)) => Some(Terminator::Jump(thread_target(f, t))),
                Some(Terminator::Branch {
                    cond,
                    if_true,
                    if_false,
                }) => {
                    let (t, e) = (thread_target(f, if_true), thread_target(f, if_false));
                    if t == e {
                        Some(Terminator::Jump(t))
                    } else {
                        Some(Terminator::Branch {
                            cond,
                            if_true: t,
                            if_false: e,
                        })
                    }
                }
                other => other,
            };
            f.blocks[bi].term = new_term;
        }
        // Reachability from the entry block.
        let mut reach = vec![false; f.blocks.len()];
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reach[b.0 as usize], true) {
                continue;
            }
            if let Some(t) = &f.blocks[b.0 as usize].term {
                stack.extend(t.successors());
            }
        }
        let mut remap = vec![BlockId(0); f.blocks.len()];
        let mut next = 0u32;
        for (i, r) in reach.iter().enumerate() {
            if *r {
                remap[i] = BlockId(next);
                next += 1;
            }
        }
        let mut i = 0;
        f.blocks.retain(|_| {
            i += 1;
            reach[i - 1]
        });
        for b in &mut f.blocks {
            b.term = match b.term.take() {
                Some(Terminator::Jump(t)) => Some(Terminator::Jump(remap[t.0 as usize])),
                Some(Terminator::Branch {
                    cond,
                    if_true,
                    if_false,
                }) => Some(Terminator::Branch {
                    cond,
                    if_true: remap[if_true.0 as usize],
                    if_false: remap[if_false.0 as usize],
                }),
                other => other,
            };
        }
    }
}

/// Drop functions unreachable from the entry via calls, renumbering
/// `FuncId`s in call sites and the entry. The reserved `__irq` handler
/// is a root too: it is entered by interrupt delivery, never by a call.
fn cleanup_funcs(m: &mut Module) {
    let mut live = vec![false; m.funcs.len()];
    let mut stack = vec![m.entry];
    for (i, f) in m.funcs.iter().enumerate() {
        if f.name == tta_model::io::IRQ_HANDLER_NAME {
            stack.push(FuncId(i as u32));
        }
    }
    while let Some(fid) = stack.pop() {
        if std::mem::replace(&mut live[fid.0 as usize], true) {
            continue;
        }
        for b in &m.funcs[fid.0 as usize].blocks {
            for i in &b.insts {
                if let Inst::Call { func, .. } = i {
                    stack.push(*func);
                }
            }
        }
    }
    let mut remap = vec![FuncId(0); m.funcs.len()];
    let mut next = 0u32;
    for (i, l) in live.iter().enumerate() {
        if *l {
            remap[i] = FuncId(next);
            next += 1;
        }
    }
    let mut i = 0;
    m.funcs.retain(|_| {
        i += 1;
        live[i - 1]
    });
    m.entry = remap[m.entry.0 as usize];
    for f in &mut m.funcs {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                if let Inst::Call { func, .. } = inst {
                    *func = remap[func.0 as usize];
                }
            }
        }
    }
}

/// Greedily minimise `module` while `reproduces` holds. `reproduces` is
/// assumed true for the input; if it is not, the input is returned
/// unchanged.
pub fn shrink(module: &Module, reproduces: &dyn Fn(&Module) -> bool) -> Module {
    let mut best = module.clone();
    if !reproduces(&best) {
        return best;
    }
    loop {
        let mut progress = false;

        // Passes 1-3 walk instructions by index; indices are re-read every
        // step because accepted candidates change the shape.
        let mut fi = 0;
        while fi < best.funcs.len() {
            let mut bi = 0;
            while bi < best.funcs[fi].blocks.len() {
                let mut ii = 0;
                while ii < best.funcs[fi].blocks[bi].insts.len() {
                    // Pass 1: delete the instruction outright.
                    if try_candidate(
                        &mut best,
                        |m| {
                            m.funcs[fi].blocks[bi].insts.remove(ii);
                        },
                        reproduces,
                    ) {
                        progress = true;
                        continue; // same index now holds the next inst
                    }
                    // Pass 2: neutralise to `copy dst, #0`.
                    let def = best.funcs[fi].blocks[bi].insts[ii].def();
                    let is_copy_zero = matches!(
                        &best.funcs[fi].blocks[bi].insts[ii],
                        Inst::Copy {
                            src: Operand::Imm(0),
                            ..
                        }
                    );
                    if let (Some(dst), false) = (def, is_copy_zero) {
                        if try_candidate(
                            &mut best,
                            |m| {
                                m.funcs[fi].blocks[bi].insts[ii] = Inst::Copy {
                                    dst,
                                    src: Operand::Imm(0),
                                };
                            },
                            reproduces,
                        ) {
                            progress = true;
                            ii += 1;
                            continue;
                        }
                    }
                    // Pass 3: zero out register operands one at a time.
                    // Accepting a candidate removes the slot from the
                    // reg-operand list, so only advance on rejection.
                    let mut oi = 0;
                    while oi < best.funcs[fi].blocks[bi].insts[ii].uses().count() {
                        if try_candidate(
                            &mut best,
                            |m| {
                                let inst = &mut m.funcs[fi].blocks[bi].insts[ii];
                                let mut regs = inst.operands_mut().filter(|o| o.reg().is_some());
                                *regs.nth(oi).expect("a register operand") = Operand::Imm(0);
                            },
                            reproduces,
                        ) {
                            progress = true;
                        } else {
                            oi += 1;
                        }
                    }
                    ii += 1;
                }
                // Pass 4: collapse a conditional branch to a jump.
                if let Some(Terminator::Branch {
                    if_true, if_false, ..
                }) = best.funcs[fi].blocks[bi].term.clone()
                {
                    for tgt in [if_true, if_false] {
                        if try_candidate(
                            &mut best,
                            |m| m.funcs[fi].blocks[bi].term = Some(Terminator::Jump(tgt)),
                            reproduces,
                        ) {
                            progress = true;
                            break;
                        }
                    }
                }
                bi += 1;
            }
            fi += 1;
        }

        // Pass 5: drop data initialisers the divergence does not need.
        let mut di = 0;
        while di < best.data.len() {
            if try_candidate(
                &mut best,
                |m| {
                    m.data.remove(di);
                },
                reproduces,
            ) {
                progress = true;
            } else {
                di += 1;
            }
        }

        // Pass 6: semantics-preserving structural cleanup — drop dead
        // functions, thread jump chains, drop unreachable blocks. Only
        // counts as progress when it actually changes the module.
        let mut cleaned = best.clone();
        cleanup_funcs(&mut cleaned);
        cleanup_blocks(&mut cleaned);
        if cleaned != best && well_formed(&cleaned) && reproduces(&cleaned) {
            best = cleaned;
            progress = true;
        }

        if !progress {
            return best;
        }
    }
}

/// Greedily minimise a reactive case — the module *and* its I/O spec —
/// while `reproduces` holds for the pair. Alternates spec reduction
/// (drop one schedule entry or rx byte at a time, clear the rx-interrupt
/// flag) with module shrinking under the fixed spec, to a joint
/// fixpoint. Like [`shrink`], the input is returned unchanged if it does
/// not reproduce.
pub fn shrink_reactive(
    module: &Module,
    spec: &IoSpec,
    reproduces: &dyn Fn(&Module, &IoSpec) -> bool,
) -> (Module, IoSpec) {
    let mut best_m = module.clone();
    let mut best_s = spec.clone();
    if !reproduces(&best_m, &best_s) {
        return (best_m, best_s);
    }
    loop {
        let mut progress = false;
        let mut i = 0;
        while i < best_s.schedule.len() {
            let mut cand = best_s.clone();
            cand.schedule.remove(i);
            if reproduces(&best_m, &cand) {
                best_s = cand;
                progress = true;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < best_s.uart_rx.len() {
            let mut cand = best_s.clone();
            cand.uart_rx.remove(i);
            if reproduces(&best_m, &cand) {
                best_s = cand;
                progress = true;
            } else {
                i += 1;
            }
        }
        if best_s.uart_irq_on_rx {
            let mut cand = best_s.clone();
            cand.uart_irq_on_rx = false;
            if reproduces(&best_m, &cand) {
                best_s = cand;
                progress = true;
            }
        }
        // Module passes under the (possibly reduced) spec; `shrink` runs
        // to its own fixpoint, so any change it makes is final for this
        // spec.
        let s = best_s.clone();
        let small = shrink(&best_m, &|m| reproduces(m, &s));
        if small != best_m {
            best_m = small;
            progress = true;
        }
        if !progress {
            return (best_m, best_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PlantedBug;
    use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
    use tta_ir::Interpreter;

    /// A module whose return value depends on one `shr` of a negative
    /// number, padded with computation the shrinker should strip.
    fn bloated_shr_module() -> Module {
        let mut mb = ModuleBuilder::new("bloat");
        let mut fb = FunctionBuilder::new("main", 0, true);
        let mut junk = fb.copy(7);
        for k in 0..8 {
            junk = fb.add(junk, k);
            junk = fb.xor(junk, 0x55);
        }
        let a = fb.copy(-64);
        let r = fb.shr(a, 3);
        // Mix junk in via ops the shrinker can strip: (r + junk) - junk == r.
        let mixed = fb.add(r, junk);
        let out = fb.sub(mixed, junk);
        fb.ret(out);
        let id = mb.add(fb.finish());
        mb.set_entry(id);
        mb.finish()
    }

    fn interp_ret(m: &Module) -> Option<i32> {
        Interpreter::new(m).run(&[]).ok().and_then(|r| r.ret)
    }

    /// Reproduces iff the planted bug changes the interpreted result.
    fn diverges_under(bug: PlantedBug) -> impl Fn(&Module) -> bool {
        move |m: &Module| {
            let golden = interp_ret(m);
            let buggy = interp_ret(&bug.apply(m));
            golden.is_some() && golden != buggy
        }
    }

    #[test]
    fn shrink_is_identity_when_not_reproducing() {
        let m = bloated_shr_module();
        let out = shrink(&m, &|_| false);
        assert_eq!(inst_count(&out), inst_count(&m));
    }

    #[test]
    fn shrinks_planted_bug_below_ten_insts() {
        let m = bloated_shr_module();
        let pred = diverges_under(PlantedBug::ShrAsShru);
        assert!(pred(&m), "planted bug must reproduce on the seed module");
        let small = shrink(&m, &pred);
        assert!(pred(&small), "shrunk module must still reproduce");
        assert!(
            inst_count(&small) <= 10,
            "expected <= 10 insts, got {} in:\n{}",
            inst_count(&small),
            tta_ir::module_to_text(&small)
        );
        assert!(inst_count(&small) < inst_count(&m));
    }

    #[test]
    fn shrunk_module_still_verifies() {
        let m = bloated_shr_module();
        let small = shrink(&m, &diverges_under(PlantedBug::ShrAsShru));
        assert!(tta_ir::verify_module(&small).is_ok());
    }
}

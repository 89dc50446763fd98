//! Per-block data-dependence graphs.
//!
//! Nodes are the block's located operations; edges carry the dependence
//! kind. Memory dependences use the IR's alias regions (accesses to
//! different non-zero regions are independent), standing in for the alias
//! analysis of a production compiler. The graph also records, per input of
//! each op, which in-block op (if any) produced the value — the information
//! the TTA scheduler needs to attempt software bypassing.

use crate::loc::{LocBlock, LocSrc};
use std::collections::HashMap;
use tta_model::RegRef;

/// Dependence kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write through a register.
    Data,
    /// Write-after-read of a register (the write must not overtake the
    /// read).
    Anti,
    /// Write-after-write of a register.
    Output,
    /// Memory-order dependence (aliasing accesses, at least one a store).
    Mem,
}

/// One dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// The earlier operation (producer / prior access).
    pub from: usize,
    /// The dependence kind.
    pub kind: DepKind,
}

/// The dependence graph of one block.
#[derive(Debug, Clone)]
pub struct Ddg {
    /// Incoming edges per node.
    pub preds: Vec<Vec<Dep>>,
    /// Outgoing edges per node.
    pub succs: Vec<Vec<Dep>>,
    /// For each node, the in-block producer of its `a` and `b` inputs
    /// (`None` = live-in register or immediate).
    pub src_def: Vec<[Option<usize>; 2]>,
    /// The in-block producer of the terminator's condition/return value.
    pub term_def: Option<usize>,
    /// Scheduling priority: longest latency-weighted path to any sink
    /// (higher = more critical).
    pub priority: Vec<u32>,
    /// For each node, in-block ops that read its result (via register
    /// name) before the register is redefined.
    pub consumers: Vec<Vec<usize>>,
    /// Whether the terminator consumes node's result directly.
    pub term_consumes: Vec<bool>,
}

impl Ddg {
    /// Build the graph for a block.
    pub fn build(block: &LocBlock) -> Ddg {
        let n = block.ops.len();
        let mut preds: Vec<Vec<Dep>> = vec![Vec::new(); n];
        let mut src_def: Vec<[Option<usize>; 2]> = vec![[None, None]; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut term_consumes = vec![false; n];

        // Register state walking forward.
        let mut last_def: HashMap<RegRef, usize> = HashMap::new();
        let mut reads_since_def: HashMap<RegRef, Vec<usize>> = HashMap::new();
        // Memory state.
        let mut stores_so_far: Vec<usize> = Vec::new();
        let mut loads_since_store: Vec<usize> = Vec::new();

        for (i, op) in block.ops.iter().enumerate() {
            // Input data deps.
            for (which, s) in [op.a, op.b].into_iter().enumerate() {
                if let Some(LocSrc::Reg(r)) = s {
                    if let Some(&d) = last_def.get(&r) {
                        preds[i].push(Dep {
                            from: d,
                            kind: DepKind::Data,
                        });
                        src_def[i][which] = Some(d);
                        if !consumers[d].contains(&i) {
                            consumers[d].push(i);
                        }
                    }
                    reads_since_def.entry(r).or_default().push(i);
                }
            }
            // Memory deps.
            if let Some((region, is_store)) = op.mem_region() {
                if is_store {
                    for &p in &stores_so_far {
                        if aliases(block, p, region) {
                            preds[i].push(Dep {
                                from: p,
                                kind: DepKind::Mem,
                            });
                        }
                    }
                    for &p in &loads_since_store {
                        if aliases(block, p, region) {
                            preds[i].push(Dep {
                                from: p,
                                kind: DepKind::Mem,
                            });
                        }
                    }
                    stores_so_far.push(i);
                    // A load may leave the list only once this store
                    // covers it: every later store aliasing the load must
                    // then alias this store too, and so stays ordered after
                    // the load through it. That holds when this store is
                    // ANY or in the load's own region — not for an ANY
                    // load under a store to one region.
                    loads_since_store.retain(|&l| !covers(block, l, region));
                } else {
                    for &p in &stores_so_far {
                        if aliases(block, p, region) {
                            preds[i].push(Dep {
                                from: p,
                                kind: DepKind::Mem,
                            });
                        }
                    }
                    loads_since_store.push(i);
                }
            }
            // Register anti/output deps for the destination.
            if let Some(d) = op.dst {
                if let Some(rs) = reads_since_def.get(&d) {
                    for &r in rs {
                        if r != i {
                            preds[i].push(Dep {
                                from: r,
                                kind: DepKind::Anti,
                            });
                        }
                    }
                }
                if let Some(&p) = last_def.get(&d) {
                    preds[i].push(Dep {
                        from: p,
                        kind: DepKind::Output,
                    });
                }
                last_def.insert(d, i);
                reads_since_def.insert(d, Vec::new());
            }
        }

        // Terminator inputs.
        let mut term_def = None;
        let term_src = match block.term {
            crate::loc::LocTerm::Branch { cond, .. } => Some(cond),
            crate::loc::LocTerm::Ret(v) => v,
            crate::loc::LocTerm::Jump(_) => None,
        };
        if let Some(LocSrc::Reg(r)) = term_src {
            if let Some(&d) = last_def.get(&r) {
                term_def = Some(d);
                term_consumes[d] = true;
            }
        }

        // Dedup pred edges (keep strongest kind first occurrence is fine —
        // scheduling only needs ordering + Data identity via src_def).
        for p in &mut preds {
            p.sort_by_key(|d| (d.from, d.kind as u8));
            p.dedup();
        }

        let mut succs: Vec<Vec<Dep>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for d in ps {
                succs[d.from].push(Dep {
                    from: i,
                    kind: d.kind,
                });
            }
        }

        // Priorities: reverse topological accumulation. Blocks are acyclic
        // by construction (edges always point forward in program order).
        let mut priority = vec![0u32; n];
        for i in (0..n).rev() {
            let mut h = block.ops[i].latency();
            for s in &succs[i] {
                let w = match s.kind {
                    DepKind::Data => block.ops[i].latency() + 1,
                    _ => 1,
                };
                h = h.max(priority[s.from] + w);
            }
            if term_consumes[i] {
                h = h.max(block.ops[i].latency() + 2);
            }
            priority[i] = h;
        }

        Ddg {
            preds,
            succs,
            src_def,
            term_def,
            priority,
            consumers,
            term_consumes,
        }
    }

    /// Nodes in a topological order that respects all edges, by descending
    /// priority among ready nodes (the list scheduler's dispatch order).
    pub fn priority_order(&self) -> Vec<usize> {
        let n = self.preds.len();
        let mut remaining: Vec<usize> = self.preds.iter().map(|p| p.len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(pos) = ready
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| (self.priority[i], std::cmp::Reverse(i)))
            .map(|(p, _)| p)
        {
            let i = ready.swap_remove(pos);
            out.push(i);
            for s in &self.succs[i] {
                remaining[s.from] -= 1;
                if remaining[s.from] == 0 {
                    ready.push(s.from);
                }
            }
        }
        debug_assert_eq!(out.len(), n, "dependence graph must be acyclic");
        out
    }
}

fn aliases(block: &LocBlock, prior: usize, region: tta_ir::MemRegion) -> bool {
    match block.ops[prior].mem_region() {
        Some((r, _)) => r.may_alias(region),
        None => false,
    }
}

/// Whether a store to `region` orders every later store that may alias
/// the earlier access `prior`.
fn covers(block: &LocBlock, prior: usize, region: tta_ir::MemRegion) -> bool {
    match block.ops[prior].mem_region() {
        Some((r, _)) => region == tta_ir::MemRegion::ANY || region == r,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{LocBlock, LocKind, LocOp, LocTerm};
    use tta_ir::MemRegion;
    use tta_model::{Opcode, RegRef, RfId};

    fn r(i: u16) -> RegRef {
        RegRef {
            rf: RfId(0),
            index: i,
        }
    }

    fn alu(dst: u16, a: LocSrc, b: LocSrc) -> LocOp {
        LocOp {
            kind: LocKind::Alu(Opcode::Add),
            dst: Some(r(dst)),
            a: Some(a),
            b: Some(b),
        }
    }

    fn block(ops: Vec<LocOp>) -> LocBlock {
        LocBlock {
            ops,
            term: LocTerm::Ret(None),
            live_out: vec![],
        }
    }

    #[test]
    fn data_dependence_chain() {
        let b = block(vec![
            alu(1, LocSrc::Imm(1), LocSrc::Imm(2)),
            alu(2, LocSrc::Reg(r(1)), LocSrc::Imm(3)),
            alu(3, LocSrc::Reg(r(2)), LocSrc::Reg(r(1))),
        ]);
        let g = Ddg::build(&b);
        assert_eq!(g.src_def[1][0], Some(0));
        assert_eq!(g.src_def[2][0], Some(1));
        assert_eq!(g.src_def[2][1], Some(0));
        assert!(g.preds[2]
            .iter()
            .any(|d| d.from == 1 && d.kind == DepKind::Data));
        assert_eq!(g.consumers[0], vec![1, 2]);
        // Priorities decrease along the chain.
        assert!(g.priority[0] > g.priority[1]);
        assert!(g.priority[1] > g.priority[2]);
    }

    #[test]
    fn independent_ops_have_no_edges() {
        let b = block(vec![
            alu(1, LocSrc::Imm(1), LocSrc::Imm(2)),
            alu(2, LocSrc::Imm(3), LocSrc::Imm(4)),
        ]);
        let g = Ddg::build(&b);
        assert!(g.preds[0].is_empty());
        assert!(g.preds[1].is_empty());
    }

    #[test]
    fn register_reuse_creates_anti_and_output_deps() {
        let b = block(vec![
            alu(1, LocSrc::Imm(1), LocSrc::Imm(2)),    // def r1
            alu(2, LocSrc::Reg(r(1)), LocSrc::Imm(0)), // read r1
            alu(1, LocSrc::Imm(5), LocSrc::Imm(6)),    // redef r1
        ]);
        let g = Ddg::build(&b);
        assert!(g.preds[2]
            .iter()
            .any(|d| d.from == 1 && d.kind == DepKind::Anti));
        assert!(g.preds[2]
            .iter()
            .any(|d| d.from == 0 && d.kind == DepKind::Output));
    }

    #[test]
    fn memory_deps_respect_regions() {
        let ld = |reg: u16, region: u16| LocOp {
            kind: LocKind::Load(Opcode::Ldw, MemRegion(region)),
            dst: Some(r(reg)),
            a: None,
            b: Some(LocSrc::Imm(16)),
        };
        let st = |region: u16| LocOp {
            kind: LocKind::Store(Opcode::Stw, MemRegion(region)),
            dst: None,
            a: Some(LocSrc::Imm(0)),
            b: Some(LocSrc::Imm(16)),
        };
        // store r1 / load r1 → dep; store r1 / load r2 → none.
        let b = block(vec![st(1), ld(1, 1), ld(2, 2), st(2)]);
        let g = Ddg::build(&b);
        assert!(g.preds[1]
            .iter()
            .any(|d| d.from == 0 && d.kind == DepKind::Mem));
        assert!(g.preds[2].iter().all(|d| d.kind != DepKind::Mem));
        // The region-2 store depends on the region-2 load (WAR-mem) but not
        // on the region-1 accesses.
        assert!(g.preds[3]
            .iter()
            .any(|d| d.from == 2 && d.kind == DepKind::Mem));
        assert!(!g.preds[3].iter().any(|d| d.from == 0));
    }

    #[test]
    fn any_region_orders_everything() {
        let st = |region: u16| LocOp {
            kind: LocKind::Store(Opcode::Stw, MemRegion(region)),
            dst: None,
            a: Some(LocSrc::Imm(0)),
            b: Some(LocSrc::Imm(16)),
        };
        let b = block(vec![st(1), st(0), st(2)]);
        let g = Ddg::build(&b);
        assert!(g.preds[1].iter().any(|d| d.from == 0));
        assert!(g.preds[2].iter().any(|d| d.from == 1));
    }

    #[test]
    fn any_load_stays_ordered_before_stores_to_other_regions() {
        // load @ANY; store @r2; store @r1: the r2 store must not retire
        // the ANY load, or the r1 store loses its edge and can be hoisted
        // above the load.
        let b = block(vec![
            LocOp {
                kind: LocKind::Load(Opcode::Ldw, MemRegion::ANY),
                dst: Some(r(1)),
                a: None,
                b: Some(LocSrc::Imm(16)),
            },
            LocOp {
                kind: LocKind::Store(Opcode::Stw, MemRegion(2)),
                dst: None,
                a: Some(LocSrc::Imm(0)),
                b: Some(LocSrc::Imm(32)),
            },
            LocOp {
                kind: LocKind::Store(Opcode::Stw, MemRegion(1)),
                dst: None,
                a: Some(LocSrc::Imm(0)),
                b: Some(LocSrc::Imm(16)),
            },
        ]);
        let g = Ddg::build(&b);
        for store in [1, 2] {
            assert!(
                g.preds[store]
                    .iter()
                    .any(|d| d.from == 0 && d.kind == DepKind::Mem),
                "store {store} must stay after the ANY load: {:?}",
                g.preds[store]
            );
        }
        let order = g.priority_order();
        let pos = |i: usize| order.iter().position(|&o| o == i).unwrap();
        assert!(pos(0) < pos(2));
    }

    #[test]
    fn priority_order_is_topological() {
        let b = block(vec![
            alu(1, LocSrc::Imm(1), LocSrc::Imm(2)),
            alu(2, LocSrc::Reg(r(1)), LocSrc::Imm(3)),
            alu(3, LocSrc::Imm(9), LocSrc::Imm(9)),
            alu(4, LocSrc::Reg(r(2)), LocSrc::Reg(r(3))),
        ]);
        let g = Ddg::build(&b);
        let order = g.priority_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (k, &i) in order.iter().enumerate() {
                p[i] = k;
            }
            p
        };
        assert!(pos[0] < pos[1]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    fn terminator_condition_tracked() {
        let mut b = block(vec![alu(1, LocSrc::Imm(1), LocSrc::Imm(2))]);
        b.term = LocTerm::Branch {
            cond: LocSrc::Reg(r(1)),
            if_true: tta_ir::BlockId(0),
            if_false: tta_ir::BlockId(0),
        };
        let g = Ddg::build(&b);
        assert_eq!(g.term_def, Some(0));
        assert!(g.term_consumes[0]);
    }
}

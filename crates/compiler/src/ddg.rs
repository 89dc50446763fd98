//! Per-block data-dependence graphs.
//!
//! Nodes are the block's located operations; edges carry the dependence
//! kind. Memory dependences use the IR's alias regions (accesses to
//! different non-zero regions are independent), standing in for the alias
//! analysis of a production compiler. The graph also records, per input of
//! each op, which in-block op (if any) produced the value — the information
//! the TTA scheduler needs to attempt software bypassing.

use crate::loc::{LocBlock, LocSrc, LocTerm};
use crate::resource::{RegIndex, NONE};
use tta_model::Machine;

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

/// The dependence graph of one block. A scheduler keeps one per function
/// and [`rebuild`](Ddg::rebuild)s it for each block, reusing its storage.
#[derive(Debug, Clone, Default)]
pub struct Ddg {
    /// Incoming edges of every node, node by node.
    edges: Vec<Dep>,
    /// `edges[edge_start[i]..edge_start[i + 1]]` are node `i`'s.
    edge_start: Vec<usize>,
    /// For each node, the in-block producer of its `a` and `b` inputs
    /// (`None` = live-in register or immediate).
    pub src_def: Vec<[Option<usize>; 2]>,
    /// The in-block producer of the terminator's condition/return value.
    pub term_def: Option<usize>,
    /// Scheduling priority: longest latency-weighted path to any sink
    /// (higher = more critical).
    pub priority: Vec<u32>,
    /// For each node, how many in-block ops read its result (via register
    /// name) before the register is redefined.
    pub consumers: Vec<usize>,
    /// Whether the terminator consumes node's result directly.
    pub term_consumes: Vec<bool>,
    /// Nodes in a topological order that respects all edges, by descending
    /// priority among ready nodes (the list scheduler's dispatch order).
    pub order: Vec<usize>,
    regs: RegIndex,
    /// Per register: the node that last defined it.
    last_def: Vec<usize>,
    /// Per register: its newest read since its last def, heading a list of
    /// (reader, next older read) threaded through `reads`.
    reads_head: Vec<usize>,
    reads: Vec<(usize, usize)>,
    stores_so_far: Vec<usize>,
    loads_since_store: Vec<usize>,
    /// Per node: its newest outgoing edge, heading a list of (edge's
    /// node, next outgoing edge) threaded through `succs` like `edges`.
    succ_head: Vec<usize>,
    succs: Vec<(usize, usize)>,
    remaining: Vec<usize>,
    ready: Vec<usize>,
}

impl Ddg {
    /// An empty graph for blocks of code allocated on `m`.
    pub fn new(m: &Machine) -> Ddg {
        let regs = RegIndex::new(m);
        Ddg {
            last_def: vec![NONE; regs.count()],
            reads_head: vec![NONE; regs.count()],
            regs,
            ..Ddg::default()
        }
    }

    /// Incoming edges of node `i`, ordered by (from, kind).
    pub fn preds(&self, i: usize) -> &[Dep] {
        &self.edges[self.edge_start[i]..self.edge_start[i + 1]]
    }

    /// Rebuild the graph, and with it [`order`](Ddg::order), for `block`.
    pub fn rebuild(&mut self, block: &LocBlock) {
        let n = block.ops.len();
        self.edges.clear();
        self.edge_start.clear();
        self.src_def.clear();
        self.src_def.resize(n, [None, None]);
        self.consumers.clear();
        self.consumers.resize(n, 0);
        self.term_consumes.clear();
        self.term_consumes.resize(n, false);
        self.last_def.fill(NONE);
        self.reads_head.fill(NONE);
        self.reads.clear();
        self.stores_so_far.clear();
        self.loads_since_store.clear();
        self.succ_head.clear();
        self.succ_head.resize(n, NONE);
        self.succs.clear();

        for (i, op) in block.ops.iter().enumerate() {
            let start = self.edges.len();
            self.edge_start.push(start);
            let edge = |from: usize, kind| Dep { from, kind };
            // Input data deps.
            for (which, s) in [op.a, op.b].into_iter().enumerate() {
                if let Some(LocSrc::Reg(r)) = s {
                    let k = self.regs.of(r);
                    let d = self.last_def[k];
                    if d != NONE {
                        self.edges.push(edge(d, DepKind::Data));
                        self.src_def[i][which] = Some(d);
                        if which == 0 || self.src_def[i][0] != Some(d) {
                            self.consumers[d] += 1;
                        }
                    }
                    self.reads.push((i, self.reads_head[k]));
                    self.reads_head[k] = self.reads.len() - 1;
                }
            }
            // Memory deps.
            if let Some((region, is_store)) = op.mem_region() {
                for &p in &self.stores_so_far {
                    if aliases(block, p, region) {
                        self.edges.push(edge(p, DepKind::Mem));
                    }
                }
                if is_store {
                    for &p in &self.loads_since_store {
                        if aliases(block, p, region) {
                            self.edges.push(edge(p, DepKind::Mem));
                        }
                    }
                    self.stores_so_far.push(i);
                    // A load may leave the list only once this store
                    // covers it: every later store aliasing the load must
                    // then alias this store too, and so stays ordered after
                    // the load through it. That holds when this store is
                    // ANY or in the load's own region — not for an ANY
                    // load under a store to one region.
                    self.loads_since_store
                        .retain(|&l| !covers(block, l, region));
                } else {
                    self.loads_since_store.push(i);
                }
            }
            // Register anti/output deps for the destination.
            if let Some(d) = op.dst {
                let k = self.regs.of(d);
                let mut at = std::mem::replace(&mut self.reads_head[k], NONE);
                while at != NONE {
                    let (reader, next) = self.reads[at];
                    if reader != i {
                        self.edges.push(edge(reader, DepKind::Anti));
                    }
                    at = next;
                }
                let p = std::mem::replace(&mut self.last_def[k], i);
                if p != NONE {
                    self.edges.push(edge(p, DepKind::Output));
                }
            }
            // Dedup this node's edges (scheduling only needs ordering, and
            // Data identity via src_def).
            self.edges[start..].sort_unstable_by_key(|d| (d.from, d.kind as u8));
            let mut kept = start;
            for e in start..self.edges.len() {
                if kept == start || self.edges[e] != self.edges[kept - 1] {
                    self.edges[kept] = self.edges[e];
                    kept += 1;
                }
            }
            self.edges.truncate(kept);
            for e in start..kept {
                let from = self.edges[e].from;
                self.succs.push((i, self.succ_head[from]));
                self.succ_head[from] = e;
            }
        }
        self.edge_start.push(self.edges.len());

        // Terminator inputs.
        self.term_def = None;
        let term_src = match block.term {
            LocTerm::Branch { cond, .. } => Some(cond),
            LocTerm::Ret(v) => v,
            LocTerm::Jump(_) => None,
        };
        if let Some(LocSrc::Reg(r)) = term_src {
            let d = self.last_def[self.regs.of(r)];
            if d != NONE {
                self.term_def = Some(d);
                self.term_consumes[d] = true;
            }
        }

        // Priorities: reverse topological accumulation. Blocks are acyclic
        // by construction (edges always point forward in program order), so
        // every successor of `i` is final before `i` is reached and pushes
        // its path length back along its incoming edges.
        self.priority.clear();
        self.priority.resize(n, 0);
        for i in (0..n).rev() {
            let lat = block.ops[i].latency();
            let mut h = lat.max(self.priority[i]);
            if self.term_consumes[i] {
                h = h.max(lat + 2);
            }
            self.priority[i] = h;
            for e in self.edge_start[i]..self.edge_start[i + 1] {
                let Dep { from, kind } = self.edges[e];
                let w = match kind {
                    DepKind::Data => block.ops[from].latency() + 1,
                    _ => 1,
                };
                self.priority[from] = self.priority[from].max(h + w);
            }
        }
        self.order_by_priority(n);
    }

    /// List-schedule the nodes into `order`: repeatedly take the ready node
    /// of highest priority (lowest index on ties).
    fn order_by_priority(&mut self, n: usize) {
        self.remaining.clear();
        let starts = self.edge_start.windows(2);
        self.remaining.extend(starts.map(|w| w[1] - w[0]));
        self.ready.clear();
        self.ready
            .extend((0..n).filter(|&i| self.remaining[i] == 0));
        self.order.clear();
        while let Some(pos) = self
            .ready
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| (self.priority[i], std::cmp::Reverse(i)))
            .map(|(p, _)| p)
        {
            let i = self.ready.swap_remove(pos);
            self.order.push(i);
            let mut e = self.succ_head[i];
            while e != NONE {
                let (s, next) = self.succs[e];
                self.remaining[s] -= 1;
                if self.remaining[s] == 0 {
                    self.ready.push(s);
                }
                e = next;
            }
        }
        debug_assert_eq!(self.order.len(), n, "dependence graph must be acyclic");
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

    fn graph(b: &LocBlock) -> Ddg {
        let mut g = Ddg::new(&tta_model::presets::m_tta_1());
        g.rebuild(b);
        g
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
        let g = graph(&b);
        assert_eq!(g.src_def[1][0], Some(0));
        assert_eq!(g.src_def[2][0], Some(1));
        assert_eq!(g.src_def[2][1], Some(0));
        assert!(g
            .preds(2)
            .iter()
            .any(|d| d.from == 1 && d.kind == DepKind::Data));
        assert_eq!(g.consumers[0], 2);
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
        let g = graph(&b);
        assert!(g.preds(0).is_empty());
        assert!(g.preds(1).is_empty());
    }

    #[test]
    fn register_reuse_creates_anti_and_output_deps() {
        let b = block(vec![
            alu(1, LocSrc::Imm(1), LocSrc::Imm(2)),    // def r1
            alu(2, LocSrc::Reg(r(1)), LocSrc::Imm(0)), // read r1
            alu(1, LocSrc::Imm(5), LocSrc::Imm(6)),    // redef r1
        ]);
        let g = graph(&b);
        assert!(g
            .preds(2)
            .iter()
            .any(|d| d.from == 1 && d.kind == DepKind::Anti));
        assert!(g
            .preds(2)
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
        let g = graph(&b);
        assert!(g
            .preds(1)
            .iter()
            .any(|d| d.from == 0 && d.kind == DepKind::Mem));
        assert!(g.preds(2).iter().all(|d| d.kind != DepKind::Mem));
        // The region-2 store depends on the region-2 load (WAR-mem) but not
        // on the region-1 accesses.
        assert!(g
            .preds(3)
            .iter()
            .any(|d| d.from == 2 && d.kind == DepKind::Mem));
        assert!(!g.preds(3).iter().any(|d| d.from == 0));
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
        let g = graph(&b);
        assert!(g.preds(1).iter().any(|d| d.from == 0));
        assert!(g.preds(2).iter().any(|d| d.from == 1));
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
        let g = graph(&b);
        for store in [1, 2] {
            assert!(
                g.preds(store)
                    .iter()
                    .any(|d| d.from == 0 && d.kind == DepKind::Mem),
                "store {store} must stay after the ANY load: {:?}",
                g.preds(store)
            );
        }
        let pos = |i: usize| g.order.iter().position(|&o| o == i).unwrap();
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
        let g = graph(&b);
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (k, &i) in g.order.iter().enumerate() {
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
        let g = graph(&b);
        assert_eq!(g.term_def, Some(0));
        assert!(g.term_consumes[0]);
    }
}

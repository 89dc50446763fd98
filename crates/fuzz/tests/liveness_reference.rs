//! `Liveness::compute` against a textbook solver on irregular control
//! flow.
//!
//! The CHStone kernels (the compiler's own reference test) are loop nests
//! of a handful of shapes. Generated modules add what they lack: nested
//! data-dependent loops, early exits, diamonds inside loops, inlined leaf
//! functions and `__irq` handlers. Each module of seeds 0..500, plain and
//! reactive, is inlined into its entry function and into its handler view
//! (entry swapped to `__irq`), and both liveness matrices are compared row
//! by row with a round-robin solver written here.

use std::collections::BTreeSet;
use tta_compiler::inline::inline_module;
use tta_compiler::liveness::Liveness;
use tta_fuzz::{generate, generate_reactive, GenConfig};
use tta_ir::{Function, Module};

const SEEDS: u64 = 500;

/// Per-block sets of vreg numbers.
type Sets = Vec<BTreeSet<usize>>;

/// The textbook round-robin solver: every round rebuilds each block's
/// `out` as the union of its successors' `in`, and `in` as
/// `gen ∪ (out − kill)`, from fresh sets, until a round changes nothing.
/// Returns `(live_in, live_out)`.
fn reference(f: &Function) -> (Sets, Sets) {
    let (mut gen, mut kill) = (Sets::new(), Sets::new());
    for b in &f.blocks {
        let (mut g, mut k) = (BTreeSet::new(), BTreeSet::new());
        let insts = b
            .insts
            .iter()
            .map(|i| (i.uses().collect::<Vec<_>>(), i.def()));
        let term = b.term.iter().map(|t| (t.uses().collect(), None));
        for (uses, def) in insts.chain(term) {
            for u in uses {
                if !k.contains(&(u.0 as usize)) {
                    g.insert(u.0 as usize);
                }
            }
            if let Some(d) = def {
                k.insert(d.0 as usize);
            }
        }
        gen.push(g);
        kill.push(k);
    }
    let n = f.blocks.len();
    let (mut live_in, mut live_out) = (vec![BTreeSet::new(); n], vec![BTreeSet::new(); n]);
    loop {
        let mut changed = false;
        for bi in 0..n {
            let mut out = BTreeSet::new();
            for s in f.blocks[bi].term.iter().flat_map(|t| t.successors()) {
                out.extend(&live_in[s.0 as usize]);
            }
            let mut inp = gen[bi].clone();
            inp.extend(out.difference(&kill[bi]));
            changed |= out != live_out[bi] || inp != live_in[bi];
            live_out[bi] = out;
            live_in[bi] = inp;
        }
        if !changed {
            return (live_in, live_out);
        }
    }
}

/// The module as compiled for its entry function, and, when it declares
/// an interrupt handler, the module with the handler as its entry.
fn views(m: Module) -> Vec<Module> {
    let handler = m.irq_handler_id().map(|id| Module {
        entry: id,
        ..m.clone()
    });
    std::iter::once(m).chain(handler).collect()
}

#[test]
fn liveness_matches_the_reference_solver_on_generated_modules() {
    let cfg = GenConfig::default();
    let (mut functions, mut blocks, mut live_bits) = (0, 0, 0);
    for seed in 0..SEEDS {
        let plain = generate(seed, &cfg);
        let (reactive, _) = generate_reactive(seed, &cfg);
        for (kind, module) in [("plain", plain), ("reactive", reactive)] {
            for view in views(module) {
                let f = inline_module(&view).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
                let name = &view.funcs[view.entry.0 as usize].name;
                let got = Liveness::compute(&f);
                let (want_in, want_out) = reference(&f);
                for bi in 0..f.blocks.len() {
                    let at = || format!("seed {seed} {kind} {name} bb{bi}");
                    let got_in: BTreeSet<_> = got.live_in.iter(bi).collect();
                    let got_out: BTreeSet<_> = got.live_out.iter(bi).collect();
                    assert_eq!(got_in, want_in[bi], "{} live-in", at());
                    assert_eq!(got_out, want_out[bi], "{} live-out", at());
                    live_bits += got_in.len() + got_out.len();
                }
                functions += 1;
                blocks += f.blocks.len();
            }
        }
    }
    // The sweep must cover handler views (every function past two per
    // seed is one) and multi-block functions with values live across
    // their edges, or it shows nothing.
    assert!(functions > 2 * SEEDS as usize, "{functions} functions");
    assert!(
        blocks > 10 * functions,
        "{blocks} blocks in {functions} functions"
    );
    assert!(
        live_bits > blocks,
        "{live_bits} live bits in {blocks} blocks"
    );
}

//! The compiler's dataflow analysis allocates nothing per block or per
//! instruction: `Liveness::compute` makes the same three allocations (its
//! live-in, live-out and kill matrices) on every function, whatever its
//! block count, and walking every `uses()` and `successors()` makes none.
//!
//! A counting global allocator pins this without timing noise. Its counter
//! is thread-local, so tests running on other threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use tta_compiler::inline::inline_module;
use tta_compiler::liveness::Liveness;
use tta_ir::Function;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// Every CHStone kernel inlined into its entry function.
fn kernels() -> Vec<(&'static str, Function)> {
    tta_chstone::all_kernels()
        .into_iter()
        .map(|k| (k.name, inline_module(&(k.build)()).unwrap()))
        .collect()
}

#[test]
fn liveness_allocates_a_constant_number_of_times() {
    let mut seen = Vec::new();
    for (name, f) in kernels() {
        let n = allocations(|| Liveness::compute(&f));
        seen.push((name, f.blocks.len(), n));
    }
    assert!(
        seen.iter().all(|&(_, _, n)| n == 3),
        "(kernel, blocks, allocations): {seen:?}"
    );
    let blocks = seen.iter().map(|&(_, b, _)| b);
    let (min, max) = (blocks.clone().min().unwrap(), blocks.max().unwrap());
    assert!(max >= 4 * min, "block counts {min}..{max} are too alike");
}

#[test]
fn walking_uses_and_successors_allocates_nothing() {
    for (name, f) in kernels() {
        let mut seen = 0usize;
        let n = allocations(|| {
            for b in &f.blocks {
                for inst in &b.insts {
                    for u in inst.uses() {
                        seen += black_box(u).0 as usize;
                    }
                }
                let Some(t) = &b.term else { continue };
                for u in t.uses() {
                    seen += black_box(u).0 as usize;
                }
                for s in t.successors() {
                    seen += black_box(s).0 as usize;
                }
            }
        });
        assert_eq!(n, 0, "{name}");
        assert!(seen > 0, "{name}");
    }
}

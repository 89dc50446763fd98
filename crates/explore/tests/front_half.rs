//! The compile cache runs a kernel's compiler front half lazily: not in
//! `prepare_kernel`, once on the kernel's first miss, under the `compile`
//! span. A single test, so the process-wide obs counters it reads are
//! exact.

use tta_explore::cache::CompileCache;
use tta_explore::eval::prepare_kernel;
use tta_model::presets;

fn counter(name: &str) -> u64 {
    tta_obs::counter::get(name).unwrap_or(0)
}

#[test]
fn cache_misses_prepare_each_kernel_once_under_the_compile_span() {
    let kernel = prepare_kernel(&tta_chstone::by_name("sha").unwrap());
    assert_eq!(counter("compiler.prepares"), 0, "prepare_kernel stays lazy");

    let cache = CompileCache::new();
    for m in [presets::m_tta_2(), presets::mblaze_3()] {
        let (compiled, _) =
            cache.get_or_compile(CompileCache::key_for(&m, kernel.ir_hash), &kernel, &m);
        let whole = tta_compiler::compile(&kernel.module, &m).unwrap();
        assert_eq!(compiled.program, whole.program, "{}", m.name);
        assert_eq!(compiled.block_starts, whole.block_starts, "{}", m.name);
    }
    // Two misses, one front half; the two direct compiles above add one
    // prepare and one back end each.
    assert_eq!(counter("compiler.prepares"), 1 + 2);
    assert_eq!(counter("compiler.compiles"), 2 + 2);
    // A hit compiles nothing.
    let m = presets::m_tta_2();
    cache.get_or_compile(CompileCache::key_for(&m, kernel.ir_hash), &kernel, &m);
    assert_eq!(counter("compiler.compiles"), 4);

    // Every pass span sits directly under a `compile` span.
    let passes = |name: &str| tta_obs::span::stat(&format!("compile/{name}")).map(|(_, n)| n);
    assert_eq!(passes("verify"), Some(3));
    assert_eq!(passes("consts"), Some(4));
}

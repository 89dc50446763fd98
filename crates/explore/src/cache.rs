//! The sharded, content-keyed compile cache.
//!
//! Every consumer of the pipeline — the evaluation work queue, the batch
//! server, repeated bench repetitions — revisits the same
//! (machine × kernel) pairs, so compilation is memoised process-wide.
//! Keys are *content* hashes (the machine's full `Debug` form and the
//! kernel's IR text), never identities, so equivalent requests from
//! different call sites share one artefact.
//!
//! The map is split across [`SHARDS`] independently-locked shards chosen
//! by key hash: a server draining dozens of concurrent simulations then
//! only contends on a shard when two jobs race for the *same* artefact's
//! neighbourhood, not on one global mutex. Values are
//! `(Arc<Compiled>, Arc<Tiers>)` — the TTA thunk array the first run of a
//! pair builds into its `Tiers` is reused by every later run, from any
//! worker thread.
//!
//! The cache is *bounded*: each shard keeps at most its share of the
//! configured capacity and evicts its oldest insertion first (FIFO — the
//! access pattern is "a burst of evaluations revisits a working set, a
//! design-space search streams through thousands of one-shot configs",
//! where FIFO behaves like LRU without per-hit bookkeeping). Evictions
//! land on the `cache.evictions` obs counter. The default capacity holds
//! the full 13×8 evaluation working set (104 pairs) plus an order of
//! magnitude of head room, so `evaluate_all` hit rates are unaffected.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use tta_compiler::{compile_prepared, Compiled, TtaOptions};
use tta_model::Machine;
use tta_obs as obs;

use crate::eval::PreparedKernel;

/// A cached compile artefact: the compiled program plus its shared
/// simulator state (the TTA thunk array, built on first run).
pub type Entry = (Arc<Compiled>, Arc<tta_sim::Tiers>);

/// Cache key: (machine-`Debug` hash, IR-text hash).
pub type Key = (u64, u64);

/// Shard count. A small power of two: enough to spread the handful of
/// hot keys a concurrent batch touches, cheap enough that an idle cache
/// costs nothing.
pub const SHARDS: usize = 16;

/// Default total capacity (entries across all shards): the 104-pair
/// evaluation working set never evicts, a thousand-config search stays
/// bounded at a few GB of compiled artefacts at most.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Hash any `Hash` value with the std default hasher.
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One shard: the key→entry map plus the FIFO insertion order backing
/// eviction.
#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    order: VecDeque<Key>,
}

/// A sharded, bounded `Key → Entry` map. See the module docs for the
/// design.
pub struct CompileCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry cap (total capacity / shard count, at least 1).
    shard_cap: usize,
}

impl CompileCache {
    /// A cache with [`SHARDS`] shards and the [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        CompileCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded to roughly `capacity` entries in total (rounded up
    /// to a multiple of the shard count; at least one entry per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        CompileCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: capacity.div_ceil(SHARDS).max(1),
        }
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// The shard holding `key`: mix both halves so machines (which share
    /// an IR hash across kernels) and kernels (which share a machine
    /// hash across machines) both spread.
    fn shard(&self, key: Key) -> &Mutex<Shard> {
        let mixed = key.0.rotate_left(17) ^ key.1.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    /// The cache key for compiling `ir_hash` on `machine`.
    pub fn key_for(machine: &Machine, ir_hash: u64) -> Key {
        (hash_of(&format!("{machine:?}")), ir_hash)
    }

    /// Look up `key`, or compile `kernel` for `machine` and insert. A
    /// miss runs only the compiler's back end, from the kernel's front
    /// half ([`PreparedKernel::front`], built on the kernel's first miss).
    /// The hit path still charges a (tiny) `compile` span so stage
    /// accounting always reflects the stage that ran; misses are charged
    /// in full by the compiler's own `compile` spans. Hit/miss totals land
    /// on the `eval.compile_cache.{hits,misses}` counters.
    ///
    /// Compilation happens *outside* the shard lock: a racing worker may
    /// compile the same key concurrently and insert second, but both
    /// artefacts have identical content, so last-write-wins is fine.
    pub fn get_or_compile(&self, key: Key, kernel: &PreparedKernel, machine: &Machine) -> Entry {
        {
            let _s = obs::span("compile");
            if let Some(hit) = self.shard(key).lock().unwrap().map.get(&key) {
                obs::counter::add("eval.compile_cache.hits", 1);
                return hit.clone();
            }
        }
        obs::counter::add("eval.compile_cache.misses", 1);
        let compiled = kernel
            .front()
            .map_err(Clone::clone)
            .and_then(|p| compile_prepared(p, machine, TtaOptions::default()))
            .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, machine.name));
        let compiled = Arc::new(compiled);
        let tiers = Arc::new(tta_sim::Tiers::for_program(&compiled.program));
        let entry = (compiled, tiers);
        self.insert(key, entry.clone());
        entry
    }

    /// Insert `entry`, evicting the shard's oldest insertions past its
    /// capacity (counted on `cache.evictions`).
    fn insert(&self, key: Key, entry: Entry) {
        let mut shard = self.shard(key).lock().unwrap();
        if shard.map.insert(key, entry).is_none() {
            shard.order.push_back(key);
        }
        let mut evicted = 0;
        while shard.map.len() > self.shard_cap {
            let oldest = shard.order.pop_front().expect("order tracks the map");
            shard.map.remove(&oldest);
            evicted += 1;
        }
        if evicted > 0 {
            obs::counter::add("cache.evictions", evicted);
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new()
    }
}

/// The process-wide cache shared by the evaluation pipeline and the
/// batch server.
pub fn global() -> &'static CompileCache {
    static CACHE: OnceLock<CompileCache> = OnceLock::new();
    CACHE.get_or_init(CompileCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::presets;

    fn small_kernel() -> PreparedKernel {
        crate::eval::prepare_kernel(&tta_chstone::by_name("sha").unwrap())
    }

    #[test]
    fn hit_returns_the_same_artefact() {
        let cache = CompileCache::new();
        let kernel = small_kernel();
        let machine = presets::mblaze_3();
        let key = CompileCache::key_for(&machine, hash_of("sha-ir"));
        let a = cache.get_or_compile(key, &kernel, &machine);
        let b = cache.get_or_compile(key, &kernel, &machine);
        assert!(Arc::ptr_eq(&a.0, &b.0), "hit must share the artefact");
        assert!(
            Arc::ptr_eq(&a.1, &b.1),
            "hit must share the simulator state"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_machines_get_distinct_entries() {
        let cache = CompileCache::new();
        let kernel = small_kernel();
        let ir = hash_of("sha-ir");
        for m in [presets::mblaze_3(), presets::m_vliw_2(), presets::m_tta_2()] {
            cache.get_or_compile(CompileCache::key_for(&m, ir), &kernel, &m);
        }
        assert_eq!(cache.len(), 3);
    }

    // The obs counters are process-global and sibling tests move them
    // concurrently, so counter checks below are lower bounds only; which
    // artefact a lookup returns (`Arc::ptr_eq`) tells a hit from a
    // recompile exactly.

    #[test]
    fn capacity_is_enforced_with_fifo_eviction() {
        // One entry per shard: every second distinct key in a shard
        // evicts the oldest one.
        let cache = CompileCache::with_capacity(SHARDS);
        assert_eq!(cache.capacity(), SHARDS);
        let kernel = small_kernel();
        let machine = presets::mblaze_3();
        let key = |i: u64| CompileCache::key_for(&machine, i);
        let before = tta_obs::counter::get("cache.evictions").unwrap_or(0);
        // Distinct IR hashes spread across shards; 4x capacity forces
        // evictions no matter how the hashes land.
        let n = 4 * SHARDS as u64;
        let first: Vec<Entry> = (0..n)
            .map(|i| cache.get_or_compile(key(i), &kernel, &machine))
            .collect();
        assert!(
            cache.len() <= cache.capacity(),
            "len {} exceeds capacity {}",
            cache.len(),
            cache.capacity()
        );
        let evicted = tta_obs::counter::get("cache.evictions").unwrap_or(0) - before;
        assert!(
            evicted >= n - cache.capacity() as u64,
            "overfilling must count its evictions (counted {evicted})"
        );

        // The newest key is resident in its shard and hits; the oldest
        // was evicted and recompiles into a fresh artefact.
        let last = cache.get_or_compile(key(n - 1), &kernel, &machine);
        assert!(
            Arc::ptr_eq(&last.0, &first[n as usize - 1].0),
            "resident key must hit"
        );
        let again = cache.get_or_compile(key(0), &kernel, &machine);
        assert!(
            !Arc::ptr_eq(&again.0, &first[0].0),
            "oldest key was evicted and must recompile"
        );
    }

    #[test]
    fn default_capacity_holds_the_evaluation_working_set() {
        // 13 machines x 8 kernels = 104 pairs; the default capacity must
        // keep them all resident so evaluate_all hit rates are unchanged.
        assert!(CompileCache::new().capacity() >= 104 * 4);
    }

    #[test]
    fn reinserting_the_same_key_does_not_count_as_growth() {
        let cache = CompileCache::with_capacity(SHARDS);
        let kernel = small_kernel();
        let machine = presets::mblaze_3();
        let key = CompileCache::key_for(&machine, 7);
        let first = cache.get_or_compile(key, &kernel, &machine);
        for _ in 0..4 {
            // An eviction would drop the only entry and recompile it.
            let hit = cache.get_or_compile(key, &kernel, &machine);
            assert!(Arc::ptr_eq(&hit.0, &first.0), "hits never evict");
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_entry_per_key() {
        let cache = CompileCache::new();
        let kernel = small_kernel();
        let machine = presets::mblaze_3();
        let key = CompileCache::key_for(&machine, hash_of("sha-ir"));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..3 {
                        let e = cache.get_or_compile(key, &kernel, &machine);
                        assert!(!e.0.program.is_empty());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
    }
}

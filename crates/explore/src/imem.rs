//! Instruction-memory hierarchy model.
//!
//! The paper's §V-D argues that TTA's larger program images matter less
//! than the per-core register-file savings because instruction storage sits
//! behind a (shareable) memory hierarchy: a small on-chip instruction cache
//! plus external storage. This module makes that argument quantitative: a
//! direct-mapped/set-associative I-cache simulated over the real dynamic
//! PC traces of the cycle-accurate simulators, with line fills costed in
//! *bits* so the wide TTA words and the narrow MicroBlaze words are
//! compared fairly.

use tta_isa::Program;
use tta_model::Machine;

/// An instruction-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total cache capacity in *bits* of instruction storage.
    pub capacity_bits: u64,
    /// Instructions per cache line.
    pub line_insts: u32,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Extra cycles to refill one line from backing store.
    pub miss_penalty: u32,
}

impl ICacheConfig {
    /// A small per-core cache of the kind §V-D suggests: 16 kbit of
    /// instruction storage, 8-instruction lines, 2-way, 10-cycle refills.
    pub fn small() -> Self {
        ICacheConfig {
            capacity_bits: 16 * 1024,
            line_insts: 8,
            ways: 2,
            miss_penalty: 10,
        }
    }
}

/// Result of simulating a PC trace against an I-cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ICacheReport {
    /// Instruction fetches (= executed instructions).
    pub accesses: u64,
    /// Line misses.
    pub misses: u64,
    /// Cache lines available for this machine's instruction width.
    pub lines: u32,
    /// Extra cycles spent refilling.
    pub stall_cycles: u64,
}

impl ICacheReport {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Simulate the cache over a dynamic PC trace for a machine (the machine's
/// instruction width determines how many lines fit in the bit budget).
pub fn simulate_icache(m: &Machine, trace: &[u32], cfg: ICacheConfig) -> ICacheReport {
    let width = tta_isa::encoding::instruction_bits(m) as u64;
    let line_bits = width * cfg.line_insts as u64;
    let lines = ((cfg.capacity_bits / line_bits) as u32).max(cfg.ways);
    let sets = (lines / cfg.ways).max(1);

    // Per set: the resident line tags in LRU order (most recent last).
    let mut cache: Vec<Vec<u32>> = vec![Vec::new(); sets as usize];
    let mut misses = 0u64;
    for &pc in trace {
        let line = pc / cfg.line_insts;
        let set = (line % sets) as usize;
        let resident = &mut cache[set];
        if let Some(pos) = resident.iter().position(|&t| t == line) {
            let t = resident.remove(pos);
            resident.push(t);
        } else {
            misses += 1;
            if resident.len() == cfg.ways as usize {
                resident.remove(0);
            }
            resident.push(line);
        }
    }
    ICacheReport {
        accesses: trace.len() as u64,
        misses,
        lines,
        stall_cycles: misses * cfg.miss_penalty as u64,
    }
}

/// Run a compiled program with tracing and report its I-cache behaviour
/// plus the effective slowdown `(cycles + stalls) / cycles`.
pub fn kernel_icache(
    m: &Machine,
    program: &Program,
    memory: Vec<u8>,
    cfg: ICacheConfig,
) -> (ICacheReport, f64) {
    let (result, trace) =
        tta_sim::run_traced(m, program, memory, tta_sim::DEFAULT_FUEL).expect("traced run");
    let report = simulate_icache(m, &trace, cfg);
    let slowdown = (result.cycles + report.stall_cycles) as f64 / result.cycles as f64;
    (report, slowdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::presets;

    #[test]
    fn sequential_trace_misses_once_per_line() {
        let m = presets::mblaze_3();
        let cfg = ICacheConfig {
            capacity_bits: 1 << 20,
            line_insts: 8,
            ways: 2,
            miss_penalty: 10,
        };
        let trace: Vec<u32> = (0..64).collect();
        let r = simulate_icache(&m, &trace, cfg);
        assert_eq!(r.accesses, 64);
        assert_eq!(r.misses, 8); // 64 instructions / 8 per line
        assert_eq!(r.stall_cycles, 80);
    }

    #[test]
    fn loops_hit_after_the_first_pass() {
        let m = presets::mblaze_3();
        let cfg = ICacheConfig::small();
        let mut trace = Vec::new();
        for _ in 0..100 {
            trace.extend(0u32..16);
        }
        let r = simulate_icache(&m, &trace, cfg);
        assert_eq!(r.misses, 2, "a 16-instruction loop fits; only cold misses");
        assert!(r.miss_rate() < 0.01);
    }

    #[test]
    fn wider_instructions_mean_fewer_lines() {
        let narrow = presets::mblaze_3(); // 32b
        let wide = presets::m_tta_3(); // ~126b
        let cfg = ICacheConfig::small();
        let r_n = simulate_icache(&narrow, &[0], cfg);
        let r_w = simulate_icache(&wide, &[0], cfg);
        assert!(r_w.lines < r_n.lines);
    }

    #[test]
    fn thrashing_working_set_misses() {
        // A working set larger than the cache keeps missing.
        let m = presets::mblaze_3();
        let cfg = ICacheConfig {
            capacity_bits: 1024,
            line_insts: 4,
            ways: 1,
            miss_penalty: 10,
        };
        // 8 lines of capacity (1024/32/4=8); touch 64 lines round-robin.
        let mut trace = Vec::new();
        for _ in 0..10 {
            for l in 0..64u32 {
                trace.push(l * 4);
            }
        }
        let r = simulate_icache(&m, &trace, cfg);
        assert_eq!(r.misses, r.accesses, "every access maps to an evicted line");
    }

    #[test]
    fn end_to_end_kernel_trace() {
        let m = presets::m_tta_2();
        let k = tta_chstone::by_name("gsm").unwrap();
        let module = (k.build)();
        let compiled = tta_compiler::compile(&module, &m).unwrap();
        let (report, slowdown) = kernel_icache(
            &m,
            &compiled.program,
            module.initial_memory(),
            ICacheConfig::small(),
        );
        assert!(report.accesses > 10_000);
        // Loop-dominated kernels should hit nearly always even in a small
        // cache.
        assert!(
            report.miss_rate() < 0.05,
            "miss rate {:.3}",
            report.miss_rate()
        );
        assert!(slowdown < 1.5);
    }
}

//! Common result and statistics types for the simulators.

use tta_model::mem::MemError;

/// Dynamic statistics of a simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Instructions (TTA instructions / VLIW bundles / scalar instructions)
    /// fetched and executed.
    pub instructions: u64,
    /// Data transports (TTA) or operations (VLIW/scalar) executed.
    pub payload: u64,
    /// Register-file reads performed.
    pub rf_reads: u64,
    /// Register-file writes performed.
    pub rf_writes: u64,
    /// Reads satisfied from FU result ports (TTA software bypassing).
    pub bypass_reads: u64,
    /// Long immediates executed.
    pub limms: u64,
    /// Taken control transfers.
    pub branches_taken: u64,
    /// Dynamic pipeline stall cycles charged by the in-order *scalar*
    /// model: dependence interlocks plus the taken-branch refill penalty.
    /// Always zero for the TTA and VLIW cores — their compile-time
    /// schedules encode all waiting as explicit NOP instructions/slots
    /// (counted in `instructions`, and reported as NOP/padding density by
    /// [`crate::GuestProfile`]), never as dynamic stalls. Pinned by
    /// `stall_cycles_semantics_are_scalar_only` in the sim test suite.
    pub stall_cycles: u64,
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Interrupts delivered to the guest handler.
    pub irqs: u64,
    /// Cycles spent on interrupt entry/return overhead: in-flight-state
    /// drain plus the fixed trap cost per style (see `crate::run_with_io`).
    /// Included in `SimResult::cycles`; reported separately so the
    /// interrupt-latency experiments can isolate the trap tax.
    pub irq_cycles: u64,
    /// Loads routed to the memory-mapped I/O region.
    pub mmio_loads: u64,
    /// Stores routed to the memory-mapped I/O region (the
    /// [`tta_model::io::IrqAt::MmioStore`] clock; compiler-injected
    /// end-of-interrupt stores excluded).
    pub mmio_stores: u64,
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Total cycles until (and including) the halt.
    pub cycles: u64,
    /// The 32-bit word at [`tta_isa::RETVAL_ADDR`] when the core halted.
    pub ret: i32,
    /// Final data-memory image.
    pub memory: Vec<u8>,
    /// Dynamic statistics.
    pub stats: SimStats,
    /// Bytes the guest transmitted over the UART (empty for runs without
    /// an I/O system) — a device-output stream the differential oracle
    /// compares across styles.
    pub uart_tx: Vec<u8>,
}

/// A simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cycle budget was exhausted (runaway program).
    OutOfFuel,
    /// A memory access faulted.
    Mem(MemError),
    /// The program violated a machine rule the static validator cannot see
    /// (e.g. reading a result port before any operation completed). These
    /// indicate compiler bugs.
    Machine(String),
    /// The program ran off the end of the instruction memory.
    PcOutOfRange(u32),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfFuel => write!(f, "cycle budget exhausted"),
            SimError::Mem(e) => write!(f, "{e}"),
            SimError::Machine(m) => write!(f, "machine rule violated: {m}"),
            SimError::PcOutOfRange(pc) => write!(f, "pc {pc} outside instruction memory"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

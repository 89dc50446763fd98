//! # tta-model — soft-core architecture descriptions
//!
//! This crate defines the architecture model used throughout the
//! *Transport-Triggered Soft Cores* reproduction: the Table-I operation set
//! with its latencies and evaluation semantics, function units, register
//! files, transport buses with explicit connectivity, and complete
//! [`Machine`] descriptions for all three programming models compared in the
//! paper (TTA, operation-triggered VLIW, and scalar RISC).
//!
//! The thirteen design points of the paper's evaluation are available as
//! ready-made constructors in [`presets`].
//!
//! ```
//! use tta_model::presets;
//!
//! let m = presets::m_tta_2();
//! assert_eq!(m.buses.len(), 6);
//! assert_eq!(m.total_read_ports(), 1); // the whole point of TTA
//! m.validate().unwrap();
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod fu;
pub mod gen;
pub mod io;
pub mod machine;
pub mod mem;
pub mod op;
pub mod presets;
pub mod rf;

pub use bus::{Bus, BusId, DstConn, SrcConn};
pub use fu::{FuId, FuKind, FunctionUnit};
pub use gen::{SearchConfig, TtaParams, VliwParams};
pub use machine::{
    CoreStyle, IssueSlot, LimmConfig, Machine, ModelError, ScalarPipeline, MAX_PER_KIND,
};
pub use op::{OpClass, Opcode};
pub use rf::{RegRef, RegisterFile, RfId};

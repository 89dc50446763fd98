//! # tta-compiler — from IR to soft-core machine code
//!
//! The compiler back end of the reproduction. One IR and one back end
//! serve all three programming models; the paper produces its VLIW numbers
//! by disabling the TTA-specific freedoms in the TCE compiler (§IV). Here
//! the styles have two list schedulers and a code generator: [`tta_sched`]
//! performs software bypassing, dead-result elimination and operand
//! sharing (each can be switched off); [`vliw_sched`] is a separate list
//! scheduler for operation-triggered semantics (all operands through the
//! register file, one writeback cycle on every dependence); and
//! [`scalar_sched`] emits a single-issue stream for the MicroBlaze-like
//! baselines. They share the dependence graph ([`ddg`]), the resource
//! table, the exit plan (`LocTerm::exit`), the block type and the layout
//! ([`layout`]); only how each places an operation, a long immediate and
//! a control transfer differs.
//!
//! Entry points: [`compile::compile`] for one module on one machine;
//! [`compile::prepare`] once per module, then [`compile::compile_prepared`]
//! per machine, when one module is compiled for many machines (the
//! machine-independent front half then runs once).

#![warn(missing_docs)]

pub mod bitset;
pub mod compact;
pub mod compile;
pub mod consts;
pub mod dce;
pub mod ddg;
pub mod fold;
pub mod inline;
pub mod layout;
pub mod liveness;
pub mod loc;
pub mod regalloc;
pub(crate) mod resource;
pub mod scalar_sched;
pub mod tta_sched;
pub mod vliw_sched;

pub use compile::{
    compile, compile_prepared, compile_with, prepare, CompileError, CompileStats, Compiled,
    Prepared,
};
pub use tta_sched::TtaOptions;

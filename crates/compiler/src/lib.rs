//! # tta-compiler — from IR to soft-core machine code
//!
//! The compiler back end of the reproduction. One IR and one scheduler
//! framework serve all three programming models, mirroring how the paper
//! produces its VLIW numbers by disabling the TTA-specific freedoms in the
//! TCE compiler (§IV): the [`tta_sched`] backend performs software
//! bypassing, dead-result elimination and operand sharing; the
//! [`vliw_sched`] backend is the same list scheduler constrained to
//! operation-triggered semantics (all operands through the register file,
//! one writeback cycle on every dependence); the [`scalar_sched`] backend
//! emits a single-issue stream for the MicroBlaze-like baselines.
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

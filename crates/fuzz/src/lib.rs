//! Differential fuzzing subsystem for the TTA soft-core toolchain.
//!
//! Three pieces, composed by the `fuzz` binary and the regression tests:
//!
//! * [`gen`] — a seeded random generator of verified, terminating
//!   [`tta_ir::Module`]s covering the full instruction surface, plus a
//!   reactive variant pairing each module with a seeded interrupt
//!   schedule and UART script ([`gen::generate_reactive`]);
//! * [`oracle`] — a differential oracle running each case through the
//!   golden interpreter and compile+simulate on every preset design
//!   point, comparing return value, memory image, UART transmit stream,
//!   interrupt delivery count, and cycle-count determinism;
//! * [`shrink`](mod@shrink) — a greedy reducer that minimises any diverging module
//!   (and, for reactive cases, its I/O spec) while the divergence still
//!   reproduces.
//!
//! Every failure the fuzzer ever finds is shrunk and committed to
//! `crates/fuzz/corpus/` as a textual IR file (see [`tta_ir::text`]),
//! which the `corpus_replay` integration test replays forever.
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::{corpus_dir, load_corpus, CorpusCase};
pub use gen::{generate, generate_reactive, GenConfig};
pub use oracle::{Divergence, Oracle, OracleReport, PlantedBug};
pub use shrink::{inst_count, shrink, shrink_reactive};

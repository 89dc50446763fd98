//! # tta-isa — machine code and instruction encoding
//!
//! Machine-code data structures for the three programming models compared in
//! the paper (TTA data transports, VLIW operation bundles, scalar RISC
//! streams), an automatic TTA instruction-encoding width model derived from
//! the interconnect (the mechanism behind Table II), the paper's manual
//! VLIW encoding, and a static program validator that enforces connectivity
//! and per-cycle port limits.
//!
//! ```
//! use tta_model::presets;
//! use tta_isa::encoding;
//!
//! // The headline TTA drawback: wider instructions than VLIW...
//! let tta = encoding::instruction_bits(&presets::m_tta_2());
//! let vliw = encoding::instruction_bits(&presets::m_vliw_2());
//! assert!(tta > vliw);
//! // ...mitigated by merging underutilised buses (paper Fig. 4d).
//! let bm = encoding::instruction_bits(&presets::bm_tta_2());
//! let p = encoding::instruction_bits(&presets::p_tta_2());
//! assert!(bm < p);
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod blocks;
pub mod code;
pub mod encoding;
pub mod program;

pub use bits::TtaCodec;
pub use blocks::BlockMap;
pub use code::{
    Move, MoveDst, MoveSrc, OpSrc, Operation, ScalarInst, TtaInst, VliwBundle, VliwSlot,
    RETVAL_ADDR,
};
pub use encoding::{image_bits, instruction_bits};
pub use program::{IsaError, Program};

//! Instruction-encoding width models (paper §IV and Table II).
//!
//! * **TTA** widths are derived automatically from the interconnect, the way
//!   TCE derives them: each bus contributes a move slot whose source field
//!   must address every reachable source socket *or* carry the bus's short
//!   immediate, and whose destination field must address every reachable
//!   destination socket including per-opcode trigger codes. One extra bit
//!   selects the long-immediate instruction template.
//! * **VLIW** widths follow the paper's manual encoding: per issue slot a
//!   4-bit opcode, two source fields of (register-address + 1 immediate
//!   flag) bits and one destination field of register-address bits.
//! * **Scalar** instructions are fixed 32-bit, with wide constants paying an
//!   extra `imm`-prefix instruction (already visible as an instruction in
//!   the program stream, so no width adjustment is needed here).

use tta_model::{Bus, CoreStyle, DstConn, Machine, SrcConn};

/// Bits needed to enumerate `n` distinct codes (0 for `n <= 1`).
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Number of addressable source items on a bus: every register of every
/// readable RF, each readable FU result port, and each long-immediate
/// register.
fn tta_src_items(m: &Machine, bus: &Bus) -> usize {
    let mut items = m.limm.imm_regs as usize;
    for s in &bus.sources {
        items += match *s {
            SrcConn::RfRead(rf) => m.rf(rf).regs as usize,
            SrcConn::FuResult(_) => 1,
        };
    }
    items
}

/// Number of addressable destination items on a bus: every register of
/// every writable RF, each operand port, and one code per opcode of each
/// reachable trigger port, plus the slot-NOP code.
fn tta_dst_items(m: &Machine, bus: &Bus) -> usize {
    let mut items = 1; // NOP
    for d in &bus.dests {
        items += match *d {
            DstConn::RfWrite(rf) => m.rf(rf).regs as usize,
            DstConn::FuOperand(_) => 1,
            DstConn::FuTrigger(fu) => m.fu(fu).opcode_count(),
        };
    }
    items
}

/// Source-field width of one move slot: 1 immediate-select bit plus the
/// wider of the socket-address field and the short-immediate field.
pub fn tta_src_bits(m: &Machine, bus: &Bus) -> u32 {
    1 + ceil_log2(tta_src_items(m, bus)).max(bus.simm_bits as u32)
}

/// Destination-field width of one move slot.
pub fn tta_dst_bits(m: &Machine, bus: &Bus) -> u32 {
    ceil_log2(tta_dst_items(m, bus))
}

/// Full TTA instruction width in bits.
pub fn tta_instruction_bits(m: &Machine) -> u32 {
    let slots: u32 = m
        .buses
        .iter()
        .map(|b| tta_src_bits(m, b) + tta_dst_bits(m, b))
        .sum();
    // One template bit selects between "all slots are moves" and "the first
    // limm.bus_slots slots carry a long immediate".
    slots + 1
}

/// Register-address width of the VLIW encoding: enough bits to name any
/// register of any file (partitioned files spend the same bits on bank
/// select + index, as in the paper where 2-issue machines use 6 bits and
/// 3-issue machines 7).
fn vliw_reg_bits(m: &Machine) -> u32 {
    ceil_log2(m.total_regs() as usize)
}

/// Width of the immediate that fits inline in a VLIW source field.
pub fn vliw_imm_bits(m: &Machine) -> u32 {
    vliw_reg_bits(m)
}

/// Full VLIW instruction width in bits: per slot, 4-bit opcode + two source
/// fields (reg bits + immediate flag) + destination field.
fn vliw_instruction_bits(m: &Machine) -> u32 {
    let reg = vliw_reg_bits(m);
    let slot = 4 + 2 * (reg + 1) + reg;
    slot * m.slots.len() as u32
}

/// Scalar instructions are fixed 32-bit words.
pub const SCALAR_INSTRUCTION_BITS: u32 = 32;

/// Instruction width of any machine, per its style.
pub fn instruction_bits(m: &Machine) -> u32 {
    match m.style {
        CoreStyle::Tta => tta_instruction_bits(m),
        CoreStyle::Vliw => vliw_instruction_bits(m),
        CoreStyle::Scalar => SCALAR_INSTRUCTION_BITS,
    }
}

/// Program image size in bits for `len` instructions.
pub fn image_bits(m: &Machine, len: usize) -> u64 {
    instruction_bits(m) as u64 * len as u64
}

/// Whether a signed immediate fits in `bits` (signed two's-complement).
pub fn fits_signed(value: i32, bits: u32) -> bool {
    if bits == 0 {
        return false;
    }
    if bits >= 32 {
        return true;
    }
    let half = 1i64 << (bits - 1);
    (value as i64) >= -half && (value as i64) < half
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::presets;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn fits_signed_ranges() {
        assert!(fits_signed(31, 6));
        assert!(fits_signed(-32, 6));
        assert!(!fits_signed(32, 6));
        assert!(!fits_signed(-33, 6));
        assert!(fits_signed(i32::MAX, 32));
        assert!(!fits_signed(1, 0));
    }

    #[test]
    fn vliw_widths_match_paper() {
        // Paper Table II: 48b for the 2-issue machines.
        assert_eq!(vliw_instruction_bits(&presets::m_vliw_2()), 48);
        assert_eq!(vliw_instruction_bits(&presets::p_vliw_2()), 48);
        // The paper reports 72b for 3-issue; the described formula (4-bit
        // opcode, 7-bit register addresses, immediate flags) actually gives
        // 27 bits per slot = 81. We keep the formula; see EXPERIMENTS.md.
        assert_eq!(vliw_instruction_bits(&presets::m_vliw_3()), 81);
        assert_eq!(vliw_instruction_bits(&presets::p_vliw_3()), 81);
    }

    #[test]
    fn tta_widths_land_near_paper() {
        // Paper Table II: m-tta-1 43b, m-tta-2 81b, p-tta-2 83b, bm-tta-2
        // 66b, m-tta-3 145b, p-tta-3 134b, bm-tta-3 99b. Our automatic
        // encoder should land in the same neighbourhood (±20%).
        let cases = [
            ("m-tta-1", 43.0),
            ("m-tta-2", 81.0),
            ("p-tta-2", 83.0),
            ("bm-tta-2", 66.0),
            ("m-tta-3", 145.0),
            ("p-tta-3", 134.0),
            ("bm-tta-3", 99.0),
        ];
        for (name, paper) in cases {
            let m = presets::by_name(name).unwrap();
            let bits = tta_instruction_bits(&m) as f64;
            let ratio = bits / paper;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "{name}: derived {bits} bits vs paper {paper} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn tta_wider_than_vliw_at_same_issue_width() {
        // The paper's headline drawback: TTA instructions are wider.
        assert!(
            tta_instruction_bits(&presets::m_tta_2()) > vliw_instruction_bits(&presets::m_vliw_2())
        );
        assert!(
            tta_instruction_bits(&presets::m_tta_3()) > vliw_instruction_bits(&presets::m_vliw_3())
        );
    }

    #[test]
    fn bus_merging_narrows_instructions() {
        assert!(
            tta_instruction_bits(&presets::bm_tta_2()) < tta_instruction_bits(&presets::p_tta_2())
        );
        assert!(
            tta_instruction_bits(&presets::bm_tta_3()) < tta_instruction_bits(&presets::p_tta_3())
        );
    }

    #[test]
    fn image_size_scales_linearly() {
        let m = presets::m_tta_1();
        assert_eq!(image_bits(&m, 0), 0);
        assert_eq!(image_bits(&m, 10), 10 * tta_instruction_bits(&m) as u64);
    }

    #[test]
    fn scalar_is_32_bits() {
        assert_eq!(instruction_bits(&presets::mblaze_3()), 32);
        assert_eq!(instruction_bits(&presets::mblaze_5()), 32);
    }
}

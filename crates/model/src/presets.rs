//! The thirteen design points evaluated in the paper (§IV).
//!
//! All multi-issue machines share the same function-unit inventory — one or
//! two full Table-I ALUs, one LSU and the control unit — and differ only in
//! programming model (TTA vs VLIW), register-file organisation (monolithic
//! vs partitioned) and, for `bm-tta`, the number of transport buses. This
//! mirrors the paper's methodology of isolating the *programming model*
//! effect from the choice of operations.
//!
//! | preset      | style  | issue | RFs                      | buses/slots |
//! |-------------|--------|-------|--------------------------|-------------|
//! | `mblaze_3`  | scalar | 1     | 32x32b 2R/1W             | –           |
//! | `mblaze_5`  | scalar | 1     | 32x32b 2R/1W             | –           |
//! | `m_tta_1`   | TTA    | 1     | 32x32b 1R/1W             | 3 buses     |
//! | `m_vliw_2`  | VLIW   | 2     | 64x32b 4R/2W             | 2 slots     |
//! | `p_vliw_2`  | VLIW   | 2     | 2 × 32x32b 2R/1W         | 2 slots     |
//! | `m_tta_2`   | TTA    | 2     | 64x32b 1R/1W             | 6 buses     |
//! | `p_tta_2`   | TTA    | 2     | 2 × 32x32b 1R/1W         | 6 buses     |
//! | `bm_tta_2`  | TTA    | 2     | 2 × 32x32b 1R/1W         | 4 buses     |
//! | `m_vliw_3`  | VLIW   | 3     | 96x32b 6R/3W             | 3 slots     |
//! | `p_vliw_3`  | VLIW   | 3     | 3 × 32x32b 2R/1W         | 3 slots     |
//! | `m_tta_3`   | TTA    | 3     | 96x32b 2R/1W             | 9 buses     |
//! | `p_tta_3`   | TTA    | 3     | 3 × 32x32b 1R/1W         | 9 buses     |
//! | `bm_tta_3`  | TTA    | 3     | 3 × 32x32b 1R/1W         | 6 buses     |

use crate::bus::{Bus, DstConn, SrcConn};
use crate::fu::{FuId, FunctionUnit};
use crate::machine::{CoreStyle, IssueSlot, LimmConfig, Machine, ScalarPipeline};
use crate::rf::RegisterFile;
use crate::rf::RfId;

/// Delay slots after a control-transfer trigger on the TTA/VLIW machines
/// (TCE-style jump latency of 3 cycles total).
pub const JUMP_DELAY_SLOTS: u32 = 2;

fn fus_for_issue(issue: u8) -> Vec<FunctionUnit> {
    let mut fus = vec![FunctionUnit::full_alu("alu0")];
    if issue >= 3 {
        fus.push(FunctionUnit::full_alu("alu1"));
    }
    fus.push(FunctionUnit::full_lsu("lsu"));
    fus.push(FunctionUnit::control_unit("ctrl"));
    fus
}

/// Short-immediate width of the preset TTA buses (bits, signed). Chosen so
/// the derived instruction widths land near the paper's Table II values;
/// larger constants use the long-immediate mechanism.
pub const PRESET_SIMM_BITS: u8 = 6;

/// Connect the function-unit sockets to every bus (input and result ports
/// in TTA designs typically have rich connectivity, while RF sockets are the
/// scarce resource).
fn connect_fu_sockets(bus: &mut Bus, funits: &[FunctionUnit]) {
    for (i, f) in funits.iter().enumerate() {
        let id = FuId(i as u16);
        if f.has_result_port() {
            bus.connect_src(SrcConn::FuResult(id));
        }
        bus.connect_dst(DstConn::FuTrigger(id));
        if f.has_operand_port() {
            bus.connect_dst(DstConn::FuOperand(id));
        }
    }
}

/// Connect each RF port socket to a limited number of buses (round-robin),
/// mirroring how TCE designs keep RF sockets narrow: the port count already
/// bounds concurrent accesses, so connecting every bus to every RF would
/// only widen the instruction (the `full` variant used by the bus-merged
/// machines does exactly that, paying width for transport flexibility).
fn connect_rf_sockets(buses: &mut [Bus], rfs: &[RegisterFile], full: bool) {
    if full {
        for bus in buses.iter_mut() {
            for r in 0..rfs.len() as u16 {
                bus.connect_src(SrcConn::RfRead(RfId(r)));
                bus.connect_dst(DstConn::RfWrite(RfId(r)));
            }
        }
        return;
    }
    let n = buses.len();
    let mut next = 0usize;
    for (ri, rf) in rfs.iter().enumerate() {
        for _ in 0..rf.read_ports {
            for k in 0..2usize.min(n) {
                buses[(next + k) % n].connect_src(SrcConn::RfRead(RfId(ri as u16)));
            }
            next += 2;
        }
    }
    for (ri, rf) in rfs.iter().enumerate() {
        for _ in 0..rf.write_ports {
            for k in 0..2usize.min(n) {
                buses[(next + k) % n].connect_dst(DstConn::RfWrite(RfId(ri as u16)));
            }
            next += 2;
        }
    }
}

/// Build a custom VLIW design with the standard function-unit inventory.
pub fn custom_vliw(name: &str, issue: u8, rfs: Vec<RegisterFile>) -> Machine {
    let funits = fus_for_issue(issue);
    // Slot assignment per the paper's encoding: one slot per parallel
    // operation; control ops share the first ALU slot.
    let alu0 = FuId(0);
    let (lsu, ctrl) = if issue >= 3 {
        (FuId(2), FuId(3))
    } else {
        (FuId(1), FuId(2))
    };
    let mut slots = vec![IssueSlot {
        name: "s0".into(),
        units: vec![alu0, ctrl],
    }];
    if issue >= 3 {
        slots.push(IssueSlot {
            name: "s1".into(),
            units: vec![FuId(1)],
        });
    }
    slots.push(IssueSlot {
        name: format!("s{}", slots.len()),
        units: vec![lsu],
    });
    let m = Machine {
        name: name.into(),
        style: CoreStyle::Vliw,
        issue_width: issue,
        funits,
        rfs,
        buses: Vec::new(),
        slots,
        scalar: None,
        jump_delay_slots: JUMP_DELAY_SLOTS,
        limm: LimmConfig::default(),
        vliw_limm_slots: 2,
    };
    debug_assert!(m.validate().is_ok());
    m
}

fn scalar_machine(name: &str, pipe: ScalarPipeline) -> Machine {
    let m = Machine {
        name: name.into(),
        style: CoreStyle::Scalar,
        issue_width: 1,
        funits: fus_for_issue(1),
        rfs: vec![RegisterFile::new("rf0", 32, 2, 1)],
        buses: Vec::new(),
        slots: Vec::new(),
        scalar: Some(pipe),
        jump_delay_slots: 0,
        limm: LimmConfig::default(),
        vliw_limm_slots: 2,
    };
    debug_assert!(m.validate().is_ok());
    m
}

/// MicroBlaze-like 3-stage scalar core (area optimised).
pub fn mblaze_3() -> Machine {
    scalar_machine("mblaze-3", ScalarPipeline::three_stage())
}

/// MicroBlaze-like 5-stage scalar core (performance optimised, branch-target
/// cache enabled).
pub fn mblaze_5() -> Machine {
    scalar_machine("mblaze-5", ScalarPipeline::five_stage())
}

/// The small 3-bus single-issue TTA comparable to a 32b scalar RISC
/// (paper §IV): integer ALU, LSU, 32 registers behind a 1R/1W port pair.
pub fn m_tta_1() -> Machine {
    custom_tta(
        "m-tta-1",
        1,
        vec![RegisterFile::new("rf0", 32, 1, 1)],
        3,
        false,
    )
}

/// Dual-issue monolithic-RF VLIW: 64x32b RF with 4 read / 2 write ports.
pub fn m_vliw_2() -> Machine {
    custom_vliw("m-vliw-2", 2, vec![RegisterFile::new("rf0", 64, 4, 2)])
}

/// Dual-issue partitioned-RF VLIW: two 32x32b RFs with 2R/1W each.
pub fn p_vliw_2() -> Machine {
    custom_vliw(
        "p-vliw-2",
        2,
        vec![
            RegisterFile::new("rf0", 32, 2, 1),
            RegisterFile::new("rf1", 32, 2, 1),
        ],
    )
}

/// Dual-issue monolithic-RF TTA: the paper's best performance/area design.
/// Same datapath as [`m_vliw_2`] but the 64-register RF keeps only one read
/// and one write port, relying on TTA software bypassing.
pub fn m_tta_2() -> Machine {
    custom_tta(
        "m-tta-2",
        2,
        vec![RegisterFile::new("rf0", 64, 1, 1)],
        6,
        false,
    )
}

/// Dual-issue partitioned-RF TTA: two 32x32b RFs with 1R/1W each.
pub fn p_tta_2() -> Machine {
    custom_tta(
        "p-tta-2",
        2,
        vec![
            RegisterFile::new("rf0", 32, 1, 1),
            RegisterFile::new("rf1", 32, 1, 1),
        ],
        6,
        false,
    )
}

/// Bus-merged dual-issue TTA: like [`p_tta_2`] but with the six buses merged
/// into four (paper Fig. 4d), trading some transport parallelism for a
/// narrower instruction.
pub fn bm_tta_2() -> Machine {
    custom_tta(
        "bm-tta-2",
        2,
        vec![
            RegisterFile::new("rf0", 32, 1, 1),
            RegisterFile::new("rf1", 32, 1, 1),
        ],
        4,
        true,
    )
}

/// Three-issue monolithic-RF VLIW: 96x32b RF with 6 read / 3 write ports.
pub fn m_vliw_3() -> Machine {
    custom_vliw("m-vliw-3", 3, vec![RegisterFile::new("rf0", 96, 6, 3)])
}

/// Three-issue partitioned-RF VLIW: three 32x32b RFs with 2R/1W each.
pub fn p_vliw_3() -> Machine {
    custom_vliw(
        "p-vliw-3",
        3,
        vec![
            RegisterFile::new("rf0", 32, 2, 1),
            RegisterFile::new("rf1", 32, 2, 1),
            RegisterFile::new("rf2", 32, 2, 1),
        ],
    )
}

/// Three-issue monolithic-RF TTA: 96x32b RF with 2 read / 1 write ports.
pub fn m_tta_3() -> Machine {
    custom_tta(
        "m-tta-3",
        3,
        vec![RegisterFile::new("rf0", 96, 2, 1)],
        9,
        false,
    )
}

/// Three-issue partitioned-RF TTA: three 32x32b RFs with 1R/1W each.
pub fn p_tta_3() -> Machine {
    custom_tta(
        "p-tta-3",
        3,
        vec![
            RegisterFile::new("rf0", 32, 1, 1),
            RegisterFile::new("rf1", 32, 1, 1),
            RegisterFile::new("rf2", 32, 1, 1),
        ],
        9,
        false,
    )
}

/// Bus-merged three-issue TTA: like [`p_tta_3`] with nine buses merged into
/// six.
pub fn bm_tta_3() -> Machine {
    custom_tta(
        "bm-tta-3",
        3,
        vec![
            RegisterFile::new("rf0", 32, 1, 1),
            RegisterFile::new("rf1", 32, 1, 1),
            RegisterFile::new("rf2", 32, 1, 1),
        ],
        6,
        true,
    )
}

/// Build a custom TTA design with the standard function-unit inventory
/// for the given issue width (one or two full ALUs, an LSU and the control
/// unit). With `full_rf_connectivity` every bus reaches every RF socket
/// (the union wiring of the `bm-tta` points — wider slots, more routing
/// freedom); otherwise the preset-style pruned wiring is used (each RF
/// port socket on two buses). Used by the bus-count sweeps in
/// `tta-explore`.
pub fn custom_tta(
    name: &str,
    issue: u8,
    rfs: Vec<RegisterFile>,
    n_buses: usize,
    full_rf_connectivity: bool,
) -> Machine {
    let funits = fus_for_issue(issue);
    let mut buses = Vec::with_capacity(n_buses);
    for i in 0..n_buses {
        let mut b = Bus::new(format!("b{i}"));
        b.simm_bits = PRESET_SIMM_BITS;
        connect_fu_sockets(&mut b, &funits);
        buses.push(b);
    }
    connect_rf_sockets(&mut buses, &rfs, full_rf_connectivity);
    let m = Machine {
        name: name.into(),
        style: CoreStyle::Tta,
        issue_width: issue,
        funits,
        rfs,
        buses,
        slots: Vec::new(),
        scalar: None,
        jump_delay_slots: JUMP_DELAY_SLOTS,
        limm: LimmConfig::default(),
        vliw_limm_slots: 2,
    };
    debug_assert!(m.validate().is_ok());
    m
}

/// All thirteen design points in the paper's reporting order.
pub fn all_design_points() -> Vec<Machine> {
    vec![
        mblaze_3(),
        mblaze_5(),
        m_tta_1(),
        m_vliw_2(),
        p_vliw_2(),
        m_tta_2(),
        p_tta_2(),
        bm_tta_2(),
        m_vliw_3(),
        p_vliw_3(),
        m_tta_3(),
        p_tta_3(),
        bm_tta_3(),
    ]
}

/// Look a design point up by its paper name (e.g. `"m-tta-2"`).
pub fn by_name(name: &str) -> Option<Machine> {
    all_design_points().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CoreStyle;

    #[test]
    fn paper_rf_port_table() {
        // RF read/write port counts of Table III.
        let cases = [
            ("m-tta-1", 1, 1),
            ("m-vliw-2", 4, 2),
            ("p-vliw-2", 4, 2), // 2 ports x 2 banks
            ("m-tta-2", 1, 1),
            ("p-tta-2", 2, 2),
            ("bm-tta-2", 2, 2),
            ("m-vliw-3", 6, 3),
            ("p-vliw-3", 6, 3),
            ("m-tta-3", 2, 1),
            ("p-tta-3", 3, 3),
            ("bm-tta-3", 3, 3),
        ];
        for (name, r, w) in cases {
            let m = by_name(name).unwrap();
            assert_eq!(m.total_read_ports(), r, "{name} read ports");
            assert_eq!(m.total_write_ports(), w, "{name} write ports");
        }
    }

    #[test]
    fn register_totals_match_paper() {
        for (name, regs) in [
            ("mblaze-3", 32),
            ("m-tta-1", 32),
            ("m-vliw-2", 64),
            ("p-vliw-2", 64),
            ("m-tta-2", 64),
            ("p-tta-2", 64),
            ("bm-tta-2", 64),
            ("m-vliw-3", 96),
            ("p-vliw-3", 96),
            ("m-tta-3", 96),
            ("p-tta-3", 96),
            ("bm-tta-3", 96),
        ] {
            assert_eq!(by_name(name).unwrap().total_regs(), regs, "{name}");
        }
    }

    #[test]
    fn bus_counts() {
        for (name, buses) in [
            ("m-tta-1", 3),
            ("m-tta-2", 6),
            ("p-tta-2", 6),
            ("bm-tta-2", 4),
            ("m-tta-3", 9),
            ("p-tta-3", 9),
            ("bm-tta-3", 6),
        ] {
            assert_eq!(by_name(name).unwrap().buses.len(), buses, "{name}");
        }
    }

    #[test]
    fn styles_and_issue_widths() {
        for m in all_design_points() {
            let expect_issue = match m.name.chars().last().unwrap() {
                '1' | '3' if m.name.starts_with("mblaze") => 1,
                c => c.to_digit(10).unwrap() as u8,
            };
            let expect_issue = if m.name.starts_with("mblaze") {
                1
            } else {
                expect_issue
            };
            assert_eq!(m.issue_width, expect_issue, "{}", m.name);
            match m.style {
                CoreStyle::Tta => assert!(!m.buses.is_empty()),
                CoreStyle::Vliw => {
                    assert!(m.buses.is_empty());
                    assert_eq!(m.slots.len(), m.issue_width as usize, "{}", m.name);
                }
                CoreStyle::Scalar => assert!(m.scalar.is_some()),
            }
        }
    }

    #[test]
    fn three_issue_has_two_alus() {
        for name in ["m-vliw-3", "p-vliw-3", "m-tta-3", "p-tta-3", "bm-tta-3"] {
            let m = by_name(name).unwrap();
            let alus = m
                .funits
                .iter()
                .filter(|f| f.kind == crate::fu::FuKind::Alu)
                .count();
            assert_eq!(alus, 2, "{name}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("m-tta-2").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(all_design_points().len(), 13);
    }

    /// FNV-1a of each preset's `Debug` form, generated when the TTA presets
    /// had their own builder: a hash that moves is a changed design point.
    #[test]
    fn presets_match_their_pinned_debug_hashes() {
        let fnv1a = |s: &str| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let got: Vec<(String, u64)> = all_design_points()
            .iter()
            .map(|m| (m.name.clone(), fnv1a(&format!("{m:?}"))))
            .collect();
        let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, h)| (n.into(), h)).collect();
        assert_eq!(got, want);
    }

    const PINNED: [(&str, u64); 13] = [
        ("mblaze-3", 0x3dc5_d7c0_b4fb_402e),
        ("mblaze-5", 0xb01a_5bd9_0c64_d5a7),
        ("m-tta-1", 0xf80c_9c8a_4c08_f40c),
        ("m-vliw-2", 0xf3e1_dd11_30e2_c97f),
        ("p-vliw-2", 0x6b62_a1eb_b98e_55c8),
        ("m-tta-2", 0x84dc_837e_8de1_81a7),
        ("p-tta-2", 0xacde_d818_06f1_f6f6),
        ("bm-tta-2", 0x0e13_712c_05c6_3bf6),
        ("m-vliw-3", 0xf836_a8aa_5b3d_263e),
        ("p-vliw-3", 0x7d55_47a5_f700_f1fa),
        ("m-tta-3", 0x290c_c788_7452_747e),
        ("p-tta-3", 0x5d4d_e81b_3b88_272f),
        ("bm-tta-3", 0x6147_a7dd_700e_ae20),
    ];

    #[test]
    fn every_tta_pair_has_a_route() {
        // Every value producer must be able to reach every consumer port in
        // the preset machines (possibly via an RF), otherwise compilation
        // could wedge. With fully-connected buses this is immediate; the
        // test guards against future preset edits breaking it.
        for m in all_design_points()
            .into_iter()
            .filter(|m| m.style == CoreStyle::Tta)
        {
            for rf in m.rf_ids() {
                for fu in m.fu_ids() {
                    assert!(
                        m.buses_connecting(
                            crate::bus::SrcConn::RfRead(rf),
                            crate::bus::DstConn::FuTrigger(fu)
                        )
                        .next()
                        .is_some(),
                        "{}: no route {rf} -> {fu} trigger",
                        m.name
                    );
                }
            }
        }
    }
}

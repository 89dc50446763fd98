//! Generated machine-config space for design-space search.
//!
//! The paper's 13 design points are a hand-picked slice of a much larger
//! space: bus count, register-file partitioning and porting, issue width
//! (and with it the FU inventory), and interconnect richness. This module
//! describes that space as small, hashable parameter records
//! ([`SearchConfig`]) that build into full [`Machine`] descriptions
//! through the same preset wiring helpers the paper points use — so a
//! generated config with the paper's parameters is *structurally
//! identical* to the preset (modulo name), which is what lets the search
//! in `tta-explore` rediscover the bm-tta points by construction rather
//! than by name.
//!
//! Every parameter is bounded ([`TtaParams::in_space`] /
//! [`VliwParams::in_space`]) so a mutator stepping through the space can
//! never build a machine the compiler would reject; the bounds themselves
//! are re-checked by [`Machine::validate_generated`].

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::machine::Machine;
use crate::presets;
use crate::rf::RegisterFile;

/// Bus-count bounds of the TTA space. The floor is the default
/// long-immediate template width (a 32-bit immediate consumes three move
/// slots); the ceiling is the paper's widest machine (9 buses) plus head
/// room for the search to discover that more transport stops paying.
pub const MIN_BUSES: u8 = 3;
/// See [`MIN_BUSES`].
pub const MAX_BUSES: u8 = 10;
/// Register-bank count bounds (1 = monolithic, 3 = the paper's widest
/// partitioning).
pub const MAX_BANKS: u8 = 3;
/// Registers per bank are multiples of 32 like every paper RF.
pub const REGS_CHOICES: [u16; 3] = [32, 64, 96];
/// RF ports per bank never exceed 2 in the TTA space — the paper's whole
/// argument is that software bypassing makes big port counts pointless.
pub const MAX_PORTS: u8 = 2;

/// Parameters of one generated TTA design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TtaParams {
    /// Sustained issue width the datapath is sized for (1..=3; two full
    /// ALUs from 3 up, like the presets).
    pub issue: u8,
    /// Register banks (1..=[`MAX_BANKS`]).
    pub banks: u8,
    /// Registers per bank (one of [`REGS_CHOICES`]).
    pub regs_per_bank: u16,
    /// Read ports per bank (1..=[`MAX_PORTS`]).
    pub read_ports: u8,
    /// Write ports per bank (1..=[`MAX_PORTS`]).
    pub write_ports: u8,
    /// Transport buses ([`MIN_BUSES`]..=[`MAX_BUSES`]).
    pub buses: u8,
    /// Full RF-socket connectivity (the union wiring of the bus-merged
    /// machines) instead of the pruned two-buses-per-port wiring.
    pub full_conn: bool,
}

/// Parameters of one generated VLIW design point. The RF follows the
/// paper's two families: monolithic (one bank with `2×issue` read and
/// `issue` write ports) or fully partitioned (`issue` banks of 2R/1W).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VliwParams {
    /// Issue width (2..=3; 1-issue VLIW is just a worse scalar).
    pub issue: u8,
    /// Partitioned RF (`issue` banks of 2R/1W) vs monolithic.
    pub partitioned: bool,
    /// Registers per bank (one of [`REGS_CHOICES`]).
    pub regs_per_bank: u16,
}

/// One point of the generated config space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchConfig {
    /// A transport-triggered design.
    Tta(TtaParams),
    /// An operation-triggered VLIW design.
    Vliw(VliwParams),
}

impl TtaParams {
    /// Whether every parameter is inside the search-space bounds.
    pub fn in_space(&self) -> bool {
        (1..=3).contains(&self.issue)
            && (1..=MAX_BANKS).contains(&self.banks)
            && REGS_CHOICES.contains(&self.regs_per_bank)
            && (1..=MAX_PORTS).contains(&self.read_ports)
            && (1..=MAX_PORTS).contains(&self.write_ports)
            && (MIN_BUSES..=MAX_BUSES).contains(&self.buses)
    }
}

impl VliwParams {
    /// Whether every parameter is inside the search-space bounds.
    pub fn in_space(&self) -> bool {
        (2..=3).contains(&self.issue) && REGS_CHOICES.contains(&self.regs_per_bank)
    }
}

impl SearchConfig {
    /// Whether the config is inside the search-space bounds.
    pub fn in_space(&self) -> bool {
        match self {
            SearchConfig::Tta(p) => p.in_space(),
            SearchConfig::Vliw(p) => p.in_space(),
        }
    }

    /// Deterministic name encoding every parameter, so equal configs
    /// always build machines with equal `Debug` forms (the compile-cache
    /// key) however they were proposed.
    pub fn name(&self) -> String {
        match self {
            SearchConfig::Tta(p) => format!(
                "g-tta-i{}-{}x{}r{}w{}-t{}{}",
                p.issue,
                p.banks,
                p.regs_per_bank,
                p.read_ports,
                p.write_ports,
                p.buses,
                if p.full_conn { "-f" } else { "" },
            ),
            SearchConfig::Vliw(p) => format!(
                "g-vliw-i{}-{}x{}",
                p.issue,
                if p.partitioned { p.issue } else { 1 },
                p.regs_per_bank,
            ),
        }
    }

    /// Build the full machine description. Panics if the config is out of
    /// space — callers mutate *within* the space and check
    /// [`SearchConfig::in_space`] first.
    pub fn build(&self) -> Machine {
        assert!(self.in_space(), "config out of space: {self:?}");
        let name = self.name();
        match self {
            SearchConfig::Tta(p) => {
                let rfs = (0..p.banks)
                    .map(|i| {
                        RegisterFile::new(
                            format!("rf{i}"),
                            p.regs_per_bank,
                            p.read_ports,
                            p.write_ports,
                        )
                    })
                    .collect();
                presets::custom_tta(&name, p.issue, rfs, p.buses as usize, p.full_conn)
            }
            SearchConfig::Vliw(p) => {
                let rfs = if p.partitioned {
                    (0..p.issue)
                        .map(|i| RegisterFile::new(format!("rf{i}"), p.regs_per_bank, 2, 1))
                        .collect()
                } else {
                    vec![RegisterFile::new(
                        "rf0",
                        p.regs_per_bank,
                        2 * p.issue,
                        p.issue,
                    )]
                };
                presets::custom_vliw(&name, p.issue, rfs)
            }
        }
    }
}

/// Hash of a machine's description with the name erased: it keeps the
/// datapath *and* the issue-width label, so two machines collide here
/// only when they differ in nothing but their name. This is how the
/// search recognises a generated config as one of the paper's design
/// points, and it is the search frontier's identity.
///
/// The label is not structure: TTA issue 1 and issue 2 both get one ALU,
/// so such configs build identical datapaths yet keep distinct hashes
/// here, and stay separate frontier points ("i2 twins"). Use
/// [`datapath_hash`] to group them.
pub fn structural_hash(m: &Machine) -> u64 {
    let mut anon = m.clone();
    anon.name.clear();
    let mut h = DefaultHasher::new();
    format!("{anon:?}").hash(&mut h);
    h.finish()
}

/// [`structural_hash`] with the issue-width label erased too: it keeps
/// only the datapath (units, register files, buses, wiring, slots).
/// Nothing that compiles, simulates, encodes or estimates a machine reads
/// `issue_width`, so machines that collide here get the same programs,
/// cycles and FPGA estimate; the search simulates each datapath once.
pub fn datapath_hash(m: &Machine) -> u64 {
    structural_hash(&Machine {
        issue_width: 0,
        ..m.clone()
    })
}

/// Enumerate the entire config space in a fixed deterministic order
/// (TTA lexicographic over the parameter tuple, then VLIW). ~1500
/// configs — small enough to sweep analytically, far too large to
/// compile exhaustively, which is the point of the staged funnel.
pub fn enumerate_space() -> Vec<SearchConfig> {
    let mut out = Vec::new();
    for issue in 1..=3u8 {
        for banks in 1..=MAX_BANKS {
            for &regs_per_bank in &REGS_CHOICES {
                for read_ports in 1..=MAX_PORTS {
                    for write_ports in 1..=MAX_PORTS {
                        for buses in MIN_BUSES..=MAX_BUSES {
                            for full_conn in [false, true] {
                                out.push(SearchConfig::Tta(TtaParams {
                                    issue,
                                    banks,
                                    regs_per_bank,
                                    read_ports,
                                    write_ports,
                                    buses,
                                    full_conn,
                                }));
                            }
                        }
                    }
                }
            }
        }
    }
    for issue in 2..=3u8 {
        for partitioned in [false, true] {
            for &regs_per_bank in &REGS_CHOICES {
                out.push(SearchConfig::Vliw(VliwParams {
                    issue,
                    partitioned,
                    regs_per_bank,
                }));
            }
        }
    }
    out
}

/// The configs whose built machines are structurally identical to the
/// paper's ten multi-issue design points (every non-scalar preset),
/// keyed by preset name. Pinned by tests; the search uses it to check
/// rediscovery without name matching.
pub fn paper_configs() -> Vec<(&'static str, SearchConfig)> {
    let tta = |issue, banks, regs_per_bank, read_ports, write_ports, buses, full_conn| {
        SearchConfig::Tta(TtaParams {
            issue,
            banks,
            regs_per_bank,
            read_ports,
            write_ports,
            buses,
            full_conn,
        })
    };
    let vliw = |issue, partitioned, regs_per_bank| {
        SearchConfig::Vliw(VliwParams {
            issue,
            partitioned,
            regs_per_bank,
        })
    };
    vec![
        ("m-tta-1", tta(1, 1, 32, 1, 1, 3, false)),
        ("m-vliw-2", vliw(2, false, 64)),
        ("p-vliw-2", vliw(2, true, 32)),
        ("m-tta-2", tta(2, 1, 64, 1, 1, 6, false)),
        ("p-tta-2", tta(2, 2, 32, 1, 1, 6, false)),
        ("bm-tta-2", tta(2, 2, 32, 1, 1, 4, true)),
        ("m-vliw-3", vliw(3, false, 96)),
        ("p-vliw-3", vliw(3, true, 32)),
        ("m-tta-3", tta(3, 1, 96, 2, 1, 9, false)),
        ("p-tta-3", tta(3, 3, 32, 1, 1, 9, false)),
        ("bm-tta-3", tta(3, 3, 32, 1, 1, 6, true)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_in_space_builds_and_validates() {
        for cfg in enumerate_space() {
            assert!(cfg.in_space(), "{cfg:?}");
            let m = cfg.build();
            m.validate().unwrap_or_else(|e| panic!("{cfg:?}: {e:?}"));
            m.validate_generated()
                .unwrap_or_else(|e| panic!("{cfg:?}: {e:?}"));
            assert_eq!(m.name, cfg.name());
        }
    }

    #[test]
    fn space_is_duplicate_free_and_deterministic() {
        let space = enumerate_space();
        let mut names: Vec<String> = space.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), space.len(), "duplicate config names");
        assert_eq!(space, enumerate_space(), "enumeration must be stable");
    }

    #[test]
    fn paper_points_are_inside_the_space() {
        let space = enumerate_space();
        for (name, cfg) in paper_configs() {
            assert!(cfg.in_space(), "{name}");
            assert!(space.contains(&cfg), "{name} not enumerated");
        }
    }

    #[test]
    fn paper_configs_build_structural_twins_of_the_presets() {
        for (name, cfg) in paper_configs() {
            let preset = presets::by_name(name).unwrap();
            let built = cfg.build();
            assert_eq!(
                structural_hash(&preset),
                structural_hash(&built),
                "{name}: generated config is not a structural twin"
            );
        }
    }

    #[test]
    fn structural_hash_ignores_name_but_not_structure() {
        let a = presets::bm_tta_2();
        let mut renamed = a.clone();
        renamed.name = "anything".into();
        assert_eq!(structural_hash(&a), structural_hash(&renamed));
        let b = presets::p_tta_2(); // same RFs, different bus count/wiring
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn datapath_hash_groups_issue_twins_only() {
        let tta = |issue| {
            SearchConfig::Tta(TtaParams {
                issue,
                banks: 2,
                regs_per_bank: 32,
                read_ports: 1,
                write_ports: 1,
                buses: 4,
                full_conn: true,
            })
            .build()
        };
        let (i1, i2, i3) = (tta(1), tta(2), tta(3));
        assert_ne!(structural_hash(&i1), structural_hash(&i2));
        assert_eq!(datapath_hash(&i1), datapath_hash(&i2), "one ALU each");
        assert_ne!(datapath_hash(&i2), datapath_hash(&i3), "issue 3 has two");
    }

    #[test]
    fn out_of_space_configs_are_rejected() {
        let mut p = match paper_configs()[5].1 {
            SearchConfig::Tta(p) => p,
            _ => unreachable!(),
        };
        p.buses = MIN_BUSES - 1;
        assert!(!p.in_space());
        p.buses = MAX_BUSES + 1;
        assert!(!p.in_space());
        p.buses = MIN_BUSES;
        p.regs_per_bank = 48;
        assert!(!p.in_space());
    }
}

//! The resource table shared by the TTA and VLIW list schedulers (see
//! DESIGN.md §13).
//!
//! [`Resources`] is built once per function for one machine and answers
//! every connectivity question with a `u64` mask: bit `b` of a socket's
//! mask is bus `b`, of a unit's mask issue slot `b`, of an opcode's mask
//! unit `b`. A choice is the lowest set bit of the AND of the masks
//! involved: the lowest-index fit, the one a scan by increasing index
//! picks. [`Cycles`] is the per-cycle occupancy of one block, kept for
//! the whole function and cleared between blocks.

use tta_model::{Bus, DstConn, FuId, Machine, Opcode, RegRef, RfId, SrcConn};

/// Ends a threaded list, or marks a slot of a dense table as empty.
pub const NONE: usize = usize::MAX;

/// The set bits of `mask`, lowest first.
pub fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = first(mask)?;
        mask &= mask - 1;
        Some(b)
    })
}

/// The lowest set bit of `mask`: first fit.
pub fn first(mask: u64) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// The bits `i < n` for which `pred(i)` holds.
fn mask_of(n: usize, pred: impl Fn(usize) -> bool) -> u64 {
    (0..n).filter(|&i| pred(i)).fold(0, |m, i| m | 1 << i)
}

/// Dense numbering of a machine's registers: `base[rf] + index`.
#[derive(Debug, Clone, Default)]
pub struct RegIndex {
    base: Vec<usize>,
    len: usize,
}

impl RegIndex {
    /// Number the registers of `m`, file by file.
    pub fn new(m: &Machine) -> Self {
        let mut len = 0;
        let base = m
            .rfs
            .iter()
            .map(|rf| {
                len += rf.regs as usize;
                len - rf.regs as usize
            })
            .collect();
        RegIndex { base, len }
    }

    /// The dense index of `r`.
    pub fn of(&self, r: RegRef) -> usize {
        self.base[r.rf.0 as usize] + r.index as usize
    }

    /// Registers numbered.
    pub fn count(&self) -> usize {
        self.len
    }
}

/// The per-machine resource table.
#[derive(Debug, Clone)]
pub struct Resources {
    rf_read: Vec<u64>,
    rf_write: Vec<u64>,
    fu_result: Vec<u64>,
    fu_operand: Vec<u64>,
    fu_trigger: Vec<u64>,
    /// `simm[k]`: buses whose short immediate holds `k` signed bits.
    simm: [u64; 33],
    /// Bus slots a long immediate repurposes.
    pub limm: u64,
    /// Issue slots able to issue each unit.
    fu_slots: Vec<u64>,
    /// Units implementing each opcode, indexed by `op as usize`: the
    /// declaration order, which `Opcode::ALL` follows.
    units: [u64; Opcode::ALL.len()],
    read_ports: Vec<u8>,
    write_ports: Vec<u8>,
    /// Dense register numbering.
    pub regs: RegIndex,
}

impl Resources {
    /// Build the table for `m`.
    pub fn new(m: &Machine) -> Self {
        let nb = m.buses.len();
        // The buses on which `reach` holds, per register file or unit.
        let on = |reach: &dyn Fn(&Bus) -> bool| mask_of(nb, |b| reach(&m.buses[b]));
        let rf = |reach: &dyn Fn(&Bus, RfId) -> bool| -> Vec<u64> {
            m.rf_ids().map(|r| on(&|b| reach(b, r))).collect()
        };
        let fu = |reach: &dyn Fn(&Bus, FuId) -> bool| -> Vec<u64> {
            m.fu_ids().map(|f| on(&|b| reach(b, f))).collect()
        };
        Resources {
            rf_read: rf(&|b, r| b.reads(SrcConn::RfRead(r))),
            rf_write: rf(&|b, r| b.writes(DstConn::RfWrite(r))),
            fu_result: fu(&|b, f| b.reads(SrcConn::FuResult(f))),
            fu_operand: fu(&|b, f| b.writes(DstConn::FuOperand(f))),
            fu_trigger: fu(&|b, f| b.writes(DstConn::FuTrigger(f))),
            simm: std::array::from_fn(|k| on(&|b| b.simm_bits as usize >= k)),
            limm: mask_of(nb, |b| b < m.limm.bus_slots as usize),
            fu_slots: m
                .fu_ids()
                .map(|u| mask_of(m.slots.len(), |s| m.slots[s].units.contains(&u)))
                .collect(),
            units: Opcode::ALL.map(|op| mask_of(m.funits.len(), |f| m.funits[f].supports(op))),
            read_ports: m.rfs.iter().map(|rf| rf.read_ports).collect(),
            write_ports: m.rfs.iter().map(|rf| rf.write_ports).collect(),
            regs: RegIndex::new(m),
        }
    }

    /// Buses able to read a source socket.
    pub fn src(&self, s: SrcConn) -> u64 {
        match s {
            SrcConn::RfRead(r) => self.rf_read[r.0 as usize],
            SrcConn::FuResult(f) => self.fu_result[f.0 as usize],
        }
    }

    /// Buses able to write a destination socket.
    pub fn dst(&self, d: DstConn) -> u64 {
        match d {
            DstConn::RfWrite(r) => self.rf_write[r.0 as usize],
            DstConn::FuOperand(f) => self.fu_operand[f.0 as usize],
            DstConn::FuTrigger(f) => self.fu_trigger[f.0 as usize],
        }
    }

    /// Buses whose short-immediate field holds `v`: those with at least as
    /// many bits as the narrowest signed field that holds it.
    pub fn simm(&self, v: i32) -> u64 {
        let magnitude = if v < 0 { !v } else { v };
        self.simm[33 - magnitude.leading_zeros() as usize]
    }

    /// Issue slots able to issue unit `f`.
    pub fn slots_for(&self, f: FuId) -> u64 {
        self.fu_slots[f.0 as usize]
    }

    /// Units implementing `op`.
    pub fn units(&self, op: Opcode) -> u64 {
        self.units[op as usize]
    }
}

/// Per-cycle resource use of one block, grown on demand and cleared (not
/// freed) between blocks.
#[derive(Debug, Clone, Default)]
pub struct Cycles {
    /// Busy buses (TTA) or issue slots (VLIW) per cycle.
    pub busy: Vec<u64>,
    /// Units issued per cycle (VLIW).
    pub fu_busy: Vec<u64>,
    reads: Vec<u8>,
    writes: Vec<u8>,
    nrf: usize,
    /// The busy mask of a fresh cycle: bits past the last bus or slot set.
    empty: u64,
}

impl Cycles {
    /// Empty occupancy for `nrf` register files and `width` buses or
    /// issue slots.
    pub fn new(nrf: usize, width: usize) -> Self {
        Cycles {
            nrf,
            empty: u64::MAX.checked_shl(width as u32).unwrap_or(0),
            ..Cycles::default()
        }
    }

    /// Forget every cycle, keeping the buffers.
    pub fn clear(&mut self) {
        self.busy.clear();
        self.fu_busy.clear();
        self.reads.clear();
        self.writes.clear();
    }

    /// Make cycle `c` addressable.
    pub fn grow(&mut self, c: u32) {
        let n = c as usize + 1;
        if self.busy.len() < n {
            self.busy.resize(n, self.empty);
            self.fu_busy.resize(n, 0);
            self.reads.resize(n * self.nrf, 0);
            self.writes.resize(n * self.nrf, 0);
        }
    }

    /// Whether `n` more reads of `rf` fit its read ports at `c`.
    pub fn read_ok(&self, res: &Resources, c: u32, rf: RfId, n: u8) -> bool {
        self.reads[c as usize * self.nrf + rf.0 as usize] + n <= res.read_ports[rf.0 as usize]
    }

    /// Whether one more write of `rf` fits its write ports at `c`.
    pub fn write_ok(&self, res: &Resources, c: u32, rf: RfId) -> bool {
        self.writes[c as usize * self.nrf + rf.0 as usize] < res.write_ports[rf.0 as usize]
    }

    /// Count a read of `rf` at `c`.
    pub fn add_read(&mut self, c: u32, rf: RfId) {
        self.reads[c as usize * self.nrf + rf.0 as usize] += 1;
    }

    /// Count a write of `rf` at `c`.
    pub fn add_write(&mut self, c: u32, rf: RfId) {
        self.writes[c as usize * self.nrf + rf.0 as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_model::presets;

    #[test]
    fn masks_agree_with_the_machine() {
        for m in presets::all_design_points() {
            let res = Resources::new(&m);
            for b in m.bus_ids() {
                let bus = m.bus(b);
                let bit = |mask: u64| mask >> b.0 & 1 == 1;
                let srcs = m.rf_ids().map(SrcConn::RfRead);
                for s in srcs.chain(m.fu_ids().map(SrcConn::FuResult)) {
                    assert_eq!(bit(res.src(s)), bus.reads(s), "{} {s:?}", m.name);
                }
                let fu_dsts = m
                    .fu_ids()
                    .flat_map(|f| [DstConn::FuOperand(f), DstConn::FuTrigger(f)]);
                for d in m.rf_ids().map(DstConn::RfWrite).chain(fu_dsts) {
                    assert_eq!(bit(res.dst(d)), bus.writes(d), "{} {d:?}", m.name);
                }
                for v in [0, 1, -1, 127, 128, -128, -129, i32::MAX, i32::MIN] {
                    assert_eq!(bit(res.simm(v)), bus.simm_fits(v), "{} {v}", m.name);
                }
            }
            for op in Opcode::ALL {
                let units: Vec<usize> = bits(res.units(op)).collect();
                let want: Vec<usize> = m.units_for(op).map(|f| f.0 as usize).collect();
                assert_eq!(units, want, "{} {op}", m.name);
            }
        }
    }
}

//! Memory-mapped I/O and interrupt machinery shared by the IR reference
//! interpreter and the cycle-accurate simulators.
//!
//! Like [`crate::mem`], this module is the single source of truth for
//! device semantics so every executor agrees bit-for-bit: the golden
//! interpreter and the three simulator styles all route accesses above
//! [`MMIO_BASE`] through the same [`IoSystem`].
//!
//! # Memory map
//!
//! Every address at or above [`MMIO_BASE`] goes to [`IoSystem`], which
//! decodes this fixed map of the interrupt controller, the UART and the
//! timer; every other word in the region faults. All MMIO registers are
//! word-sized and word-aligned; sub-word accesses fault exactly like a
//! misaligned data-memory access.
//!
//! | address                | register     | semantics                              |
//! |------------------------|--------------|----------------------------------------|
//! | `MMIO_BASE + 0x00`     | `IRQ_CTRL`   | bit0 = interrupt enable (rw)           |
//! | `MMIO_BASE + 0x04`     | `IRQ_STATUS` | pending/servicing line mask (r, W1C)   |
//! | `MMIO_BASE + 0x08`     | `IRQ_EOI`    | any store = return-from-interrupt (w)  |
//! | `MMIO_BASE + 0x40`     | `UART_STATUS`| bit0 rx available, bit1 tx ready (r)   |
//! | `MMIO_BASE + 0x44`     | `UART_RX`    | pop next received byte, -1 if none (r) |
//! | `MMIO_BASE + 0x48`     | `UART_TX`    | send low byte (w)                      |
//! | `MMIO_BASE + 0x80`     | `TIMER_CTRL` | bit0 enable (rw)                       |
//! | `MMIO_BASE + 0x84`     | `TIMER_PERIOD`| fire period in cycles (rw)            |
//! | `MMIO_BASE + 0x88`     | `TIMER_COUNT`| cycles until next fire, -1 idle (r)    |
//!
//! # Interrupt model
//!
//! Devices raise numbered lines (UART = line 0, timer = line 1, scripted
//! "soft" interrupts default to line 2); raised lines latch into a
//! pending mask. Delivery happens at an *instruction boundary* when the
//! guest has set `IRQ_CTRL.IE` and no handler is already running: the
//! lowest pending line is cleared, `IE` drops, and control transfers to
//! the guest's `__irq` handler. The handler returns by storing to
//! `IRQ_EOI` (the compiler injects that store before every handler
//! return), which restores `IE` and the interrupted context.
//!
//! Interrupt *arrival* can be keyed two ways ([`IrqAt`]):
//!
//! * [`IrqAt::Cycle`] — raise at a simulated cycle. Cycle counts differ
//!   across core styles by design, so this axis serves within-style
//!   tests (shared-state parity, latency pinning) and reactive example
//!   guests.
//! * [`IrqAt::MmioStore`] — raise once the guest has performed its K-th
//!   MMIO store. The dynamic MMIO-store sequence is identical across the
//!   interpreter and every style (MMIO ops are naturally program-
//!   ordered), so this axis is the style-invariant key the differential
//!   fuzz oracle uses.

use crate::mem::MemError;
use crate::op::Opcode;

/// Base of the MMIO region. Addresses at or above this go to [`IoSystem`].
pub const MMIO_BASE: u32 = 0xFFFF_0000;

/// Interrupt-enable control register (bit0 = IE).
pub const IRQ_CTRL_ADDR: u32 = MMIO_BASE;
/// Pending/servicing interrupt line mask (read; write-1-to-clear).
pub const IRQ_STATUS_ADDR: u32 = MMIO_BASE + 0x04;
/// Return-from-interrupt doorbell: any store ends the current handler.
pub const IRQ_EOI_ADDR: u32 = MMIO_BASE + 0x08;

/// UART status register (bit0 rx available, bit1 tx ready).
pub const UART_STATUS_ADDR: u32 = MMIO_BASE + 0x40;
/// UART receive register: pops the next scripted byte, or -1.
pub const UART_RX_ADDR: u32 = MMIO_BASE + 0x44;
/// UART transmit register: stores append their low byte to the tx log.
pub const UART_TX_ADDR: u32 = MMIO_BASE + 0x48;

/// Timer control register (bit0 enable).
pub const TIMER_CTRL_ADDR: u32 = MMIO_BASE + 0x80;
/// Timer period register, in cycles (0 = never fires).
pub const TIMER_PERIOD_ADDR: u32 = MMIO_BASE + 0x84;
/// Timer countdown register: cycles until the next fire, or -1.
pub const TIMER_COUNT_ADDR: u32 = MMIO_BASE + 0x88;

/// Interrupt line of the UART (rx-available).
pub const UART_LINE: u8 = 0;
/// Interrupt line of the cycle timer.
pub const TIMER_LINE: u8 = 1;
/// Default interrupt line for scripted (schedule-driven) interrupts.
pub const SOFT_LINE: u8 = 2;

/// Name of the reserved interrupt-handler function in guest IR: a
/// function called `__irq` taking no parameters and returning no value.
pub const IRQ_HANDLER_NAME: &str = "__irq";

/// When an interrupt-schedule entry raises its line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IrqAt {
    /// Raise at this simulated cycle (style-dependent: cycle counts
    /// differ across TTA/VLIW/scalar; the interpreter approximates the
    /// clock with its executed-instruction count).
    Cycle(u64),
    /// Raise once the guest has performed this many MMIO stores — the
    /// style-invariant key used by the differential fuzz oracle.
    MmioStore(u64),
}

/// A reactive run's scripted environment: interrupt-arrival schedule and
/// UART receive script. This is fuzz *input* — it is serialised next to
/// the module text in corpus cases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoSpec {
    /// Scripted interrupt arrivals: (trigger, line).
    pub schedule: Vec<(IrqAt, u8)>,
    /// UART receive script: (arrival cycle, byte). Bytes become readable
    /// (and, with [`IoSpec::uart_irq_on_rx`], raise line 0) once the
    /// clock passes their arrival cycle.
    pub uart_rx: Vec<(u64, u8)>,
    /// Whether an arriving rx byte raises the UART interrupt line.
    /// Cycle-keyed like [`IrqAt::Cycle`], so the differential oracle
    /// keeps this off and polls instead.
    pub uart_irq_on_rx: bool,
}

impl IoSpec {
    /// True if this spec scripts no device activity at all.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty() && self.uart_rx.is_empty() && !self.uart_irq_on_rx
    }
}

/// UART-like byte-stream device: a scripted receive queue and an
/// append-only transmit log.
struct Uart {
    /// (arrival cycle, byte), sorted by arrival.
    rx: Vec<(u64, u8)>,
    /// Next rx index to pop.
    rx_head: usize,
    /// Next rx index whose arrival has not yet raised the line.
    rx_irq_head: usize,
    /// Whether arriving bytes raise line 0.
    irq_on_rx: bool,
    /// Transmit log.
    tx: Vec<u8>,
}

impl Uart {
    /// A UART fed by `rx` (sorted by this constructor).
    fn new(mut rx: Vec<(u64, u8)>, irq_on_rx: bool) -> Uart {
        rx.sort_by_key(|&(c, _)| c);
        Uart {
            rx,
            rx_head: 0,
            rx_irq_head: 0,
            irq_on_rx,
            tx: Vec::new(),
        }
    }

    fn rx_available(&self, now: u64) -> bool {
        self.rx.get(self.rx_head).is_some_and(|&(c, _)| c <= now)
    }

    /// Pop the next arrived byte, or -1.
    fn pop(&mut self, now: u64) -> i32 {
        if !self.rx_available(now) {
            return -1;
        }
        let b = self.rx[self.rx_head].1;
        self.rx_head += 1;
        self.rx_irq_head = self.rx_irq_head.max(self.rx_head);
        b as i32
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        if !self.irq_on_rx {
            return None;
        }
        self.rx.get(self.rx_irq_head).map(|&(c, _)| c.max(now + 1))
    }

    /// True if an rx arrival has raised the line since the last poll.
    fn poll(&mut self, now: u64) -> bool {
        if !self.irq_on_rx {
            return false;
        }
        let mut rose = false;
        while self
            .rx
            .get(self.rx_irq_head)
            .is_some_and(|&(c, _)| c <= now)
        {
            self.rx_irq_head += 1;
            rose = true;
        }
        rose
    }
}

/// Cycle-driven periodic timer, programmed by the guest over MMIO.
#[derive(Default)]
struct Timer {
    enabled: bool,
    period: u64,
    /// Next fire clock, when armed (enabled with a non-zero period).
    next_fire: Option<u64>,
}

impl Timer {
    fn rearm(&mut self, now: u64) {
        self.next_fire = (self.enabled && self.period > 0).then(|| now + self.period);
    }

    /// Cycles until the next fire, -1 when idle.
    fn count(&self, now: u64) -> i32 {
        match self.next_fire {
            Some(t) => t.saturating_sub(now).min(i32::MAX as u64) as i32,
            None => -1,
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.next_fire.map(|t| t.max(now + 1))
    }

    /// True if the timer has fired since the last poll.
    fn poll(&mut self, now: u64) -> bool {
        let mut rose = false;
        while let Some(t) = self.next_fire {
            if t > now {
                break;
            }
            rose = true;
            // Advance by whole periods; a period-1 timer fires every
            // cycle (an interrupt storm — deterministic, fuel-bounded).
            self.next_fire = Some(t + self.period);
        }
        rose
    }
}

/// The complete per-run I/O state: interrupt controller, UART, timer,
/// and scripted interrupt schedule. One instance per simulated run;
/// every executor drives it through the same entry points.
///
/// `now` in every method is the executor's clock: simulated cycles in
/// the simulators, executed instructions in the reference interpreter.
/// The devices are deterministic functions of their access and clock
/// history, so every executor observes identical behaviour.
pub struct IoSystem {
    /// Guest interrupt enable (IRQ_CTRL bit0).
    ie: bool,
    /// Latched pending line mask.
    pending: u8,
    /// Whether the guest is currently inside its `__irq` handler.
    in_handler: bool,
    /// Line being serviced while `in_handler`.
    current_line: u8,
    /// Set by a store to `IRQ_EOI`; consumed by the executor.
    eoi: bool,
    /// MMIO stores performed so far (`IRQ_EOI` excluded — that store is
    /// compiler-injected on the simulated path only, so counting it
    /// would desynchronise the interpreter's store count).
    mmio_stores: u64,
    /// MMIO loads performed so far.
    pub mmio_loads: u64,
    /// Interrupts delivered so far.
    pub irqs_delivered: u64,
    /// Cycle-keyed schedule entries, sorted; `cycle_idx` consumed.
    cycle_keys: Vec<(u64, u8)>,
    cycle_idx: usize,
    /// MMIO-store-keyed schedule entries, sorted; `mmio_idx` consumed.
    mmio_keys: Vec<(u64, u8)>,
    mmio_idx: usize,
    /// The UART, on line 0.
    uart: Uart,
    /// The timer, on line 1.
    timer: Timer,
}

impl IoSystem {
    /// Build the standard machine (UART + timer) driven by `spec`.
    pub fn new(spec: &IoSpec) -> IoSystem {
        let mut cycle_keys = Vec::new();
        let mut mmio_keys = Vec::new();
        for &(at, line) in &spec.schedule {
            match at {
                IrqAt::Cycle(c) => cycle_keys.push((c, line)),
                IrqAt::MmioStore(k) => mmio_keys.push((k, line)),
            }
        }
        cycle_keys.sort();
        mmio_keys.sort();
        IoSystem {
            ie: false,
            pending: 0,
            in_handler: false,
            current_line: 0,
            eoi: false,
            mmio_stores: 0,
            mmio_loads: 0,
            irqs_delivered: 0,
            cycle_keys,
            cycle_idx: 0,
            mmio_keys,
            mmio_idx: 0,
            uart: Uart::new(spec.uart_rx.clone(), spec.uart_irq_on_rx),
            timer: Timer::default(),
        }
    }

    /// MMIO stores performed so far (the [`IrqAt::MmioStore`] clock).
    pub fn mmio_stores(&self) -> u64 {
        self.mmio_stores
    }

    /// Latch every line that has risen up to clock `now`.
    pub fn poll(&mut self, now: u64) {
        while self
            .cycle_keys
            .get(self.cycle_idx)
            .is_some_and(|&(c, _)| c <= now)
        {
            self.pending |= 1 << (self.cycle_keys[self.cycle_idx].1 & 7);
            self.cycle_idx += 1;
        }
        while self
            .mmio_keys
            .get(self.mmio_idx)
            .is_some_and(|&(k, _)| k <= self.mmio_stores)
        {
            self.pending |= 1 << (self.mmio_keys[self.mmio_idx].1 & 7);
            self.mmio_idx += 1;
        }
        if self.uart.poll(now) {
            self.pending |= 1 << UART_LINE;
        }
        if self.timer.poll(now) {
            self.pending |= 1 << TIMER_LINE;
        }
    }

    /// The line to deliver now, if any: interrupts enabled, no handler
    /// already running, and a pending line (lowest first).
    pub fn deliverable(&self) -> Option<u8> {
        if self.ie && !self.in_handler && self.pending != 0 {
            Some(self.pending.trailing_zeros() as u8)
        } else {
            None
        }
    }

    /// Commit delivery of `line`: clear it, mask interrupts, and mark
    /// the handler as running.
    pub fn begin_delivery(&mut self, line: u8) {
        self.pending &= !(1u8 << line);
        self.current_line = line;
        self.ie = false;
        self.in_handler = true;
        self.irqs_delivered += 1;
    }

    /// Consume a pending end-of-interrupt doorbell.
    pub fn take_eoi(&mut self) -> bool {
        std::mem::take(&mut self.eoi)
    }

    /// End the current handler: re-enable interrupts.
    pub fn finish_handler(&mut self) {
        self.in_handler = false;
        self.ie = true;
    }

    /// How many clock ticks the executor may run before the next
    /// instruction boundary it must observe: 1 while a handler is
    /// running, a line is pending, or MMIO-store-keyed arrivals remain
    /// outstanding (single-stepping makes delivery land exactly after
    /// the triggering instruction in every executor); otherwise the
    /// distance to the next cycle-keyed arrival, UART rx interrupt or
    /// timer fire; `u64::MAX` when idle.
    pub fn window(&self, now: u64) -> u64 {
        if self.in_handler || self.pending != 0 || self.mmio_idx < self.mmio_keys.len() {
            return 1;
        }
        let scheduled = self
            .cycle_keys
            .get(self.cycle_idx)
            .map(|&(c, _)| c.max(now + 1));
        [
            scheduled,
            self.uart.next_event(now),
            self.timer.next_event(now),
        ]
        .into_iter()
        .flatten()
        .min()
        .map_or(u64::MAX, |t| t - now)
    }

    fn reg_error(addr: u32, op: Opcode, store: bool) -> MemError {
        MemError {
            addr,
            width: crate::mem::access_width(op),
            store,
            // MMIO has no byte-array backing; report size 0.
            size: 0,
        }
    }

    fn check_word(addr: u32, op: Opcode, store: bool) -> Result<(), MemError> {
        if crate::mem::access_width(op) != 4 || !addr.is_multiple_of(4) {
            return Err(Self::reg_error(addr, op, store));
        }
        Ok(())
    }

    /// Word load from the MMIO region at clock `now`. An aligned word
    /// outside the register map faults but still counts as a load.
    pub fn load(&mut self, op: Opcode, addr: u32, now: u64) -> Result<i32, MemError> {
        Self::check_word(addr, op, false)?;
        self.mmio_loads += 1;
        Ok(match addr {
            IRQ_CTRL_ADDR => self.ie as i32,
            IRQ_STATUS_ADDR => {
                let servicing = if self.in_handler {
                    1u8 << self.current_line
                } else {
                    0
                };
                (self.pending | servicing) as i32
            }
            IRQ_EOI_ADDR | UART_TX_ADDR => 0,
            // tx always ready (bit1), rx available (bit0).
            UART_STATUS_ADDR => 2 | self.uart.rx_available(now) as i32,
            UART_RX_ADDR => self.uart.pop(now),
            TIMER_CTRL_ADDR => self.timer.enabled as i32,
            TIMER_PERIOD_ADDR => self.timer.period as i32,
            TIMER_COUNT_ADDR => self.timer.count(now),
            _ => return Err(Self::reg_error(addr, op, false)),
        })
    }

    /// Word store to the MMIO region at clock `now`.
    pub fn store(&mut self, op: Opcode, addr: u32, value: i32, now: u64) -> Result<(), MemError> {
        Self::check_word(addr, op, true)?;
        match addr {
            IRQ_CTRL_ADDR => self.ie = value & 1 != 0,
            IRQ_STATUS_ADDR => self.pending &= !(value as u8),
            IRQ_EOI_ADDR => {
                // Compiler-injected return-from-interrupt; not counted
                // as an MMIO store (see `mmio_stores`).
                if self.in_handler {
                    self.eoi = true;
                }
                return Ok(());
            }
            UART_TX_ADDR => self.uart.tx.push(value as u8),
            TIMER_CTRL_ADDR => {
                self.timer.enabled = value & 1 != 0;
                self.timer.rearm(now);
            }
            TIMER_PERIOD_ADDR => {
                self.timer.period = value as u32 as u64;
                self.timer.rearm(now);
            }
            // Read-only registers ignore the value but count the store.
            UART_STATUS_ADDR | UART_RX_ADDR | TIMER_COUNT_ADDR => {}
            _ => return Err(Self::reg_error(addr, op, true)),
        }
        self.mmio_stores += 1;
        Ok(())
    }

    /// The UART transmit log (every byte the guest sent), the
    /// device-output stream the differential oracle compares.
    pub fn uart_tx(&self) -> Vec<u8> {
        self.uart.tx.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_load(io: &mut IoSystem, addr: u32, now: u64) -> i32 {
        io.load(Opcode::Ldw, addr, now).unwrap()
    }

    fn word_store(io: &mut IoSystem, addr: u32, v: i32, now: u64) {
        io.store(Opcode::Stw, addr, v, now).unwrap()
    }

    #[test]
    fn uart_rx_pops_in_order_and_tx_logs() {
        let spec = IoSpec {
            uart_rx: vec![(0, 0x41), (5, 0x42)],
            ..IoSpec::default()
        };
        let mut io = IoSystem::new(&spec);
        assert_eq!(word_load(&mut io, UART_STATUS_ADDR, 0), 3);
        assert_eq!(word_load(&mut io, UART_RX_ADDR, 0), 0x41);
        // Second byte has not arrived yet.
        assert_eq!(word_load(&mut io, UART_STATUS_ADDR, 0), 2);
        assert_eq!(word_load(&mut io, UART_RX_ADDR, 0), -1);
        assert_eq!(word_load(&mut io, UART_RX_ADDR, 7), 0x42);
        word_store(&mut io, UART_TX_ADDR, 0x155, 7);
        assert_eq!(io.uart_tx(), vec![0x55]);
        assert_eq!(io.mmio_stores(), 1);
    }

    #[test]
    fn timer_period_edges() {
        let mut io = IoSystem::new(&IoSpec::default());
        // Period 0: enabling never arms.
        word_store(&mut io, TIMER_CTRL_ADDR, 1, 0);
        assert_eq!(word_load(&mut io, TIMER_COUNT_ADDR, 0), -1);
        io.poll(1000);
        assert_eq!(io.pending, 0);
        // Period 3, enabled at clock 10: fires at 13, 16, ...
        word_store(&mut io, TIMER_PERIOD_ADDR, 3, 10);
        assert_eq!(word_load(&mut io, TIMER_COUNT_ADDR, 11), 2);
        io.poll(12);
        assert_eq!(io.pending, 0);
        io.poll(16);
        assert_eq!(io.pending, 1 << TIMER_LINE);
        // Period 1 storms: every subsequent poll fires again.
        io.pending = 0;
        word_store(&mut io, TIMER_PERIOD_ADDR, 1, 20);
        io.poll(21);
        assert_eq!(io.pending, 1 << TIMER_LINE);
    }

    #[test]
    fn mmio_accesses_must_be_word_sized_and_aligned() {
        let mut io = IoSystem::new(&IoSpec::default());
        assert!(io.load(Opcode::Ldh, UART_STATUS_ADDR, 0).is_err());
        assert!(io.load(Opcode::Ldw, UART_STATUS_ADDR + 2, 0).is_err());
        assert!(io.store(Opcode::Stq, UART_TX_ADDR, 1, 0).is_err());
        // Unmapped word in the region faults too.
        assert!(io.load(Opcode::Ldw, MMIO_BASE + 0x2000, 0).is_err());
    }

    #[test]
    fn delivery_masks_and_eoi_restores() {
        let spec = IoSpec {
            schedule: vec![(IrqAt::MmioStore(1), SOFT_LINE), (IrqAt::Cycle(50), 3)],
            ..IoSpec::default()
        };
        let mut io = IoSystem::new(&spec);
        io.poll(0);
        assert_eq!(io.pending, 0);
        assert_eq!(io.window(0), 1, "outstanding mmio keys force single-step");
        word_store(&mut io, IRQ_CTRL_ADDR, 1, 0);
        io.poll(0);
        assert_eq!(io.pending, 1 << SOFT_LINE);
        assert_eq!(io.deliverable(), Some(SOFT_LINE));
        io.begin_delivery(SOFT_LINE);
        assert!(!io.ie && io.in_handler);
        assert_eq!(io.deliverable(), None);
        // IRQ_STATUS reads the line being serviced.
        assert_eq!(
            word_load(&mut io, IRQ_STATUS_ADDR, 0),
            1 << SOFT_LINE as i32
        );
        // EOI only latches inside a handler, and is not a counted store.
        let stores = io.mmio_stores();
        word_store(&mut io, IRQ_EOI_ADDR, 0, 0);
        assert_eq!(io.mmio_stores(), stores);
        assert!(io.take_eoi());
        assert!(!io.take_eoi());
        io.finish_handler();
        assert!(io.ie && !io.in_handler);
        // Cycle key at 50: the window now points at it.
        assert_eq!(io.window(10), 40);
        io.poll(50);
        assert_eq!(io.pending, 1 << 3);
        assert_eq!(io.window(50), 1, "pending line forces single-step");
    }

    #[test]
    fn idle_window_is_unbounded() {
        let mut io = IoSystem::new(&IoSpec::default());
        io.poll(0);
        assert_eq!(io.window(0), u64::MAX);
    }
}

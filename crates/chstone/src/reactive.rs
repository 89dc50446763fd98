//! Reactive example guests: interrupt-driven workloads for the MMIO and
//! interrupt layer, in the same build/expected shape as the CHStone
//! kernels so the eval pipeline can sweep them across every design
//! point (`tta_explore::eval::evaluate_reactive`).
//!
//! Unlike the closed-world kernels, a reactive guest only promises a
//! *timing-invariant* checksum: interrupt arrival cycles differ between
//! the three core styles (and the instruction-clocked reference
//! interpreter), so the guests are written to converge on the same
//! return value and UART transmit stream on every engine — they spin on
//! handler-maintained state instead of racing it. Scratch state like
//! the timer tick count is deliberately left out of the checksum.

use tta_ir::builder::{FunctionBuilder, ModuleBuilder};
use tta_ir::inst::MemRegion;
use tta_ir::Module;
use tta_model::io::{
    IoSpec, IRQ_CTRL_ADDR, TIMER_CTRL_ADDR, TIMER_PERIOD_ADDR, UART_RX_ADDR, UART_STATUS_ADDR,
    UART_TX_ADDR,
};

/// A reactive guest: a kernel-shaped build/expected pair plus the I/O
/// script it runs under and the UART bytes it must transmit.
#[derive(Clone)]
pub struct ReactiveGuest {
    /// Guest name (e.g. `"uart_echo"`).
    pub name: &'static str,
    /// Build the IR module (entry returns the checksum; `__irq` handler
    /// included).
    pub build: fn() -> Module,
    /// The interrupt schedule / device script the guest runs under.
    pub spec: fn() -> IoSpec,
    /// The timing-invariant checksum every engine must return.
    pub expected: fn() -> i32,
    /// The exact UART transmit stream every engine must produce.
    pub expected_tx: fn() -> Vec<u8>,
}

impl std::fmt::Debug for ReactiveGuest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactiveGuest")
            .field("name", &self.name)
            .finish()
    }
}

/// The bytes the echo server receives.
const ECHO_RX: [u8; 4] = [b'e', b'c', b'h', b'o'];

/// UART echo server. The rx script raises the UART line
/// ([`IoSpec::uart_irq_on_rx`]); the handler drains every available
/// byte — echoing each to tx and accumulating a running sum and count —
/// and `main` just enables interrupts and spins until the count reaches
/// the script length. Draining (rather than popping one byte per
/// interrupt) is what makes the guest schedule-robust: several arrivals
/// may collapse into one latched interrupt.
pub fn echo_build() -> Module {
    let n = ECHO_RX.len() as i32;
    let mut mb = ModuleBuilder::new("uart_echo");
    let state = mb.buffer(8); // word 0: byte sum, word 1: byte count

    let mut hb = FunctionBuilder::new("__irq", 0, false);
    let head = hb.new_block();
    let body = hb.new_block();
    let done = hb.new_block();
    hb.jump(head);
    hb.switch_to(head);
    let status = hb.ldw(UART_STATUS_ADDR as i32, MemRegion::ANY);
    let avail = hb.and(status, 1);
    hb.branch(avail, body, done);
    hb.switch_to(body);
    let rx = hb.ldw(UART_RX_ADDR as i32, MemRegion::ANY);
    let sum = hb.ldw(state.word(0), state.region);
    let sum2 = hb.add(sum, rx);
    hb.stw(sum2, state.word(0), state.region);
    let cnt = hb.ldw(state.word(1), state.region);
    let cnt2 = hb.add(cnt, 1);
    hb.stw(cnt2, state.word(1), state.region);
    hb.stw(rx, UART_TX_ADDR as i32, MemRegion::ANY);
    hb.jump(head);
    hb.switch_to(done);
    hb.ret_void();
    mb.add(hb.finish());

    let mut fb = FunctionBuilder::new("main", 0, true);
    fb.stw(1, IRQ_CTRL_ADDR as i32, MemRegion::ANY);
    let spin = fb.new_block();
    let out = fb.new_block();
    fb.jump(spin);
    fb.switch_to(spin);
    let cnt = fb.ldw(state.word(1), state.region);
    let more = fb.lt(cnt, n);
    fb.branch(more, spin, out);
    fb.switch_to(out);
    let sum = fb.ldw(state.word(0), state.region);
    let hi = fb.shl(cnt, 16);
    let ret = fb.xor(sum, hi);
    fb.ret(ret);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    mb.finish()
}

/// The echo server's I/O script: every byte available from the start,
/// arrivals raising the UART interrupt line.
pub fn echo_spec() -> IoSpec {
    IoSpec {
        uart_rx: ECHO_RX.iter().map(|&b| (0, b)).collect(),
        uart_irq_on_rx: true,
        ..IoSpec::default()
    }
}

/// Echo checksum: byte sum in the low half, byte count in the high half.
pub fn echo_expected() -> i32 {
    let sum: i32 = ECHO_RX.iter().map(|&b| b as i32).sum();
    sum ^ ((ECHO_RX.len() as i32) << 16)
}

/// The echo server transmits exactly what it received, in order.
pub fn echo_expected_tx() -> Vec<u8> {
    ECHO_RX.to_vec()
}

/// Ticks the producer/consumer guest consumes before disarming the timer.
const TICKS: i32 = 8;
/// Timer period in cycles — far above the trap + handler cost on every
/// style, so the consumer is never starved by the interrupt rate.
const PERIOD: i32 = 50;

/// Timer-driven producer/consumer. The handler (producer) appends the
/// current tick index into an 8-slot ring buffer; `main` (consumer)
/// spins on the published tick count, folds each consumed slot into a
/// running checksum, and disarms the timer after `TICKS` (8) items.
/// The checksum folds the *consumed values* (always `0..TICKS`, whatever
/// the arrival timing), never the raw tick counter — the producer may
/// run slightly past the consumer before the disarm lands, and how far
/// is style-dependent.
pub fn timer_build() -> Module {
    let mut mb = ModuleBuilder::new("timer_ticks");
    let ring = mb.buffer(8 * 4);
    let state = mb.buffer(8); // word 0: published tick count

    let mut hb = FunctionBuilder::new("__irq", 0, false);
    let t = hb.ldw(state.word(0), state.region);
    let slot = hb.and(t, 7);
    let off = hb.shl(slot, 2);
    let addr = hb.add(ring.base(), off);
    hb.stw(t, addr, ring.region);
    let t2 = hb.add(t, 1);
    hb.stw(t2, state.word(0), state.region);
    hb.ret_void();
    mb.add(hb.finish());

    let mut fb = FunctionBuilder::new("main", 0, true);
    fb.stw(PERIOD, TIMER_PERIOD_ADDR as i32, MemRegion::ANY);
    fb.stw(1, TIMER_CTRL_ADDR as i32, MemRegion::ANY);
    fb.stw(1, IRQ_CTRL_ADDR as i32, MemRegion::ANY);
    let consumed = fb.copy(0);
    let acc = fb.copy(0);
    let head = fb.new_block();
    let body = fb.new_block();
    let out = fb.new_block();
    fb.jump(head);
    fb.switch_to(head);
    let published = fb.ldw(state.word(0), state.region);
    let ready = fb.lt(consumed, published);
    fb.branch(ready, body, head);
    fb.switch_to(body);
    let slot = fb.and(consumed, 7);
    let off = fb.shl(slot, 2);
    let addr = fb.add(ring.base(), off);
    let val = fb.ldw(addr, ring.region);
    let doubled = fb.shl(acc, 1);
    let acc2 = fb.xor(doubled, val);
    fb.copy_to(acc, acc2);
    let consumed2 = fb.add(consumed, 1);
    fb.copy_to(consumed, consumed2);
    let more = fb.lt(consumed, TICKS);
    fb.branch(more, head, out);
    fb.switch_to(out);
    fb.stw(0, TIMER_CTRL_ADDR as i32, MemRegion::ANY);
    let hi = fb.shl(consumed, 16);
    let ret = fb.xor(acc, hi);
    fb.ret(ret);
    let id = mb.add(fb.finish());
    mb.set_entry(id);
    mb.finish()
}

/// The timer guest needs no external script — its interrupt source is
/// the cycle timer it arms itself.
pub fn timer_spec() -> IoSpec {
    IoSpec::default()
}

/// Timer checksum: `(acc << 1) ^ tick` folded over ticks `0..TICKS`,
/// with the consumed count in the high half.
pub fn timer_expected() -> i32 {
    let acc = (0..TICKS).fold(0i32, |a, t| (a << 1) ^ t);
    acc ^ (TICKS << 16)
}

/// The timer guest never touches the UART.
pub fn timer_expected_tx() -> Vec<u8> {
    Vec::new()
}

/// All reactive example guests.
pub fn all_guests() -> Vec<ReactiveGuest> {
    vec![
        ReactiveGuest {
            name: "uart_echo",
            build: echo_build,
            spec: echo_spec,
            expected: echo_expected,
            expected_tx: echo_expected_tx,
        },
        ReactiveGuest {
            name: "timer_ticks",
            build: timer_build,
            spec: timer_spec,
            expected: timer_expected,
            expected_tx: timer_expected_tx,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_ir::interp::Interpreter;
    use tta_model::io::IoSystem;

    /// Every guest: verified IR, and the golden interpreter run under
    /// the guest's own spec matches the native expected checksum and
    /// transmit stream.
    #[test]
    fn guests_match_native_references_under_their_specs() {
        for g in all_guests() {
            let module = (g.build)();
            tta_ir::verify::verify_module(&module)
                .unwrap_or_else(|e| panic!("{}: verify failed: {e:?}", g.name));
            let mut io = IoSystem::new(&(g.spec)());
            let r = Interpreter::new(&module)
                .run_with_io(&[], &mut io)
                .unwrap_or_else(|e| panic!("{}: interp failed: {e}", g.name));
            assert_eq!(r.ret, Some((g.expected)()), "{}: checksum", g.name);
            assert_eq!(io.uart_tx(), (g.expected_tx)(), "{}: uart tx", g.name);
            assert!(io.irqs_delivered > 0, "{}: no interrupts delivered", g.name);
        }
    }

    #[test]
    fn guest_checksums_are_nontrivial_and_distinct() {
        let sums: Vec<i32> = all_guests().iter().map(|g| (g.expected)()).collect();
        for (g, s) in all_guests().iter().zip(&sums) {
            assert_ne!(*s, 0, "{} checksum is trivially zero", g.name);
        }
        let mut uniq = sums.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), sums.len(), "checksum collision between guests");
    }
}

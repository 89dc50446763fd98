//! The MMIO register map, pinned byte for byte.
//!
//! Every word of the first 256 bytes above `MMIO_BASE`, plus two
//! unmapped words further up, is loaded at two clocks, stored twice,
//! read back and polled on a fresh `IoSystem`. Sub-word and misaligned
//! accesses hit each register block (controller, UART, timer). Two
//! scripted runs then raise the UART's rx line and the armed timer's
//! line, so both devices' next events reach the execution window. The
//! golden records what each access shows: a value or a fault, the MMIO
//! load and store counts, the UART transmit log, the window and the
//! deliverable line.

use std::fmt::Write as _;

use tta_model::io::{
    IoSpec, IoSystem, IRQ_CTRL_ADDR, IRQ_EOI_ADDR, IRQ_STATUS_ADDR, MMIO_BASE, TIMER_COUNT_ADDR,
    TIMER_CTRL_ADDR, TIMER_PERIOD_ADDR, UART_RX_ADDR, UART_STATUS_ADDR, UART_TX_ADDR,
};
use tta_model::Opcode;

fn fault(e: &tta_model::mem::MemError) -> String {
    format!(
        "fault({} {:#x}/{} size={})",
        if e.store { "st" } else { "ld" },
        e.addr,
        e.width,
        e.size
    )
}

fn ld(io: &mut IoSystem, op: Opcode, addr: u32, now: u64) -> String {
    match io.load(op, addr, now) {
        Ok(v) => format!("{v}"),
        Err(e) => fault(&e),
    }
}

fn st(io: &mut IoSystem, op: Opcode, addr: u32, value: i32, now: u64) -> String {
    match io.store(op, addr, value, now) {
        Ok(()) => "ok".to_string(),
        Err(e) => fault(&e),
    }
}

fn window(io: &IoSystem, now: u64) -> String {
    match io.window(now) {
        u64::MAX => "max".to_string(),
        w => w.to_string(),
    }
}

fn tx(io: &IoSystem) -> String {
    let bytes: Vec<String> = io.uart_tx().iter().map(|b| format!("{b:02x}")).collect();
    format!("[{}]", bytes.join(" "))
}

/// One line per address: two loads, two stores, a read-back, a poll.
fn word_table(out: &mut String) {
    let spec = IoSpec {
        uart_rx: vec![(0, 0x41), (5, 0x42)],
        ..IoSpec::default()
    };
    let addrs = (MMIO_BASE..MMIO_BASE + 0x100)
        .step_by(4)
        .chain([MMIO_BASE + 0x1000, 0xFFFF_FFFC]);
    for addr in addrs {
        let mut io = IoSystem::new(&spec);
        let ld0 = ld(&mut io, Opcode::Ldw, addr, 0);
        let ld7 = ld(&mut io, Opcode::Ldw, addr, 7);
        let loads = io.mmio_loads;
        let st1 = st(&mut io, Opcode::Stw, addr, 6, 10);
        let st2 = st(&mut io, Opcode::Stw, addr, 0x1A5, 11);
        let back = ld(&mut io, Opcode::Ldw, addr, 12);
        io.poll(12);
        writeln!(
            out,
            "+{:#06x} ld0={ld0} ld7={ld7} loads={loads} st={st1},{st2} stores={} tx={} back={back} win={} irq={:?}",
            addr - MMIO_BASE,
            io.mmio_stores(),
            tx(&io),
            window(&io, 12),
            io.deliverable(),
        )
        .unwrap();
    }
}

/// Sub-word and misaligned accesses to each register block.
fn narrow_accesses(out: &mut String) {
    let loads = [
        Opcode::Ldh,
        Opcode::Ldhu,
        Opcode::Ldq,
        Opcode::Ldqu,
        Opcode::Ldw,
    ];
    let stores = [Opcode::Sth, Opcode::Stq, Opcode::Stw];
    for (name, base) in [
        ("ctrl", IRQ_CTRL_ADDR),
        ("uart", UART_STATUS_ADDR),
        ("timer", TIMER_CTRL_ADDR),
    ] {
        for off in [0u32, 1, 2, 3, 8, 9, 10, 11] {
            let addr = base + off;
            let mut io = IoSystem::new(&IoSpec {
                uart_rx: vec![(0, 0x41)],
                ..IoSpec::default()
            });
            let lds: Vec<String> = loads.iter().map(|&op| ld(&mut io, op, addr, 0)).collect();
            let sts: Vec<String> = stores
                .iter()
                .map(|&op| st(&mut io, op, addr, 0x5A, 0))
                .collect();
            writeln!(
                out,
                "{name}+{off} ld[h hu q qu w]={} st[h q w]={} loads={} stores={} tx={}",
                lds.join(","),
                sts.join(","),
                io.mmio_loads,
                io.mmio_stores(),
                tx(&io),
            )
            .unwrap();
        }
    }
}

/// Run a scripted guest for clocks `from..=to`: at each clock, apply
/// `step`'s accesses, poll, and serve any deliverable line with a
/// handler that reads the status, pops the UART and echoes the byte,
/// then rings EOI.
fn drive(
    out: &mut String,
    io: &mut IoSystem,
    from: u64,
    to: u64,
    mut step: impl FnMut(&mut IoSystem, u64) -> String,
) {
    for now in from..=to {
        let acts = step(io, now);
        io.poll(now);
        let win = window(io, now);
        let status = ld(io, Opcode::Ldw, IRQ_STATUS_ADDR, now);
        let count = ld(io, Opcode::Ldw, TIMER_COUNT_ADDR, now);
        let irq = io.deliverable();
        write!(
            out,
            "t={now:<2} {acts:<12} win={win:<3} status={status} count={count} irq={irq:?}"
        )
        .unwrap();
        if let Some(line) = irq {
            io.begin_delivery(line);
            let inside = window(io, now);
            let serving = ld(io, Opcode::Ldw, IRQ_STATUS_ADDR, now);
            let rx = ld(io, Opcode::Ldw, UART_RX_ADDR, now);
            let echo = st(io, Opcode::Stw, UART_TX_ADDR, rx.parse().unwrap_or(-1), now);
            let eoi = st(io, Opcode::Stw, IRQ_EOI_ADDR, 0, now);
            let took = io.take_eoi();
            if took {
                io.finish_handler();
            }
            write!(
                out,
                " | handler win={inside} status={serving} rx={rx} echo={echo} eoi={eoi} took={took} again={}",
                io.take_eoi()
            )
            .unwrap();
        }
        writeln!(
            out,
            " loads={} stores={} delivered={} tx={}",
            io.mmio_loads,
            io.mmio_stores(),
            io.irqs_delivered,
            tx(io)
        )
        .unwrap();
    }
}

/// UART bytes arriving with `uart_irq_on_rx` raise line 0.
fn uart_irq_run(out: &mut String) {
    let mut io = IoSystem::new(&IoSpec {
        uart_rx: vec![(9, 0x63), (3, 0x61), (9, 0x62), (14, 0x64)],
        uart_irq_on_rx: true,
        ..IoSpec::default()
    });
    writeln!(out, "idle win={}", window(&io, 0)).unwrap();
    drive(out, &mut io, 0, 16, |io, now| match now {
        1 => format!("ie={}", st(io, Opcode::Stw, IRQ_CTRL_ADDR, 1, now)),
        // Masked: the byte at 9 stays pending until IE returns.
        8 => format!("ie={}", st(io, Opcode::Stw, IRQ_CTRL_ADDR, 0, now)),
        11 => format!("ie={}", st(io, Opcode::Stw, IRQ_CTRL_ADDR, 1, now)),
        _ => String::new(),
    });
}

/// The guest arms the timer; it raises line 1 every period, storms at
/// period 1, and goes idle when disabled.
fn timer_irq_run(out: &mut String) {
    let mut io = IoSystem::new(&IoSpec::default());
    drive(out, &mut io, 0, 24, |io, now| match now {
        1 => format!("per={}", st(io, Opcode::Stw, TIMER_PERIOD_ADDR, 4, now)),
        2 => format!("en={}", st(io, Opcode::Stw, TIMER_CTRL_ADDR, 1, now)),
        3 => format!("ie={}", st(io, Opcode::Stw, IRQ_CTRL_ADDR, 1, now)),
        // Write-1-to-clear drops a line latched while masked.
        12 => format!("ie={}", st(io, Opcode::Stw, IRQ_CTRL_ADDR, 0, now)),
        15 => format!("w1c={}", st(io, Opcode::Stw, IRQ_STATUS_ADDR, 2, now)),
        16 => format!(
            "per={},ie={}",
            st(io, Opcode::Stw, TIMER_PERIOD_ADDR, 1, now),
            st(io, Opcode::Stw, IRQ_CTRL_ADDR, 1, now)
        ),
        20 => format!("en={}", st(io, Opcode::Stw, TIMER_CTRL_ADDR, 0, now)),
        _ => String::new(),
    });
}

#[test]
fn mmio_map_matches_golden() {
    let mut out = String::new();
    out.push_str("== words\n");
    word_table(&mut out);
    out.push_str("== narrow\n");
    narrow_accesses(&mut out);
    out.push_str("== uart irq\n");
    uart_irq_run(&mut out);
    out.push_str("== timer irq\n");
    timer_irq_run(&mut out);

    if out != GOLDEN {
        println!("{out}");
    }
    assert!(out == GOLDEN, "MMIO map drifted from the golden");
}

const GOLDEN: &str = r##"== words
+0x0000 ld0=0 ld7=0 loads=2 st=ok,ok stores=2 tx=[] back=1 win=max irq=None
+0x0004 ld0=0 ld7=0 loads=2 st=ok,ok stores=2 tx=[] back=0 win=max irq=None
+0x0008 ld0=0 ld7=0 loads=2 st=ok,ok stores=0 tx=[] back=0 win=max irq=None
+0x000c ld0=fault(ld 0xffff000c/4 size=0) ld7=fault(ld 0xffff000c/4 size=0) loads=2 st=fault(st 0xffff000c/4 size=0),fault(st 0xffff000c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff000c/4 size=0) win=max irq=None
+0x0010 ld0=fault(ld 0xffff0010/4 size=0) ld7=fault(ld 0xffff0010/4 size=0) loads=2 st=fault(st 0xffff0010/4 size=0),fault(st 0xffff0010/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0010/4 size=0) win=max irq=None
+0x0014 ld0=fault(ld 0xffff0014/4 size=0) ld7=fault(ld 0xffff0014/4 size=0) loads=2 st=fault(st 0xffff0014/4 size=0),fault(st 0xffff0014/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0014/4 size=0) win=max irq=None
+0x0018 ld0=fault(ld 0xffff0018/4 size=0) ld7=fault(ld 0xffff0018/4 size=0) loads=2 st=fault(st 0xffff0018/4 size=0),fault(st 0xffff0018/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0018/4 size=0) win=max irq=None
+0x001c ld0=fault(ld 0xffff001c/4 size=0) ld7=fault(ld 0xffff001c/4 size=0) loads=2 st=fault(st 0xffff001c/4 size=0),fault(st 0xffff001c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff001c/4 size=0) win=max irq=None
+0x0020 ld0=fault(ld 0xffff0020/4 size=0) ld7=fault(ld 0xffff0020/4 size=0) loads=2 st=fault(st 0xffff0020/4 size=0),fault(st 0xffff0020/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0020/4 size=0) win=max irq=None
+0x0024 ld0=fault(ld 0xffff0024/4 size=0) ld7=fault(ld 0xffff0024/4 size=0) loads=2 st=fault(st 0xffff0024/4 size=0),fault(st 0xffff0024/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0024/4 size=0) win=max irq=None
+0x0028 ld0=fault(ld 0xffff0028/4 size=0) ld7=fault(ld 0xffff0028/4 size=0) loads=2 st=fault(st 0xffff0028/4 size=0),fault(st 0xffff0028/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0028/4 size=0) win=max irq=None
+0x002c ld0=fault(ld 0xffff002c/4 size=0) ld7=fault(ld 0xffff002c/4 size=0) loads=2 st=fault(st 0xffff002c/4 size=0),fault(st 0xffff002c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff002c/4 size=0) win=max irq=None
+0x0030 ld0=fault(ld 0xffff0030/4 size=0) ld7=fault(ld 0xffff0030/4 size=0) loads=2 st=fault(st 0xffff0030/4 size=0),fault(st 0xffff0030/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0030/4 size=0) win=max irq=None
+0x0034 ld0=fault(ld 0xffff0034/4 size=0) ld7=fault(ld 0xffff0034/4 size=0) loads=2 st=fault(st 0xffff0034/4 size=0),fault(st 0xffff0034/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0034/4 size=0) win=max irq=None
+0x0038 ld0=fault(ld 0xffff0038/4 size=0) ld7=fault(ld 0xffff0038/4 size=0) loads=2 st=fault(st 0xffff0038/4 size=0),fault(st 0xffff0038/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0038/4 size=0) win=max irq=None
+0x003c ld0=fault(ld 0xffff003c/4 size=0) ld7=fault(ld 0xffff003c/4 size=0) loads=2 st=fault(st 0xffff003c/4 size=0),fault(st 0xffff003c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff003c/4 size=0) win=max irq=None
+0x0040 ld0=3 ld7=3 loads=2 st=ok,ok stores=2 tx=[] back=3 win=max irq=None
+0x0044 ld0=65 ld7=66 loads=2 st=ok,ok stores=2 tx=[] back=-1 win=max irq=None
+0x0048 ld0=0 ld7=0 loads=2 st=ok,ok stores=2 tx=[06 a5] back=0 win=max irq=None
+0x004c ld0=fault(ld 0xffff004c/4 size=0) ld7=fault(ld 0xffff004c/4 size=0) loads=2 st=fault(st 0xffff004c/4 size=0),fault(st 0xffff004c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff004c/4 size=0) win=max irq=None
+0x0050 ld0=fault(ld 0xffff0050/4 size=0) ld7=fault(ld 0xffff0050/4 size=0) loads=2 st=fault(st 0xffff0050/4 size=0),fault(st 0xffff0050/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0050/4 size=0) win=max irq=None
+0x0054 ld0=fault(ld 0xffff0054/4 size=0) ld7=fault(ld 0xffff0054/4 size=0) loads=2 st=fault(st 0xffff0054/4 size=0),fault(st 0xffff0054/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0054/4 size=0) win=max irq=None
+0x0058 ld0=fault(ld 0xffff0058/4 size=0) ld7=fault(ld 0xffff0058/4 size=0) loads=2 st=fault(st 0xffff0058/4 size=0),fault(st 0xffff0058/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0058/4 size=0) win=max irq=None
+0x005c ld0=fault(ld 0xffff005c/4 size=0) ld7=fault(ld 0xffff005c/4 size=0) loads=2 st=fault(st 0xffff005c/4 size=0),fault(st 0xffff005c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff005c/4 size=0) win=max irq=None
+0x0060 ld0=fault(ld 0xffff0060/4 size=0) ld7=fault(ld 0xffff0060/4 size=0) loads=2 st=fault(st 0xffff0060/4 size=0),fault(st 0xffff0060/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0060/4 size=0) win=max irq=None
+0x0064 ld0=fault(ld 0xffff0064/4 size=0) ld7=fault(ld 0xffff0064/4 size=0) loads=2 st=fault(st 0xffff0064/4 size=0),fault(st 0xffff0064/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0064/4 size=0) win=max irq=None
+0x0068 ld0=fault(ld 0xffff0068/4 size=0) ld7=fault(ld 0xffff0068/4 size=0) loads=2 st=fault(st 0xffff0068/4 size=0),fault(st 0xffff0068/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0068/4 size=0) win=max irq=None
+0x006c ld0=fault(ld 0xffff006c/4 size=0) ld7=fault(ld 0xffff006c/4 size=0) loads=2 st=fault(st 0xffff006c/4 size=0),fault(st 0xffff006c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff006c/4 size=0) win=max irq=None
+0x0070 ld0=fault(ld 0xffff0070/4 size=0) ld7=fault(ld 0xffff0070/4 size=0) loads=2 st=fault(st 0xffff0070/4 size=0),fault(st 0xffff0070/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0070/4 size=0) win=max irq=None
+0x0074 ld0=fault(ld 0xffff0074/4 size=0) ld7=fault(ld 0xffff0074/4 size=0) loads=2 st=fault(st 0xffff0074/4 size=0),fault(st 0xffff0074/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0074/4 size=0) win=max irq=None
+0x0078 ld0=fault(ld 0xffff0078/4 size=0) ld7=fault(ld 0xffff0078/4 size=0) loads=2 st=fault(st 0xffff0078/4 size=0),fault(st 0xffff0078/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0078/4 size=0) win=max irq=None
+0x007c ld0=fault(ld 0xffff007c/4 size=0) ld7=fault(ld 0xffff007c/4 size=0) loads=2 st=fault(st 0xffff007c/4 size=0),fault(st 0xffff007c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff007c/4 size=0) win=max irq=None
+0x0080 ld0=0 ld7=0 loads=2 st=ok,ok stores=2 tx=[] back=1 win=max irq=None
+0x0084 ld0=0 ld7=0 loads=2 st=ok,ok stores=2 tx=[] back=421 win=max irq=None
+0x0088 ld0=-1 ld7=-1 loads=2 st=ok,ok stores=2 tx=[] back=-1 win=max irq=None
+0x008c ld0=fault(ld 0xffff008c/4 size=0) ld7=fault(ld 0xffff008c/4 size=0) loads=2 st=fault(st 0xffff008c/4 size=0),fault(st 0xffff008c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff008c/4 size=0) win=max irq=None
+0x0090 ld0=fault(ld 0xffff0090/4 size=0) ld7=fault(ld 0xffff0090/4 size=0) loads=2 st=fault(st 0xffff0090/4 size=0),fault(st 0xffff0090/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0090/4 size=0) win=max irq=None
+0x0094 ld0=fault(ld 0xffff0094/4 size=0) ld7=fault(ld 0xffff0094/4 size=0) loads=2 st=fault(st 0xffff0094/4 size=0),fault(st 0xffff0094/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0094/4 size=0) win=max irq=None
+0x0098 ld0=fault(ld 0xffff0098/4 size=0) ld7=fault(ld 0xffff0098/4 size=0) loads=2 st=fault(st 0xffff0098/4 size=0),fault(st 0xffff0098/4 size=0) stores=0 tx=[] back=fault(ld 0xffff0098/4 size=0) win=max irq=None
+0x009c ld0=fault(ld 0xffff009c/4 size=0) ld7=fault(ld 0xffff009c/4 size=0) loads=2 st=fault(st 0xffff009c/4 size=0),fault(st 0xffff009c/4 size=0) stores=0 tx=[] back=fault(ld 0xffff009c/4 size=0) win=max irq=None
+0x00a0 ld0=fault(ld 0xffff00a0/4 size=0) ld7=fault(ld 0xffff00a0/4 size=0) loads=2 st=fault(st 0xffff00a0/4 size=0),fault(st 0xffff00a0/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00a0/4 size=0) win=max irq=None
+0x00a4 ld0=fault(ld 0xffff00a4/4 size=0) ld7=fault(ld 0xffff00a4/4 size=0) loads=2 st=fault(st 0xffff00a4/4 size=0),fault(st 0xffff00a4/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00a4/4 size=0) win=max irq=None
+0x00a8 ld0=fault(ld 0xffff00a8/4 size=0) ld7=fault(ld 0xffff00a8/4 size=0) loads=2 st=fault(st 0xffff00a8/4 size=0),fault(st 0xffff00a8/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00a8/4 size=0) win=max irq=None
+0x00ac ld0=fault(ld 0xffff00ac/4 size=0) ld7=fault(ld 0xffff00ac/4 size=0) loads=2 st=fault(st 0xffff00ac/4 size=0),fault(st 0xffff00ac/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00ac/4 size=0) win=max irq=None
+0x00b0 ld0=fault(ld 0xffff00b0/4 size=0) ld7=fault(ld 0xffff00b0/4 size=0) loads=2 st=fault(st 0xffff00b0/4 size=0),fault(st 0xffff00b0/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00b0/4 size=0) win=max irq=None
+0x00b4 ld0=fault(ld 0xffff00b4/4 size=0) ld7=fault(ld 0xffff00b4/4 size=0) loads=2 st=fault(st 0xffff00b4/4 size=0),fault(st 0xffff00b4/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00b4/4 size=0) win=max irq=None
+0x00b8 ld0=fault(ld 0xffff00b8/4 size=0) ld7=fault(ld 0xffff00b8/4 size=0) loads=2 st=fault(st 0xffff00b8/4 size=0),fault(st 0xffff00b8/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00b8/4 size=0) win=max irq=None
+0x00bc ld0=fault(ld 0xffff00bc/4 size=0) ld7=fault(ld 0xffff00bc/4 size=0) loads=2 st=fault(st 0xffff00bc/4 size=0),fault(st 0xffff00bc/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00bc/4 size=0) win=max irq=None
+0x00c0 ld0=fault(ld 0xffff00c0/4 size=0) ld7=fault(ld 0xffff00c0/4 size=0) loads=2 st=fault(st 0xffff00c0/4 size=0),fault(st 0xffff00c0/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00c0/4 size=0) win=max irq=None
+0x00c4 ld0=fault(ld 0xffff00c4/4 size=0) ld7=fault(ld 0xffff00c4/4 size=0) loads=2 st=fault(st 0xffff00c4/4 size=0),fault(st 0xffff00c4/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00c4/4 size=0) win=max irq=None
+0x00c8 ld0=fault(ld 0xffff00c8/4 size=0) ld7=fault(ld 0xffff00c8/4 size=0) loads=2 st=fault(st 0xffff00c8/4 size=0),fault(st 0xffff00c8/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00c8/4 size=0) win=max irq=None
+0x00cc ld0=fault(ld 0xffff00cc/4 size=0) ld7=fault(ld 0xffff00cc/4 size=0) loads=2 st=fault(st 0xffff00cc/4 size=0),fault(st 0xffff00cc/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00cc/4 size=0) win=max irq=None
+0x00d0 ld0=fault(ld 0xffff00d0/4 size=0) ld7=fault(ld 0xffff00d0/4 size=0) loads=2 st=fault(st 0xffff00d0/4 size=0),fault(st 0xffff00d0/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00d0/4 size=0) win=max irq=None
+0x00d4 ld0=fault(ld 0xffff00d4/4 size=0) ld7=fault(ld 0xffff00d4/4 size=0) loads=2 st=fault(st 0xffff00d4/4 size=0),fault(st 0xffff00d4/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00d4/4 size=0) win=max irq=None
+0x00d8 ld0=fault(ld 0xffff00d8/4 size=0) ld7=fault(ld 0xffff00d8/4 size=0) loads=2 st=fault(st 0xffff00d8/4 size=0),fault(st 0xffff00d8/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00d8/4 size=0) win=max irq=None
+0x00dc ld0=fault(ld 0xffff00dc/4 size=0) ld7=fault(ld 0xffff00dc/4 size=0) loads=2 st=fault(st 0xffff00dc/4 size=0),fault(st 0xffff00dc/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00dc/4 size=0) win=max irq=None
+0x00e0 ld0=fault(ld 0xffff00e0/4 size=0) ld7=fault(ld 0xffff00e0/4 size=0) loads=2 st=fault(st 0xffff00e0/4 size=0),fault(st 0xffff00e0/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00e0/4 size=0) win=max irq=None
+0x00e4 ld0=fault(ld 0xffff00e4/4 size=0) ld7=fault(ld 0xffff00e4/4 size=0) loads=2 st=fault(st 0xffff00e4/4 size=0),fault(st 0xffff00e4/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00e4/4 size=0) win=max irq=None
+0x00e8 ld0=fault(ld 0xffff00e8/4 size=0) ld7=fault(ld 0xffff00e8/4 size=0) loads=2 st=fault(st 0xffff00e8/4 size=0),fault(st 0xffff00e8/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00e8/4 size=0) win=max irq=None
+0x00ec ld0=fault(ld 0xffff00ec/4 size=0) ld7=fault(ld 0xffff00ec/4 size=0) loads=2 st=fault(st 0xffff00ec/4 size=0),fault(st 0xffff00ec/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00ec/4 size=0) win=max irq=None
+0x00f0 ld0=fault(ld 0xffff00f0/4 size=0) ld7=fault(ld 0xffff00f0/4 size=0) loads=2 st=fault(st 0xffff00f0/4 size=0),fault(st 0xffff00f0/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00f0/4 size=0) win=max irq=None
+0x00f4 ld0=fault(ld 0xffff00f4/4 size=0) ld7=fault(ld 0xffff00f4/4 size=0) loads=2 st=fault(st 0xffff00f4/4 size=0),fault(st 0xffff00f4/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00f4/4 size=0) win=max irq=None
+0x00f8 ld0=fault(ld 0xffff00f8/4 size=0) ld7=fault(ld 0xffff00f8/4 size=0) loads=2 st=fault(st 0xffff00f8/4 size=0),fault(st 0xffff00f8/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00f8/4 size=0) win=max irq=None
+0x00fc ld0=fault(ld 0xffff00fc/4 size=0) ld7=fault(ld 0xffff00fc/4 size=0) loads=2 st=fault(st 0xffff00fc/4 size=0),fault(st 0xffff00fc/4 size=0) stores=0 tx=[] back=fault(ld 0xffff00fc/4 size=0) win=max irq=None
+0x1000 ld0=fault(ld 0xffff1000/4 size=0) ld7=fault(ld 0xffff1000/4 size=0) loads=2 st=fault(st 0xffff1000/4 size=0),fault(st 0xffff1000/4 size=0) stores=0 tx=[] back=fault(ld 0xffff1000/4 size=0) win=max irq=None
+0xfffc ld0=fault(ld 0xfffffffc/4 size=0) ld7=fault(ld 0xfffffffc/4 size=0) loads=2 st=fault(st 0xfffffffc/4 size=0),fault(st 0xfffffffc/4 size=0) stores=0 tx=[] back=fault(ld 0xfffffffc/4 size=0) win=max irq=None
== narrow
ctrl+0 ld[h hu q qu w]=fault(ld 0xffff0000/2 size=0),fault(ld 0xffff0000/2 size=0),fault(ld 0xffff0000/1 size=0),fault(ld 0xffff0000/1 size=0),0 st[h q w]=fault(st 0xffff0000/2 size=0),fault(st 0xffff0000/1 size=0),ok loads=1 stores=1 tx=[]
ctrl+1 ld[h hu q qu w]=fault(ld 0xffff0001/2 size=0),fault(ld 0xffff0001/2 size=0),fault(ld 0xffff0001/1 size=0),fault(ld 0xffff0001/1 size=0),fault(ld 0xffff0001/4 size=0) st[h q w]=fault(st 0xffff0001/2 size=0),fault(st 0xffff0001/1 size=0),fault(st 0xffff0001/4 size=0) loads=0 stores=0 tx=[]
ctrl+2 ld[h hu q qu w]=fault(ld 0xffff0002/2 size=0),fault(ld 0xffff0002/2 size=0),fault(ld 0xffff0002/1 size=0),fault(ld 0xffff0002/1 size=0),fault(ld 0xffff0002/4 size=0) st[h q w]=fault(st 0xffff0002/2 size=0),fault(st 0xffff0002/1 size=0),fault(st 0xffff0002/4 size=0) loads=0 stores=0 tx=[]
ctrl+3 ld[h hu q qu w]=fault(ld 0xffff0003/2 size=0),fault(ld 0xffff0003/2 size=0),fault(ld 0xffff0003/1 size=0),fault(ld 0xffff0003/1 size=0),fault(ld 0xffff0003/4 size=0) st[h q w]=fault(st 0xffff0003/2 size=0),fault(st 0xffff0003/1 size=0),fault(st 0xffff0003/4 size=0) loads=0 stores=0 tx=[]
ctrl+8 ld[h hu q qu w]=fault(ld 0xffff0008/2 size=0),fault(ld 0xffff0008/2 size=0),fault(ld 0xffff0008/1 size=0),fault(ld 0xffff0008/1 size=0),0 st[h q w]=fault(st 0xffff0008/2 size=0),fault(st 0xffff0008/1 size=0),ok loads=1 stores=0 tx=[]
ctrl+9 ld[h hu q qu w]=fault(ld 0xffff0009/2 size=0),fault(ld 0xffff0009/2 size=0),fault(ld 0xffff0009/1 size=0),fault(ld 0xffff0009/1 size=0),fault(ld 0xffff0009/4 size=0) st[h q w]=fault(st 0xffff0009/2 size=0),fault(st 0xffff0009/1 size=0),fault(st 0xffff0009/4 size=0) loads=0 stores=0 tx=[]
ctrl+10 ld[h hu q qu w]=fault(ld 0xffff000a/2 size=0),fault(ld 0xffff000a/2 size=0),fault(ld 0xffff000a/1 size=0),fault(ld 0xffff000a/1 size=0),fault(ld 0xffff000a/4 size=0) st[h q w]=fault(st 0xffff000a/2 size=0),fault(st 0xffff000a/1 size=0),fault(st 0xffff000a/4 size=0) loads=0 stores=0 tx=[]
ctrl+11 ld[h hu q qu w]=fault(ld 0xffff000b/2 size=0),fault(ld 0xffff000b/2 size=0),fault(ld 0xffff000b/1 size=0),fault(ld 0xffff000b/1 size=0),fault(ld 0xffff000b/4 size=0) st[h q w]=fault(st 0xffff000b/2 size=0),fault(st 0xffff000b/1 size=0),fault(st 0xffff000b/4 size=0) loads=0 stores=0 tx=[]
uart+0 ld[h hu q qu w]=fault(ld 0xffff0040/2 size=0),fault(ld 0xffff0040/2 size=0),fault(ld 0xffff0040/1 size=0),fault(ld 0xffff0040/1 size=0),3 st[h q w]=fault(st 0xffff0040/2 size=0),fault(st 0xffff0040/1 size=0),ok loads=1 stores=1 tx=[]
uart+1 ld[h hu q qu w]=fault(ld 0xffff0041/2 size=0),fault(ld 0xffff0041/2 size=0),fault(ld 0xffff0041/1 size=0),fault(ld 0xffff0041/1 size=0),fault(ld 0xffff0041/4 size=0) st[h q w]=fault(st 0xffff0041/2 size=0),fault(st 0xffff0041/1 size=0),fault(st 0xffff0041/4 size=0) loads=0 stores=0 tx=[]
uart+2 ld[h hu q qu w]=fault(ld 0xffff0042/2 size=0),fault(ld 0xffff0042/2 size=0),fault(ld 0xffff0042/1 size=0),fault(ld 0xffff0042/1 size=0),fault(ld 0xffff0042/4 size=0) st[h q w]=fault(st 0xffff0042/2 size=0),fault(st 0xffff0042/1 size=0),fault(st 0xffff0042/4 size=0) loads=0 stores=0 tx=[]
uart+3 ld[h hu q qu w]=fault(ld 0xffff0043/2 size=0),fault(ld 0xffff0043/2 size=0),fault(ld 0xffff0043/1 size=0),fault(ld 0xffff0043/1 size=0),fault(ld 0xffff0043/4 size=0) st[h q w]=fault(st 0xffff0043/2 size=0),fault(st 0xffff0043/1 size=0),fault(st 0xffff0043/4 size=0) loads=0 stores=0 tx=[]
uart+8 ld[h hu q qu w]=fault(ld 0xffff0048/2 size=0),fault(ld 0xffff0048/2 size=0),fault(ld 0xffff0048/1 size=0),fault(ld 0xffff0048/1 size=0),0 st[h q w]=fault(st 0xffff0048/2 size=0),fault(st 0xffff0048/1 size=0),ok loads=1 stores=1 tx=[5a]
uart+9 ld[h hu q qu w]=fault(ld 0xffff0049/2 size=0),fault(ld 0xffff0049/2 size=0),fault(ld 0xffff0049/1 size=0),fault(ld 0xffff0049/1 size=0),fault(ld 0xffff0049/4 size=0) st[h q w]=fault(st 0xffff0049/2 size=0),fault(st 0xffff0049/1 size=0),fault(st 0xffff0049/4 size=0) loads=0 stores=0 tx=[]
uart+10 ld[h hu q qu w]=fault(ld 0xffff004a/2 size=0),fault(ld 0xffff004a/2 size=0),fault(ld 0xffff004a/1 size=0),fault(ld 0xffff004a/1 size=0),fault(ld 0xffff004a/4 size=0) st[h q w]=fault(st 0xffff004a/2 size=0),fault(st 0xffff004a/1 size=0),fault(st 0xffff004a/4 size=0) loads=0 stores=0 tx=[]
uart+11 ld[h hu q qu w]=fault(ld 0xffff004b/2 size=0),fault(ld 0xffff004b/2 size=0),fault(ld 0xffff004b/1 size=0),fault(ld 0xffff004b/1 size=0),fault(ld 0xffff004b/4 size=0) st[h q w]=fault(st 0xffff004b/2 size=0),fault(st 0xffff004b/1 size=0),fault(st 0xffff004b/4 size=0) loads=0 stores=0 tx=[]
timer+0 ld[h hu q qu w]=fault(ld 0xffff0080/2 size=0),fault(ld 0xffff0080/2 size=0),fault(ld 0xffff0080/1 size=0),fault(ld 0xffff0080/1 size=0),0 st[h q w]=fault(st 0xffff0080/2 size=0),fault(st 0xffff0080/1 size=0),ok loads=1 stores=1 tx=[]
timer+1 ld[h hu q qu w]=fault(ld 0xffff0081/2 size=0),fault(ld 0xffff0081/2 size=0),fault(ld 0xffff0081/1 size=0),fault(ld 0xffff0081/1 size=0),fault(ld 0xffff0081/4 size=0) st[h q w]=fault(st 0xffff0081/2 size=0),fault(st 0xffff0081/1 size=0),fault(st 0xffff0081/4 size=0) loads=0 stores=0 tx=[]
timer+2 ld[h hu q qu w]=fault(ld 0xffff0082/2 size=0),fault(ld 0xffff0082/2 size=0),fault(ld 0xffff0082/1 size=0),fault(ld 0xffff0082/1 size=0),fault(ld 0xffff0082/4 size=0) st[h q w]=fault(st 0xffff0082/2 size=0),fault(st 0xffff0082/1 size=0),fault(st 0xffff0082/4 size=0) loads=0 stores=0 tx=[]
timer+3 ld[h hu q qu w]=fault(ld 0xffff0083/2 size=0),fault(ld 0xffff0083/2 size=0),fault(ld 0xffff0083/1 size=0),fault(ld 0xffff0083/1 size=0),fault(ld 0xffff0083/4 size=0) st[h q w]=fault(st 0xffff0083/2 size=0),fault(st 0xffff0083/1 size=0),fault(st 0xffff0083/4 size=0) loads=0 stores=0 tx=[]
timer+8 ld[h hu q qu w]=fault(ld 0xffff0088/2 size=0),fault(ld 0xffff0088/2 size=0),fault(ld 0xffff0088/1 size=0),fault(ld 0xffff0088/1 size=0),-1 st[h q w]=fault(st 0xffff0088/2 size=0),fault(st 0xffff0088/1 size=0),ok loads=1 stores=1 tx=[]
timer+9 ld[h hu q qu w]=fault(ld 0xffff0089/2 size=0),fault(ld 0xffff0089/2 size=0),fault(ld 0xffff0089/1 size=0),fault(ld 0xffff0089/1 size=0),fault(ld 0xffff0089/4 size=0) st[h q w]=fault(st 0xffff0089/2 size=0),fault(st 0xffff0089/1 size=0),fault(st 0xffff0089/4 size=0) loads=0 stores=0 tx=[]
timer+10 ld[h hu q qu w]=fault(ld 0xffff008a/2 size=0),fault(ld 0xffff008a/2 size=0),fault(ld 0xffff008a/1 size=0),fault(ld 0xffff008a/1 size=0),fault(ld 0xffff008a/4 size=0) st[h q w]=fault(st 0xffff008a/2 size=0),fault(st 0xffff008a/1 size=0),fault(st 0xffff008a/4 size=0) loads=0 stores=0 tx=[]
timer+11 ld[h hu q qu w]=fault(ld 0xffff008b/2 size=0),fault(ld 0xffff008b/2 size=0),fault(ld 0xffff008b/1 size=0),fault(ld 0xffff008b/1 size=0),fault(ld 0xffff008b/4 size=0) st[h q w]=fault(st 0xffff008b/2 size=0),fault(st 0xffff008b/1 size=0),fault(st 0xffff008b/4 size=0) loads=0 stores=0 tx=[]
== uart irq
idle win=3
t=0               win=3   status=0 count=-1 irq=None loads=2 stores=0 delivered=0 tx=[]
t=1  ie=ok        win=2   status=0 count=-1 irq=None loads=4 stores=1 delivered=0 tx=[]
t=2               win=1   status=0 count=-1 irq=None loads=6 stores=1 delivered=0 tx=[]
t=3               win=1   status=1 count=-1 irq=Some(0) | handler win=1 status=1 rx=97 echo=ok eoi=ok took=true again=false loads=10 stores=2 delivered=1 tx=[61]
t=4               win=5   status=0 count=-1 irq=None loads=12 stores=2 delivered=1 tx=[61]
t=5               win=4   status=0 count=-1 irq=None loads=14 stores=2 delivered=1 tx=[61]
t=6               win=3   status=0 count=-1 irq=None loads=16 stores=2 delivered=1 tx=[61]
t=7               win=2   status=0 count=-1 irq=None loads=18 stores=2 delivered=1 tx=[61]
t=8  ie=ok        win=1   status=0 count=-1 irq=None loads=20 stores=3 delivered=1 tx=[61]
t=9               win=1   status=1 count=-1 irq=None loads=22 stores=3 delivered=1 tx=[61]
t=10              win=1   status=1 count=-1 irq=None loads=24 stores=3 delivered=1 tx=[61]
t=11 ie=ok        win=1   status=1 count=-1 irq=Some(0) | handler win=1 status=1 rx=99 echo=ok eoi=ok took=true again=false loads=28 stores=5 delivered=2 tx=[61 63]
t=12              win=2   status=0 count=-1 irq=None loads=30 stores=5 delivered=2 tx=[61 63]
t=13              win=1   status=0 count=-1 irq=None loads=32 stores=5 delivered=2 tx=[61 63]
t=14              win=1   status=1 count=-1 irq=Some(0) | handler win=1 status=1 rx=98 echo=ok eoi=ok took=true again=false loads=36 stores=6 delivered=3 tx=[61 63 62]
t=15              win=max status=0 count=-1 irq=None loads=38 stores=6 delivered=3 tx=[61 63 62]
t=16              win=max status=0 count=-1 irq=None loads=40 stores=6 delivered=3 tx=[61 63 62]
== timer irq
t=0               win=max status=0 count=-1 irq=None loads=2 stores=0 delivered=0 tx=[]
t=1  per=ok       win=max status=0 count=-1 irq=None loads=4 stores=1 delivered=0 tx=[]
t=2  en=ok        win=4   status=0 count=4 irq=None loads=6 stores=2 delivered=0 tx=[]
t=3  ie=ok        win=3   status=0 count=3 irq=None loads=8 stores=3 delivered=0 tx=[]
t=4               win=2   status=0 count=2 irq=None loads=10 stores=3 delivered=0 tx=[]
t=5               win=1   status=0 count=1 irq=None loads=12 stores=3 delivered=0 tx=[]
t=6               win=1   status=2 count=4 irq=Some(1) | handler win=1 status=2 rx=-1 echo=ok eoi=ok took=true again=false loads=16 stores=4 delivered=1 tx=[ff]
t=7               win=3   status=0 count=3 irq=None loads=18 stores=4 delivered=1 tx=[ff]
t=8               win=2   status=0 count=2 irq=None loads=20 stores=4 delivered=1 tx=[ff]
t=9               win=1   status=0 count=1 irq=None loads=22 stores=4 delivered=1 tx=[ff]
t=10              win=1   status=2 count=4 irq=Some(1) | handler win=1 status=2 rx=-1 echo=ok eoi=ok took=true again=false loads=26 stores=5 delivered=2 tx=[ff ff]
t=11              win=3   status=0 count=3 irq=None loads=28 stores=5 delivered=2 tx=[ff ff]
t=12 ie=ok        win=2   status=0 count=2 irq=None loads=30 stores=6 delivered=2 tx=[ff ff]
t=13              win=1   status=0 count=1 irq=None loads=32 stores=6 delivered=2 tx=[ff ff]
t=14              win=1   status=2 count=4 irq=None loads=34 stores=6 delivered=2 tx=[ff ff]
t=15 w1c=ok       win=3   status=0 count=3 irq=None loads=36 stores=7 delivered=2 tx=[ff ff]
t=16 per=ok,ie=ok win=1   status=0 count=1 irq=None loads=38 stores=9 delivered=2 tx=[ff ff]
t=17              win=1   status=2 count=1 irq=Some(1) | handler win=1 status=2 rx=-1 echo=ok eoi=ok took=true again=false loads=42 stores=10 delivered=3 tx=[ff ff ff]
t=18              win=1   status=2 count=1 irq=Some(1) | handler win=1 status=2 rx=-1 echo=ok eoi=ok took=true again=false loads=46 stores=11 delivered=4 tx=[ff ff ff ff]
t=19              win=1   status=2 count=1 irq=Some(1) | handler win=1 status=2 rx=-1 echo=ok eoi=ok took=true again=false loads=50 stores=12 delivered=5 tx=[ff ff ff ff ff]
t=20 en=ok        win=max status=0 count=-1 irq=None loads=52 stores=13 delivered=5 tx=[ff ff ff ff ff]
t=21              win=max status=0 count=-1 irq=None loads=54 stores=13 delivered=5 tx=[ff ff ff ff ff]
t=22              win=max status=0 count=-1 irq=None loads=56 stores=13 delivered=5 tx=[ff ff ff ff ff]
t=23              win=max status=0 count=-1 irq=None loads=58 stores=13 delivered=5 tx=[ff ff ff ff ff]
t=24              win=max status=0 count=-1 irq=None loads=60 stores=13 delivered=5 tx=[ff ff ff ff ff]
"##;

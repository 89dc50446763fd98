//! Per-probe cost of the obs registries.
//!
//! Interns 100 counter names, 64 histogram names and one span, then times
//! `counter::add` on the 100th counter (a full registry scan),
//! `hist::record` on the 64th histogram and one span enter/exit. Each
//! figure is the median of 9 timed batches of 200 000 probes, in
//! nanoseconds per probe; one line per round.
//!
//! ```text
//! cargo run --release -p tta-obs --example probe_cost -- [rounds]
//! ```

use std::hint::black_box;
use std::time::Instant;

use tta_obs::{counter, hist, span};

const BATCH: u32 = 200_000;

fn per_probe_ns(mut probe: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                probe();
            }
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn names(kind: &str, n: usize) -> Vec<&'static str> {
    (0..n)
        .map(|i| &*Box::leak(format!("probe.{kind}.{i}").into_boxed_str()))
        .collect()
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map_or(1, |a| a.parse().expect("rounds must be a number"));
    let counters = names("counter", 100);
    let hists = names("hist", 64);
    for &c in &counters {
        counter::add(c, 1);
    }
    for &h in &hists {
        hist::record(h, 1);
    }
    let (last_counter, last_hist) = (counters[99], hists[63]);
    for round in 0..rounds {
        let c = per_probe_ns(|| counter::add(black_box(last_counter), 1));
        let h = per_probe_ns(|| hist::record(black_box(last_hist), black_box(1234)));
        let s = per_probe_ns(|| drop(span::span(black_box("probe.span"))));
        println!("round {round}: counter {c:.1} ns, hist {h:.1} ns, span {s:.1} ns");
    }
}

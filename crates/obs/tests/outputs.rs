//! Every text `tta-obs` renders, pinned byte for byte.
//!
//! One test, so this binary's process-wide tables hold exactly what the
//! script below records (no other test interns names into them). The
//! script covers what the registries promise: counters added out of name
//! order, negative and overwritten gauges, histogram samples at 0, 1, the
//! log₂ bucket edges and `u64::MAX` (twice, so the sum saturates), nested
//! spans, workers under `span_under` and `attach`, `reset_prefix`, the
//! `TTA_OBS=0` path, `reset`, and overflow of every table at its
//! capacity. Span wall times are the one nondeterministic output, so
//! spans are compared by path and count only.

use std::fmt::Write as _;

use tta_obs::hist::HistStat;
use tta_obs::json::Json;
use tta_obs::{counter, hist, prom, report, span};

/// The run report with every span's `total_s` removed.
fn report_without_times() -> String {
    let mut r = report::to_json();
    if let Json::Obj(fields) = &mut r {
        for (key, value) in fields.iter_mut() {
            if let (true, Json::Arr(spans)) = (key == "spans", value) {
                for s in spans {
                    if let Json::Obj(f) = s {
                        f.retain(|(k, _)| k != "total_s");
                    }
                }
            }
        }
    }
    r.to_pretty()
}

fn spans(out: &mut String) {
    for s in span::snapshot() {
        writeln!(out, "span {} x{}", s.path, s.count).unwrap();
    }
    for path in [
        "outer",
        "outer/inner",
        "outer/inner/leaf",
        "outer/worker",
        "absent",
    ] {
        writeln!(out, "stat {path} {:?}", span::stat(path).map(|(_, n)| n)).unwrap();
    }
}

fn dropped(out: &mut String) {
    writeln!(
        out,
        "dropped spans={} counters={} gauges={} hists={}",
        span::dropped(),
        counter::dropped(),
        counter::dropped_gauges(),
        hist::dropped()
    )
    .unwrap();
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

#[test]
fn every_rendered_output_matches_the_golden() {
    let mut out = String::new();

    counter::add("zeta.count", 3);
    counter::add("alpha.count", 1);
    counter::add("mid.count", 0);
    counter::add("alpha.count", 41);
    counter::set_gauge("queue.depth", 7);
    counter::set_gauge("queue.depth", -3);
    counter::set_gauge("alpha.gauge", i64::MIN);
    for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX, u64::MAX] {
        hist::record("lat.edges_us", v);
    }
    hist::record("lat.small_us", 5);
    hist::record("lat.small_us", 6);
    {
        let _outer = span::span("outer");
        {
            let _inner = span::span("inner");
            let _leaf = span::span("leaf");
        }
        {
            let _inner = span::span("inner");
        }
        let here = span::current();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _w = span::span_under(here, "worker");
            });
            s.spawn(move || {
                let _ctx = span::attach(here);
                let _w = span::span("worker");
            });
        });
    }
    assert_eq!(span::current(), span::SpanHandle::ROOT);
    {
        let _keep = span::span("kept");
    }

    tta_obs::set_enabled(false);
    counter::add("alpha.count", 1000);
    counter::add("never.count", 1);
    counter::set_gauge("queue.depth", 99);
    hist::record("lat.small_us", 1);
    {
        let _off = span::span("disabled");
    }
    tta_obs::set_enabled(true);

    writeln!(out, "== recorded").unwrap();
    writeln!(
        out,
        "get alpha.count={:?} never.count={:?} queue.depth={:?} absent.gauge={:?}",
        counter::get("alpha.count"),
        counter::get("never.count"),
        counter::get_gauge("queue.depth"),
        counter::get_gauge("absent.gauge")
    )
    .unwrap();
    let small = hist::get("lat.small_us").unwrap();
    writeln!(
        out,
        "hist lat.small_us count={} sum={} p50={:?} absent={:?}",
        small.count,
        small.sum,
        small.quantile(0.5),
        hist::get("absent")
    )
    .unwrap();
    spans(&mut out);
    dropped(&mut out);
    out.push_str(&prom::render());
    out.push_str(&report_without_times());
    out.push('\n');

    writeln!(out, "== labeled family").unwrap();
    let mut fast = HistStat::new("ignored");
    fast.observe(3);
    fast.observe(5);
    let mut slow = HistStat::new("ignored");
    slow.observe(4000);
    let mut empty = String::new();
    prom::push_labeled_hist(&mut empty, "x.y", "kernel", &[]);
    assert!(empty.is_empty());
    prom::push_labeled_hist(
        &mut out,
        "serve.job.kernel_us",
        "kernel",
        &[("sha".into(), fast), ("a\"b\\c\nd".into(), slow)],
    );

    writeln!(out, "== after reset_prefix(outer/inner)").unwrap();
    span::reset_prefix("outer/inner");
    spans(&mut out);

    writeln!(out, "== after reset").unwrap();
    tta_obs::reset();
    spans(&mut out);
    dropped(&mut out);
    out.push_str(&prom::render());
    out.push_str(&report_without_times());
    out.push('\n');

    writeln!(out, "== overflow").unwrap();
    for i in 0..520 {
        let _s = span::span(leak(format!("ovf.span.{i}")));
    }
    for i in 0..260 {
        counter::add(leak(format!("ovf.counter.{i}")), 1);
        counter::set_gauge(leak(format!("ovf.gauge.{i}")), -1);
    }
    for i in 0..70 {
        hist::record(leak(format!("ovf.hist.{i}")), 1);
    }
    // Names interned before the tables filled keep recording.
    counter::add("alpha.count", 2);
    hist::record("lat.small_us", 9);
    {
        let _s = span::span("kept");
    }
    dropped(&mut out);
    writeln!(
        out,
        "sizes spans={} counters={} gauges={} hists={} alpha.count={:?} small={:?} kept={:?}",
        span::snapshot().len(),
        counter::snapshot().len(),
        counter::snapshot_gauges().len(),
        hist::snapshot().len(),
        counter::get("alpha.count"),
        hist::get("lat.small_us").map(|h| h.count),
        span::stat("kept").map(|(_, n)| n),
    )
    .unwrap();
    tta_obs::reset();
    dropped(&mut out);

    if out != GOLDEN {
        println!("{out}");
    }
    assert!(out == GOLDEN, "obs outputs drifted from the golden");
}

const GOLDEN: &str = r##"== recorded
get alpha.count=Some(42) never.count=None queue.depth=Some(-3) absent.gauge=None
hist lat.small_us count=2 sum=11 p50=Some(7) absent=None
span kept x1
span outer x1
span outer/inner x2
span outer/inner/leaf x1
span outer/worker x2
stat outer Some(1)
stat outer/inner Some(2)
stat outer/inner/leaf Some(1)
stat outer/worker Some(2)
stat absent None
dropped spans=0 counters=0 gauges=0 hists=0
# TYPE tta_alpha_count counter
tta_alpha_count 42
# TYPE tta_mid_count counter
tta_mid_count 0
# TYPE tta_zeta_count counter
tta_zeta_count 3
# TYPE tta_alpha_gauge gauge
tta_alpha_gauge -9223372036854775808
# TYPE tta_queue_depth gauge
tta_queue_depth -3
# TYPE tta_lat_edges_us histogram
tta_lat_edges_us_bucket{le="0"} 1
tta_lat_edges_us_bucket{le="1"} 2
tta_lat_edges_us_bucket{le="3"} 4
tta_lat_edges_us_bucket{le="7"} 6
tta_lat_edges_us_bucket{le="15"} 7
tta_lat_edges_us_bucket{le="31"} 7
tta_lat_edges_us_bucket{le="63"} 7
tta_lat_edges_us_bucket{le="127"} 7
tta_lat_edges_us_bucket{le="255"} 7
tta_lat_edges_us_bucket{le="511"} 7
tta_lat_edges_us_bucket{le="1023"} 8
tta_lat_edges_us_bucket{le="2047"} 9
tta_lat_edges_us_bucket{le="4095"} 9
tta_lat_edges_us_bucket{le="8191"} 9
tta_lat_edges_us_bucket{le="16383"} 9
tta_lat_edges_us_bucket{le="32767"} 9
tta_lat_edges_us_bucket{le="65535"} 9
tta_lat_edges_us_bucket{le="131071"} 9
tta_lat_edges_us_bucket{le="262143"} 9
tta_lat_edges_us_bucket{le="524287"} 9
tta_lat_edges_us_bucket{le="1048575"} 9
tta_lat_edges_us_bucket{le="2097151"} 9
tta_lat_edges_us_bucket{le="4194303"} 9
tta_lat_edges_us_bucket{le="8388607"} 9
tta_lat_edges_us_bucket{le="16777215"} 9
tta_lat_edges_us_bucket{le="33554431"} 9
tta_lat_edges_us_bucket{le="67108863"} 9
tta_lat_edges_us_bucket{le="134217727"} 9
tta_lat_edges_us_bucket{le="268435455"} 9
tta_lat_edges_us_bucket{le="536870911"} 9
tta_lat_edges_us_bucket{le="1073741823"} 9
tta_lat_edges_us_bucket{le="2147483647"} 9
tta_lat_edges_us_bucket{le="4294967295"} 9
tta_lat_edges_us_bucket{le="8589934591"} 9
tta_lat_edges_us_bucket{le="17179869183"} 9
tta_lat_edges_us_bucket{le="34359738367"} 9
tta_lat_edges_us_bucket{le="68719476735"} 9
tta_lat_edges_us_bucket{le="137438953471"} 9
tta_lat_edges_us_bucket{le="274877906943"} 9
tta_lat_edges_us_bucket{le="549755813887"} 9
tta_lat_edges_us_bucket{le="1099511627775"} 9
tta_lat_edges_us_bucket{le="2199023255551"} 9
tta_lat_edges_us_bucket{le="4398046511103"} 9
tta_lat_edges_us_bucket{le="8796093022207"} 9
tta_lat_edges_us_bucket{le="17592186044415"} 9
tta_lat_edges_us_bucket{le="35184372088831"} 9
tta_lat_edges_us_bucket{le="70368744177663"} 9
tta_lat_edges_us_bucket{le="140737488355327"} 9
tta_lat_edges_us_bucket{le="281474976710655"} 9
tta_lat_edges_us_bucket{le="562949953421311"} 9
tta_lat_edges_us_bucket{le="1125899906842623"} 9
tta_lat_edges_us_bucket{le="2251799813685247"} 9
tta_lat_edges_us_bucket{le="4503599627370495"} 9
tta_lat_edges_us_bucket{le="9007199254740991"} 9
tta_lat_edges_us_bucket{le="18014398509481983"} 9
tta_lat_edges_us_bucket{le="36028797018963967"} 9
tta_lat_edges_us_bucket{le="72057594037927935"} 9
tta_lat_edges_us_bucket{le="144115188075855871"} 9
tta_lat_edges_us_bucket{le="288230376151711743"} 9
tta_lat_edges_us_bucket{le="576460752303423487"} 9
tta_lat_edges_us_bucket{le="1152921504606846975"} 9
tta_lat_edges_us_bucket{le="2305843009213693951"} 9
tta_lat_edges_us_bucket{le="4611686018427387903"} 9
tta_lat_edges_us_bucket{le="9223372036854775807"} 9
tta_lat_edges_us_bucket{le="+Inf"} 11
tta_lat_edges_us_sum 18446744073709551615
tta_lat_edges_us_count 11
# TYPE tta_lat_small_us histogram
tta_lat_small_us_bucket{le="0"} 0
tta_lat_small_us_bucket{le="1"} 0
tta_lat_small_us_bucket{le="3"} 0
tta_lat_small_us_bucket{le="7"} 2
tta_lat_small_us_bucket{le="+Inf"} 2
tta_lat_small_us_sum 11
tta_lat_small_us_count 2
{
  "obs_version": 1,
  "spans": [
    {
      "path": "kept",
      "count": 1
    },
    {
      "path": "outer",
      "count": 1
    },
    {
      "path": "outer/inner",
      "count": 2
    },
    {
      "path": "outer/inner/leaf",
      "count": 1
    },
    {
      "path": "outer/worker",
      "count": 2
    }
  ],
  "counters": {
    "alpha.count": 42,
    "mid.count": 0,
    "zeta.count": 3
  },
  "gauges": {
    "alpha.gauge": -9223372036854776000,
    "queue.depth": -3
  },
  "hists": [
    {
      "name": "lat.edges_us",
      "count": 11,
      "sum": 18446744073709552000,
      "p50": 7,
      "p99": 18446744073709552000,
      "buckets": {
        "0": 1,
        "1": 1,
        "2": 2,
        "3": 2,
        "4": 1,
        "10": 1,
        "11": 1,
        "64": 2
      }
    },
    {
      "name": "lat.small_us",
      "count": 2,
      "sum": 11,
      "p50": 7,
      "p99": 7,
      "buckets": {
        "3": 2
      }
    }
  ],
  "obs_dropped": {
    "spans": 0,
    "counters": 0,
    "gauges": 0,
    "hists": 0
  }
}

== labeled family
# TYPE tta_serve_job_kernel_us histogram
tta_serve_job_kernel_us_bucket{kernel="sha",le="0"} 0
tta_serve_job_kernel_us_bucket{kernel="sha",le="1"} 0
tta_serve_job_kernel_us_bucket{kernel="sha",le="3"} 1
tta_serve_job_kernel_us_bucket{kernel="sha",le="7"} 2
tta_serve_job_kernel_us_bucket{kernel="sha",le="+Inf"} 2
tta_serve_job_kernel_us_sum{kernel="sha"} 8
tta_serve_job_kernel_us_count{kernel="sha"} 2
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="0"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="1"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="3"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="7"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="15"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="31"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="63"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="127"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="255"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="511"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="1023"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="2047"} 0
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="4095"} 1
tta_serve_job_kernel_us_bucket{kernel="a\"b\\c\nd",le="+Inf"} 1
tta_serve_job_kernel_us_sum{kernel="a\"b\\c\nd"} 4000
tta_serve_job_kernel_us_count{kernel="a\"b\\c\nd"} 1
== after reset_prefix(outer/inner)
span kept x1
span outer x1
span outer/worker x2
stat outer Some(1)
stat outer/inner Some(0)
stat outer/inner/leaf Some(0)
stat outer/worker Some(2)
stat absent None
== after reset
stat outer Some(0)
stat outer/inner Some(0)
stat outer/inner/leaf Some(0)
stat outer/worker Some(0)
stat absent None
dropped spans=0 counters=0 gauges=0 hists=0
# TYPE tta_alpha_count counter
tta_alpha_count 0
# TYPE tta_mid_count counter
tta_mid_count 0
# TYPE tta_zeta_count counter
tta_zeta_count 0
# TYPE tta_alpha_gauge gauge
tta_alpha_gauge 0
# TYPE tta_queue_depth gauge
tta_queue_depth 0
{
  "obs_version": 1,
  "spans": [],
  "counters": {
    "alpha.count": 0,
    "mid.count": 0,
    "zeta.count": 0
  },
  "gauges": {
    "alpha.gauge": 0,
    "queue.depth": 0
  },
  "hists": [],
  "obs_dropped": {
    "spans": 0,
    "counters": 0,
    "gauges": 0,
    "hists": 0
  }
}

== overflow
dropped spans=13 counters=7 gauges=6 hists=8
sizes spans=508 counters=256 gauges=256 hists=63 alpha.count=Some(2) small=Some(1) kept=Some(1)
dropped spans=0 counters=0 gauges=0 hists=0
"##;

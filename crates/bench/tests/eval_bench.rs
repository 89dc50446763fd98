//! `BENCH_eval.json` keeps its shape and metadata with telemetry off: the
//! thread count and wall times come from the benchmark itself, not from
//! the obs registry. Its own test binary, because it toggles telemetry
//! process-wide.

use tta_obs::json::Json;

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key).unwrap_or_else(|| panic!("no {key}"))
}

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn num(doc: &Json, key: &str) -> f64 {
    field(doc, key).as_f64().unwrap()
}

#[test]
fn shape_and_threads_do_not_depend_on_telemetry() {
    let on = tta_bench::eval_bench_json(1, tta_bench::quick_evaluation);
    tta_obs::set_enabled(false);
    let off = tta_bench::eval_bench_json(1, tta_bench::quick_evaluation);
    tta_obs::set_enabled(true);

    assert_eq!(keys(&on), keys(&off));
    assert_eq!(keys(field(&on, "stages_s")), keys(field(&off, "stages_s")));
    assert_eq!(num(&on, "threads"), num(&off, "threads"));
    // quick_evaluation: 3 machines x 2 kernels.
    assert_eq!(
        num(&on, "threads"),
        tta_explore::eval::eval_threads(6) as f64,
        "threads is the evaluation's own worker count"
    );
    for doc in [&on, &off] {
        assert!(num(doc, "wall_s_min") > 0.0);
        assert_eq!(
            doc.get("threads_warning").is_some(),
            num(doc, "threads") <= 1.0
        );
    }
}

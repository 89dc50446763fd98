//! End-to-end tests of the batch server over real sockets: schema
//! versioning, structured errors, NDJSON stream framing, concurrent-batch
//! determinism, parity with the batch evaluation pipeline, deadlines, and
//! graceful shutdown.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tta_obs::json::Json;
use tta_obs::ndjson;
use tta_serve::{client, schema, Server, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(120);

fn spawn() -> Server {
    spawn_with(|_| {})
}

fn spawn_with(tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::spawn(cfg).expect("bind")
}

fn batch_body(jobs: &[(&str, &str)], timeout_ms: Option<u64>) -> String {
    let specs: Vec<schema::JobSpec> = jobs
        .iter()
        .map(|(m, k)| schema::JobSpec {
            machine: m.to_string(),
            kernel: k.to_string(),
        })
        .collect();
    schema::batch_to_json(&specs, timeout_ms).to_compact()
}

fn post_batch(addr: SocketAddr, body: &str) -> client::StreamedResponse {
    client::post_streaming(addr, "/v1/batch", body, TIMEOUT).expect("post /v1/batch")
}

/// Parse every line of a 200 stream; returns (job lines, summary line).
fn parse_stream(resp: &client::StreamedResponse) -> (Vec<Json>, Json) {
    assert_eq!(resp.status, 200);
    let mut values: Vec<Json> = resp
        .lines
        .iter()
        .map(|l| {
            tta_obs::json::parse(&l.text)
                .unwrap_or_else(|e| panic!("line not self-contained JSON: {e}: {:?}", l.text))
        })
        .collect();
    let summary = values.pop().expect("stream has a summary line");
    assert_eq!(summary.get("summary"), Some(&Json::Bool(true)));
    (values, summary)
}

fn error_code(resp: &client::Response) -> String {
    let doc = tta_obs::json::parse(&resp.body).expect("error body is JSON");
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error body has error.code")
        .to_string()
}

#[test]
fn health_endpoint_reports_liveness() {
    let server = spawn();
    let resp = client::get(server.addr(), "/healthz", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let doc = tta_obs::json::parse(&resp.body).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert!(doc.get("sim_threads").unwrap().as_f64().unwrap() >= 1.0);
    server.shutdown();
}

#[test]
fn unknown_req_version_is_a_structured_error() {
    let server = spawn();
    let body = r#"{"req_version": 99, "jobs": [{"machine": "mblaze-3", "kernel": "sha"}]}"#;
    let resp = client::post(server.addr(), "/v1/batch", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp), "unknown_version");
    assert!(resp.body.contains("speaks 1"), "{}", resp.body);
    server.shutdown();
}

#[test]
fn malformed_oversized_and_unknown_names_are_structured_errors() {
    let server = spawn_with(|cfg| cfg.max_body_bytes = 256);
    let addr = server.addr();

    let resp = client::post(addr, "/v1/batch", "this is not json", TIMEOUT).unwrap();
    assert_eq!(
        (resp.status, error_code(&resp)),
        (400, "malformed_json".into())
    );

    let big = batch_body(&[("mblaze-3", "sha"); 20], None);
    assert!(big.len() > 256);
    let resp = client::post(addr, "/v1/batch", &big, TIMEOUT).unwrap();
    assert_eq!((resp.status, error_code(&resp)), (413, "oversized".into()));

    let resp = client::post(
        addr,
        "/v1/batch",
        &batch_body(&[("not-a-machine", "sha")], None),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(
        (resp.status, error_code(&resp)),
        (400, "unknown_machine".into())
    );

    let resp = client::post(
        addr,
        "/v1/batch",
        &batch_body(&[("mblaze-3", "not-a-kernel")], None),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(
        (resp.status, error_code(&resp)),
        (400, "unknown_kernel".into())
    );

    server.shutdown();
}

#[test]
fn deeply_nested_body_is_malformed_json_not_a_crash() {
    // One connection thread parses this body; unbounded recursion in
    // the JSON parser would overflow its stack and abort the process.
    let server = spawn();
    let addr = server.addr();
    let body = format!(r#"{{"req_version": 1, "jobs": {}"#, "[".repeat(20_000));
    let resp = client::post(addr, "/v1/batch", &body, TIMEOUT).unwrap();
    assert_eq!(
        (resp.status, error_code(&resp)),
        (400, "malformed_json".into())
    );
    assert!(resp.body.contains("nesting too deep"), "{}", resp.body);
    let resp = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

/// Send `raw` as the whole request, then read the whole response:
/// `(status, error.code)`.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(raw).expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let resp = client::Response {
        status,
        body: body.to_string(),
    };
    (status, error_code(&resp))
}

#[test]
fn oversized_upload_gets_its_413_before_the_connection_closes() {
    // The server answers from the headers alone, with most of this body
    // still unread; it must drain it rather than reset the connection
    // under its own response.
    let server = spawn_with(|cfg| cfg.max_body_bytes = 256);
    let body = vec![b'x'; 256 * 1024];
    let mut raw = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(&body);
    for _ in 0..5 {
        assert_eq!(raw_request(server.addr(), &raw), (413, "oversized".into()));
    }
    server.shutdown();
}

#[test]
fn transfer_encoding_is_a_bad_request() {
    let server = spawn();
    let raw = b"POST /v1/batch HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
                2\r\n{}\r\n0\r\n\r\n";
    assert_eq!(raw_request(server.addr(), raw), (400, "bad_request".into()));
    server.shutdown();
}

#[test]
fn duplicate_content_length_is_a_bad_request() {
    let server = spawn();
    let raw = b"POST /v1/batch HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\
                Content-Length: 2\r\n\r\n{}";
    assert_eq!(raw_request(server.addr(), raw), (400, "bad_request".into()));
    server.shutdown();
}

#[test]
fn routing_rejects_wrong_methods_and_paths() {
    let server = spawn();
    let resp = client::get(server.addr(), "/v1/batch", TIMEOUT).unwrap();
    assert_eq!((resp.status, error_code(&resp)), (405, "bad_method".into()));
    let resp = client::post(server.addr(), "/v2/other", "{}", TIMEOUT).unwrap();
    assert_eq!((resp.status, error_code(&resp)), (404, "not_found".into()));
    server.shutdown();
}

#[test]
fn ndjson_stream_frames_one_report_per_job_plus_summary() {
    let server = spawn();
    let jobs = [("mblaze-3", "sha"), ("mblaze-3", "motion")];
    let resp = post_batch(server.addr(), &batch_body(&jobs, None));
    let (lines, summary) = parse_stream(&resp);
    assert_eq!(lines.len(), jobs.len());
    let mut seen = vec![false; jobs.len()];
    for line in &lines {
        assert_eq!(line.get("obs_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(line.get("ok"), Some(&Json::Bool(true)));
        let job = line.get("job").unwrap().as_f64().unwrap() as usize;
        let report = line.get("report").expect("ok line carries a report");
        // The job index routes back to the requested (machine, kernel).
        assert_eq!(report.get("machine").unwrap().as_str(), Some(jobs[job].0));
        assert_eq!(report.get("kernel").unwrap().as_str(), Some(jobs[job].1));
        assert!(report.get("cycles").unwrap().as_f64().unwrap() > 0.0);
        assert!(!seen[job], "job {job} reported twice");
        seen[job] = true;
    }
    assert_eq!(summary.get("jobs").unwrap().as_f64(), Some(2.0));
    assert_eq!(summary.get("ok").unwrap().as_f64(), Some(2.0));
    assert_eq!(summary.get("errors").unwrap().as_f64(), Some(0.0));
    assert_eq!(summary.get("timed_out"), Some(&Json::Bool(false)));
    server.shutdown();
}

/// The whole response also decodes with the library-side NDJSON parser
/// when reassembled — the framing satellite's round-trip.
#[test]
fn stream_reassembles_through_ndjson_parse_lines() {
    let server = spawn();
    let resp = post_batch(server.addr(), &batch_body(&[("m-tta-2", "sha")], None));
    assert_eq!(resp.status, 200);
    let text: String = resp.lines.iter().map(|l| format!("{}\n", l.text)).collect();
    let values = ndjson::parse_lines(&text).expect("stream parses as NDJSON");
    assert_eq!(values.len(), 2); // one job + summary
    server.shutdown();
}

#[test]
fn shuffled_batches_produce_identical_per_job_reports() {
    let server = spawn();
    let ordered = [
        ("mblaze-3", "sha"),
        ("mblaze-3", "motion"),
        ("m-vliw-2", "sha"),
        ("m-vliw-2", "motion"),
    ];
    let shuffled = [
        ("m-vliw-2", "motion"),
        ("mblaze-3", "sha"),
        ("m-vliw-2", "sha"),
        ("mblaze-3", "motion"),
    ];
    let collect = |jobs: &[(&str, &str)]| -> std::collections::BTreeMap<String, String> {
        let resp = post_batch(server.addr(), &batch_body(jobs, None));
        let (lines, summary) = parse_stream(&resp);
        assert_eq!(summary.get("ok").unwrap().as_f64(), Some(jobs.len() as f64));
        lines
            .iter()
            .map(|l| {
                let report = l.get("report").unwrap();
                let key = format!(
                    "{}/{}",
                    report.get("machine").unwrap().as_str().unwrap(),
                    report.get("kernel").unwrap().as_str().unwrap()
                );
                (key, report.to_compact())
            })
            .collect()
    };
    let a = collect(&ordered);
    let b = collect(&shuffled);
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "report content must not depend on submission order");
    server.shutdown();
}

/// Served per-job reports are bit-identical to the reports derived from
/// the equivalent `evaluate` single run — same canonical JSON, same
/// simulated numbers (acceptance criterion of the serve subsystem).
#[test]
fn served_reports_match_the_evaluation_pipeline_bit_for_bit() {
    let machines = vec![
        tta_model::presets::mblaze_3(),
        tta_model::presets::m_vliw_2(),
        tta_model::presets::m_tta_2(),
    ];
    let kernels: Vec<tta_chstone::Kernel> = ["sha", "motion"]
        .iter()
        .map(|n| tta_chstone::by_name(n).unwrap())
        .collect();
    let reports = tta_explore::evaluate(&machines, &kernels);

    let server = spawn();
    let jobs: Vec<(&str, &str)> = machines
        .iter()
        .flat_map(|m| kernels.iter().map(move |k| (m.name.as_str(), k.name)))
        .collect();
    let resp = post_batch(server.addr(), &batch_body(&jobs, None));
    let (lines, summary) = parse_stream(&resp);
    assert_eq!(summary.get("ok").unwrap().as_f64(), Some(jobs.len() as f64));

    let mut served: Vec<(usize, String)> = lines
        .iter()
        .map(|l| {
            (
                l.get("job").unwrap().as_f64().unwrap() as usize,
                l.get("report").unwrap().to_compact(),
            )
        })
        .collect();
    served.sort();
    for (ji, (machine, kernel)) in jobs.iter().enumerate() {
        let report = reports.iter().find(|r| &r.name == machine).unwrap();
        let expected = tta_explore::eval::job_report_json(machine, report.run(kernel)).to_compact();
        assert_eq!(served[ji].1, expected, "{machine}/{kernel}");
    }
    server.shutdown();
}

#[test]
fn expired_deadline_surfaces_structured_timeout_lines() {
    let server = spawn();
    let jobs = [("mblaze-3", "sha"), ("m-tta-2", "sha")];
    let resp = post_batch(server.addr(), &batch_body(&jobs, Some(0)));
    let (lines, summary) = parse_stream(&resp);
    assert_eq!(lines.len(), jobs.len());
    for line in &lines {
        assert_eq!(line.get("ok"), Some(&Json::Bool(false)));
        let code = line
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(code, Some("timeout"));
    }
    assert_eq!(summary.get("timed_out"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("errors").unwrap().as_f64(), Some(2.0));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_unbinds() {
    let server = spawn();
    let addr = server.addr();
    // A request in flight before shutdown completes normally.
    let resp = post_batch(addr, &batch_body(&[("mblaze-3", "sha")], None));
    assert_eq!(resp.status, 200);
    server.shutdown();
    // The port no longer accepts (give the OS a beat to tear down).
    let refused = (0..10).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
    });
    assert!(refused, "socket must stop accepting after shutdown");
}

#[test]
fn shutdown_over_the_wire_stops_the_server() {
    let server = spawn();
    let addr = server.addr();
    let resp = client::post(addr, "/v1/shutdown", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    // wait() returns because the wire request flagged shutdown.
    server.wait();
}

/// Every line of a stream must carry the same trace ID; returns it.
fn stream_trace_id(resp: &client::StreamedResponse) -> String {
    let (lines, summary) = parse_stream(resp);
    let trace = summary
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("summary line carries trace_id")
        .to_string();
    assert!(!trace.is_empty());
    for line in &lines {
        assert_eq!(
            line.get("trace_id").and_then(Json::as_str),
            Some(trace.as_str()),
            "every job line carries the request trace ID"
        );
    }
    trace
}

#[test]
fn client_trace_id_stamps_every_line_and_flight_event() {
    let server = spawn();
    let resp = client::post_streaming_with_headers(
        server.addr(),
        "/v1/batch",
        &batch_body(&[("mblaze-3", "sha")], None),
        &[("x-trace-id", "e2e-trace-abc")],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(stream_trace_id(&resp), "e2e-trace-abc");

    // The flight recorder kept the request's event sequence under the
    // same ID (filtered by trace: other tests share the global ring).
    let flight = client::get(server.addr(), "/v1/debug/flight", TIMEOUT).unwrap();
    assert_eq!(flight.status, 200);
    let doc = tta_obs::json::parse(&flight.body).unwrap();
    let Some(Json::Arr(events)) = doc.get("events") else {
        panic!("flight body has an events array: {}", flight.body);
    };
    let kinds: Vec<&str> = events
        .iter()
        .filter(|e| e.get("trace").and_then(Json::as_str) == Some("e2e-trace-abc"))
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    for expected in ["req.start", "batch.start", "job.dispatch", "job.done"] {
        assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
    }
    server.shutdown();
}

#[test]
fn missing_trace_header_gets_a_generated_id() {
    let server = spawn();
    let a = post_batch(server.addr(), &batch_body(&[("mblaze-3", "sha")], None));
    let b = post_batch(server.addr(), &batch_body(&[("mblaze-3", "sha")], None));
    let (ta, tb) = (stream_trace_id(&a), stream_trace_id(&b));
    assert_ne!(ta, tb, "generated trace IDs are per-request");
    server.shutdown();
}

#[test]
fn error_bodies_carry_the_trace_id() {
    let server = spawn();
    let mut stream = client::post_streaming_with_headers(
        server.addr(),
        "/v1/batch",
        "this is not json",
        &[("x-trace-id", "e2e-err-trace")],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(stream.status, 400);
    let body: String = stream.lines.drain(..).map(|l| l.text).collect();
    let doc = tta_obs::json::parse(&body).unwrap();
    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some("e2e-err-trace")
    );
    assert_eq!(
        doc.get("error").unwrap().get("code").unwrap().as_str(),
        Some("malformed_json")
    );
    server.shutdown();
}

/// The value of a label-free series in an exposition document.
fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_exposition_parses_and_changes_under_load() {
    let server = spawn();
    let scrape = || {
        let resp = client::get(server.addr(), "/v1/metrics", TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
        resp.body
    };
    let before = scrape();
    // Well-formed: every non-comment line is `name[{labels}] value` with
    // a finite value; no NaN anywhere (all exported values are integers).
    assert!(!before.contains("NaN"));
    for line in before.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("line has a value");
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("{line:?}"));
        assert!(v.is_finite(), "{line:?}");
    }
    let batches_before = metric_value(&before, "tta_serve_batches").unwrap_or(0.0);

    post_batch(server.addr(), &batch_body(&[("mblaze-3", "sha")], None));
    let after = scrape();
    let batches_after = metric_value(&after, "tta_serve_batches").unwrap();
    assert!(
        batches_after > batches_before,
        "batch counter moves under load: {batches_before} -> {batches_after}"
    );
    // Queue gauges and latency histograms are exported.
    for series in [
        "tta_serve_sim_queue_depth",
        "tta_serve_sim_in_flight",
        "tta_serve_requests_batch",
        "tta_serve_job_service_us_count",
        "tta_serve_sim_queue_wait_us_count",
    ] {
        assert!(
            metric_value(&after, series).is_some(),
            "missing series {series} in:\n{after}"
        );
    }
    assert!(metric_value(&after, "tta_serve_job_service_us_count").unwrap() >= 1.0);
    server.shutdown();
}

#[test]
fn per_kernel_latency_series_respect_the_cardinality_budget() {
    // Budget of 1: at most one kernel keeps its own label, everything
    // else folds into kernel="_other" at scrape time.
    let server = spawn_with(|c| c.kernel_series_budget = 1);
    post_batch(
        server.addr(),
        &batch_body(
            &[("mblaze-3", "sha"), ("mblaze-3", "aes"), ("m-tta-2", "gsm")],
            None,
        ),
    );
    let resp = client::get(server.addr(), "/v1/metrics", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.body;
    assert_eq!(
        text.matches("# TYPE tta_serve_job_kernel_service_us histogram")
            .count(),
        1,
        "one header for the labeled family"
    );
    let count_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("tta_serve_job_kernel_service_us_count{kernel="))
        .collect();
    assert_eq!(
        count_lines.len(),
        2,
        "budget 1 = one named kernel + _other:\n{count_lines:?}"
    );
    assert!(
        count_lines.iter().any(|l| l.contains("kernel=\"_other\"")),
        "{count_lines:?}"
    );
    let total: f64 = count_lines
        .iter()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum();
    assert!(
        total >= 3.0,
        "all three jobs accounted for across the budgeted series, got {total}"
    );
    server.shutdown();
}

#[test]
fn healthz_reports_queue_cache_and_dropped_state() {
    let server = spawn();
    let resp = client::get(server.addr(), "/healthz", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let doc = tta_obs::json::parse(&resp.body).unwrap();
    for key in [
        "queue_depth",
        "in_flight",
        "conn_queue_depth",
        "conn_in_flight",
        "cache_entries",
        "cache_hits",
        "cache_misses",
    ] {
        let v = doc
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("healthz lacks {key}: {}", resp.body));
        assert!(v >= 0.0, "{key} = {v}");
    }
    let dropped = doc.get("dropped").expect("healthz has dropped tallies");
    for kind in ["spans", "counters", "gauges", "hists"] {
        assert!(dropped.get(kind).and_then(Json::as_f64).is_some());
    }
    server.shutdown();
}

#[test]
fn flight_recorder_captures_a_timed_out_job() {
    let server = spawn();
    let resp = client::post_streaming_with_headers(
        server.addr(),
        "/v1/batch",
        &batch_body(&[("mblaze-3", "sha")], Some(0)),
        &[("x-trace-id", "e2e-timeout-trace")],
        TIMEOUT,
    )
    .unwrap();
    let (lines, summary) = parse_stream(&resp);
    assert_eq!(summary.get("timed_out"), Some(&Json::Bool(true)));
    assert_eq!(
        lines[0].get("trace_id").and_then(Json::as_str),
        Some("e2e-timeout-trace")
    );

    let flight = client::get(server.addr(), "/v1/debug/flight", TIMEOUT).unwrap();
    let doc = tta_obs::json::parse(&flight.body).unwrap();
    let Some(Json::Arr(events)) = doc.get("events") else {
        panic!("flight body has an events array");
    };
    let kinds: Vec<&str> = events
        .iter()
        .filter(|e| e.get("trace").and_then(Json::as_str) == Some("e2e-timeout-trace"))
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    for expected in ["req.start", "batch.start", "job.dispatch", "job.timeout"] {
        assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
    }
    // Events arrive in recorded order: the dispatch precedes the timeout.
    let pos = |k: &str| kinds.iter().position(|&x| x == k).unwrap();
    assert!(pos("req.start") < pos("batch.start"));
    assert!(pos("batch.start") < pos("job.timeout"));
    server.shutdown();
}

#[test]
fn per_route_and_per_error_counters_show_in_metrics() {
    let server = spawn();
    let scrape = || {
        client::get(server.addr(), "/v1/metrics", TIMEOUT)
            .unwrap()
            .body
    };
    let before = scrape();
    let h0 = metric_value(&before, "tta_serve_requests_healthz").unwrap_or(0.0);
    let e0 = metric_value(&before, "tta_serve_errors_not_found").unwrap_or(0.0);
    client::get(server.addr(), "/healthz", TIMEOUT).unwrap();
    let resp = client::post(server.addr(), "/nope", "{}", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);
    let after = scrape();
    assert!(metric_value(&after, "tta_serve_requests_healthz").unwrap() > h0);
    assert!(metric_value(&after, "tta_serve_errors_not_found").unwrap() > e0);
    server.shutdown();
}

//! End-to-end tests of the campaign server over real sockets: the job
//! lifecycle, byte-identical aggregates, bounded-queue backpressure,
//! cancellation, and the HTTP layer's edge-case contract.

use spear_serve::client;
use spear_serve::{JobSpec, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spear-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start a server on an ephemeral port; returns (addr, root, join handle).
fn start(tag: &str, queue_cap: usize) -> (String, PathBuf, std::thread::JoinHandle<()>) {
    let root = temp_root(tag);
    let cfg = ServeConfig {
        queue_cap,
        workers: 2,
        ..ServeConfig::new(&root)
    };
    let server = Server::bind(&cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, root, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let (status, _) = client::request(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

/// A small but real sweep: 2 machines x 8 intervals of `pointer`.
fn small_spec() -> String {
    "{\"workloads\":[\"pointer\"],\"machines\":[\"baseline\",\"spear-128\"],\
     \"interval\":20000,\"stride\":2}"
        .to_string()
}

/// A deliberately larger sweep, used to keep the runner busy while the
/// backpressure tests poke the queue.
fn big_spec() -> String {
    "{\"workloads\":[\"pointer\",\"update\"],\
     \"machines\":[\"baseline\",\"spear-128\",\"spear-256\"],\
     \"interval\":20000,\"stride\":1}"
        .to_string()
}

fn submit(addr: &str, spec: &str) -> (u16, String) {
    client::request(addr, "POST", "/jobs", Some(spec)).expect("submit")
}

fn job_state(addr: &str, id: &str) -> String {
    let (status, body) =
        client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
    assert_eq!(status, 200, "{body}");
    field_str(&body, "state").expect("state field")
}

/// Pull a string field out of a JSON object body.
fn field_str(body: &str, name: &str) -> Option<String> {
    let v: serde::Value = serde::json::from_str(body).ok()?;
    match v.field(name) {
        Ok(serde::Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn wait_for_state(addr: &str, id: &str, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let got = job_state(addr, id);
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id}: wanted state `{want}`, still `{got}` after {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn job_lifecycle_and_byte_identical_aggregates() {
    let (addr, root, handle) = start("lifecycle", 8);

    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let id = field_str(&body, "id").unwrap();
    assert_eq!(id, "job-0001");

    wait_for_state(&addr, &id, "done", Duration::from_secs(120));

    // Status carries final progress.
    let (_, body) = client::request(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert!(body.contains("\"done\":16"), "{body}");
    assert!(body.contains("\"total\":16"), "{body}");

    // The served aggregate files are byte-identical to what the same
    // grid produces through the campaign library directly (which is
    // also exactly what the CLI writes — same writer).
    let ref_dir = temp_root("lifecycle-ref");
    let spec: JobSpec = serde::json::from_str(&small_spec()).unwrap();
    let summary = spear_campaign::Campaign::new(&ref_dir, spec.resolve(2).unwrap())
        .run(None)
        .expect("reference campaign");
    spear_campaign::write_aggregate_envelopes(&ref_dir, &summary.results, None).unwrap();

    let srv_dir = root
        .join("jobs")
        .join(&id)
        .join("campaign")
        .join("aggregates");
    let mut names: Vec<String> = std::fs::read_dir(&srv_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "{names:?}");
    for name in &names {
        let served = std::fs::read(srv_dir.join(name)).unwrap();
        let reference = std::fs::read(ref_dir.join("aggregates").join(name)).unwrap();
        assert_eq!(served, reference, "{name} differs from the CLI envelope");
    }

    // The aggregates endpoint splices those exact bytes.
    let (status, body) =
        client::request(&addr, "GET", &format!("/jobs/{id}/aggregates"), None).unwrap();
    assert_eq!(status, 200);
    for name in &names {
        let raw = std::fs::read_to_string(srv_dir.join(name)).unwrap();
        assert!(
            body.contains(raw.trim_end()),
            "endpoint body missing raw envelope {name}"
        );
    }

    // Aggregates of an unknown job: 404; of an unfinished job: tested
    // in the backpressure test below (409).
    let (status, _) = client::request(&addr, "GET", "/jobs/job-9999/aggregates", None).unwrap();
    assert_eq!(status, 404);

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(ref_dir);
}

#[test]
fn bounded_queue_backpressure_and_cancel() {
    let (addr, root, handle) = start("backpressure", 1);

    // A: picked up by the runner almost immediately.
    let (status, body) = submit(&addr, &big_spec());
    assert_eq!(status, 201, "{body}");
    let a = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &a, "running", Duration::from_secs(60));

    // B: sits in the queue (capacity 1).
    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let b = field_str(&body, "id").unwrap();

    // C: the queue is full — the backpressure contract is HTTP 429.
    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");

    // A rejected submission leaves no trace in the job list or store.
    let (_, list) = client::request(&addr, "GET", "/jobs", None).unwrap();
    assert!(!list.contains("job-0003"), "{list}");
    assert!(!root.join("jobs").join("job-0003").exists());

    // Aggregates of a queued job: 409.
    let (status, _) =
        client::request(&addr, "GET", &format!("/jobs/{b}/aggregates"), None).unwrap();
    assert_eq!(status, 409);

    // Cancel A: cooperative drain, then the queue unblocks and B runs.
    let (status, body) =
        client::request(&addr, "POST", &format!("/jobs/{a}/cancel"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    wait_for_state(&addr, &a, "cancelled", Duration::from_secs(60));
    assert!(root.join("jobs").join(&a).join("cancelled.json").exists());
    // Cancelling a terminal job is a conflict.
    let (status, _) = client::request(&addr, "POST", &format!("/jobs/{a}/cancel"), None).unwrap();
    assert_eq!(status, 409);

    wait_for_state(&addr, &b, "done", Duration::from_secs(120));

    // The queue drained: a new submission is accepted again.
    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let d = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &d, "done", Duration::from_secs(120));

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

/// A job paused by its `max_cells` budget goes around again even when
/// the queue filled up while it ran: it resumes behind the queued job
/// instead of being dropped and left `queued` forever.
#[test]
fn max_cells_job_resumes_behind_a_full_queue() {
    let (addr, root, handle) = start("paused-full-queue", 1);

    // A: runs in bursts of 8 cells.
    let spec = big_spec().replacen('{', "{\"max_cells\":8,", 1);
    let (status, body) = submit(&addr, &spec);
    assert_eq!(status, 201, "{body}");
    let a = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &a, "running", Duration::from_secs(60));

    // B: fills the queue (capacity 1) while A runs its burst.
    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let b = field_str(&body, "id").unwrap();

    wait_for_state(&addr, &b, "done", Duration::from_secs(120));
    wait_for_state(&addr, &a, "done", Duration::from_secs(120));
    assert!(root.join("jobs").join(&a).join("done.json").exists());

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

/// Cancelling a queued job takes it out of the queue: its slot is free
/// for the next submission at once, not when the runner reaches it.
#[test]
fn cancelling_a_queued_job_frees_its_queue_slot() {
    let (addr, root, handle) = start("cancel-slot", 1);

    let (status, body) = submit(&addr, &big_spec());
    assert_eq!(status, 201, "{body}");
    let a = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &a, "running", Duration::from_secs(60));

    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let b = field_str(&body, "id").unwrap();
    let (status, body) =
        client::request(&addr, "POST", &format!("/jobs/{b}/cancel"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(job_state(&addr, &b), "cancelled");

    let (_, list) = client::request(&addr, "GET", "/jobs", None).unwrap();
    assert!(list.contains("\"queue_depth\":0"), "{list}");
    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");

    let (status, body) =
        client::request(&addr, "POST", &format!("/jobs/{a}/cancel"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

/// Request handling waits on the socket, not on a timer: fifty
/// sequential round trips to an idle server take well under the time
/// one 25 ms poll tick per request would add up to.
#[test]
fn idle_round_trips_do_not_wait_on_a_timer() {
    let (addr, root, handle) = start("round-trips", 4);
    let t0 = Instant::now();
    for _ in 0..50 {
        let (status, _) = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 round trips took {elapsed:?}"
    );
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn invalid_specs_are_rejected_with_400() {
    let (addr, root, handle) = start("badspec", 4);
    for (spec, why) in [
        ("not json at all", "unparseable"),
        (
            "{\"workloads\":[],\"machines\":[\"baseline\"]}",
            "no workloads",
        ),
        (
            "{\"workloads\":[\"pointer\"],\"machines\":[\"cray-1\"]}",
            "unknown machine",
        ),
        (
            "{\"workloads\":[\"nope\"],\"machines\":[\"baseline\"]}",
            "unknown workload",
        ),
        (
            "{\"workloads\":[\"pointer\"],\"machines\":[\"baseline\"],\"stride\":0}",
            "zero stride",
        ),
    ] {
        let (status, body) = submit(&addr, spec);
        assert_eq!(status, 400, "{why}: {body}");
    }
    // Nothing leaked into the registry.
    let (_, list) = client::request(&addr, "GET", "/jobs", None).unwrap();
    assert!(list.contains("\"jobs\":[]"), "{list}");
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

/// Write raw bytes to the server and read whatever comes back.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).expect("write");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn http_edge_cases_on_a_live_socket() {
    let (addr, root, handle) = start("httpedge", 4);

    // Unknown method.
    let resp = raw_exchange(&addr, b"BREW /jobs HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");

    // Unknown endpoint.
    let resp = raw_exchange(&addr, b"GET /teapot HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");

    // Wrong method on a known endpoint.
    let resp = raw_exchange(
        &addr,
        b"POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");

    // Oversized header block.
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "a".repeat(spear_serve::http::MAX_HEADER_BYTES)
    );
    let resp = raw_exchange(&addr, huge.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 431 "), "{resp}");

    // Malformed Content-Length.
    let resp = raw_exchange(
        &addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // Content-Length beyond the body cap.
    let resp = raw_exchange(
        &addr,
        format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            spear_serve::http::MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    );
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");

    // Two pipelined requests on one connection get two responses, in
    // order, over the same socket.
    let resp = raw_exchange(
        &addr,
        b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let responses = resp.matches("HTTP/1.1 200 OK").count();
    assert_eq!(responses, 2, "{resp}");
    assert!(resp.contains("{\"ok\":true}"), "{resp}");
    assert!(resp.contains("spear_serve_uptime_ms"), "{resp}");

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn metrics_track_jobs_and_cache() {
    let (addr, root, handle) = start("metrics", 4);

    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let id = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &id, "done", Duration::from_secs(120));

    // Same workload again: the second job must hit the shard cache.
    let (status, body) = submit(&addr, &small_spec());
    assert_eq!(status, 201, "{body}");
    let id2 = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &id2, "done", Duration::from_secs(120));

    let (status, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("spear_serve_jobs_done 2"), "{metrics}");
    assert!(
        metrics.contains("spear_serve_jobs_submitted_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("spear_serve_shard_cache_hits 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("spear_serve_shard_cache_misses 1"),
        "{metrics}"
    );

    // The cached shard also means both jobs aggregate identically.
    let agg = |id: &str| {
        let dir = root
            .join("jobs")
            .join(id)
            .join("campaign")
            .join("aggregates");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
            .iter()
            .map(|n| std::fs::read(dir.join(n)).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(agg(&id), agg(&id2), "cache must not change results");

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn trace_backed_jobs_replay_through_the_trace_cache() {
    let (addr, root, handle) = start("tracejob", 4);

    // One workload, baseline machine, both front ends: the trace cells
    // replay the recorded committed path instead of executing `pointer`.
    let spec = "{\"workloads\":[\"pointer\"],\"machines\":[\"baseline\"],\
                \"frontends\":[\"program\",\"trace\"],\
                \"interval\":20000,\"stride\":2}";
    let (status, body) = submit(&addr, spec);
    assert_eq!(status, 201, "{body}");
    let id = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &id, "done", Duration::from_secs(120));

    // Both front ends aggregated, under their own envelope names.
    let agg_dir = root
        .join("jobs")
        .join(&id)
        .join("campaign")
        .join("aggregates");
    let mut names: Vec<String> = std::fs::read_dir(&agg_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "pointer-superscalar-120.json".to_string(),
            "pointer-superscalar-trace-120.json".to_string(),
        ],
        "{names:?}"
    );
    // On the baseline machine replay is timing-equivalent to execution:
    // the two envelopes differ only by the frontend label.
    let program = std::fs::read_to_string(agg_dir.join(&names[0])).unwrap();
    let trace = std::fs::read_to_string(agg_dir.join(&names[1])).unwrap();
    assert_eq!(
        trace.replace(",\n  \"frontend\": \"trace\"", ""),
        program,
        "baseline trace replay must reproduce the program-driven envelope"
    );

    // A second identical job re-records nothing: the trace cache serves
    // the recorded path, and the gauges say so.
    let (status, body) = submit(&addr, spec);
    assert_eq!(status, 201, "{body}");
    let id2 = field_str(&body, "id").unwrap();
    wait_for_state(&addr, &id2, "done", Duration::from_secs(120));

    let (status, metrics) = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("spear_serve_trace_cache_misses 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("spear_serve_trace_cache_entries 1"),
        "{metrics}"
    );

    // A bogus front end is a 400 at submission, not a failed job.
    let (status, body) = submit(
        &addr,
        "{\"workloads\":[\"pointer\"],\"machines\":[\"baseline\"],\
         \"frontends\":[\"oracle\"]}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown front end"), "{body}");

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn restart_rescan_resumes_unfinished_jobs() {
    let root = temp_root("rescan");
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::new(&root)
    };

    // First server: start a large job, shut down mid-run (graceful
    // drain leaves it unfinished but resumable, like a crash would).
    let server = Server::bind(&cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let (status, body) = submit(&addr, &big_spec());
    assert_eq!(status, 201, "{body}");
    let id = field_str(&body, "id").unwrap();
    // Wait for real progress so the resume has something to skip.
    let cells = root
        .join("jobs")
        .join(&id)
        .join("campaign")
        .join("cells.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let n = std::fs::read_to_string(&cells)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if n >= 3 {
            break;
        }
        assert!(Instant::now() < deadline, "no cells executed");
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown(&addr, handle);
    let executed_before = std::fs::read_to_string(&cells).unwrap().lines().count();
    assert!(executed_before >= 3);
    assert!(!root.join("jobs").join(&id).join("done.json").exists());

    // Second server on the same root: the job is rescanned, re-queued,
    // resumed, and finished — with the earlier cells skipped, not re-run.
    let server = Server::bind(&cfg).expect("rebind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("rerun"));
    wait_for_state(&addr, &id, "done", Duration::from_secs(180));
    let all_lines = std::fs::read_to_string(&cells).unwrap().lines().count();
    let (_, status_body) = client::request(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert!(
        status_body.contains(&format!("\"total\":{all_lines}")),
        "{status_body}"
    );

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(root);
}

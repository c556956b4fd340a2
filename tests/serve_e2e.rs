//! End-to-end exercise of the serving front-end over real loopback
//! sockets: concurrent clients submitting overlapping configurations must
//! receive responses **bit-identical** to a direct `try_run_sweep` of the same
//! specs, and the server's `/metrics` counters must prove the batching
//! scheduler deduplicated the overlap (simulated count < requested count).

use sigcomp::ExtScheme;
use sigcomp_explore::{try_run_sweep, JobSpec, MemProfile, SweepOptions, SweepSpec};
use sigcomp_pipeline::OrgKind;
use sigcomp_serve::{BatchConfig, Json, ServeConfig, Server, ServerHandle};
use sigcomp_workloads::WorkloadSize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A minimal raw HTTP/1.1 client: one request, read to connection close.
/// Returns the status and the complete raw response (headers included).
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    (status, raw)
}

/// Like [`http_raw`] but discards the headers.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let (status, raw) = http_raw(addr, method, path, body);
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, payload)
}

fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, body) = http(addr, "GET", path, None);
    assert_eq!(status, 200, "{path}: {body}");
    Json::parse(&body).unwrap_or_else(|e| panic!("{path}: invalid JSON {e}: {body}"))
}

fn start_server() -> ServerHandle {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 32,
            queue_capacity: 256,
            sim_workers: Some(2),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn()
}

#[test]
fn concurrent_overlapping_clients_are_deduplicated_and_bit_identical() {
    let server = start_server();
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    // Four distinct configurations; every client asks for all four, so the
    // 8 clients × 4 requests = 32 submissions overlap 8-fold.
    let spec = SweepSpec::paper(WorkloadSize::Tiny)
        .workloads(&["rawcaudio", "pgp"])
        .orgs(&[OrgKind::Baseline32, OrgKind::ByteSerial]);
    let jobs: Vec<JobSpec> = spec.enumerate();
    assert_eq!(jobs.len(), 4);
    let direct = try_run_sweep(&spec, &SweepOptions::with_workers(2)).expect("sweep runs");

    let clients = 8;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let jobs = &jobs;
            let direct = &direct;
            scope.spawn(move || {
                for i in 0..jobs.len() {
                    // Stagger the order per client so batches interleave.
                    let job = jobs[(i + client) % jobs.len()];
                    let expected = &direct.outcomes[(i + client) % jobs.len()].metrics;
                    let body = format!(
                        "{{\"workload\": \"{}\", \"size\": \"{}\", \"scheme\": \"{}\", \
                         \"org\": \"{}\", \"mem\": \"{}\"}}",
                        job.workload,
                        job.size.name(),
                        job.scheme.id(),
                        job.org.id(),
                        job.mem.id()
                    );
                    let (status, payload) = http(addr, "POST", "/simulate", Some(&body));
                    assert_eq!(status, 200, "{payload}");
                    let doc = Json::parse(&payload).expect("valid JSON");
                    // Bit-identical: every exact integer counter matches the
                    // direct sweep of the same spec.
                    for (field, expected_value) in [
                        ("instructions", expected.instructions),
                        ("cycles", expected.cycles),
                        ("branches", expected.branches),
                        ("stall_structural", expected.stall_structural),
                        ("stall_data_hazard", expected.stall_data_hazard),
                        ("stall_control", expected.stall_control),
                    ] {
                        assert_eq!(
                            doc.get(field).and_then(Json::as_u64),
                            Some(expected_value),
                            "{} {field}",
                            job.label()
                        );
                    }
                    // ... including the per-stage activity counters.
                    for (name, stage) in expected.activity.columns() {
                        let key = sigcomp_explore::column_slug(name);
                        let col = doc.get("activity").and_then(|a| a.get(&key)).unwrap();
                        assert_eq!(
                            col.get("compressed").and_then(Json::as_u64),
                            Some(stage.compressed_bits),
                            "{} activity {key}",
                            job.label()
                        );
                        assert_eq!(
                            col.get("baseline").and_then(Json::as_u64),
                            Some(stage.baseline_bits),
                            "{} activity {key}",
                            job.label()
                        );
                    }
                    assert_eq!(
                        doc.get("job_id").and_then(Json::as_str),
                        Some(format!("{:016x}", job.job_id()).as_str())
                    );
                }
            });
        }
    });

    // The metrics must prove deduplication: 32 requested, at most 4
    // simulated (one per distinct configuration).
    let metrics = get_json(addr, "/metrics");
    let batch = metrics.get("batch").expect("batch section");
    let requested = batch.get("jobs_requested").and_then(Json::as_u64).unwrap();
    let simulated = batch.get("jobs_simulated").and_then(Json::as_u64).unwrap();
    let memo = batch.get("jobs_memo_hits").and_then(Json::as_u64).unwrap();
    let deduped = batch
        .get("jobs_batch_deduped")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(requested, (clients * jobs.len()) as u64);
    assert_eq!(simulated as usize, jobs.len(), "one simulation per config");
    assert!(
        simulated < requested,
        "deduplication must be visible: {simulated} !< {requested}"
    );
    assert_eq!(memo + deduped + simulated, requested);

    // Per-backend dispatch accounting: this server runs the default
    // in-process backend, so every job that reached a backend was placed
    // locally — and placement happens after memo/batch dedup, so placed
    // jobs are exactly those that simulated or hit the disk cache.
    let dispatch = batch.get("dispatch").expect("dispatch section");
    let placed_local = dispatch.get("local").and_then(Json::as_u64).unwrap();
    let placed_subprocess = dispatch.get("subprocess").and_then(Json::as_u64).unwrap();
    let disk_hits = batch
        .get("jobs_disk_cache_hits")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(placed_local, simulated + disk_hits);
    assert_eq!(placed_subprocess, 0, "no subprocess backend configured");

    // The bounded memo reports its occupancy (and can never exceed the
    // distinct-job count here).
    let memo_entries = batch.get("memo_entries").and_then(Json::as_u64).unwrap();
    assert_eq!(memo_entries as usize, jobs.len());

    server.shutdown();
}

#[test]
fn capped_memo_and_registry_hold_server_memory_flat_under_distinct_traffic() {
    // A server with tiny caps must keep answering correctly while its
    // in-memory structures stay at their configured bounds.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 8,
            queue_capacity: 64,
            sim_workers: Some(2),
            memo_capacity: 2,
            ..BatchConfig::default()
        },
        finished_tickets: 1,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = server.addr();

    // Sustained distinct traffic: more distinct configurations than the
    // memo retains.
    let spec = SweepSpec::paper(WorkloadSize::Tiny)
        .workloads(&["rawcaudio", "pgp", "epic"])
        .orgs(&[OrgKind::Baseline32, OrgKind::ByteSerial]);
    for job in spec.enumerate() {
        let body = format!(
            "{{\"workload\": \"{}\", \"size\": \"{}\", \"scheme\": \"{}\", \
             \"org\": \"{}\", \"mem\": \"{}\"}}",
            job.workload,
            job.size.name(),
            job.scheme.id(),
            job.org.id(),
            job.mem.id()
        );
        let (status, payload) = http(addr, "POST", "/simulate", Some(&body));
        assert_eq!(status, 200, "{payload}");
        let metrics = get_json(addr, "/metrics");
        let entries = metrics
            .get("batch")
            .and_then(|b| b.get("memo_entries"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(entries <= 2, "memo grew past its cap: {entries}");
    }

    // Two finished sweep tickets with a retention of one: the older falls
    // out (404), the newer stays pollable — the registry cannot grow.
    let mut tickets = Vec::new();
    for _ in 0..2 {
        let (status, body) = http(
            addr,
            "POST",
            "/sweep",
            Some("{\"workloads\": [\"rawcaudio\"], \"sizes\": [\"tiny\"], \"orgs\": [\"baseline32\"]}"),
        );
        assert_eq!(status, 202, "{body}");
        let poll = Json::parse(&body)
            .unwrap()
            .get("poll")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        // Wait for this ticket to settle before submitting the next so the
        // eviction order is deterministic.
        let deadline = std::time::Instant::now() + std::time::Duration::from_mins(1);
        loop {
            let (status, body) = http(addr, "GET", &poll, None);
            if status == 200 && body.contains("\"status\": \"done\"") {
                break;
            }
            assert_eq!(status, 200, "{body}");
            assert!(std::time::Instant::now() < deadline, "sweep never finished");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        tickets.push(poll);
    }
    let (status, _) = http(addr, "GET", &tickets[0], None);
    assert_eq!(status, 404, "evicted ticket must be gone");
    let (status, body) = http(addr, "GET", &tickets[1], None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\": \"done\""), "{body}");

    server.shutdown();
}

#[test]
fn sync_sweep_over_http_matches_run_sweep() {
    let server = start_server();
    let addr = server.addr();

    let spec = SweepSpec::paper(WorkloadSize::Tiny).workloads(&["epic"]);
    let direct = try_run_sweep(&spec, &SweepOptions::with_workers(2)).expect("sweep runs");

    let (status, body) = http(
        addr,
        "POST",
        "/sweep",
        Some(
            "{\"workloads\": [\"epic\"], \"sizes\": [\"tiny\"], \
             \"schemes\": [\"3bit\"], \"mems\": [\"paper\"], \"sync\": true}",
        ),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("valid JSON");
    assert_eq!(
        doc.get("jobs").and_then(Json::as_u64),
        Some(direct.outcomes.len() as u64)
    );
    let outcomes = doc.get("outcomes").and_then(Json::as_arr).unwrap();
    assert_eq!(outcomes.len(), direct.outcomes.len());
    for (served, expected) in outcomes.iter().zip(&direct.outcomes) {
        assert_eq!(
            served.get("job_id").and_then(Json::as_str),
            Some(format!("{:016x}", expected.spec.job_id()).as_str())
        );
        assert_eq!(
            served.get("cycles").and_then(Json::as_u64),
            Some(expected.metrics.cycles)
        );
        assert_eq!(
            served.get("instructions").and_then(Json::as_u64),
            Some(expected.metrics.instructions)
        );
    }
    assert!(doc.get("frontier").and_then(Json::as_arr).is_some());

    server.shutdown();
}

#[test]
fn async_sweep_ticket_is_pollable_to_completion() {
    let server = start_server();
    let addr = server.addr();

    let (status, body) = http(
        addr,
        "POST",
        "/sweep",
        Some("{\"workloads\": [\"rawcaudio\"], \"sizes\": [\"tiny\"], \"orgs\": [\"baseline32\"]}"),
    );
    assert_eq!(status, 202, "{body}");
    let ticket = Json::parse(&body).expect("valid JSON");
    let poll = ticket
        .get("poll")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();

    let deadline = std::time::Instant::now() + std::time::Duration::from_mins(1);
    loop {
        let doc = get_json(addr, &poll);
        match doc.get("status").and_then(Json::as_str) {
            Some("running") => {
                assert!(std::time::Instant::now() < deadline, "sweep never finished");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Some("done") => {
                assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(1));
                break;
            }
            other => panic!("unexpected status {other:?}"),
        }
    }

    server.shutdown();
}

#[test]
fn full_queue_sheds_with_a_fast_503_and_retry_after() {
    // Load-shedding regression: a single-slot queue behind a single-slot
    // dispatcher. Concurrent interactive /simulate clients beyond queue
    // room must get an immediate 503 with a Retry-After header — never a
    // connection that silently hangs until the queue drains.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 1,
            queue_capacity: 1,
            sim_workers: Some(1),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = server.addr();

    // Distinct default-size jobs (slow enough to occupy the dispatcher) in
    // bursts of concurrent clients; each round uses fresh configurations so
    // the memo can never answer without queueing. Timing-dependent, so loop
    // bursts until a shed is observed.
    let jobs: Vec<JobSpec> = SweepSpec::paper(WorkloadSize::Default).enumerate();
    let mut shed = None;
    'rounds: for round in jobs.chunks(8).take(4) {
        let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = round
                .iter()
                .map(|job| {
                    let body = format!(
                        "{{\"workload\": \"{}\", \"size\": \"{}\", \"scheme\": \"{}\", \
                         \"org\": \"{}\", \"mem\": \"{}\"}}",
                        job.workload,
                        job.size.name(),
                        job.scheme.id(),
                        job.org.id(),
                        job.mem.id()
                    );
                    scope.spawn(move || http_raw(addr, "POST", "/simulate", Some(&body)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (status, raw) in responses {
            assert!(
                status == 200 || status == 503,
                "unexpected status {status}: {raw}"
            );
            if status == 503 {
                shed = Some(raw);
                break 'rounds;
            }
        }
    }
    let raw = shed.expect("a one-slot queue under concurrent bursts must shed");
    let lowered = raw.to_ascii_lowercase();
    assert!(
        lowered.contains("\r\nretry-after:"),
        "503 must carry Retry-After: {raw}"
    );
    // The hint is derived from the backlog (batches queued ahead), not a
    // hardcoded constant: with queue_capacity = max_batch = 1 the shed
    // client has at most one batch ahead of it, so the hint must be the
    // 1-second floor — and in any configuration it must stay within the
    // derivation's clamp, never 0 (busy loop) or unbounded.
    let retry_after: u64 = lowered
        .lines()
        .find_map(|line| line.strip_prefix("retry-after:"))
        .and_then(|value| value.trim().parse().ok())
        .expect("Retry-After value must be an integer");
    assert_eq!(retry_after, 1, "one-slot queue ⇒ one pending batch: {raw}");
    assert!(lowered.contains("overloaded"), "{raw}");

    // The shed is accounted on /metrics.
    let metrics = get_json(addr, "/metrics");
    let shed_count = metrics
        .get("batch")
        .and_then(|b| b.get("jobs_shed"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        shed_count >= 1,
        "jobs_shed must count the 503: {shed_count}"
    );

    server.shutdown();
}

#[test]
fn malformed_requests_get_clean_4xx_responses() {
    let server = start_server();
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/simulate", Some("{not json"));
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON body"), "{body}");

    let (status, body) = http(addr, "POST", "/simulate", Some("{\"workload\": \"nope\"}"));
    assert_eq!(status, 400);
    assert!(body.contains("unknown workload"), "{body}");

    let (status, _) = http(addr, "GET", "/no-such-endpoint", None);
    assert_eq!(status, 404);

    let (status, _) = http(addr, "DELETE", "/simulate", Some(""));
    assert_eq!(status, 405);

    // Raw protocol garbage must still produce an HTTP error, not a hang or
    // a dropped connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"NONSENSE\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    // The server must still be healthy afterwards.
    let (status, _) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn job_specs_used_by_clients_hash_like_the_server() {
    // The dedup key is the content hash; pin that a client-side JobSpec and
    // the parsed server-side spec agree (guards against the API layer
    // defaulting an axis differently than advertised).
    let job = JobSpec {
        scheme: ExtScheme::ThreeBit,
        org: OrgKind::ByteSerial,
        workload: "rawcaudio",
        size: WorkloadSize::Default,
        mem: MemProfile::Paper,
        source: sigcomp_explore::TraceSource::Kernel,
    };
    let server = start_server();
    let (status, body) = http(
        server.addr(),
        "POST",
        "/simulate",
        Some("{\"workload\": \"rawcaudio\"}"),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("valid JSON");
    assert_eq!(
        doc.get("job_id").and_then(Json::as_str),
        Some(format!("{:016x}", job.job_id()).as_str()),
        "server defaults must match the documented flagship configuration"
    );
    server.shutdown();
}

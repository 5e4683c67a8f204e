//! The `sebmc serve` daemon, driven in-process over real TCP sockets
//! with the in-tree wire client.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sebmc_repro::logic::json::Json;
use sebmc_repro::service::{
    serve_on, JobSpec, LineEvent, LineReader, ServeSummary, ServiceConfig, WireClient,
};

/// Binds a loopback listener and runs the daemon on a background
/// thread; returns the address and the join handle yielding the
/// summary.
fn spawn_daemon(config: ServiceConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || serve_on(listener, config).expect("serve runs"));
    (addr, server)
}

fn spec(line: &str) -> JobSpec {
    JobSpec::parse_line(line).expect("job line parses")
}

#[test]
fn daemon_serves_duplicates_from_cache_and_shuts_down_gracefully() {
    let (addr, server) =
        spawn_daemon(ServiceConfig::with_workers(2).with_result_cache_bytes(8 << 20));
    let mut wire = WireClient::connect(&addr).expect("connect");
    assert_eq!(
        wire.hello.get("cache").and_then(Json::as_bool),
        Some(true),
        "hello advertises the cache"
    );
    wire.ping().expect("ping round-trips");

    let id0 = wire
        .submit(&spec("suite:ring_4 jsat,unroll 6 priority=9"))
        .expect("submit io")
        .expect("accepted");
    let cold = wire
        .next_report(Some(Duration::from_secs(120)))
        .expect("report io")
        .expect("cold report arrives");
    assert_eq!(cold.get("id").and_then(Json::as_u64), Some(id0 as u64));
    assert_eq!(
        cold.get("verdict").and_then(Json::as_str),
        Some("reachable")
    );
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(cold.get("priority").and_then(Json::as_u64), Some(9));
    // (No assert on the cold run's solver_effort: effort counts
    // conflicts, and a tiny instance can legitimately solve with
    // zero, depending on which racing engine wins each bound.)

    // The duplicate: same model/semantics/bound/certify — answered
    // from the cache, zero solver effort, identical verdict.
    let id1 = wire
        .submit(&spec("suite:ring_4 jsat,unroll 6"))
        .expect("submit io")
        .expect("accepted");
    let hit = wire
        .next_report(Some(Duration::from_secs(120)))
        .expect("report io")
        .expect("cached report arrives");
    assert_eq!(hit.get("id").and_then(Json::as_u64), Some(id1 as u64));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        hit.get("stats")
            .and_then(|s| s.get("solver_effort"))
            .and_then(Json::as_u64),
        Some(0),
        "a cache hit costs no solver effort"
    );
    assert_eq!(
        hit.get("verdict").and_then(Json::as_str),
        cold.get("verdict").and_then(Json::as_str),
        "identical verdict"
    );
    assert_eq!(
        hit.get("bound").and_then(Json::as_u64),
        cold.get("bound").and_then(Json::as_u64)
    );
    assert_eq!(
        hit.get("certificate").map(Json::to_string),
        cold.get("certificate").map(Json::to_string),
        "identical certificate summary"
    );

    // A different-priority mix still round-trips.
    wire.submit(&spec("suite:traffic unroll 3 priority=0"))
        .expect("submit io")
        .expect("accepted");
    let third = wire
        .next_report(Some(Duration::from_secs(120)))
        .expect("report io")
        .expect("third report");
    assert_eq!(third.get("priority").and_then(Json::as_u64), Some(0));

    wire.shutdown("graceful").expect("shutdown acked");
    let summary = server.join().expect("server thread joins");
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.jobs_submitted, 3);
    assert_eq!(summary.jobs_rejected, 0);
    assert_eq!(summary.reports_delivered, 3);
    assert!(summary.leftover.is_empty(), "every report was delivered");
    assert_eq!(summary.cache, Some((1, 2)));
}

#[test]
fn stats_frame_counters_agree_with_the_exit_summary() {
    let (addr, server) =
        spawn_daemon(ServiceConfig::with_workers(1).with_result_cache_bytes(8 << 20));
    let mut wire = WireClient::connect(&addr).expect("connect");
    // A cold run plus an identical duplicate answered from the cache.
    for _ in 0..2 {
        wire.submit(&spec("suite:ring_4 jsat 6"))
            .expect("submit io")
            .expect("accepted");
    }
    for _ in 0..2 {
        wire.next_report(Some(Duration::from_secs(120)))
            .expect("report io")
            .expect("report arrives");
    }
    // A submission the daemon refuses itself: its model does not exist.
    let refusal = wire
        .submit(&spec("suite:no_such_model jsat 3"))
        .expect("submit io")
        .expect_err("an unknown model is refused");
    assert!(refusal.contains("no_such_model"), "{refusal}");
    let snapshot = wire.stats().expect("stats round-trips");
    assert!(
        snapshot.get("uptime_ms").and_then(Json::as_u64).is_some(),
        "snapshot carries the daemon's uptime: {snapshot}"
    );
    let metrics = snapshot.get("metrics").expect("metrics object").clone();
    let counter = |key: &str| {
        metrics
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metric '{key}' missing in {metrics}"))
    };
    assert_eq!(counter("jobs_submitted"), 2);
    assert_eq!(counter("jobs_rejected"), 1, "the unknown model");
    assert_eq!(counter("jobs_completed"), 1, "the cache hit never ran");
    assert_eq!(counter("jobs_cached"), 1);
    assert_eq!(counter("cache_hits"), 1);
    assert_eq!(counter("cache_misses"), 1);
    assert_eq!(
        counter("queue_depth"),
        0,
        "drained once both reports landed"
    );
    assert_eq!(counter("jobs_in_flight"), 0);
    assert_eq!(counter("queue_depth_high_water"), 1);
    assert_eq!(
        metrics
            .get("solve_latency_ms")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(1),
        "one solved job in the latency histogram"
    );

    wire.shutdown("graceful").expect("shutdown acked");
    let summary = server.join().expect("server thread joins");
    // The live snapshot and the exit summary tell the same story.
    assert_eq!(summary.jobs_submitted, 2);
    assert_eq!(summary.jobs_rejected, 1);
    assert_eq!(summary.reports_delivered, 2);
    assert_eq!(summary.cache, Some((1, 1)));
    assert!(summary.uptime > Duration::ZERO);
    let json = summary.to_json().to_string();
    assert!(json.contains("\"uptime_ms\":"), "{json}");
    assert!(
        json.contains("\"cache\":{\"hits\":1,\"misses\":1}"),
        "{json}"
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs_and_rejects_new_submissions() {
    let (addr, server) = spawn_daemon(ServiceConfig::with_workers(1));
    let mut wire = WireClient::connect(&addr).expect("connect");
    // Whether or not this finishes before the shutdown frame lands,
    // the server must answer the pipelined post-shutdown submission
    // with a refusal (it drains buffered frames before closing).
    wire.submit(&spec("suite:ring_12 jsat 11"))
        .expect("submit io")
        .expect("accepted");
    wire.shutdown("graceful").expect("shutdown acked");
    let refusal = wire
        .submit(&spec("suite:traffic unroll 3"))
        .expect("submit io")
        .expect_err("no new work after shutdown");
    assert_eq!(refusal, "shutting down");
    // The in-flight job still drains to a report over this connection.
    let report = wire
        .next_report(Some(Duration::from_secs(120)))
        .expect("report io")
        .expect("drained report");
    assert_ne!(
        report.get("verdict").and_then(Json::as_str),
        Some("unknown"),
        "graceful shutdown runs the in-flight job to completion"
    );
    let summary = server.join().expect("server thread joins");
    assert_eq!(summary.jobs_submitted, 1);
    assert_eq!(summary.jobs_rejected, 1);
    assert_eq!(summary.reports_delivered, 1);
    assert!(summary.leftover.is_empty(), "no job dropped");
}

#[test]
fn malformed_frames_get_protocol_errors_not_disconnects() {
    let (addr, server) = spawn_daemon(ServiceConfig::with_workers(1));
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = LineReader::new(stream.try_clone().expect("clone"));
    let read_frame = |reader: &mut LineReader<TcpStream>| -> Json {
        match reader.read_line() {
            LineEvent::Line(l) => Json::parse(&l).expect("server frames parse"),
            other => panic!("expected a frame, got {other:?}"),
        }
    };
    assert_eq!(
        read_frame(&mut reader).get("op").and_then(Json::as_str),
        Some("hello")
    );
    let deep = "[".repeat(200_000);
    for (bad, expect_in_message) in [
        ("this is not json", "bad frame"),
        ("{\"op\":\"frobnicate\"}", "unknown op"),
        ("{\"model\":\"suite:ring_4\"}", "missing"),
        (deep.as_str(), "bad frame"),
    ] {
        stream.write_all(bad.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let reply = read_frame(&mut reader);
        assert_eq!(reply.get("op").and_then(Json::as_str), Some("error"));
        let message = reply
            .get("message")
            .and_then(Json::as_str)
            .expect("error message");
        assert!(
            message.contains(expect_in_message),
            "message '{message}' should mention '{expect_in_message}'"
        );
    }
    stream
        .write_all(b"{\"op\":\"shutdown\",\"mode\":\"now\"}\n")
        .expect("write");
    assert_eq!(
        read_frame(&mut reader).get("op").and_then(Json::as_str),
        Some("shutdown_ack")
    );
    let summary = server.join().expect("server thread joins");
    assert_eq!(summary.jobs_submitted, 0);
    assert_eq!(summary.jobs_rejected, 1, "the malformed submission");
}

#[test]
fn full_queue_refuses_submissions_with_overload_error() {
    let (addr, server) = spawn_daemon(ServiceConfig::with_workers(1).with_max_queue_depth(0));
    let mut wire = WireClient::connect(&addr).expect("connect");
    let refusal = wire
        .submit(&spec("suite:ring_4 jsat 6"))
        .expect("submit io")
        .expect_err("depth-0 queue accepts nothing");
    assert_eq!(refusal, "overloaded: queue full");
    wire.shutdown("now").expect("shutdown acked");
    let summary = server.join().expect("server thread joins");
    assert_eq!(summary.jobs_submitted, 0);
    assert_eq!(summary.jobs_rejected, 1);
}

#[test]
fn cache_hit_round_trips_do_not_stall_on_the_wire() {
    let (addr, server) =
        spawn_daemon(ServiceConfig::with_workers(1).with_result_cache_bytes(8 << 20));
    let mut wire = WireClient::connect(&addr).expect("connect");
    let job = spec("suite:ring_4 jsat 6");
    wire.submit(&job).expect("submit io").expect("accepted");
    wire.next_report(Some(Duration::from_secs(120)))
        .expect("report io")
        .expect("cold report arrives");
    // Each round trip is a submit, its `accepted` and the pushed
    // report, three frames that solve nothing. A frame split over two
    // writes without TCP_NODELAY, or a report that waits for the next
    // read timeout, costs tens of milliseconds apiece.
    let started = Instant::now();
    for _ in 0..40 {
        wire.submit(&job).expect("submit io").expect("accepted");
        let hit = wire
            .next_report(Some(Duration::from_secs(10)))
            .expect("report io")
            .expect("cached report arrives");
        assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    }
    let elapsed = started.elapsed();
    wire.shutdown("graceful").expect("shutdown acked");
    let summary = server.join().expect("server thread joins");
    assert_eq!(summary.cache, Some((40, 1)));
    assert!(
        elapsed < Duration::from_secs(1),
        "40 cache-hit round trips took {elapsed:?}"
    );
}

#[test]
fn reports_owed_to_a_client_that_hung_up_end_in_leftover() {
    let (addr, server) = spawn_daemon(ServiceConfig::with_workers(2));
    let mut quitter = WireClient::connect(&addr).expect("connect");
    for bound in 9..13 {
        quitter
            .submit(&spec(&format!("suite:ring_12 jsat {bound}")))
            .expect("submit io")
            .expect("accepted");
    }
    // Hang up with every report still owed, then shut down from a
    // second connection: each report is either written before the
    // daemon notices or handed to the exit summary.
    drop(quitter);
    let mut admin = WireClient::connect(&addr).expect("connect");
    admin.shutdown("graceful").expect("shutdown acked");
    let summary = server.join().expect("server thread joins");
    assert_eq!(summary.jobs_submitted, 4);
    assert_eq!(
        summary.reports_delivered + summary.leftover.len(),
        summary.jobs_submitted,
        "every job ends in exactly one report"
    );
}

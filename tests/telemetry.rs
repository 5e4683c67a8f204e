//! The telemetry layer end to end: a fault-injected retried job run
//! with a trace file must leave a decodable JSONL timeline covering
//! every attempt, pinned by a golden, and the metrics registry must
//! agree with the service's own report.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{check_golden, json_lines, MASK};
use sebmc_repro::bmc::Budget;
use sebmc_repro::logic::json::Json;
use sebmc_repro::model::builders::shift_register;
use sebmc_repro::service::{EngineKind, Job, RetryPolicy, ServiceConfig, ServiceHandle};
use sebmc_repro::telemetry::Telemetry;

/// Collects the `"ev"` field and full object of every trace line.
fn decode_trace(text: &str) -> Vec<(String, Json)> {
    text.lines()
        .map(|line| {
            let obj = Json::parse(line)
                .unwrap_or_else(|e| panic!("trace line must be valid JSON ({e}): {line}"));
            let ev = obj
                .get("ev")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("trace line must carry an event kind: {line}"))
                .to_string();
            (ev, obj)
        })
        .collect()
}

#[test]
fn trace_file_covers_every_attempt_of_a_retried_job() {
    let dir = std::env::temp_dir().join(format!(
        "sebmc_trace_test_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("service.trace.jsonl");
    let telemetry =
        Arc::new(Telemetry::with_trace_file(&trace_path).expect("open trace file for writing"));

    // Engine safe point fires once per check_bound: hits 1 and 2
    // decide bounds 0 and 1, hit 3 panics at bound 2 — attempt 1
    // fails, attempt 2 resumes and finishes.
    let mut budget = Budget::none();
    budget.fault = "panic@engine:3".parse().expect("fault plan");
    let jobs = vec![Job::new(shift_register(4), vec![EngineKind::Unroll], 8)
        .with_budget(budget)
        .with_retry(RetryPolicy {
            backoff: Duration::from_millis(1),
            ..RetryPolicy::with_retries(2)
        })];
    let report = ServiceHandle::run_batch(
        ServiceConfig::with_workers(1).with_telemetry(Arc::clone(&telemetry)),
        jobs,
    );
    let job = &report.jobs[0];
    assert_eq!(job.attempts, 2, "one crash, one clean retry");
    assert!(job.verdict.is_reachable(), "{}", job.verdict);

    telemetry.flush();
    let text = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let events = decode_trace(&text);
    assert!(!events.is_empty(), "the run leaves a timeline");

    // Sequence numbers are dense and monotone: nothing was dropped.
    for (i, (_, obj)) in events.iter().enumerate() {
        assert_eq!(
            obj.get("seq").and_then(Json::as_u64),
            Some(i as u64),
            "seq {i} in order"
        );
        assert!(obj.get("t_us").and_then(Json::as_u64).is_some());
    }

    let of_kind = |kind: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|(ev, _)| ev == kind)
            .map(|(_, obj)| obj)
            .collect()
    };
    assert_eq!(of_kind("submit").len(), 1);
    assert_eq!(of_kind("pop").len(), 1);

    // Every attempt is on the timeline: start 1 and 2, the first
    // ending in a retry (with the failure's reason), the second final.
    let starts: Vec<u64> = of_kind("attempt_start")
        .iter()
        .filter_map(|o| o.get("attempt").and_then(Json::as_u64))
        .collect();
    assert_eq!(starts, vec![1, 2], "one attempt_start per attempt");
    let ends: Vec<(u64, String)> = of_kind("attempt_end")
        .iter()
        .map(|o| {
            (
                o.get("attempt").and_then(Json::as_u64).expect("attempt"),
                o.get("outcome")
                    .and_then(Json::as_str)
                    .expect("outcome")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        ends,
        vec![(1, "retry".to_string()), (2, "final".to_string())]
    );
    let retry_end = of_kind("attempt_end")[0];
    assert!(
        retry_end
            .get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("injected fault")),
        "the retry records why: {retry_end}"
    );
    assert_eq!(of_kind("backoff").len(), 1, "one pause between attempts");
    // The retry resumed mid-sweep, so bound entries from both attempts
    // show up and cover the resume point.
    let bounds: Vec<u64> = of_kind("bound")
        .iter()
        .filter_map(|o| o.get("k").and_then(Json::as_u64))
        .collect();
    assert_eq!(
        bounds,
        vec![0, 1, 2, 2, 3, 4],
        "attempt 1 enters bounds 0..=2 (panicking at 2), attempt 2 \
         resumes at the undecided bound 2 and sweeps to the verdict"
    );

    // The whole timeline, byte for byte, with the fields a clock
    // decides masked: every event's `t_us` and the backoff's `ms`.
    let masked: String = json_lines(&text)
        .into_iter()
        .map(|mut event| {
            if let Json::Obj(fields) = &mut event {
                for (key, value) in fields.iter_mut() {
                    if key == "t_us" || key == "ms" {
                        *value = Json::Str(MASK.into());
                    }
                }
            }
            format!("{event}\n")
        })
        .collect();
    check_golden("trace_retried_job", &masked);

    // The registry agrees with the service report.
    let snapshot = telemetry.snapshot_json();
    let metrics = snapshot.get("metrics").expect("metrics");
    let counter = |key: &str| metrics.get(key).and_then(Json::as_u64).expect("metric");
    assert_eq!(counter("jobs_submitted"), 1);
    assert_eq!(counter("jobs_completed"), 1);
    assert_eq!(counter("jobs_retried"), 1);
    assert_eq!(counter("jobs_quarantined"), 0);
    assert!(
        counter("solver_propagations") > 0,
        "solver progress reached the registry"
    );
    assert_eq!(
        report.queue_pops.iter().sum::<u64>(),
        1,
        "the aggregate's pop counts match the single pickup"
    );

    std::fs::remove_dir_all(&dir).ok();
}

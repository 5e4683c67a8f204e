//! Golden outputs of the three ways a bound sweep reaches a user: the
//! CLI (single bound and `--deepen`), the batch service, and the
//! `serve` daemon.
//!
//! Each case runs one command and compares its JSON output, one value
//! per line after the exit code, with `tests/golden/<case>.txt`. Only
//! what a clock decides is masked: `*_ms`, `*_ms_total`,
//! `jobs_per_sec` and `queue_pops`. A portfolio job additionally masks
//! `winners` and `stats` (which engine wins a race is a matter of
//! timing), and a report holding one also masks `total_stats`.
//!
//! A missing golden file is written from the current output and the
//! case fails, so an intended output change is recorded by deleting
//! the file, re-running the test and reviewing the diff.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use sebmc_repro::aiger;
use sebmc_repro::logic::json::Json;
use sebmc_repro::model::builders::{shift_register, traffic_light};
use sebmc_repro::model::Model;
use sebmc_repro::service::{serve_on, JobSpec, LineEvent, LineReader, ServiceConfig};

/// Placeholder for a masked value.
const MASK: &str = "~";

/// Whether a job object is a portfolio job (two or more engines).
fn is_portfolio(job: &Json) -> bool {
    job.get("engines")
        .and_then(Json::as_arr)
        .is_some_and(|e| e.len() > 1)
}

/// Masks the clock-derived and race-derived values of `v` in place.
fn mask(v: &mut Json) {
    let portfolio = is_portfolio(v);
    let races = v
        .get("jobs")
        .and_then(Json::as_arr)
        .is_some_and(|jobs| jobs.iter().any(is_portfolio));
    match v {
        Json::Obj(fields) => {
            for (k, v) in fields.iter_mut() {
                let clock = k.ends_with("_ms")
                    || k.ends_with("_ms_total")
                    || k == "jobs_per_sec"
                    || k == "queue_pops";
                let raced = (portfolio && (k == "winners" || k == "stats"))
                    || (races && k == "total_stats");
                if clock || raced {
                    *v = Json::Str(MASK.into());
                } else {
                    mask(v);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}

/// One masked JSON value per non-empty line of `text`.
fn masked_lines(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut v = Json::parse(l).unwrap_or_else(|e| panic!("not JSON ({e}): {l}"));
            mask(&mut v);
            format!("{v}\n")
        })
        .collect()
}

/// Compares `actual` with the golden file of `case`, writing the file
/// when it does not exist yet.
fn check_golden(case: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{case}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(expected) => assert!(
            expected == actual,
            "golden '{case}' differs\n--- expected ({})\n{expected}--- actual\n{actual}",
            path.display()
        ),
        Err(_) => {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
            std::fs::write(&path, actual).expect("write golden");
            panic!(
                "golden '{case}' was missing and has been written to {}; review and re-run",
                path.display()
            );
        }
    }
}

/// Runs the CLI on `input` (a file or a subcommand) with the
/// whitespace-separated `flags` plus `--json --quiet`, and checks its
/// exit code and masked stdout against the golden of `case`.
fn check_cli(case: &str, input: &str, flags: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sebmc-cli"))
        .arg(input)
        .args(flags.split_whitespace())
        .args(["--json", "--quiet"])
        .output()
        .expect("run sebmc");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let actual = format!(
        "exit {}\n{}",
        out.status.code().expect("exit code"),
        masked_lines(&stdout)
    );
    check_golden(case, &actual);
}

/// A scratch directory for this test's AIGER inputs.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sebmc-golden-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes `model` as an ASCII AIGER file into `dir`.
fn write_aag(dir: &Path, model: &Model) -> String {
    let path = dir.join(format!("{}.aag", model.name()));
    let file = aiger::model_to_aiger(model).expect("export");
    std::fs::write(&path, aiger::to_ascii_string(&file)).expect("write aag");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn cli_single_bound_goldens() {
    let dir = scratch("single");
    let shift = write_aag(&dir, &shift_register(3));
    let traffic = write_aag(&dir, &traffic_light());
    check_cli("cli_jsat_reachable", &shift, "--engine jsat --bound 3");
    check_cli(
        "cli_unroll_unreachable",
        &traffic,
        "--engine unroll --bound 5",
    );
    let squaring = "--engine qbf-squaring --bound";
    check_cli(
        "cli_qbf_squaring_supported",
        &traffic,
        &format!("{squaring} 4"),
    );
    check_cli(
        "cli_qbf_squaring_unsupported",
        &traffic,
        &format!("{squaring} 3"),
    );
    check_cli(
        "cli_jsat_certify",
        &shift,
        "--engine jsat --bound 3 --certify",
    );
    check_cli(
        "cli_unroll_certify",
        &traffic,
        "--engine unroll --bound 5 --certify",
    );
    let induction = "--engine k-induction --bound 8";
    check_cli("cli_k_induction_proved", &traffic, induction);
    check_cli("cli_k_induction_falsified", &shift, induction);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cli_deepen_goldens() {
    let dir = scratch("deepen");
    let shift = write_aag(&dir, &shift_register(3));
    let traffic = write_aag(&dir, &traffic_light());
    let cases = [
        (
            "cli_deepen_jsat_reachable",
            &shift,
            "--engine jsat --bound 6",
        ),
        (
            "cli_deepen_unroll_reachable",
            &shift,
            "--engine unroll --bound 6",
        ),
        (
            "cli_deepen_unroll_unreachable",
            &traffic,
            "--engine unroll --bound 5",
        ),
        (
            "cli_deepen_qbf_squaring_skips",
            &traffic,
            "--engine qbf-squaring --bound 3",
        ),
        (
            "cli_deepen_jsat_certify",
            &shift,
            "--engine jsat --bound 6 --certify",
        ),
        (
            "cli_deepen_unroll_certify",
            &traffic,
            "--engine unroll --bound 5 --certify",
        ),
        (
            "cli_deepen_timeout_zero",
            &shift,
            "--engine unroll --bound 6 --timeout-ms 0",
        ),
    ];
    for (case, input, flags) in cases {
        check_cli(case, input, &format!("--deepen {flags}"));
    }
    std::fs::remove_dir_all(dir).ok();
}

/// `sebmc batch` on the small suite; the worker count is pinned
/// because the report prints it.
fn check_batch(case: &str, flags: &str) {
    check_cli(case, "batch", &format!("--suite small --workers 2 {flags}"));
}

#[test]
fn batch_unroll_certify_golden() {
    check_batch("batch_small_unroll_certify", "--engines unroll --certify");
}

#[test]
fn batch_portfolio_golden() {
    check_batch("batch_small_jsat_unroll", "--engines jsat,unroll");
}

#[test]
fn batch_engine_panic_retry_golden() {
    check_batch(
        "batch_small_unroll_panic_retry",
        "--engines unroll --fault-plan panic@engine:3 --retries 1 --backoff-ms 1",
    );
}

#[test]
fn batch_solver_oom_golden() {
    check_batch(
        "batch_small_jsat_certify_oom",
        "--engines jsat --certify --fault-plan oom@solver:5",
    );
}

/// Reads one frame from the daemon.
fn read_frame(reader: &mut LineReader<TcpStream>) -> String {
    match reader.read_line() {
        LineEvent::Line(l) => l,
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn serve_exchange_golden() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        serve_on(listener, ServiceConfig::with_workers(1)).expect("serve runs")
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reader = LineReader::new(stream.try_clone().expect("clone"));
    let mut transcript = vec![read_frame(&mut reader)];
    let spec = JobSpec::parse_line("suite:ring_4 jsat 6").expect("job line parses");
    writeln!(stream, "{}", spec.to_json()).expect("submit");
    transcript.push(read_frame(&mut reader));
    transcript.push(read_frame(&mut reader));
    writeln!(stream, "{{\"op\":\"shutdown\",\"mode\":\"graceful\"}}").expect("shutdown");
    transcript.push(read_frame(&mut reader));
    transcript.push(server.join().expect("server thread joins").to_json());
    check_golden("serve_exchange", &masked_lines(&transcript.join("\n")));
}

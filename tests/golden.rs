//! Golden outputs of the ways a bound sweep reaches a user: the CLI
//! (single bound and `--deepen`), the batch service, and the `serve`
//! daemon, plus the `analyze` diagnostics and, in-process, the formula
//! each engine builds (`encodings_small_suite`).
//!
//! Each case runs one command and compares its JSON output, one value
//! per line after the exit code, with `tests/golden/<case>.txt` (see
//! `common` for how a golden is recorded). Every line must be exactly
//! what `Json`'s `Display` prints for its value. Only what a clock
//! decides is then masked: `*_ms`, `*_ms_total`, `jobs_per_sec` and
//! `queue_pops`. A portfolio job additionally masks `winners` and
//! `stats` (which engine wins a race is a matter of timing), and a
//! report holding one also masks `total_stats`.

mod common;

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use common::{check_golden, json_lines, MASK};
use sebmc_repro::aiger;
use sebmc_repro::bmc::{
    encode_qbf_linear, encode_qbf_squaring, encode_unrolled, k_induction_run, Budget, Engine,
    InductionResult, JSat, Semantics, UnrollSat,
};
use sebmc_repro::logic::json::{obj, Json};
use sebmc_repro::logic::Cnf;
use sebmc_repro::model::builders::{shift_register, traffic_light};
use sebmc_repro::model::{suite13, suite13_small, Model};
use sebmc_repro::qbf::QbfFormula;
use sebmc_repro::service::{serve_on, JobSpec, LineEvent, LineReader, ServiceConfig};

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
    json_lines(text)
        .into_iter()
        .map(|mut v| {
            mask(&mut v);
            format!("{v}\n")
        })
        .collect()
}

/// Runs the CLI on `input` (a file or a subcommand) with the
/// whitespace-separated `flags` plus `--json --quiet`, and checks its
/// exit code and masked stdout against the golden of `case`.
fn check_cli(case: &str, input: &str, flags: &str) {
    let mut args = vec![input];
    args.extend(flags.split_whitespace());
    args.extend(["--json", "--quiet"]);
    check_command(case, &args);
}

/// Runs the CLI with `args` and checks its exit code and masked stdout
/// against the golden of `case`.
fn check_command(case: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sebmc-cli"))
        .args(args)
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

/// `sebmc analyze --json` (which takes no `--quiet`): a random model
/// with swept, out-of-cone and unused entries, and a ring that
/// reduction leaves whole.
#[test]
fn analyze_goldens() {
    check_command(
        "analyze_random_5_1_2005",
        &["analyze", "suite:random_5_1_2005", "--json"],
    );
    check_command("analyze_ring_4", &["analyze", "suite:ring_4", "--json"]);
}

/// One line for an encoding at bound 4: its size and, for a QBF, the
/// shape of its prefix.
fn encoding_line(model: &Model, encoding: &str, matrix: &Cnf, qbf: Option<&QbfFormula>) -> Json {
    let mut fields = vec![
        ("model", model.name().into()),
        ("encoding", encoding.into()),
        ("vars", matrix.num_vars().into()),
        ("clauses", matrix.num_clauses().into()),
        ("lits", matrix.num_literals().into()),
    ];
    if let Some(f) = qbf {
        fields.push(("universals", f.num_universals().into()));
        fields.push(("alternations", f.num_alternations().into()));
    }
    obj(fields)
}

/// One line for `k_induction_run(model, 24)`: the outcome and the
/// run's cumulative stats.
fn induction_line(model: &Model, budget: &Budget) -> Json {
    let run = k_induction_run(model, 24, budget);
    let outcome = match run.result {
        InductionResult::Proved { k } => format!("proved at depth {k}"),
        InductionResult::Falsified { cex } => format!("falsified ({} steps)", cex.len()),
        InductionResult::Exhausted { max_depth } => format!("exhausted at depth {max_depth}"),
        InductionResult::Unknown { reason } => format!("unknown: {reason}"),
    };
    obj(vec![
        ("model", model.name().into()),
        ("engine", "k-induction".into()),
        ("outcome", outcome.into()),
        ("stats", run.stats.to_json()),
    ])
}

/// Every formula an engine hands its solver, pinned in-process on
/// unreduced models by what the solver makes of it: unroll and jSAT
/// sessions swept over bounds 0..=8 under both semantics (each bound's
/// verdict and the session's cumulative sizes, peaks and effort), the
/// sizes of the unrolled, linear-QBF and squaring encodings at bound 4,
/// and k-induction to depth 24, on the paper suite as well.
#[test]
fn encodings_golden() {
    let budget = Budget {
        reduce: false,
        ..Budget::none()
    };
    let mut lines = Vec::new();
    for model in suite13_small() {
        for engine in [&UnrollSat as &dyn Engine, &JSat::default()] {
            for semantics in [Semantics::Exactly, Semantics::Within] {
                let mut session = engine.start(&model, semantics, budget.clone());
                let verdicts = (0..=8)
                    .map(|k| session.check_bound(k).result.to_string().into())
                    .collect();
                let total = session.cumulative_stats();
                lines.push(obj(vec![
                    ("model", model.name().into()),
                    ("engine", engine.name().into()),
                    ("semantics", semantics.to_string().into()),
                    ("verdicts", Json::Arr(verdicts)),
                    ("encode_vars", total.encode_vars.into()),
                    ("encode_clauses", total.encode_clauses.into()),
                    ("encode_lits", total.encode_lits.into()),
                    ("peak_formula_bytes", total.peak_formula_bytes.into()),
                    ("peak_watch_bytes", total.peak_watch_bytes.into()),
                    ("solver_effort", total.solver_effort.into()),
                ]));
            }
        }
        let unrolled = encode_unrolled(&model, 4);
        let linear = encode_qbf_linear(&model, 4).formula;
        let squaring = encode_qbf_squaring(&model, 4).formula;
        lines.push(encoding_line(&model, "unrolled", &unrolled, None));
        lines.push(encoding_line(
            &model,
            "qbf-linear",
            linear.matrix(),
            Some(&linear),
        ));
        lines.push(encoding_line(
            &model,
            "qbf-squaring",
            squaring.matrix(),
            Some(&squaring),
        ));
        lines.push(induction_line(&model, &budget));
    }
    for model in suite13() {
        lines.push(induction_line(&model, &budget));
    }
    let text: String = lines
        .into_iter()
        .map(|mut v| {
            mask(&mut v);
            format!("{v}\n")
        })
        .collect();
    check_golden("encodings_small_suite", &text);
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
    let summary = server.join().expect("server thread joins");
    transcript.push(summary.to_json().to_string());
    check_golden("serve_exchange", &masked_lines(&transcript.join("\n")));
}

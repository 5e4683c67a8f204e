//! End-to-end tests of the `sebmc` CLI binary: AIGER in, HWMCC-style
//! verdict and stimulus witness out.

use std::io::Write;
use std::process::Command;

use sebmc_repro::aiger;
use sebmc_repro::model::builders::{shift_register, traffic_light};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sebmc-cli"))
}

fn write_temp_aag(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sebmc-test-{name}-{}.aag", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

#[test]
fn reachable_circuit_yields_witness() {
    let model = shift_register(3);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("shift", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "jsat",
            "--bound",
            "3",
            "--quiet",
        ])
        .output()
        .expect("run sebmc");
    assert_eq!(out.status.code(), Some(10), "reachable exit code");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "1");
    assert_eq!(lines[1], "b0");
    assert_eq!(lines[2], "000", "initial latch values");
    // Three input steps of one bit each, then the terminator.
    assert_eq!(lines.len(), 3 + 3 + 1);
    assert_eq!(*lines.last().unwrap(), ".");
    for step in &lines[3..6] {
        assert_eq!(*step, "1", "shifting in ones is the only witness");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn unreachable_circuit_yields_zero() {
    let model = traffic_light();
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("traffic", &aiger::to_ascii_string(&file));
    for engine in ["jsat", "unroll"] {
        let out = cli()
            .args([
                path.to_str().unwrap(),
                "--engine",
                engine,
                "--bound",
                "6",
                "--quiet",
            ])
            .output()
            .expect("run sebmc");
        assert_eq!(out.status.code(), Some(20), "{engine} safe exit code");
        assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "0");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn k_induction_proves_safety() {
    let model = traffic_light();
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("traffic-kind", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "k-induction",
            "--bound",
            "8",
        ])
        .output()
        .expect("run sebmc");
    assert_eq!(out.status.code(), Some(20));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("proved safe"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn budgeted_qbf_reports_unknown() {
    let model = shift_register(8);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("shift-qbf", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "qbf-linear",
            "--bound",
            "8",
            "--timeout-ms",
            "50",
            "--quiet",
        ])
        .output()
        .expect("run sebmc");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "2");
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_input_is_rejected_cleanly() {
    let path = write_temp_aag("garbage", "not an aiger file\n");
    let out = cli().arg(path.to_str().unwrap()).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("aiger"));
    std::fs::remove_file(path).ok();

    let out = cli().arg("/nonexistent/file.aag").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

/// A 27-byte ASCII file whose header declares 10^9 variables but
/// defines one. Validation and conversion key their tables by the
/// variables a file defines, so under a 1 GiB address-space limit both
/// the check mode and `analyze` report the property error (exit 2)
/// instead of aborting on a 16 GB allocation sized by the header.
#[test]
fn huge_header_max_var_sizes_no_allocation() {
    let path = write_temp_aag("huge-m", "aag 1000000000 1 0 1 0\n2\n2\n");
    let path = path.to_str().unwrap();
    for args in [vec![path], vec!["analyze", path]] {
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 1048576; exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_sebmc-cli"))
            .args(&args)
            .output()
            .expect("run sebmc under sh");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("property depends on a primary input"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}

/// Iterative squaring on the 148-byte `traffic_light` export expands
/// 12 universals to 2,340,864 literals at bound 4 and stops at the
/// default growth guard (10M literals) at bound 8. Under a 160 MiB
/// address-space limit bound 4 is decided and bound 8 ends unknown,
/// instead of either aborting on a failed allocation.
#[test]
fn qbf_squaring_expansion_fits_160_mib() {
    let file = aiger::model_to_aiger(&traffic_light()).expect("export");
    let path = write_temp_aag("traffic-expand", &aiger::to_ascii_string(&file));
    let path = path.to_str().unwrap();
    for (bound, code, reason) in [("4", 20, "null"), ("8", 0, "\"budget exhausted\"")] {
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 163840; exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_sebmc-cli"))
            .args([path, "--engine", "qbf-squaring", "--bound", bound, "--json"])
            .output()
            .expect("run sebmc under sh");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(code), "bound {bound}: {stderr}");
        assert!(
            stdout.contains(&format!("\"reason\":{reason},")),
            "bound {bound}: {stdout}"
        );
    }
    std::fs::remove_file(path).ok();
}

/// The expansion hands its last copy to CDCL as one clause batch, whose
/// watch lists are laid out with exact room, so `traffic_light` at
/// bound 4 is decided under a 96 MiB address-space limit: grown one
/// clause at a time, the watch lists alone pass 33 MB of capacity, and
/// the job aborts on a failed allocation under this limit.
#[test]
fn qbf_squaring_hand_over_fits_96_mib() {
    let file = aiger::model_to_aiger(&traffic_light()).expect("export");
    let path = write_temp_aag("traffic-hand-over", &aiger::to_ascii_string(&file));
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 98304; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_sebmc-cli"))
        .arg(&path)
        .args(["--engine", "qbf-squaring", "--bound", "4", "--json"])
        .output()
        .expect("run sebmc under sh");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(20), "{stderr}");
    assert!(stdout.contains("\"reason\":null,"), "{stdout}");
    std::fs::remove_file(path).ok();
}

/// A valid AIGER file may declare no latches: the state is the empty
/// vector and the property a constant. Every engine decides it, at one
/// bound and deepening, and so does a batch job.
#[test]
fn zero_latch_models_are_decided() {
    for (property, code) in [("1", 10), ("0", 20)] {
        let path = write_temp_aag(
            &format!("no-latch-{property}"),
            &format!("aag 0 0 0 1 0\n{property}\n"),
        );
        let path = path.to_str().unwrap();
        let engines = [
            "jsat",
            "unroll",
            "qbf-linear",
            "qbf-squaring",
            "k-induction",
        ];
        let runs = engines
            .iter()
            .map(|&e| (e, false))
            .chain(engines[..4].iter().map(|&e| (e, true)));
        for (engine, deepen) in runs {
            let mut cmd = cli();
            cmd.args([path, "--engine", engine, "--bound", "2", "--quiet"]);
            if deepen {
                cmd.arg("--deepen");
            }
            let out = cmd.output().expect("run sebmc");
            let stderr = String::from_utf8(out.stderr).unwrap();
            let case = format!("property {property}, {engine}, deepen {deepen}");
            assert_eq!(out.status.code(), Some(code), "{case}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        }
        if property == "1" {
            let jobs = std::env::temp_dir().join(format!(
                "sebmc-test-no-latch-jobs-{}.txt",
                std::process::id()
            ));
            std::fs::write(&jobs, format!("{path} unroll 2\n")).expect("write job file");
            let out = cli()
                .args(["batch", jobs.to_str().unwrap(), "--json", "--quiet"])
                .output()
                .expect("run sebmc batch");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert_eq!(out.status.code(), Some(0), "{stdout}");
            assert!(stdout.contains("\"reachable\":1"), "{stdout}");
            assert!(stdout.contains("\"jobs_quarantined\":0"), "{stdout}");
            std::fs::remove_file(jobs).ok();
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn malformed_numeric_flags_exit_2() {
    let model = shift_register(3);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("badnum", &aiger::to_ascii_string(&file));
    for (flag, value) in [
        ("--timeout-ms", "abc"),
        ("--mem-mb", "abc"),
        ("--bound", "-3"),
        ("--timeout-ms", "1.5"),
        // 2^44 MiB is 2^64 bytes: the byte count overflows.
        ("--mem-mb", "17592186044416"),
    ] {
        let out = cli()
            .args([path.to_str().unwrap(), flag, value])
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} must be a usage error, not silently unlimited"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(flag.trim_start_matches("--")), "{stderr}");
    }
    std::fs::remove_file(path).ok();
    // Batch values that parse as u64 but do not fit their target.
    for (flag, value) in [("--mem-mb", "17592186044416"), ("--retries", "4294967297")] {
        let out = cli()
            .args(["batch", "--suite", "small", "--bound", "1", flag, value])
            .output()
            .expect("run");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "batch {flag} {value}: {stderr}");
        assert!(stderr.contains(flag.trim_start_matches("--")), "{stderr}");
    }
}

#[test]
fn json_output_is_one_object_with_stats() {
    let model = shift_register(3);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("json", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "3",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim();
    assert_eq!(stdout.trim_matches('\n').lines().count(), 1, "one object");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for key in [
        "\"verdict\":\"reachable\"",
        "\"bound\":3",
        "\"engine\":\"unroll\"",
        "\"peak_formula_bytes\":",
        "\"peak_watch_bytes\":",
        "\"solver_effort\":",
        "\"bounds_checked\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn deepen_finds_minimal_bound() {
    let model = shift_register(4);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("deepen", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "10",
            "--deepen",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(10), "reachable exit code");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("first reachable at bound 4"),
        "deepening reports the minimal bound: {stderr}"
    );
    // The witness has exactly 4 input steps.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "1");
    assert_eq!(lines.len(), 3 + 4 + 1);

    // Deepen + JSON: cumulative stats count all bounds 0..=4.
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "10",
            "--deepen",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"bound\":4"), "{stdout}");
    assert!(stdout.contains("\"bounds_checked\":5"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn deepen_unreachable_reports_exhaustion() {
    let model = traffic_light();
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("deepen-unsat", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "jsat",
            "--bound",
            "5",
            "--deepen",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(20), "safe exit code");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"verdict\":\"unreachable\""), "{stdout}");
    assert!(stdout.contains("\"bounds_checked\":6"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn within_semantics_flag() {
    // lfsr needle at exactly 6: within-8 reachable, exactly-8 not.
    let model = sebmc_repro::model::builders::lfsr(4, 6);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("lfsr", &aiger::to_ascii_string(&file));
    let exact = cli()
        .args([path.to_str().unwrap(), "--bound", "8", "--quiet"])
        .output()
        .expect("run");
    assert_eq!(exact.status.code(), Some(20), "exactly-8 unreachable");
    let within = cli()
        .args([
            path.to_str().unwrap(),
            "--bound",
            "8",
            "--within",
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(within.status.code(), Some(10), "within-8 reachable");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_suite_produces_a_service_report() {
    let out = cli()
        .args([
            "batch",
            "--suite",
            "small",
            "--workers",
            "4",
            "--bound",
            "4",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run sebmc batch");
    assert_eq!(out.status.code(), Some(0), "no unknown jobs expected");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"jobs_total\":13"), "{stdout}");
    assert!(stdout.contains("\"workers\":4"), "{stdout}");
    assert!(stdout.contains("\"verdict\":\"reachable\""), "{stdout}");
    assert!(stdout.contains("\"winners\":["), "{stdout}");
    // The aggregate splits wall clock into queue wait and solve time.
    assert!(stdout.contains("\"queue_wait_ms_total\":"), "{stdout}");
    assert!(stdout.contains("\"solve_ms_total\":"), "{stdout}");
}

#[test]
fn batch_job_file_runs_portfolio_and_single_engine_jobs() {
    let path = std::env::temp_dir().join(format!("sebmc-test-jobs-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "# two jobs: a per-bound portfolio race and a single session\n\
         suite:ring_4 jsat,unroll 6\n\
         suite:traffic unroll 3 name=tl\n",
    )
    .expect("write job file");
    // The file is a positional arg of the batch subcommand.
    let out = cli()
        .args([
            "batch",
            path.to_str().unwrap(),
            "--workers",
            "2",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run sebmc batch");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"jobs_total\":2"), "{stdout}");
    assert!(stdout.contains("\"name\":\"tl\""), "{stdout}");
    assert!(stdout.contains("\"bound\":3"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_rejects_malformed_input() {
    // Unknown engine list is a usage error (exit 2), not a silent run.
    let bad_engines = cli()
        .args(["batch", "--engines", "bdd", "--quiet"])
        .output()
        .expect("run");
    assert_eq!(bad_engines.status.code(), Some(2));
    // Malformed job file lines are reported with their line number.
    let path = std::env::temp_dir().join(format!("sebmc-test-badjobs-{}.txt", std::process::id()));
    std::fs::write(&path, "suite:ring_4 jsat\n").expect("write");
    let bad_file = cli()
        .args(["batch", path.to_str().unwrap(), "--quiet"])
        .output()
        .expect("run");
    assert_eq!(bad_file.status.code(), Some(2));
    let stderr = String::from_utf8(bad_file.stderr).unwrap();
    assert!(stderr.contains("line 1"), "{stderr}");
    // Suite-only flags combined with a job file are rejected, not
    // silently ignored (the file's own engines/bounds would win).
    std::fs::write(&path, "suite:ring_4 jsat 4\n").expect("write");
    for conflicting in [
        ["--engines", "jsat"],
        ["--bound", "9"],
        ["--suite", "small"],
    ] {
        let out = cli()
            .args(["batch", path.to_str().unwrap(), "--quiet"])
            .args(conflicting)
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{conflicting:?} with a job file must be a usage error"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("cannot be combined"), "{stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn certify_flag_attaches_a_certificate_to_json() {
    let model = traffic_light();
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("certify", &aiger::to_ascii_string(&file));
    // An Unsat deepening sweep: every bound must be machine-checked.
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "4",
            "--deepen",
            "--certify",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(20), "unreachable exit code");
    let line = String::from_utf8(out.stdout).unwrap().trim().to_string();
    assert!(
        line.contains("\"certificate\":{\"certified\":true"),
        "{line}"
    );
    assert!(line.contains("\"bounds_attempted\":5"), "{line}");
    assert!(line.contains("\"bounds_certified\":5"), "{line}");
    assert!(line.contains("\"failed_checks\":0"), "{line}");
    assert!(line.contains("\"peak_proof_bytes\":"), "{line}");
    assert!(
        !line.contains("\"peak_proof_bytes\":0,"),
        "exact proof size"
    );
    // Without --certify the field is null and no proof bytes accrue.
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "4",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run");
    let line = String::from_utf8(out.stdout).unwrap().trim().to_string();
    assert!(line.contains("\"certificate\":null"), "{line}");
    assert!(line.contains("\"peak_proof_bytes\":0"), "{line}");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_certify_certifies_every_job() {
    let out = cli()
        .args([
            "batch",
            "--suite",
            "small",
            "--bound",
            "3",
            "--certify",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run sebmc batch");
    assert_eq!(out.status.code(), Some(0), "all certified, exit 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"jobs_certified\":13"), "{stdout}");
    assert!(
        stdout.contains("\"certificate\":{\"certified\":true"),
        "{stdout}"
    );
    assert!(stdout.contains("\"unsat_proofs\":"), "{stdout}");
}

#[test]
fn proof_out_single_mode_keeps_drat_only_for_unreachable() {
    let model = traffic_light();
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("proof-unsat", &aiger::to_ascii_string(&file));
    let proof = std::env::temp_dir().join(format!("sebmc-test-proof-{}.drat", std::process::id()));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "4",
            "--deepen",
            "--proof-out",
            proof.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(20), "unreachable exit code");
    let bytes = std::fs::read(&proof).expect("proof file written");
    assert!(!bytes.is_empty(), "DRAT stream has content");
    std::fs::remove_file(&proof).ok();
    std::fs::remove_file(path).ok();

    // A reachable verdict removes the partial stream.
    let model = shift_register(3);
    let file = aiger::model_to_aiger(&model).expect("export");
    let path = write_temp_aag("proof-sat", &aiger::to_ascii_string(&file));
    let out = cli()
        .args([
            path.to_str().unwrap(),
            "--engine",
            "unroll",
            "--bound",
            "3",
            "--proof-out",
            proof.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(10));
    assert!(!proof.exists(), "no partial proof left for a SAT verdict");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_proof_out_exports_drat_per_unsat_job() {
    let dir = std::env::temp_dir().join(format!("sebmc-test-proofdir-{}", std::process::id()));
    let out = cli()
        .args([
            "batch",
            "--suite",
            "small",
            "--engines",
            "unroll",
            "--bound",
            "3",
            "--proof-out",
            dir.to_str().unwrap(),
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run sebmc batch");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"proof_path\":\""), "{stdout}");
    // Exactly the unreachable jobs left .drat files behind.
    let unreachable = stdout.matches("\"verdict\":\"unreachable\"").count();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("proof dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), unreachable, "{files:?}");
    for f in &files {
        assert_eq!(f.extension().and_then(|e| e.to_str()), Some("drat"));
        assert!(!std::fs::read(f).unwrap().is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_fault_plan_with_retries_recovers_and_reports() {
    // Every job panics at its 2nd engine safe-point hit; with retries
    // the batch still converges to the same verdicts, and the report
    // shows the retried attempts.
    let out = cli()
        .args([
            "batch",
            "--suite",
            "small",
            "--engines",
            "unroll",
            "--bound",
            "3",
            "--retries",
            "2",
            "--backoff-ms",
            "1",
            "--fault-plan",
            "panic@engine:2",
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run sebmc batch");
    assert_eq!(out.status.code(), Some(0), "all jobs recovered");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"jobs_total\":13"), "{stdout}");
    assert!(stdout.contains("\"jobs_retried\":13"), "{stdout}");
    assert!(stdout.contains("\"jobs_quarantined\":0"), "{stdout}");
    assert!(stdout.contains("injected fault"), "{stdout}");

    // A malformed plan is a usage error, not a silent no-op.
    let bad = cli()
        .args(["batch", "--fault-plan", "explode@engine:1", "--quiet"])
        .output()
        .expect("run");
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.contains("fault-plan"), "{stderr}");
}

#[test]
fn batch_witness_dir_streams_traces_to_files() {
    let dir = std::env::temp_dir().join(format!("sebmc-test-witdir-{}", std::process::id()));
    let out = cli()
        .args([
            "batch",
            "--suite",
            "small",
            "--engines",
            "unroll",
            "--bound",
            "4",
            "--witness-dir",
            dir.to_str().unwrap(),
            "--json",
            "--quiet",
        ])
        .output()
        .expect("run sebmc batch");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"witness_path\":\""), "{stdout}");
    assert!(stdout.contains("\"witness_steps\":"), "{stdout}");
    // Every reachable job produced one HWMCC witness file.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("witness dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!files.is_empty(), "witness files written");
    for f in &files {
        let content = std::fs::read_to_string(f).unwrap();
        assert!(content.starts_with("1\nb0\n"), "{content}");
        assert!(content.ends_with(".\n"), "{content}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

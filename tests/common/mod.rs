//! Golden-file support shared by the integration tests that pin
//! printed JSON (`golden.rs` and `telemetry.rs`).
//!
//! A missing golden file is written from the current output and the
//! case fails, so an intended output change is recorded by deleting
//! the file, re-running the test and reviewing the diff.

use std::path::Path;

use sebmc_repro::logic::json::Json;

/// Placeholder for a masked value.
pub const MASK: &str = "~";

/// Parses every non-empty line of `text` as one JSON value, asserting
/// first that the line is exactly what `Json`'s `Display` prints for
/// that value (the canonical output of the workspace's one JSON
/// writer, not merely something that parses to the same value).
pub fn json_lines(text: &str) -> Vec<Json> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = Json::parse(l).unwrap_or_else(|e| panic!("not JSON ({e}): {l}"));
            assert_eq!(v.to_string(), l, "line is not canonical JSON");
            v
        })
        .collect()
}

/// Compares `actual` with the golden file of `case`, writing the file
/// when it does not exist yet.
pub fn check_golden(case: &str, actual: &str) {
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

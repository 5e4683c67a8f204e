//! Reading checked-in benchmark baselines (`BENCH_pr*.json`).
//!
//! The perf gate needs every object, at any depth, that carries both a
//! `"name"` and a `"median_ns"` field (the shape
//! [`crate::microbench::Sample::to_json`] writes into the
//! `engine_benches` arrays of the baseline files). Summary objects
//! without a `"name"` are skipped.

use sebmc_logic::json::Json;

/// Extracts `(name, median_ns)` pairs from a baseline JSON document,
/// in document order (none when the document does not parse).
pub fn extract_medians(json: &str) -> Vec<(String, u128)> {
    let mut out = Vec::new();
    if let Ok(doc) = Json::parse(json) {
        collect_medians(&doc, &mut out);
    }
    out
}

/// The median recorded for `name`, if the document has one.
pub fn baseline_median(json: &str, name: &str) -> Option<u128> {
    extract_medians(json)
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, m)| m)
}

/// Appends the `(name, median_ns)` of `v` and of everything nested in
/// it.
fn collect_medians(v: &Json, out: &mut Vec<(String, u128)>) {
    let name = v.get("name").and_then(Json::as_str);
    if let (Some(name), Some(median)) = (name, v.get("median_ns").and_then(Json::as_u64)) {
        out.push((name.to_string(), u128::from(median)));
    }
    match v {
        Json::Obj(fields) => fields.iter().for_each(|(_, f)| collect_medians(f, out)),
        Json::Arr(items) => items.iter().for_each(|item| collect_medians(item, out)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "note": "summary objects without a name are skipped",
      "summary": { "binary_chain_30k_median_ns": 1007000 },
      "engine_benches": [
        { "name": "propagation/binary_chain_30k", "median_ns": 881364, "samples": 30 },
        {
          "name": "propagation/watch_churn_4k_w8",
          "median_ns": 75842,
          "samples": 30
        }
      ]
    }"#;

    #[test]
    fn extracts_named_medians_only() {
        let got = extract_medians(DOC);
        assert_eq!(
            got,
            vec![
                ("propagation/binary_chain_30k".to_string(), 881364),
                ("propagation/watch_churn_4k_w8".to_string(), 75842),
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            baseline_median(DOC, "propagation/watch_churn_4k_w8"),
            Some(75842)
        );
        assert_eq!(baseline_median(DOC, "missing"), None);
    }

    #[test]
    fn round_trips_a_sample() {
        let s = crate::microbench::run("gate/selftest", 0, 3, || 1 + 1);
        let json = format!("[{}]", s.to_json());
        assert_eq!(baseline_median(&json, "gate/selftest"), Some(s.median_ns));
    }

    #[test]
    fn checked_in_baselines_parse() {
        for doc in [
            include_str!("../../../BENCH_pr1.json"),
            include_str!("../../../BENCH_pr3.json"),
            include_str!("../../../BENCH_pr5.json"),
            include_str!("../../../BENCH_pr10.json"),
        ] {
            assert!(Json::parse(doc).is_ok());
            assert!(!extract_medians(doc).is_empty());
        }
    }
}

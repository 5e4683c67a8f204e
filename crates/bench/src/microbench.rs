//! A minimal criterion-style micro-benchmark harness.
//!
//! The workspace is dependency-free, so `cargo bench` runs these
//! `harness = false` binaries instead of criterion. The protocol is
//! deliberately simple and robust: a warm-up, then `samples` timed
//! iterations, reported by **median** (criterion's headline statistic,
//! robust to scheduler noise) together with min/mean/max.
//!
//! Results can be serialised to a JSON fragment so benchmark baselines
//! can be checked in (see `BENCH_pr1.json` at the repository root).

use std::hint::black_box;
use std::time::Instant;

use sebmc_logic::json::{obj, Json};

/// Timing summary of one benchmark, all values in nanoseconds.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark name (`group/function` by convention).
    pub name: String,
    /// Median of the timed iterations.
    pub median_ns: u128,
    /// Arithmetic mean.
    pub mean_ns: u128,
    /// Fastest iteration.
    pub min_ns: u128,
    /// Slowest iteration.
    pub max_ns: u128,
    /// Number of timed iterations.
    pub samples: usize,
}

impl Sample {
    /// The sample as one JSON object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", self.name.as_str().into()),
            ("median_ns", self.median_ns.into()),
            ("mean_ns", self.mean_ns.into()),
            ("min_ns", self.min_ns.into()),
            ("max_ns", self.max_ns.into()),
            ("samples", self.samples.into()),
        ])
    }
}

fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Times `f` for `samples` iterations after `warmup` untimed ones and
/// prints a criterion-style summary line.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimiser cannot delete the measured work.
pub fn run<R>(name: &str, warmup: usize, samples: usize, mut f: impl FnMut() -> R) -> Sample {
    assert!(samples > 0, "need at least one sample");
    for _ in 0..warmup {
        black_box(f());
    }
    let mut times: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    let median_ns = times[times.len() / 2];
    let mean_ns = times.iter().sum::<u128>() / times.len() as u128;
    let sample = Sample {
        name: name.to_string(),
        median_ns,
        mean_ns,
        min_ns: times[0],
        max_ns: times[times.len() - 1],
        samples,
    };
    println!(
        "{:<44} median {:>12}   (min {}, mean {}, max {}, n={})",
        sample.name,
        format_ns(sample.median_ns),
        format_ns(sample.min_ns),
        format_ns(sample.mean_ns),
        format_ns(sample.max_ns),
        samples
    );
    sample
}

/// A JSON array of samples, one sample per line — paste-able into a
/// baseline file.
pub fn json_array(samples: &[Sample]) -> String {
    let lines: Vec<String> = samples
        .iter()
        .map(|s| format!("  {}", s.to_json()))
        .collect();
    format!("[\n{}\n]", lines.join(",\n"))
}

/// Prints the [`json_array`] of `samples`.
pub fn print_json(samples: &[Sample]) {
    println!("{}", json_array(samples));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_ordered_statistics() {
        let s = run("test/noop", 1, 9, || 1 + 1);
        assert_eq!(s.samples, 9);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.max_ns);
    }

    #[test]
    fn json_fragment_is_well_formed() {
        let s = run("test/json", 0, 3, || ());
        let j = s.to_json().to_string();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"test/json\""));
        assert!(j.contains("median_ns"));
    }

    #[test]
    fn formatting_scales_units() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(1_500), "1.500 µs");
        assert_eq!(format_ns(2_000_000), "2.000 ms");
        assert_eq!(format_ns(3_500_000_000), "3.500 s");
    }
}

//! Telemetry for the sebmc checking stack.
//!
//! The paper's argument is a *resource profile* — memory stays flat
//! while time grows — and the rest of the workspace measures bytes
//! exactly, but only as post-hoc aggregates. This crate closes the
//! gap for a long-lived `sebmc serve` daemon with three layers:
//!
//! 1. [`metrics`] — a registry of atomic counters, gauges, and
//!    log₂-bucketed histograms with a lock-free hot path and a
//!    stable-keyed JSON snapshot (the `stats` protocol frame).
//! 2. [`trace`] — hierarchical span events (service → job → attempt →
//!    bound → solver episode) emitted as JSONL through a bounded
//!    64 KiB buffer to `--trace-out FILE`, so a quarantined job's full
//!    attempt/backoff/resume timeline is reconstructible offline.
//! 3. [`progress`] — the [`ProgressSink`] trait polled at the
//!    existing budget safe points inside the solver and engines,
//!    gated behind one `Option` branch exactly like the proof hooks.
//!
//! [`Telemetry`] ties the three together: it owns the registry and
//! the optional trace sink, and implements [`ProgressSink`] so a
//! `Arc<Telemetry>` can be handed straight down to the solver.
//!
//! The crate's one dependency is `sebmc-logic`, which has none of its
//! own, so it still sits below `crates/sat` in the dependency order.
//! Snapshots and trace lines are [`sebmc_logic::json::Json`] values,
//! printed by the workspace's one JSON writer.

pub mod metrics;
pub mod progress;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, PRIORITY_LEVELS};
pub use progress::{Progress, ProgressHandle, ProgressSink};
pub use trace::{FieldValue, TraceSink};

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sebmc_logic::json::{obj, Json};

/// The aggregate a running service carries: one metrics registry plus
/// an optional trace sink, behind one `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    /// The metrics registry (always on; reading it is free).
    pub metrics: MetricsRegistry,
    trace: Option<TraceSink>,
    epoch: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Metrics only; tracing disabled.
    pub fn new() -> Self {
        Telemetry {
            metrics: MetricsRegistry::default(),
            trace: None,
            epoch: Instant::now(),
        }
    }

    /// Metrics plus JSONL tracing to a file created at `path`.
    pub fn with_trace_file(path: &Path) -> io::Result<Self> {
        Ok(Telemetry {
            metrics: MetricsRegistry::default(),
            trace: Some(TraceSink::to_file(path)?),
            epoch: Instant::now(),
        })
    }

    /// Metrics plus JSONL tracing to an arbitrary writer (tests).
    pub fn with_trace_writer(out: Box<dyn Write + Send>) -> Self {
        Telemetry {
            metrics: MetricsRegistry::default(),
            trace: Some(TraceSink::to_writer(out)),
            epoch: Instant::now(),
        }
    }

    /// Emits a trace event if tracing is on (no-op otherwise).
    pub fn trace(&self, kind: &str, fields: &[(&str, FieldValue<'_>)]) {
        if let Some(sink) = &self.trace {
            sink.event(kind, fields);
        }
    }

    /// Drains and flushes the trace sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.trace {
            sink.flush();
        }
    }

    /// Time since this telemetry instance was created (the daemon's
    /// uptime when created at serve start).
    pub fn uptime(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// The registry snapshot wrapped with uptime:
    /// `{"uptime_ms":N,"metrics":{...}}`.
    pub fn snapshot_json(&self) -> Json {
        obj(vec![
            ("uptime_ms", self.uptime().as_millis().into()),
            ("metrics", self.metrics.snapshot_json()),
        ])
    }

    /// A [`ProgressHandle`] reporting into this instance.
    pub fn progress_handle(self: &Arc<Self>) -> ProgressHandle {
        ProgressHandle::new(Arc::clone(self) as Arc<dyn ProgressSink>)
    }
}

impl ProgressSink for Telemetry {
    fn progress(&self, p: &Progress) {
        self.metrics.solver_conflicts.add(p.conflicts);
        self.metrics.solver_propagations.add(p.propagations);
        self.metrics.solver_restarts.add(p.restarts);
        self.metrics.solver_trail_depth.set(p.trail_depth as u64);
        self.metrics.solver_learnts.set(p.learnts as u64);
        self.metrics.live_solver_bytes.set(p.live_bytes as u64);
        self.metrics.peak_solver_bytes.set_max(p.live_bytes as u64);
    }

    fn bound_start(&self, engine: &'static str, k: usize) {
        self.trace("bound", &[("engine", engine.into()), ("k", k.into())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn progress_samples_accumulate_into_the_registry() {
        let t = Arc::new(Telemetry::new());
        let h = t.progress_handle();
        h.report(&Progress {
            conflicts: 64,
            propagations: 1000,
            restarts: 1,
            trail_depth: 12,
            learnts: 5,
            live_bytes: 4096,
        });
        h.report(&Progress {
            conflicts: 64,
            propagations: 500,
            restarts: 0,
            trail_depth: 3,
            learnts: 9,
            live_bytes: 2048,
        });
        assert_eq!(t.metrics.solver_conflicts.get(), 128);
        assert_eq!(t.metrics.solver_propagations.get(), 1500);
        assert_eq!(t.metrics.solver_restarts.get(), 1);
        assert_eq!(t.metrics.solver_trail_depth.get(), 3, "last sample wins");
        assert_eq!(t.metrics.solver_learnts.get(), 9);
        assert_eq!(t.metrics.live_solver_bytes.get(), 2048);
        assert_eq!(t.metrics.peak_solver_bytes.get(), 4096, "peak ratchets");
    }

    #[test]
    fn bound_start_traces_when_tracing_is_on() {
        let buf = SharedBuf::default();
        let t = Arc::new(Telemetry::with_trace_writer(Box::new(buf.clone())));
        t.progress_handle().on_bound("jsat", 4);
        t.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"ev\":\"bound\""));
        assert!(text.contains("\"engine\":\"jsat\""));
        assert!(text.contains("\"k\":4"));
    }

    #[test]
    fn snapshot_wraps_metrics_with_uptime() {
        let t = Telemetry::new();
        let s = t.snapshot_json().to_string();
        assert!(s.starts_with("{\"uptime_ms\":"));
        assert!(s.contains("\"metrics\":{\"jobs_submitted\":0,"));
    }
}

//! Lock-free metric primitives and the service-wide registry.
//!
//! Every primitive is a thin wrapper over [`AtomicU64`] with
//! `Relaxed` ordering: the hot paths (solver polls, queue
//! transitions) pay one uncontended atomic RMW and nothing else, and
//! a snapshot is a plain load per metric — approximate across
//! threads, exact once the workload quiesces, which is all an
//! operator's dashboard or the post-drain `stats` frame needs.
//!
//! The registry is a *struct of named fields*, not a string-keyed
//! map: registration typos become compile errors, the hot path never
//! hashes a name, and the snapshot key set is frozen in one place
//! ([`MetricsRegistry::metric_names`]) so CI can diff it against the
//! checked-in `docs/metric-names.txt` contract.

use std::sync::atomic::{AtomicU64, Ordering};

use sebmc_logic::json::{obj, Json};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level: can move both ways, or ratchet upward via
/// [`Gauge::set_max`] for peak-tracking.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero (a racing reader
    /// must never observe a wrapped-around level).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Ratchets the level up to `v` if `v` is higher (peak tracking).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of base-2 exponential buckets: bucket 0 holds the value 0,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, and the last
/// bucket absorbs everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A base-2 exponential histogram with atomic buckets.
///
/// Recording costs three relaxed RMWs (bucket, count, sum); there is
/// no lock and no allocation. Bucket boundaries double, which keeps
/// 64 buckets enough for any `u64` sample while still resolving
/// millisecond latencies at the low end.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket a sample lands in: 0 for 0, otherwise
    /// `1 + floor(log2 v)` capped at the last bucket.
    fn bucket_index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// JSON view: `{"count":N,"sum":S,"buckets":[c0,c1,...]}` where
    /// `buckets` is truncated after the last non-empty bucket (an idle
    /// histogram renders as `[]`).
    pub fn to_json(&self) -> Json {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let last = counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        obj(vec![
            ("count", self.count().into()),
            ("sum", self.sum().into()),
            (
                "buckets",
                Json::Arr(counts[..last].iter().map(|&c| c.into()).collect()),
            ),
        ])
    }
}

/// Priority levels a job can carry (0..=9), mirrored here so the
/// per-priority pop counters don't depend on the service crate.
pub const PRIORITY_LEVELS: usize = 10;

/// Every metric the checking stack exports, by name.
///
/// Names are a published contract (see `docs/observability.md` and
/// `docs/metric-names.txt`); renaming or removing a field is a
/// breaking change for dashboards and must update both docs.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Jobs accepted into the service (cache hits included).
    pub jobs_submitted: Counter,
    /// Jobs that produced a final report through a worker.
    pub jobs_completed: Counter,
    /// Jobs answered directly from the result cache (never queued).
    pub jobs_cached: Counter,
    /// Attempt retries across all jobs (attempts beyond the first).
    pub jobs_retried: Counter,
    /// Jobs shed under memory pressure.
    pub jobs_shed: Counter,
    /// Jobs quarantined after exhausting their retry budget.
    pub jobs_quarantined: Counter,
    /// Submissions refused (queue full, shutdown, malformed).
    pub jobs_rejected: Counter,
    /// Result-cache lookups that returned a finished report.
    pub cache_hits: Counter,
    /// Result-cache lookups that missed.
    pub cache_misses: Counter,
    /// Entries evicted from the result cache to make room.
    pub cache_evictions: Counter,
    /// Solver conflicts, accumulated from progress polls.
    pub solver_conflicts: Counter,
    /// Solver propagations, accumulated from progress polls.
    pub solver_propagations: Counter,
    /// Solver restarts, accumulated from progress polls.
    pub solver_restarts: Counter,
    /// Queue pops by *effective* (post-aging) priority level.
    pub queue_pops: [Counter; PRIORITY_LEVELS],
    /// Jobs currently waiting in the pending queue.
    pub queue_depth: Gauge,
    /// Highest pending-queue depth observed.
    pub queue_depth_high_water: Gauge,
    /// Jobs currently running on workers.
    pub jobs_in_flight: Gauge,
    /// Solver live bytes (arena + watches) at the last progress poll.
    pub live_solver_bytes: Gauge,
    /// Highest solver live bytes seen at any progress poll.
    pub peak_solver_bytes: Gauge,
    /// Highest per-job peak arena bytes reported by a finished job.
    pub peak_arena_bytes: Gauge,
    /// Highest per-job peak watch bytes reported by a finished job.
    pub peak_watch_bytes: Gauge,
    /// Highest per-job peak proof-ring bytes reported by a finished
    /// job.
    pub peak_proof_bytes: Gauge,
    /// Solver trail depth at the last progress poll.
    pub solver_trail_depth: Gauge,
    /// Learnt-clause count at the last progress poll.
    pub solver_learnts: Gauge,
    /// Queue wait (submission to worker pickup), milliseconds.
    pub queue_wait_ms: Histogram,
    /// Worker solve latency (pickup to report), milliseconds.
    pub solve_latency_ms: Histogram,
}

impl MetricsRegistry {
    /// Every snapshot key, in snapshot order. This list *is* the
    /// stability contract checked against `docs/metric-names.txt`.
    pub fn metric_names() -> &'static [&'static str] {
        &[
            "jobs_submitted",
            "jobs_completed",
            "jobs_cached",
            "jobs_retried",
            "jobs_shed",
            "jobs_quarantined",
            "jobs_rejected",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "solver_conflicts",
            "solver_propagations",
            "solver_restarts",
            "queue_pops",
            "queue_depth",
            "queue_depth_high_water",
            "jobs_in_flight",
            "live_solver_bytes",
            "peak_solver_bytes",
            "peak_arena_bytes",
            "peak_watch_bytes",
            "peak_proof_bytes",
            "solver_trail_depth",
            "solver_learnts",
            "queue_wait_ms",
            "solve_latency_ms",
        ]
    }

    /// One-object JSON snapshot with exactly the keys of
    /// [`MetricsRegistry::metric_names`], in that order.
    pub fn snapshot_json(&self) -> Json {
        let pops = self.queue_pops.iter().map(|c| c.get().into()).collect();
        obj(vec![
            ("jobs_submitted", self.jobs_submitted.get().into()),
            ("jobs_completed", self.jobs_completed.get().into()),
            ("jobs_cached", self.jobs_cached.get().into()),
            ("jobs_retried", self.jobs_retried.get().into()),
            ("jobs_shed", self.jobs_shed.get().into()),
            ("jobs_quarantined", self.jobs_quarantined.get().into()),
            ("jobs_rejected", self.jobs_rejected.get().into()),
            ("cache_hits", self.cache_hits.get().into()),
            ("cache_misses", self.cache_misses.get().into()),
            ("cache_evictions", self.cache_evictions.get().into()),
            ("solver_conflicts", self.solver_conflicts.get().into()),
            ("solver_propagations", self.solver_propagations.get().into()),
            ("solver_restarts", self.solver_restarts.get().into()),
            ("queue_pops", Json::Arr(pops)),
            ("queue_depth", self.queue_depth.get().into()),
            (
                "queue_depth_high_water",
                self.queue_depth_high_water.get().into(),
            ),
            ("jobs_in_flight", self.jobs_in_flight.get().into()),
            ("live_solver_bytes", self.live_solver_bytes.get().into()),
            ("peak_solver_bytes", self.peak_solver_bytes.get().into()),
            ("peak_arena_bytes", self.peak_arena_bytes.get().into()),
            ("peak_watch_bytes", self.peak_watch_bytes.get().into()),
            ("peak_proof_bytes", self.peak_proof_bytes.get().into()),
            ("solver_trail_depth", self.solver_trail_depth.get().into()),
            ("solver_learnts", self.solver_learnts.get().into()),
            ("queue_wait_ms", self.queue_wait_ms.to_json()),
            ("solve_latency_ms", self.solve_latency_ms.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        g.add(3);
        g.sub(4);
        assert_eq!(g.get(), 6);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates at zero");
        g.set_max(9);
        g.set_max(2);
        assert_eq!(g.get(), 9, "set_max only ratchets upward");
    }

    #[test]
    fn histogram_buckets_double() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1011);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1000 → 10.
        let json = h.to_json().to_string();
        assert_eq!(
            json,
            "{\"count\":7,\"sum\":1011,\"buckets\":[1,2,2,1,0,0,0,0,0,0,1]}"
        );
    }

    #[test]
    fn histogram_handles_huge_samples() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_keys_match_the_published_contract() {
        let names = MetricsRegistry::metric_names();
        let snapshot = MetricsRegistry::default().snapshot_json().to_string();
        let mut at = 0;
        for name in names {
            let needle = format!("\"{name}\":");
            let pos = snapshot[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("snapshot is missing {name} (after byte {at})"));
            at += pos + needle.len();
        }
        // No extra keys: every `"..":` in the snapshot that looks like
        // a top-level key is accounted for (histograms contribute
        // nested count/sum/buckets keys, which the contract excludes).
        let nested = ["count", "sum", "buckets"];
        let mut keys = Vec::new();
        let mut depth = 0usize;
        let bytes = snapshot.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b'"' if depth == 1 => {
                    let end = snapshot[i + 1..].find('"').map(|e| i + 1 + e).unwrap();
                    keys.push(&snapshot[i + 1..end]);
                    i = end;
                }
                _ => {}
            }
            i += 1;
        }
        let keys: Vec<&str> = keys.into_iter().filter(|k| !nested.contains(k)).collect();
        assert_eq!(keys, names, "snapshot keys drifted from metric_names()");
    }

    /// The checked-in `docs/metric-names.txt` is the cross-repo
    /// stability contract: dashboards key on these names, so any
    /// rename must be deliberate (edit the file in the same change).
    #[test]
    fn metric_names_match_checked_in_contract() {
        let contract: Vec<&str> = include_str!("../../../docs/metric-names.txt")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(
            contract,
            MetricsRegistry::metric_names(),
            "docs/metric-names.txt and MetricsRegistry::metric_names() disagree"
        );
    }
}

//! The result cache: repeated traffic answered without solving.
//!
//! A long-lived daemon sees the same queries again and again — the
//! same design, the same bound, re-submitted by CI runs or by many
//! users. The cache keys on everything that determines the *verdict*:
//! the model's structural fingerprint
//! ([`sebmc::model_fingerprint`] — names excluded, so a renamed copy
//! of a design still hits), the semantics, the bound, whether the run
//! was certified, and whether static reduction was applied. The
//! engine selection is deliberately **not** part of the key: decided
//! verdicts are engine-independent (the engines agree or one of them
//! is wrong), so a verdict computed by `jsat` answers an `unroll`
//! query for the same problem. Budgets are also excluded — a decided
//! verdict holds under every budget.
//!
//! Only *decided*, *unquarantined* verdicts are cached: `Unknown`
//! outcomes depend on budgets and load, so replaying them would turn
//! one transient timeout into a permanent wrong answer.
//!
//! A hit re-serves the cold run's report: same verdict, bound,
//! winners, certificate summary, and witness/proof artifact *paths*
//! (the files themselves stay on disk where the cold run streamed
//! them — the cache never copies artifacts). The hit's stats are the
//! cold run's with `solver_effort` and `duration` zeroed, because the
//! service spent no solver effort answering it; every other field
//! (peak formula bytes, encode sizes) still describes the run that
//! produced the verdict.
//!
//! Memory is bounded by [`ResultCache::max_total_bytes`]: every entry
//! is charged an estimated footprint and least-recently-used entries
//! are evicted until the new entry fits. An entry larger than the
//! whole budget is simply not cached.

use std::collections::HashMap;
use std::time::Duration;

use sebmc::{BmcResult, Semantics};

use crate::report::JobReport;

/// Everything that determines a cached verdict.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Structural model fingerprint ([`sebmc::model_fingerprint`]).
    pub fingerprint: u64,
    /// Exactly-`k` vs within-`k`.
    pub semantics: Semantics,
    /// The sweep's `max_bound`.
    pub max_bound: usize,
    /// Whether the run certified its bounds.
    pub certify: bool,
    /// Whether static reduction was applied at admission.
    pub reduce: bool,
}

struct Entry {
    report: JobReport,
    bytes: usize,
    last_used: u64,
}

/// A bounded LRU of decided job reports (see the module docs).
pub struct ResultCache {
    /// The byte budget all entries share.
    pub max_total_bytes: usize,
    entries: HashMap<CacheKey, Entry>,
    used_bytes: usize,
    tick: u64,
}

/// Estimated in-memory footprint of a cached report: strings, winners,
/// an in-memory trace if the report still carries one, and a fixed
/// overhead for the struct itself.
fn entry_bytes(r: &JobReport) -> usize {
    let mut bytes = 512; // struct + map slot overhead
    bytes += r.name.len() + r.model.len();
    bytes += r.engines.len() * 16 + r.winners.len() * 24;
    bytes += r.witness_path.as_ref().map_or(0, String::len);
    bytes += r.proof_path.as_ref().map_or(0, String::len);
    if let BmcResult::Reachable(Some(trace)) = &r.verdict {
        // One packed state + one input vector per step, conservatively
        // 16 bytes per element.
        bytes += (trace.len() + 1) * 32;
    }
    if let BmcResult::Unknown(reason) = &r.verdict {
        bytes += reason.len();
    }
    bytes
}

impl ResultCache {
    /// An empty cache with the given byte budget.
    pub fn new(max_total_bytes: usize) -> Self {
        ResultCache {
            max_total_bytes,
            entries: HashMap::new(),
            used_bytes: 0,
            tick: 0,
        }
    }

    /// Bytes currently charged to entries.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether this report is eligible for caching: a decided verdict
    /// from an untroubled (not quarantined, not shed) run.
    pub fn cacheable(report: &JobReport) -> bool {
        !report.quarantined
            && matches!(
                report.verdict,
                BmcResult::Reachable(_) | BmcResult::Unreachable
            )
    }

    /// Looks the key up; on a hit, returns the cached report re-keyed
    /// for the new submission (`job_id`/`name` replaced, `cached` set,
    /// solver effort and duration zeroed, queue/solve wall-clock
    /// zeroed). Counts nothing: the service counts each job once, as a
    /// hit where the cache answers it and as a miss where a worker
    /// runs it.
    pub fn lookup(&mut self, key: &CacheKey, job_id: usize, name: &str) -> Option<JobReport> {
        self.tick += 1;
        let e = self.entries.get_mut(key)?;
        e.last_used = self.tick;
        let mut r = e.report.clone();
        r.job_id = job_id;
        r.name = name.to_string();
        r.cached = true;
        r.stats.solver_effort = 0;
        r.stats.duration = Duration::ZERO;
        r.queue_wait = Duration::ZERO;
        r.solve_time = Duration::ZERO;
        Some(r)
    }

    /// Inserts a finished report under `key`, evicting least-recently-
    /// used entries until it fits; returns how many entries were
    /// evicted. Uncacheable reports and reports larger than the whole
    /// budget are ignored (and evict nothing).
    pub fn insert(&mut self, key: CacheKey, report: &JobReport) -> usize {
        if !Self::cacheable(report) {
            return 0;
        }
        let bytes = entry_bytes(report);
        if bytes > self.max_total_bytes {
            return 0;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old.bytes;
        }
        let mut evicted_now = 0usize;
        while self.used_bytes + bytes > self.max_total_bytes {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let evicted = self.entries.remove(&victim).expect("victim present");
            self.used_bytes -= evicted.bytes;
            evicted_now += 1;
        }
        let mut stored = report.clone();
        stored.cached = false;
        self.entries.insert(
            key,
            Entry {
                report: stored,
                bytes,
                last_used: self.tick,
            },
        );
        self.used_bytes += bytes;
        evicted_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc::RunStats;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            semantics: Semantics::Exactly,
            max_bound: 6,
            certify: false,
            reduce: true,
        }
    }

    fn decided(id: usize) -> JobReport {
        JobReport {
            job_id: id,
            name: format!("job{id}"),
            model: "m".into(),
            engines: vec!["jsat"],
            verdict: BmcResult::Unreachable,
            bound: None,
            bounds_checked: 7,
            bounds_skipped: 0,
            winners: vec![(0, "jsat")],
            byte_cap: None,
            stats: RunStats {
                solver_effort: 42,
                duration: Duration::from_millis(9),
                peak_formula_bytes: 1234,
                ..RunStats::default()
            },
            certificate: None,
            witness_path: None,
            witness_steps: None,
            queue_wait: Duration::from_millis(3),
            solve_time: Duration::from_millis(9),
            attempts: 1,
            resumed_from: None,
            deferrals: 0,
            downgraded: false,
            quarantined: false,
            failures: Vec::new(),
            proof_path: None,
            cached: false,
            priority: 4,
        }
    }

    #[test]
    fn hit_rekeys_and_zeroes_effort() {
        let mut c = ResultCache::new(1 << 20);
        c.insert(key(1), &decided(0));
        let hit = c.lookup(&key(1), 7, "resub").expect("hit");
        assert_eq!(hit.job_id, 7);
        assert_eq!(hit.name, "resub");
        assert!(hit.cached);
        assert_eq!(hit.stats.solver_effort, 0, "no solver effort on a hit");
        assert_eq!(hit.stats.peak_formula_bytes, 1234, "cold-run peaks kept");
        assert_eq!(hit.bounds_checked, 7);
    }

    #[test]
    fn differing_key_fields_miss() {
        let mut c = ResultCache::new(1 << 20);
        c.insert(key(1), &decided(0));
        assert!(c.lookup(&key(2), 1, "x").is_none(), "fingerprint differs");
        let mut k = key(1);
        k.max_bound = 7;
        assert!(c.lookup(&k, 1, "x").is_none(), "bound differs");
        let mut k = key(1);
        k.semantics = Semantics::Within;
        assert!(c.lookup(&k, 1, "x").is_none(), "semantics differs");
        let mut k = key(1);
        k.certify = true;
        assert!(c.lookup(&k, 1, "x").is_none(), "certify differs");
    }

    #[test]
    fn unknown_and_quarantined_are_not_cached() {
        let mut c = ResultCache::new(1 << 20);
        let mut unknown = decided(0);
        unknown.verdict = BmcResult::Unknown("budget exhausted".into());
        c.insert(key(1), &unknown);
        let mut poisoned = decided(0);
        poisoned.quarantined = true;
        c.insert(key(2), &poisoned);
        assert!(c.is_empty());
    }

    #[test]
    fn respects_byte_budget_with_lru_eviction() {
        let one = entry_bytes(&decided(0));
        // Room for two entries, not three.
        let mut c = ResultCache::new(one * 2 + one / 2);
        c.insert(key(1), &decided(1));
        c.insert(key(2), &decided(2));
        assert_eq!(c.len(), 2);
        assert!(c.used_bytes() <= c.max_total_bytes);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(c.lookup(&key(1), 9, "touch").is_some());
        assert_eq!(c.insert(key(3), &decided(3)), 1, "one entry evicted");
        assert_eq!(c.len(), 2);
        assert!(c.used_bytes() <= c.max_total_bytes, "accounting holds");
        assert!(c.lookup(&key(2), 9, "gone").is_none(), "LRU evicted");
        assert!(c.lookup(&key(1), 9, "kept").is_some());
        assert!(c.lookup(&key(3), 9, "kept").is_some());
        // An entry bigger than the whole budget is refused outright.
        let mut tiny = ResultCache::new(16);
        tiny.insert(key(4), &decided(4));
        assert!(tiny.is_empty());
        assert_eq!(tiny.used_bytes(), 0);
    }
}

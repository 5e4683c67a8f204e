//! [`JobSpec`]: the single source of truth for describing a job.
//!
//! Historically the workspace had three divergent ways to construct a
//! [`Job`]: the builder methods on [`Job`] itself, the job-file line
//! options of [`parse_job_file`](crate::parse_job_file), and the
//! `sebmc batch` CLI flags. `JobSpec` collapses them: a job file line
//! parses to a `JobSpec`, the CLI builds a `JobSpec`, and the `sebmc
//! serve` wire protocol transmits a `JobSpec` as one line of JSON —
//! the same encode/decode everywhere. [`JobSpec::into_job`] is the one
//! place that resolves the model reference and materialises the
//! [`Job`] (always with a fresh cancel token).

use std::time::Duration;

use sebmc::{Budget, CancelToken, Semantics};
use sebmc_logic::json::{obj, Json};

use crate::job::{suite_model, EngineKind, Job, RetryPolicy, DEFAULT_PRIORITY};

/// A declarative job description: everything a [`Job`] needs except
/// the materialised model and cancel token.
///
/// The `model` field is a *reference*, not a model: `suite:<name>`
/// resolves a built-in suite model, anything else is read as an AIGER
/// file path (relative to the resolving process — for `sebmc serve`,
/// the daemon's working directory).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Job label; defaults to the resolved model's name when `None`.
    pub name: Option<String>,
    /// Model reference: `suite:<name>` or an AIGER file path.
    pub model: String,
    /// Engine selection; two or more race per bound.
    pub engines: Vec<EngineKind>,
    /// Deepen bounds `0..=max_bound`.
    pub max_bound: usize,
    /// Exactly-`k` or within-`k` reachability.
    pub semantics: Semantics,
    /// Scheduling priority, `0` (lowest) ..= `9` (highest); the queue
    /// ages waiting jobs upward so low priorities cannot starve.
    pub priority: u8,
    /// Wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-session byte cap in mebibytes.
    pub mem_mb: Option<u64>,
    /// Machine-check every decided bound (DRAT certification).
    pub certify: bool,
    /// Run the static model reduction at admission (default `true`).
    pub reduce: bool,
    /// Extra attempts after a failed first one.
    pub retries: u32,
    /// Base retry backoff in milliseconds (`None` = policy default).
    pub backoff_ms: Option<u64>,
    /// Per-attempt wall-clock cap in milliseconds.
    pub attempt_timeout_ms: Option<u64>,
    /// Whole-job deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec for `model` with the given engines and bound, everything
    /// else at its default.
    pub fn new(model: impl Into<String>, engines: Vec<EngineKind>, max_bound: usize) -> Self {
        JobSpec {
            name: None,
            model: model.into(),
            engines,
            max_bound,
            semantics: Semantics::Exactly,
            priority: DEFAULT_PRIORITY,
            timeout_ms: None,
            mem_mb: None,
            certify: false,
            reduce: true,
            retries: 0,
            backoff_ms: None,
            attempt_timeout_ms: None,
            deadline_ms: None,
        }
    }

    /// Parses one job-file line (the `sebmc batch` format):
    ///
    /// ```text
    /// <model> <engines> <max-bound> [options…]
    /// ```
    ///
    /// Options: `within`, `certify`, `no-reduce`, `timeout-ms=N`,
    /// `mem-mb=N`, `name=<label>`, `priority=N` (0–9), `retries=N`,
    /// `backoff-ms=N`, `deadline-ms=N`, `attempt-timeout-ms=N`.
    pub fn parse_line(line: &str) -> Result<JobSpec, String> {
        let mut fields = line.split_whitespace();
        let model = fields.next().ok_or("missing model")?;
        let engines = EngineKind::parse_list(fields.next().ok_or("missing engine list")?)?;
        let bound_s = fields.next().ok_or("missing max bound")?;
        let max_bound: usize = bound_s
            .parse()
            .map_err(|_| format!("bad max bound '{bound_s}'"))?;
        let mut spec = JobSpec::new(model, engines, max_bound);
        for opt in fields {
            spec.apply_option(opt)?;
        }
        Ok(spec)
    }

    /// Applies one job-file option token (also used by the CLI to fold
    /// per-job overrides onto flag defaults).
    pub fn apply_option(&mut self, opt: &str) -> Result<(), String> {
        if opt == "within" {
            self.semantics = Semantics::Within;
        } else if opt == "certify" {
            self.certify = true;
        } else if opt == "no-reduce" {
            self.reduce = false;
        } else if let Some(v) = opt.strip_prefix("timeout-ms=") {
            self.timeout_ms = Some(v.parse().map_err(|_| format!("bad timeout-ms '{v}'"))?);
        } else if let Some(v) = opt.strip_prefix("mem-mb=") {
            self.mem_mb = Some(v.parse().map_err(|_| format!("bad mem-mb '{v}'"))?);
        } else if let Some(v) = opt.strip_prefix("name=") {
            self.name = Some(v.to_string());
        } else if let Some(v) = opt.strip_prefix("priority=") {
            let p: u8 = v.parse().map_err(|_| format!("bad priority '{v}'"))?;
            if p > 9 {
                return Err(format!("bad priority '{v}' (expected 0..=9)"));
            }
            self.priority = p;
        } else if let Some(v) = opt.strip_prefix("retries=") {
            self.retries = v.parse().map_err(|_| format!("bad retries '{v}'"))?;
        } else if let Some(v) = opt.strip_prefix("backoff-ms=") {
            self.backoff_ms = Some(v.parse().map_err(|_| format!("bad backoff-ms '{v}'"))?);
        } else if let Some(v) = opt.strip_prefix("deadline-ms=") {
            self.deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline-ms '{v}'"))?);
        } else if let Some(v) = opt.strip_prefix("attempt-timeout-ms=") {
            self.attempt_timeout_ms = Some(
                v.parse()
                    .map_err(|_| format!("bad attempt-timeout-ms '{v}'"))?,
            );
        } else {
            return Err(format!("unknown option '{opt}'"));
        }
        Ok(())
    }

    /// Encodes the spec as the wire-protocol submission object. Fields
    /// at their defaults are omitted, so a minimal submission is
    /// `{"model":"suite:ring_4","engines":["jsat"],"max_bound":6}`.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = Vec::new();
        if let Some(n) = &self.name {
            fields.push(("name", Json::Str(n.clone())));
        }
        fields.push(("model", Json::Str(self.model.clone())));
        fields.push((
            "engines",
            Json::Arr(
                self.engines
                    .iter()
                    .map(|e| Json::Str(e.as_str().to_string()))
                    .collect(),
            ),
        ));
        #[allow(clippy::cast_precision_loss)]
        fields.push(("max_bound", Json::Num(self.max_bound as f64)));
        if self.semantics == Semantics::Within {
            fields.push(("semantics", Json::Str("within".into())));
        }
        if self.priority != DEFAULT_PRIORITY {
            fields.push(("priority", Json::Num(f64::from(self.priority))));
        }
        let num_u64 = |v: u64| {
            #[allow(clippy::cast_precision_loss)]
            Json::Num(v as f64)
        };
        if let Some(v) = self.timeout_ms {
            fields.push(("timeout_ms", num_u64(v)));
        }
        if let Some(v) = self.mem_mb {
            fields.push(("mem_mb", num_u64(v)));
        }
        if self.certify {
            fields.push(("certify", Json::Bool(true)));
        }
        if !self.reduce {
            fields.push(("reduce", Json::Bool(false)));
        }
        if self.retries > 0 {
            fields.push(("retries", Json::Num(f64::from(self.retries))));
        }
        if let Some(v) = self.backoff_ms {
            fields.push(("backoff_ms", num_u64(v)));
        }
        if let Some(v) = self.attempt_timeout_ms {
            fields.push(("attempt_timeout_ms", num_u64(v)));
        }
        if let Some(v) = self.deadline_ms {
            fields.push(("deadline_ms", num_u64(v)));
        }
        obj(fields)
    }

    /// Decodes a wire-protocol submission object.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let model = v
            .get("model")
            .and_then(Json::as_str)
            .ok_or("missing 'model'")?;
        let engines_v = v
            .get("engines")
            .and_then(Json::as_arr)
            .ok_or("missing 'engines'")?;
        let mut engines = Vec::with_capacity(engines_v.len());
        for e in engines_v {
            engines.push(EngineKind::parse(e.as_str().ok_or("bad engine entry")?)?);
        }
        if engines.is_empty() {
            return Err("empty engine list".into());
        }
        let max_bound = v
            .get("max_bound")
            .and_then(Json::as_u64)
            .ok_or("missing 'max_bound'")? as usize;
        let mut spec = JobSpec::new(model, engines, max_bound);
        spec.name = v.get("name").and_then(Json::as_str).map(String::from);
        match v.get("semantics").and_then(Json::as_str) {
            None | Some("exactly") => {}
            Some("within") => spec.semantics = Semantics::Within,
            Some(other) => return Err(format!("unknown semantics '{other}'")),
        }
        if let Some(p) = v.get("priority") {
            let p = p.as_u64().ok_or("bad priority")?;
            if p > 9 {
                return Err(format!("bad priority '{p}' (expected 0..=9)"));
            }
            spec.priority = p as u8;
        }
        let field_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(x) => x.as_u64().map(Some).ok_or(format!("bad {key}")),
            }
        };
        spec.timeout_ms = field_u64("timeout_ms")?;
        spec.mem_mb = field_u64("mem_mb")?;
        spec.backoff_ms = field_u64("backoff_ms")?;
        spec.attempt_timeout_ms = field_u64("attempt_timeout_ms")?;
        spec.deadline_ms = field_u64("deadline_ms")?;
        if let Some(c) = v.get("certify") {
            spec.certify = c.as_bool().ok_or("bad certify")?;
        }
        if let Some(r) = v.get("reduce") {
            spec.reduce = r.as_bool().ok_or("bad reduce")?;
        }
        if let Some(r) = field_u64("retries")? {
            spec.retries = u32::try_from(r).map_err(|_| "bad retries")?;
        }
        Ok(spec)
    }

    /// Resolves the model reference and materialises the [`Job`]
    /// (fresh cancel token; budget and retry policy built from the
    /// spec's fields). A `mem_mb` whose byte count overflows is an
    /// error, found before the model is read.
    pub fn into_job(self) -> Result<Job, String> {
        let max_formula_bytes = self
            .mem_mb
            .map(|mb| {
                mb.checked_mul(1024 * 1024)
                    .and_then(|b| usize::try_from(b).ok())
                    .ok_or_else(|| format!("mem-mb {mb} overflows a byte count"))
            })
            .transpose()?;
        let model = if let Some(name) = self.model.strip_prefix("suite:") {
            suite_model(name).ok_or_else(|| format!("no built-in suite model named '{name}'"))?
        } else {
            let bytes = std::fs::read(&self.model)
                .map_err(|e| format!("cannot read AIGER file '{}': {e}", self.model))?;
            let file =
                sebmc_aiger::parse_auto(&bytes).map_err(|e| format!("'{}': {e}", self.model))?;
            sebmc_aiger::aiger_to_model(&file, &self.model)
                .map_err(|e| format!("'{}': {e}", self.model))?
        };
        let mut budget = Budget::none().with_cancel(CancelToken::new());
        budget.timeout = self.timeout_ms.map(Duration::from_millis);
        budget.max_formula_bytes = max_formula_bytes;
        budget.certify = self.certify;
        budget.reduce = self.reduce;
        let defaults = RetryPolicy::default();
        let retry = RetryPolicy {
            max_attempts: self.retries.saturating_add(1),
            backoff: self
                .backoff_ms
                .map_or(defaults.backoff, Duration::from_millis),
            attempt_timeout: self.attempt_timeout_ms.map(Duration::from_millis),
            job_deadline: self.deadline_ms.map(Duration::from_millis),
            ..defaults
        };
        let mut job = Job::new(model, self.engines, self.max_bound)
            .with_semantics(self.semantics)
            .with_budget(budget)
            .with_retry(retry)
            .with_priority(self.priority);
        if let Some(name) = self.name {
            job.name = name;
        }
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_json_and_job_agree() {
        let line = "suite:ring_4 jsat,unroll 6 within certify priority=7 timeout-ms=5000 \
                    mem-mb=8 name=smoke retries=2 backoff-ms=5 deadline-ms=750 \
                    attempt-timeout-ms=100";
        let spec = JobSpec::parse_line(line).unwrap();
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.retries, 2);
        // Wire round-trip is lossless.
        let wire = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, spec);
        // The materialised job carries every option.
        let job = back.into_job().unwrap();
        assert_eq!(job.name, "smoke");
        assert_eq!(job.model.name(), "ring_4");
        assert_eq!(job.semantics, Semantics::Within);
        assert_eq!(job.priority, 7);
        assert_eq!(job.budget.timeout, Some(Duration::from_millis(5000)));
        assert_eq!(job.budget.max_formula_bytes, Some(8 * 1024 * 1024));
        assert!(job.budget.certify);
        assert_eq!(job.retry.max_attempts, 3);
        assert_eq!(job.retry.backoff, Duration::from_millis(5));
        assert_eq!(job.retry.job_deadline, Some(Duration::from_millis(750)));
        assert_eq!(job.retry.attempt_timeout, Some(Duration::from_millis(100)));
    }

    #[test]
    fn minimal_wire_submission_defaults() {
        let v =
            Json::parse(r#"{"model":"suite:ring_4","engines":["jsat"],"max_bound":6}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(
            spec,
            JobSpec::new("suite:ring_4", vec![EngineKind::Jsat], 6)
        );
        assert_eq!(spec.priority, DEFAULT_PRIORITY);
        assert!(spec.reduce);
    }

    #[test]
    fn rejects_bad_specs() {
        for (line, needle) in [
            ("suite:ring_4 jsat", "missing max bound"),
            ("suite:ring_4 bdd 4", "unknown engine"),
            ("suite:ring_4 jsat four", "bad max bound"),
            ("suite:ring_4 jsat 4 priority=12", "bad priority"),
            ("suite:ring_4 jsat 4 frob=1", "unknown option"),
        ] {
            let err = JobSpec::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{err} ~ {needle}");
        }
        assert!(JobSpec::parse_line("suite:nope jsat 4")
            .unwrap()
            .into_job()
            .unwrap_err()
            .contains("no built-in suite model"));
        // 2^44 MiB is 2^64 bytes; the overflow is found before the
        // (unknown) model is resolved.
        assert!(
            JobSpec::parse_line("suite:nope jsat 4 mem-mb=17592186044416")
                .unwrap()
                .into_job()
                .unwrap_err()
                .contains("mem-mb 17592186044416 overflows")
        );
        for (wire, needle) in [
            (r#"{"engines":["jsat"],"max_bound":4}"#, "missing 'model'"),
            (
                r#"{"model":"suite:ring_4","max_bound":4}"#,
                "missing 'engines'",
            ),
            (
                r#"{"model":"suite:ring_4","engines":[],"max_bound":4}"#,
                "empty engine list",
            ),
            (
                r#"{"model":"suite:ring_4","engines":["jsat"]}"#,
                "missing 'max_bound'",
            ),
            (
                r#"{"model":"suite:ring_4","engines":["jsat"],"max_bound":4,"priority":11}"#,
                "bad priority",
            ),
        ] {
            let err = JobSpec::from_json(&Json::parse(wire).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err} ~ {needle}");
        }
    }
}

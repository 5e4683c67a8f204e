//! The `serve` workload: a `sebmc-cli serve --workers 2` daemon on
//! loopback, with its default result cache, driven by a closed loop.
//!
//! Two connections, one thread each, keep 4 jobs outstanding apiece and
//! submit the next job when a report lands — how `sebmc client` and CI
//! scripts use the daemon: submit, then wait for the report. Jobs are
//! short AIGER checks (small family models and LFSR needles at varied
//! bounds, seeded small `random_fsm` models) on `jsat`, `unroll` or the
//! `jsat,unroll` portfolio; about 1 in 5 runs at priority 8 and about 2
//! in 3 repeat an earlier spec, so cache reads sit beside fresh solves.
//! The specs are generated as the connections need them, so the share of
//! repeats, and with it the cache-hit share, does not depend on how fast
//! the daemon is.
//!
//! Latencies fall in bands about 44 ms apart, the wire stalls that
//! `wire.submit_rtt_ms` and `wire.delivery_ms` show: cache hits mostly
//! at about 45 ms, solved jobs at about 55 or 88 ms. With 1 in 3 repeats the median sat on the edge between the two
//! solved bands and flipped between about 60 and 88 ms from run to run.
//! With 2 in 3 it lies well inside the cache-hit band, and the 95th
//! percentile well inside the upper solved band.
//!
//! The client speaks the line protocol of `docs/protocol.md` itself, one
//! write per frame, and stamps every frame as it arrives. (`WireClient`
//! blocks on each submit's response and stashes reports that arrive
//! meanwhile, so their arrival would be stamped late.) A traced run
//! splits the window: the first half is timed as an untraced run, the
//! second half feeds the per-layer figures, bracketed by two `stats`
//! frames.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sebmc::model_fingerprint;
use sebmc_aiger::{aiger_to_model, parse_auto};
use sebmc_logic::json::{obj, Json};
use sebmc_logic::rng::SplitMix64;
use sebmc_service::{EngineKind, JobSpec, LineEvent, LineReader};

use crate::models::{BenchModel, Family};
use crate::util::{median, ms, peak_rss_mib, quantile, shuffle, MIB};
use crate::{more_setups, Args, Metrics, RunResult};

const CONNECTIONS: usize = 2;
/// Jobs each connection keeps outstanding.
const OUTSTANDING: usize = 4;
const WORKERS: &str = "2";
/// Bounds of the deepening sweeps: `0..=b` for `b` in this range.
const BOUNDS: std::ops::RangeInclusive<usize> = 1..=24;
/// About [`REPEATS`] specs in [`REPEAT_OUT_OF`] repeat an earlier one.
const REPEATS: usize = 2;
const REPEAT_OUT_OF: usize = 3;
/// A repeat copies a spec at least this far back in its connection's
/// submission order, more than [`OUTSTANDING`], so the copied spec has
/// been reported and its verdict cached.
const REPEAT_MIN_AGE: usize = 16;
/// About one fresh spec in this many uses a family model or an LFSR; the
/// others use seeded `random_fsm` models. The 11,448 family pairs last for
/// some 34,000 fresh specs, about 100,000 jobs, or 3,400 jobs/s in a 30 s
/// window.
const FAMILY_EVERY: usize = 3;
/// Random models open for fresh picks at any time. One whose bounds are
/// all used is replaced by a new model, so fresh picks come from the same
/// distribution however far a run gets.
const OPEN_RANDOM: usize = 64;
/// Bounds of [`BOUNDS`] each random model is checked at, drawn at
/// random. A few of the random models make jobs several times heavier
/// than the rest, and the daemon's peak RSS follows the heaviest jobs it
/// has run; spreading the fresh picks over more models makes each run
/// meet about as many heavy ones.
const BOUNDS_PER_RANDOM: usize = 4;
/// Specs generated in set-up; the rest are generated as the connections
/// reach them.
const SETUP_SPECS: usize = 1_000;
/// `peak_rss_mib` is the daemon's `VmHWM` once this many reports have
/// arrived (or at the end of the window, if fewer do). The result cache
/// keeps every fresh report, so the daemon's peak grows with the jobs it
/// has done; read at a fixed job count it does not depend on how fast
/// the daemon is.
const RSS_AFTER_JOBS: usize = 3_000;
/// How often the control thread looks at the report count.
const POLL: Duration = Duration::from_millis(10);
/// Longest wait for any single frame before the run is abandoned.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// The small family models: each decides in well under 50 ms on every
/// engine at every bound of [`BOUNDS`].
fn family_pool() -> Vec<Family> {
    let mut f = Vec::new();
    f.extend((2..=8).map(Family::Shift));
    f.extend((2..=6).map(Family::Johnson));
    f.extend((3..=10).map(Family::TokenRing));
    f.extend((2..=4).map(Family::CounterEnable));
    f.extend((2..=4).map(Family::CounterReset));
    f.extend((1..=2).map(Family::Fifo));
    f.extend((1..=3).map(Family::Elevator));
    f.extend((2..=5).map(Family::Arbiter));
    f.extend((2..=4).map(Family::Gray));
    f.push(Family::Traffic);
    f.push(Family::Peterson);
    // LFSR needles: each target state is a distinct model.
    for w in 4..=12 {
        f.extend((0..=62).map(|t| Family::Lfsr(w, t)));
    }
    f
}

/// One submission: the wire frame, the oracle's verdict, and whether its
/// (model, bound) pair is new to the run, so the result cache must miss.
#[derive(Clone)]
struct Spec {
    frame: String,
    expect: Option<usize>,
    fresh: bool,
}

/// The run's models and the (model, bound) pairs no spec has used yet.
struct Pool {
    dir: PathBuf,
    models: Vec<BenchModel>,
    /// The daemon's cache keys on the fingerprint of the model it reads
    /// from the file, so a model sharing one with an earlier model is
    /// left out: its first spec would be a cache hit.
    fingerprints: HashSet<u64>,
    /// Unused family pairs, in a seeded order.
    family: Vec<(usize, usize)>,
    /// Open random models, each with its unused bounds.
    open: Vec<(usize, Vec<usize>)>,
}

impl Pool {
    /// Adds a model unless its fingerprint is taken; returns its index.
    fn add(&mut self, family: Family) -> Result<Option<usize>, String> {
        let m = BenchModel::create(family, &self.dir, *BOUNDS.end())?;
        let bytes = std::fs::read(&m.path).map_err(|e| format!("{}: {e}", m.path.display()))?;
        let read_back = parse_auto(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|f| aiger_to_model(&f, "read_back").map_err(|e| e.to_string()))
            .map_err(|e| format!("{}: {e}", m.path.display()))?;
        if !self.fingerprints.insert(model_fingerprint(&read_back)) {
            return Ok(None);
        }
        self.models.push(m);
        Ok(Some(self.models.len() - 1))
    }

    fn open_random(&mut self, rng: &mut SplitMix64) -> Result<(), String> {
        loop {
            let bits = rng.range_inclusive(6, 10);
            let inputs = rng.range_inclusive(1, 2);
            if let Some(m) = self.add(Family::RandomSmall(bits, inputs, rng.next_u64()))? {
                let mut bounds: Vec<usize> = BOUNDS.collect();
                shuffle(&mut bounds, rng);
                bounds.truncate(BOUNDS_PER_RANDOM);
                self.open.push((m, bounds));
                return Ok(());
            }
        }
    }

    /// A (model, bound) pair that no spec has used.
    fn fresh(&mut self, rng: &mut SplitMix64) -> Result<(usize, usize), String> {
        if rng.below(FAMILY_EVERY) == 0 {
            return self
                .family
                .pop()
                .ok_or_else(|| "the family models ran out of fresh bounds".to_string());
        }
        let i = rng.below(self.open.len());
        let (m, bounds) = &mut self.open[i];
        let pick = (*m, bounds.swap_remove(rng.below(bounds.len())));
        if bounds.is_empty() {
            self.open.swap_remove(i);
            self.open_random(rng)?;
        }
        Ok(pick)
    }
}

/// The generator behind a [`Feed`].
struct Gen {
    rng: SplitMix64,
    pool: Pool,
    specs: Vec<Spec>,
}

impl Gen {
    fn push_next(&mut self) -> Result<(), String> {
        let i = self.specs.len();
        let rng = &mut self.rng;
        // Spec `i` goes to connection `i % CONNECTIONS`, and a repeat
        // copies an earlier spec of the same connection: the connections
        // drift apart, so one of the other's could still be unsent.
        let own = i / CONNECTIONS;
        if own >= REPEAT_MIN_AGE && rng.below(REPEAT_OUT_OF) < REPEATS {
            let back = CONNECTIONS * (REPEAT_MIN_AGE + rng.below(own - REPEAT_MIN_AGE + 1));
            let earlier = &self.specs[i - back];
            let copy = Spec {
                fresh: false,
                ..earlier.clone()
            };
            self.specs.push(copy);
            return Ok(());
        }
        let (m, bound) = self.pool.fresh(rng)?;
        let engines = match rng.below(3) {
            0 => vec![EngineKind::Jsat],
            1 => vec![EngineKind::Unroll],
            _ => vec![EngineKind::Jsat, EngineKind::Unroll],
        };
        let model = &self.pool.models[m];
        let mut spec = JobSpec::new(model.path.to_string_lossy(), engines, bound);
        if rng.below(5) == 0 {
            spec.priority = 8;
        }
        self.specs.push(Spec {
            frame: spec.to_json().to_string(),
            expect: model.expected_first(bound, |_| true),
            fresh: true,
        });
        Ok(())
    }
}

/// The run's submission sequence. One seeded generator makes it in
/// order, extending it as the connections reach its end, so a daemon of
/// any speed meets the same mix and every fresh spec is a cache miss.
struct Feed {
    gen: Mutex<Gen>,
    /// The (model, bound) pairs of the family models and LFSRs.
    family_pairs: usize,
}

impl Feed {
    /// Builds the family models and the first random ones in `dir`, and
    /// the first [`SETUP_SPECS`] specs.
    fn new(seed: u64, dir: PathBuf) -> Result<Feed, String> {
        let mut rng = SplitMix64::new(seed);
        let mut pool = Pool {
            dir,
            models: Vec::new(),
            fingerprints: HashSet::new(),
            family: Vec::new(),
            open: Vec::new(),
        };
        for f in family_pool() {
            if let Some(m) = pool.add(f)? {
                pool.family.extend(BOUNDS.map(|b| (m, b)));
            }
        }
        shuffle(&mut pool.family, &mut rng);
        let family_pairs = pool.family.len();
        for _ in 0..OPEN_RANDOM {
            pool.open_random(&mut rng)?;
        }
        let mut gen = Gen {
            rng,
            pool,
            specs: Vec::new(),
        };
        while gen.specs.len() < SETUP_SPECS {
            gen.push_next()?;
        }
        Ok(Feed {
            gen: Mutex::new(gen),
            family_pairs,
        })
    }

    /// The spec at position `i`, generating up to it if needed.
    fn get(&self, i: usize) -> Result<Spec, String> {
        let mut gen = self.lock()?;
        while gen.specs.len() <= i {
            gen.push_next()?;
        }
        Ok(gen.specs[i].clone())
    }

    fn len(&self) -> Result<usize, String> {
        Ok(self.lock()?.specs.len())
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Gen>, String> {
        self.gen
            .lock()
            .map_err(|_| "the spec generator panicked".to_string())
    }
}

/// A client connection speaking the daemon's line protocol.
struct Conn {
    out: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let err = |e: std::io::Error| format!("connect {addr}: {e}");
        let out = TcpStream::connect(addr).map_err(err)?;
        out.set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(err)?;
        let reader = LineReader::new(out.try_clone().map_err(err)?);
        let mut conn = Conn { out, reader };
        let hello = conn.recv()?;
        if op(&hello) != "hello" {
            return Err(format!("expected a hello frame, got {hello}"));
        }
        Ok(conn)
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| format!("send to daemon: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let deadline = Instant::now() + FRAME_TIMEOUT;
        loop {
            match self.reader.read_line() {
                LineEvent::Line(l) if l.trim().is_empty() => {}
                LineEvent::Line(l) => {
                    return Json::parse(&l).map_err(|e| format!("bad frame: {e}"))
                }
                LineEvent::Timeout if Instant::now() < deadline => {}
                LineEvent::Timeout => return Err("no frame from the daemon for 30 s".into()),
                LineEvent::Eof => return Err("the daemon closed the connection".into()),
            }
        }
    }

    /// Sends a command and returns its response (the control connection
    /// submits no jobs, so no report can come first).
    fn command(&mut self, frame: &Json, reply: &str) -> Result<Json, String> {
        self.send(&frame.to_string())?;
        let resp = self.recv()?;
        if op(&resp) == reply {
            Ok(resp)
        } else {
            Err(format!("expected {reply}, got {resp}"))
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        let resp = self.command(&obj(vec![("op", Json::Str("stats".into()))]), "stats")?;
        resp.get("snapshot")
            .and_then(|s| s.get("metrics"))
            .cloned()
            .ok_or_else(|| format!("stats frame without metrics: {resp}"))
    }
}

fn op(frame: &Json) -> &str {
    frame.get("op").and_then(Json::as_str).unwrap_or("")
}

/// The daemon process; killed if dropped before a clean shutdown.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    ctl: Conn,
}

impl Daemon {
    /// Starts the daemon and waits until its first `ping` answers.
    fn start(cli: &Path, dir: &Path) -> Result<Daemon, String> {
        let cli = cli
            .canonicalize()
            .map_err(|e| format!("{}: {e}", cli.display()))?;
        let mut child = Command::new(&cli)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                WORKERS,
                "--quiet",
            ])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("sebmc: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "daemon did not report its address ({read:?}: '{line}')"
            ));
        };
        let addr = addr.to_string();
        let mut daemon = Daemon {
            ctl: match Conn::connect(&addr) {
                Ok(c) => c,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            },
            child,
            stdout,
            addr,
        };
        daemon
            .ctl
            .command(&obj(vec![("op", Json::Str("ping".into()))]), "pong")?;
        Ok(daemon)
    }

    /// Graceful shutdown; returns the daemon's exit-summary JSON.
    fn stop(mut self) -> Result<Json, String> {
        self.ctl.command(
            &obj(vec![
                ("op", Json::Str("shutdown".into())),
                ("mode", Json::Str("graceful".into())),
            ]),
            "shutdown_ack",
        )?;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let last = rest.lines().last().unwrap_or("");
        Json::parse(last).map_err(|e| format!("daemon exit summary '{last}': {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A no-op after `stop`, which has already reaped the process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One finished job as the client saw it (times in ms since the window
/// opened).
struct Sample {
    submitted: f64,
    accepted: f64,
    arrived: f64,
    queue_wait: f64,
    solve: f64,
    cached: bool,
    fresh: bool,
    stats: Option<Json>,
}

#[derive(Default)]
struct ConnResult {
    submitted: u64,
    fresh_submitted: u64,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

/// Checks one report against the oracle. `Ok(true)` means the job
/// failed (ended unknown); a contradicting verdict is an error.
fn check_report(job: &Json, spec: &Spec) -> Result<bool, String> {
    let verdict = job.get("verdict").and_then(Json::as_str).unwrap_or("");
    let bound = job.get("bound").and_then(Json::as_u64);
    let ok = match (verdict, spec.expect) {
        ("unknown", _) => {
            eprintln!("e2e-bench: job ended unknown: {job}");
            return Ok(true);
        }
        ("reachable", Some(k)) => bound == Some(k as u64),
        ("unreachable", None) => true,
        _ => false,
    };
    if ok {
        Ok(false)
    } else {
        Err(format!(
            "wrong verdict: {} for {}, oracle says {:?}",
            job.get("verdict").map_or(String::new(), Json::to_string),
            spec.frame,
            spec.expect
        ))
    }
}

/// Drives one connection's closed loop until `end`, then drains it.
fn drive(
    addr: &str,
    first: usize,
    feed: &Feed,
    start: Instant,
    end: Instant,
    abort: &AtomicBool,
    reports: &AtomicUsize,
) -> Result<ConnResult, String> {
    let mut conn = Conn::connect(addr)?;
    let mut r = ConnResult::default();
    let mut next = first;
    let mut awaiting_accept: VecDeque<(Spec, f64)> = VecDeque::new();
    let mut running: HashMap<u64, (Spec, f64, f64)> = HashMap::new();
    let since = |t: Instant| ms(t - start);
    loop {
        while awaiting_accept.len() + running.len() < OUTSTANDING
            && Instant::now() < end
            && !abort.load(Ordering::Relaxed)
        {
            let spec = feed.get(next)?;
            let t = Instant::now();
            conn.send(&spec.frame)?;
            r.submitted += 1;
            r.fresh_submitted += u64::from(spec.fresh);
            awaiting_accept.push_back((spec, since(t)));
            next += CONNECTIONS;
        }
        if awaiting_accept.is_empty() && running.is_empty() {
            return Ok(r);
        }
        let frame = conn.recv()?;
        let now = since(Instant::now());
        match op(&frame) {
            "accepted" => {
                let (spec, submitted) = awaiting_accept
                    .pop_front()
                    .ok_or("accepted frame without a submission")?;
                let id = frame
                    .get("job_id")
                    .and_then(Json::as_u64)
                    .ok_or("accepted frame without job_id")?;
                running.insert(id, (spec, submitted, now));
            }
            "error" => {
                awaiting_accept
                    .pop_front()
                    .ok_or("error frame without a submission")?;
                eprintln!("e2e-bench: submission refused: {frame}");
                r.attempted += 1;
                r.failed += 1;
            }
            "report" => {
                let job = frame.get("job").ok_or("report frame without job")?;
                let id = job.get("id").and_then(Json::as_u64).unwrap_or(u64::MAX);
                let (spec, submitted, accepted) = running
                    .remove(&id)
                    .ok_or_else(|| format!("report for unknown job {id}"))?;
                let failed = check_report(job, &spec)?;
                reports.fetch_add(1, Ordering::Relaxed);
                r.attempted += 1;
                r.failed += u64::from(failed);
                let field = |k: &str| job.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
                let cached = job.get("cached").and_then(Json::as_bool) == Some(true);
                r.samples.push(Sample {
                    submitted,
                    accepted,
                    arrived: now,
                    queue_wait: field("queue_wait_ms"),
                    solve: field("solve_ms"),
                    cached,
                    fresh: spec.fresh,
                    stats: (!cached).then(|| job.get("stats").cloned()).flatten(),
                });
            }
            other => return Err(format!("unexpected frame '{other}': {frame}")),
        }
    }
}

/// A counter or gauge from a `stats` snapshot.
fn metric(snapshot: &Json, name: &str) -> f64 {
    snapshot.get(name).and_then(Json::as_u64).unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    while more_setups(&setup_s) {
        if let Some((d, _)) = ready.take() {
            Daemon::stop(d)?;
        }
        // Every set-up writes the same files into one directory, so the
        // repeats overwrite them rather than create thousands more.
        let dir = args.work_dir.join("models");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t = Instant::now();
        let feed = Feed::new(args.seed, dir.clone())?;
        let daemon = Daemon::start(&args.cli, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((daemon, feed));
    }
    let (mut daemon, feed) = ready.expect("set up at least once");

    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let end = start + window;
    // Traced runs time the first half untraced and trace the second.
    let mid = if args.trace { start + window / 2 } else { end };
    let abort = AtomicBool::new(false);
    let reports = AtomicUsize::new(0);
    let pid = daemon.child.id().to_string();
    let (results, before, rss) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, feed, abort, reports) = (&daemon.addr, &feed, &abort, &reports);
                s.spawn(move || {
                    let r = drive(addr, c, feed, start, end, abort, reports);
                    if r.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    r
                })
            })
            .collect();
        // This thread takes the traced half's first `stats` frame at `mid`
        // and reads the daemon's peak RSS after `RSS_AFTER_JOBS` reports.
        let (mut before, mut rss) = (None, None);
        loop {
            let now = Instant::now();
            if args.trace && before.is_none() && now >= mid {
                before = Some(daemon.ctl.stats());
            }
            if rss.is_none() && reports.load(Ordering::Relaxed) >= RSS_AFTER_JOBS {
                rss = Some(peak_rss_mib(&pid).map(|r| (r, RSS_AFTER_JOBS)));
            }
            let done = rss.is_some() && (before.is_some() || !args.trace);
            if done || now >= end || abort.load(Ordering::Relaxed) {
                break;
            }
            let wake = if before.is_none() && args.trace {
                mid.min(now + POLL)
            } else {
                now + POLL
            };
            std::thread::sleep(wake.saturating_duration_since(now));
        }
        let results: Vec<Result<ConnResult, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (results, before, rss)
    });
    let results: Vec<ConnResult> = results.into_iter().collect::<Result<_, _>>()?;
    let after = daemon.ctl.stats()?;
    let (rss, rss_after_reports) = match rss {
        Some(r) => r?,
        None => (peak_rss_mib(&pid)?, reports.load(Ordering::Relaxed)),
    };
    let summary = daemon.stop()?;

    let t_mid = ms(mid - start);
    let t_end = ms(end - start);
    let in_range = |s: &&Sample, lo: f64, hi: f64| s.arrived >= lo && s.arrived < hi;
    let all: Vec<&Sample> = results.iter().flat_map(|r| &r.samples).collect();
    let untraced: Vec<&Sample> = all
        .iter()
        .copied()
        .filter(|s| in_range(s, 0.0, t_mid))
        .collect();
    let jobs_per_s = |n: usize, span_ms: f64| n as f64 / (span_ms / 1e3);
    let latencies: Vec<f64> = untraced.iter().map(|s| s.arrived - s.submitted).collect();

    let mut metrics = Metrics::new();
    metrics.insert("jobs_per_s".into(), jobs_per_s(untraced.len(), t_mid));
    metrics.insert("latency_p50_ms".into(), quantile(&latencies, 0.5));
    metrics.insert("latency_p95_ms".into(), quantile(&latencies, 0.95));
    metrics.insert("peak_rss_mib".into(), rss);
    let mut stamp = Vec::new();
    if let Some(before) = before {
        let traced: Vec<&Sample> = all
            .iter()
            .copied()
            .filter(|s| in_range(s, t_mid, t_end))
            .collect();
        metrics.insert(
            "bench.trace_delta_jobs_per_s".into(),
            jobs_per_s(traced.len(), t_end - t_mid) - jobs_per_s(untraced.len(), t_mid),
        );
        let overruns = layer_metrics(
            &mut metrics,
            &results,
            &traced,
            (t_mid, t_end),
            &before?,
            &after,
            rss,
        );
        stamp.push(("service_overruns", Json::Num(overruns as f64)));
    }
    let submitted: u64 = results.iter().map(|r| r.submitted).sum();
    let fresh: u64 = results.iter().map(|r| r.fresh_submitted).sum();
    let count = |f: fn(&Sample) -> bool| Json::Num(all.iter().filter(|s| f(s)).count() as f64);
    let latency_samples = latencies.len();
    let cached = untraced.iter().filter(|s| s.cached).count();
    let p50_of = |hit: bool| {
        let l: Vec<f64> = untraced
            .iter()
            .filter(|s| s.cached == hit)
            .map(|s| s.arrived - s.submitted)
            .collect();
        median(&l)
    };
    println!(
        "serve: {latency_samples} latency samples, {cached} cache hits, p50 {:.2} ms \
         (cache hits {:.2} ms, solved {:.2} ms), p95 {:.2} ms",
        quantile(&latencies, 0.5),
        p50_of(true),
        p50_of(false),
        quantile(&latencies, 0.95)
    );
    stamp.extend([
        ("latency_samples", Json::Num(latency_samples as f64)),
        ("rss_after_reports", Json::Num(rss_after_reports as f64)),
        ("family_pairs", Json::Num(feed.family_pairs as f64)),
        ("specs_generated", Json::Num(feed.len()? as f64)),
        ("specs_submitted", Json::Num(submitted as f64)),
        (
            "fresh_share",
            Json::Num(fresh as f64 / submitted.max(1) as f64),
        ),
        ("reports", Json::Num(all.len() as f64)),
        ("cache_hits", count(|s| s.cached)),
        ("fresh_cache_hits", count(|s| s.fresh && s.cached)),
        ("repeat_cache_misses", count(|s| !s.fresh && !s.cached)),
        ("daemon_summary", summary),
    ]);
    Ok(RunResult {
        attempted: results.iter().map(|r| r.attempted).sum(),
        failed: results.iter().map(|r| r.failed).sum(),
        metrics,
        setup_s,
        stamp,
    })
}

/// Per-layer metrics of the traced half, and its table. Returns how many
/// traced jobs the daemon reports as queued and solving for longer than
/// the client saw them in flight (see below); a sound split has none.
fn layer_metrics(
    metrics: &mut Metrics,
    results: &[ConnResult],
    traced: &[&Sample],
    (lo, hi): (f64, f64),
    before: &Json,
    after: &Json,
    rss: f64,
) -> usize {
    let rtt: Vec<f64> = traced.iter().map(|s| s.accepted - s.submitted).collect();
    let delivery: Vec<f64> = traced
        .iter()
        .map(|s| s.arrived - s.accepted - s.queue_wait - s.solve)
        .collect();
    let waits: Vec<f64> = traced.iter().map(|s| s.queue_wait).collect();
    let solve: f64 = traced.iter().map(|s| s.solve).sum();
    let stat = |k: &str| -> f64 {
        traced
            .iter()
            .filter_map(|s| s.stats.as_ref()?.get(k)?.as_u64())
            .sum::<u64>() as f64
    };
    let delta = |k: &str| metric(after, k) - metric(before, k);
    let lookups = delta("cache_hits") + delta("cache_misses");
    let accounted = (metric(after, "peak_arena_bytes")
        + metric(after, "peak_watch_bytes")
        + metric(after, "peak_proof_bytes"))
        / MIB;
    // Per connection, the traced half's wall minus the time at least one
    // of its jobs was in flight (in the wire or the service).
    let uncovered: Vec<f64> = results
        .iter()
        .map(|r| {
            let mut spans: Vec<(f64, f64)> = r
                .samples
                .iter()
                .map(|s| (s.submitted.max(lo), s.arrived.min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, lo);
            for (a, b) in spans {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (hi - lo) - covered
        })
        .collect();
    let sum_rtt: f64 = rtt.iter().sum();
    let sum_delivery: f64 = delivery.iter().sum();
    let sum_wait: f64 = waits.iter().sum();
    for (name, v) in [
        ("wire.submit_rtt_ms", median(&rtt)),
        ("wire.delivery_ms", median(&delivery)),
        ("service.queue_wait_p50_ms", median(&waits)),
        ("service.queue_wait_ms", sum_wait),
        ("service.solve_ms", solve),
        ("service.cache_lookups", lookups),
        ("service.cache_hit_ratio", delta("cache_hits") / lookups),
        (
            "service.queue_high_water",
            metric(after, "queue_depth_high_water"),
        ),
        ("sat.conflicts", delta("solver_conflicts")),
        ("sat.propagations", delta("solver_propagations")),
        ("sat.peak_arena_bytes", metric(after, "peak_arena_bytes")),
        ("sat.peak_watch_bytes", metric(after, "peak_watch_bytes")),
        ("core.bounds_checked", stat("bounds_checked")),
        ("core.encode_lits", stat("encode_lits")),
        ("analysis.latches_swept", stat("latches_swept")),
        ("analysis.coi_latches", stat("coi_latches")),
        ("mem.accounted_mib", accounted),
        ("mem.unaccounted_mib", rss - accounted),
        ("bench.timed_wall_ms", hi - lo),
        ("bench.unattributed_ms", median(&uncovered)),
    ] {
        metrics.insert(name.into(), v);
    }
    // Layer × time for the traced half, summed over jobs: each job's
    // latency splits into submit RTT, queue wait, solve and delivery.
    let total = sum_rtt + sum_wait + solve + sum_delivery;
    println!(
        "per-layer, traced half ({} jobs, {:.0} ms per connection)",
        traced.len(),
        hi - lo
    );
    println!("{:<22} {:>12} {:>8}", "layer", "job-ms", "share");
    for (layer, v) in [
        ("wire.submit", sum_rtt),
        ("service.queue", sum_wait),
        ("service.solve", solve),
        ("wire.delivery", sum_delivery),
    ] {
        println!("{layer:<22} {v:>12.1} {:>7.1}%", 100.0 * v / total);
    }
    println!(
        "{:<22} {:>12.1} {:>7.1}%  (median per connection, of its wall)",
        "bench.unattributed",
        median(&uncovered),
        100.0 * median(&uncovered) / (hi - lo)
    );
    // Delivery is what is left of a latency after the other parts, so
    // the split covers every job by construction, and the unattributed
    // time above is only the client's own idle time. What can go wrong
    // is the daemon's account: its queue wait and solve time (whole ms,
    // rounded down) lie inside the client's submit-to-report interval.
    let overruns = traced
        .iter()
        .filter(|s| s.queue_wait + s.solve > s.arrived - s.submitted)
        .count();
    println!("{overruns} jobs with queue wait + solve above their latency");
    overruns
}

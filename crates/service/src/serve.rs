//! The always-on checking daemon behind `sebmc serve`.
//!
//! [`serve_on`] turns a bound [`TcpListener`] plus a
//! [`ServiceConfig`] into a long-running server: one
//! [`ServiceHandle`] worker pool shared by every connection, and two
//! lightweight threads per connection speaking the line-delimited JSON
//! protocol (see `docs/protocol.md` and [`frames`]). Each connection
//! is a distinct *client* to the scheduler (its id feeds the queue's
//! fairness tie-break), and submissions go through the same
//! [`JobSpec`] decoding as job files and the batch CLI.
//!
//! Every frame goes out as soon as it exists. A connection's reader
//! thread answers each request; its scoped pusher thread blocks in
//! [`ServiceHandle::next_report_for`] until one of the connection's
//! reports lands and writes it at once — a connection only ever sees
//! its own jobs. Both threads write whole frames, each line and its
//! newline in one write, through one mutex-guarded `TCP_NODELAY`
//! socket. The reader holds that lock from `submit` until the job's
//! `accepted` frame is out, so a report never comes before its
//! `accepted`.
//!
//! Shutdown is protocol-driven: any client may send
//! `{"op":"shutdown","mode":"graceful"|"now"}`. Graceful stops
//! accepting connections and submissions, runs every queued job to
//! completion, and delivers every report before the server returns;
//! `now` additionally fires the service cancel token so running jobs
//! stop at their next safe point (still producing reports — the
//! one-job-one-report invariant holds through shutdown). Reports whose
//! connection vanished before delivery, including one whose write
//! failed, are returned in [`ServeSummary::leftover`], so nothing is
//! silently dropped.

use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sebmc_logic::json::{obj, Json};
use sebmc_telemetry::Telemetry;

use crate::handle::{ServiceHandle, ShutdownMode};
use crate::lock_unpoisoned;
use crate::protocol::{frames, write_frame, LineEvent, LineReader};
use crate::report::JobReport;
use crate::spec::JobSpec;
use crate::ServiceConfig;

/// `stop` value: accepting connections and submissions.
const RUN: u8 = 0;
/// `stop` value: graceful shutdown requested.
const STOP_GRACEFUL: u8 = 1;
/// `stop` value: immediate shutdown requested.
const STOP_NOW: u8 = 2;

/// How often the accept loop polls the (non-blocking) listener and the
/// stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// How long a connection's reader and pusher block before they look at
/// the stop flag again. Requests and reports are served as they come,
/// so this only sets how fast an idle connection notices shutdown.
const CONN_POLL: Duration = Duration::from_millis(50);

/// What a server run amounted to, returned by [`serve_on`] after
/// shutdown completes.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Submissions accepted (cache hits included): the registry's
    /// `jobs_submitted`.
    pub jobs_submitted: usize,
    /// Submissions refused: the registry's `jobs_rejected`.
    pub jobs_rejected: usize,
    /// Reports pushed to their submitting connections.
    pub reports_delivered: usize,
    /// Finished reports that were not delivered, because their
    /// connection was gone or the write failed (sorted by job id).
    pub leftover: Vec<JobReport>,
    /// Result-cache `(hits, misses)`, when the cache was enabled.
    pub cache: Option<(u64, u64)>,
    /// How long the server ran, accept to drained.
    pub uptime: Duration,
}

impl ServeSummary {
    /// The summary as one JSON object (the `sebmc serve` exit
    /// summary).
    pub fn to_json(&self) -> Json {
        let cache = self
            .cache
            .map(|(hits, misses)| obj(vec![("hits", hits.into()), ("misses", misses.into())]));
        obj(vec![
            ("uptime_ms", self.uptime.as_millis().into()),
            ("connections", self.connections.into()),
            ("jobs_submitted", self.jobs_submitted.into()),
            ("jobs_rejected", self.jobs_rejected.into()),
            ("reports_delivered", self.reports_delivered.into()),
            ("leftover", self.leftover.len().into()),
            ("cache", cache.into()),
        ])
    }
}

/// What every connection shares: the worker pool, the stop flag, the
/// telemetry behind the `stats` frame and the summary, the greeting,
/// and the count of delivered reports.
struct Daemon {
    handle: ServiceHandle,
    stop: AtomicU8,
    telemetry: Arc<Telemetry>,
    hello: String,
    delivered: AtomicUsize,
}

/// Runs the daemon on an already-bound listener until a client sends a
/// shutdown command, then drains (see the module docs) and returns the
/// run's summary. The listener is consumed and closed on shutdown.
pub fn serve_on(listener: TcpListener, config: ServiceConfig) -> io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let hello = frames::hello(config.workers.max(1), config.result_cache_bytes.is_some());
    let cancel = config.cancel.clone();
    let telemetry = Arc::clone(&config.telemetry);
    let started = Instant::now();
    let daemon = Arc::new(Daemon {
        handle: ServiceHandle::start(config),
        stop: AtomicU8::new(RUN),
        telemetry,
        hello,
        delivered: AtomicUsize::new(0),
    });

    let mut conns: Vec<thread::JoinHandle<Option<JobReport>>> = Vec::new();
    while daemon.stop.load(Ordering::Relaxed) == RUN {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let client = conns.len() as u64 + 1;
                let daemon = Arc::clone(&daemon);
                conns.push(
                    thread::Builder::new()
                        .name(format!("sebmc-conn-{client}"))
                        .spawn(move || serve_connection(stream, client, &daemon))
                        .expect("spawn connection thread"),
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // New connections are refused from here on.
    drop(listener);
    let mode = if daemon.stop.load(Ordering::Relaxed) == STOP_NOW {
        cancel.cancel();
        ShutdownMode::Now
    } else {
        ShutdownMode::Graceful
    };
    // Connection threads exit once every report they own is delivered
    // (graceful: jobs run to completion first; now: cancellation turns
    // them into prompt Unknown reports), or once their peer is gone;
    // each hands back the report it took but could not write.
    let connections = conns.len();
    let mut leftover: Vec<JobReport> = conns
        .into_iter()
        .filter_map(|c| c.join().ok().flatten())
        .collect();
    leftover.extend(daemon.handle.shutdown(mode));
    leftover.sort_by_key(|r| r.job_id);
    let metrics = &daemon.telemetry.metrics;
    daemon.telemetry.flush();
    Ok(ServeSummary {
        connections,
        jobs_submitted: metrics.jobs_submitted.get() as usize,
        jobs_rejected: metrics.jobs_rejected.get() as usize,
        reports_delivered: daemon.delivered.load(Ordering::Relaxed),
        leftover,
        cache: daemon.handle.cache_stats(),
        uptime: started.elapsed(),
    })
}

/// The write half of a connection, shared by its two threads.
struct Writer {
    stream: TcpStream,
    /// Accepted jobs whose reports have not been written yet.
    owed: usize,
}

/// One connection's state, shared by its reader and its pusher.
struct Conn {
    client: u64,
    writer: Mutex<Writer>,
    /// Set when either thread stops: the other one then stops too. A
    /// stop signal only, so `Relaxed` suffices.
    closed: AtomicBool,
}

impl Conn {
    fn send(&self, frame: &str) -> io::Result<()> {
        write_frame(&mut lock_unpoisoned(&self.writer).stream, frame)
    }
}

/// One connection: greet, then serve requests on this thread while a
/// scoped pusher thread writes reports. Returns the report the pusher
/// took but could not write, if any.
fn serve_connection(stream: TcpStream, client: u64, daemon: &Daemon) -> Option<JobReport> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(CONN_POLL)).ok()?;
    let mut out = stream.try_clone().ok()?;
    write_frame(&mut out, &daemon.hello).ok()?;
    let conn = Conn {
        client,
        writer: Mutex::new(Writer {
            stream: out,
            owed: 0,
        }),
        closed: AtomicBool::new(false),
    };
    thread::scope(|s| {
        let pusher = s.spawn(|| push_reports(&conn, daemon));
        read_requests(LineReader::new(stream), &conn, daemon);
        conn.closed.store(true, Ordering::Relaxed);
        pusher.join().expect("the report pusher does not panic")
    })
}

/// Writes this connection's reports as they land, until the reader
/// stops or a write fails; returns the report whose write failed.
fn push_reports(conn: &Conn, daemon: &Daemon) -> Option<JobReport> {
    while !conn.closed.load(Ordering::Relaxed) {
        let Some(report) = daemon.handle.next_report_for(conn.client, Some(CONN_POLL)) else {
            continue;
        };
        let frame = frames::report(&report);
        let mut w = lock_unpoisoned(&conn.writer);
        w.owed -= 1;
        if write_frame(&mut w.stream, &frame).is_err() {
            conn.closed.store(true, Ordering::Relaxed);
            return Some(report);
        }
        daemon.delivered.fetch_add(1, Ordering::Relaxed);
    }
    None
}

/// Serves the peer's requests until it hangs up, the pusher fails, or
/// shutdown has begun *and* every report this connection is owed has
/// been written.
fn read_requests(mut reader: LineReader<TcpStream>, conn: &Conn, daemon: &Daemon) {
    loop {
        // The exit check sits on the *empty-read* path, not before the
        // read: frames the client pipelined behind its shutdown command
        // still get read and answered (with a clean `error` for
        // submissions) during one final read-timeout window, instead of
        // the connection closing under the client's write.
        match reader.read_line() {
            LineEvent::Timeout => {
                if conn.closed.load(Ordering::Relaxed)
                    || (daemon.stop.load(Ordering::Relaxed) != RUN
                        && lock_unpoisoned(&conn.writer).owed == 0)
                {
                    return;
                }
            }
            LineEvent::Eof => return,
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                if serve_frame(&line, conn, daemon).is_err() {
                    return;
                }
            }
        }
    }
}

/// Decodes and executes one client frame and writes its response.
/// Frames with an `"op"` are commands; anything else is a [`JobSpec`]
/// submission.
fn serve_frame(line: &str, conn: &Conn, daemon: &Daemon) -> io::Result<()> {
    let frame = match Json::parse(line) {
        Ok(f) => f,
        Err(e) => return conn.send(&frames::error(&format!("bad frame: {e}"))),
    };
    let reply = match frame.get("op").and_then(Json::as_str) {
        Some("ping") => frames::pong(),
        Some("stats") => frames::stats(daemon.telemetry.snapshot_json()),
        Some("shutdown") => match frame
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("graceful")
        {
            "graceful" => {
                daemon.stop.store(STOP_GRACEFUL, Ordering::Relaxed);
                frames::shutdown_ack("graceful")
            }
            "now" => {
                daemon.stop.store(STOP_NOW, Ordering::Relaxed);
                frames::shutdown_ack("now")
            }
            other => frames::error(&format!("unknown shutdown mode: {other}")),
        },
        Some(other) => frames::error(&format!("unknown op: {other}")),
        None => return submit(&frame, conn, daemon),
    };
    conn.send(&reply)
}

/// Queues one submission and answers it. The writer stays locked from
/// `submit` until the answer is written, so the pusher cannot write
/// the job's report (a cache hit lands at once) ahead of its
/// `accepted`.
///
/// A submission the daemon refuses itself (it arrives after shutdown
/// began, does not decode, or names a model it cannot build) counts in
/// `jobs_rejected`; the handle counts its own refusals.
fn submit(frame: &Json, conn: &Conn, daemon: &Daemon) -> io::Result<()> {
    let job = if daemon.stop.load(Ordering::Relaxed) == RUN {
        JobSpec::from_json(frame).and_then(JobSpec::into_job)
    } else {
        Err("shutting down".to_string())
    };
    let job = match job {
        Ok(job) => job,
        Err(e) => {
            daemon.telemetry.metrics.jobs_rejected.inc();
            return conn.send(&frames::error(&e));
        }
    };
    let mut w = lock_unpoisoned(&conn.writer);
    let reply = match daemon.handle.submit_for_client(job, conn.client) {
        Ok(id) => {
            w.owed += 1;
            frames::accepted(id)
        }
        Err(e) => frames::error(&e.to_string()),
    };
    write_frame(&mut w.stream, &reply)
}

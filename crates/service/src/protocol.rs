//! The `sebmc serve` wire protocol: line-delimited JSON over TCP.
//!
//! One frame per line, each a single JSON object, in both directions
//! (see `docs/protocol.md` for the full specification). Client → server
//! frames are either **commands** — an object with an `"op"` key
//! (`ping`, `shutdown`) — or **submissions**: a [`JobSpec`] in its JSON
//! encoding, exactly the object [`JobSpec::to_json`] produces. There is
//! no separate wire schema for jobs; the job-file format, the batch
//! CLI, and the socket all decode through [`JobSpec`].
//!
//! Server → client frames always carry an `"op"`:
//!
//! * `hello` — sent once on connect (protocol version, worker count).
//! * `accepted` / `error` — one per client frame, in order.
//! * `report` — pushed, possibly between a request and its response,
//!   when one of *this connection's* jobs finishes (always after that
//!   job's `accepted`); the `"job"` payload is
//!   [`JobReport::to_json`].
//! * `pong`, `shutdown_ack` — command responses.
//!
//! This module holds the pieces both ends share: frame builders
//! ([`frames`]), a whole-frame writer ([`write_frame`]), a timeout-safe
//! line reader ([`LineReader`] — unlike `BufRead::read_line`, a read
//! timeout does **not** lose a partial line), and a small blocking
//! client ([`WireClient`]) used by `sebmc client` and the daemon tests.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use sebmc_logic::json::{obj, Json};

use crate::report::JobReport;
use crate::spec::JobSpec;

/// Protocol version sent in the `hello` frame; bumped on incompatible
/// changes.
pub const PROTO_VERSION: u64 = 1;

/// Builders for every server → client frame (and the client's command
/// frames). Each returns the rendered single-line JSON, newline not
/// included.
pub mod frames {
    use super::{obj, JobReport, Json, PROTO_VERSION};

    /// The connect-time greeting.
    pub fn hello(workers: usize, cache: bool) -> String {
        obj(vec![
            ("op", "hello".into()),
            ("proto", PROTO_VERSION.into()),
            ("workers", workers.into()),
            ("cache", cache.into()),
        ])
        .to_string()
    }

    /// A submission was queued (or answered from cache) under this id.
    pub fn accepted(job_id: usize) -> String {
        obj(vec![("op", "accepted".into()), ("job_id", job_id.into())]).to_string()
    }

    /// A frame was refused; `message` says why.
    pub fn error(message: &str) -> String {
        obj(vec![("op", "error".into()), ("message", message.into())]).to_string()
    }

    /// Response to `ping`.
    pub fn pong() -> String {
        obj(vec![("op", "pong".into())]).to_string()
    }

    /// The shutdown command was accepted; the server stops after this.
    pub fn shutdown_ack(mode: &str) -> String {
        obj(vec![("op", "shutdown_ack".into()), ("mode", mode.into())]).to_string()
    }

    /// A finished job, pushed to the submitting connection. The `job`
    /// payload is [`JobReport::to_json`], the same object batch mode
    /// prints per job.
    pub fn report(r: &JobReport) -> String {
        obj(vec![("op", "report".into()), ("job", r.to_json())]).to_string()
    }

    /// Response to `stats`: the daemon's telemetry snapshot
    /// ([`sebmc_telemetry::Telemetry::snapshot_json`] —
    /// `{"uptime_ms":…,"metrics":{…}}`).
    pub fn stats(snapshot: Json) -> String {
        obj(vec![("op", "stats".into()), ("snapshot", snapshot)]).to_string()
    }
}

/// Sends one frame — `line` and its `\n` terminator — in a single
/// write. Both ends use it on `TCP_NODELAY` sockets: a frame split over
/// two writes on a socket without `TCP_NODELAY` stalls, because Nagle's
/// algorithm holds the short second segment until the peer acknowledges
/// the first, and a delayed ACK puts that off by up to ~40 ms.
pub(crate) fn write_frame(out: &mut impl Write, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    out.write_all(&frame)
}

/// What one [`LineReader::read_line`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (newline stripped, `\r\n` tolerated).
    Line(String),
    /// The underlying read timed out; buffered partial input is kept
    /// and the next call resumes it.
    Timeout,
    /// The peer closed the connection (or the stream failed).
    Eof,
}

/// A line framer that survives read timeouts: bytes already received
/// for an incomplete line stay buffered across [`LineEvent::Timeout`]
/// events instead of being lost the way `BufRead::read_line` loses
/// them.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline.
    scanned: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps a stream (typically one with a read timeout set).
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// Reads until one full line, a timeout, or end of stream.
    pub fn read_line(&mut self) -> LineEvent {
        loop {
            if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + off;
                let line = &self.buf[..pos];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                let text = String::from_utf8_lossy(line).into_owned();
                self.buf.drain(..=pos);
                self.scanned = 0;
                return LineEvent::Line(text);
            }
            self.scanned = self.buf.len();
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return LineEvent::Timeout;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Eof,
            }
        }
    }
}

/// A blocking protocol client over one TCP connection: `sebmc client`
/// and the daemon tests drive the server through this.
///
/// Report frames the server pushes while the client is waiting for a
/// command response are stashed and handed out by
/// [`WireClient::next_report`] in arrival order — nothing is dropped.
pub struct WireClient {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
    stashed: VecDeque<Json>,
    /// The `hello` frame received on connect.
    pub hello: Json,
}

/// How long each blocking socket read waits before the client rechecks
/// its deadline.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_millis(100);

fn io_err(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

impl WireClient {
    /// Connects and consumes the server's `hello` frame.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        let reader = LineReader::new(stream.try_clone()?);
        let mut client = WireClient {
            stream,
            reader,
            stashed: VecDeque::new(),
            hello: Json::Null,
        };
        let hello = client
            .read_frame(Some(Duration::from_secs(10)))?
            .ok_or_else(|| io_err("no hello frame from server".into()))?;
        if hello.get("op").and_then(Json::as_str) != Some("hello") {
            return Err(io_err(format!("expected hello frame, got: {hello}")));
        }
        client.hello = hello;
        Ok(client)
    }

    /// Reads the next frame of any kind (stashed reports first), up to
    /// `timeout` (`None` = wait forever). `Ok(None)` means timeout.
    fn read_frame(&mut self, timeout: Option<Duration>) -> io::Result<Option<Json>> {
        if let Some(frame) = self.stashed.pop_front() {
            return Ok(Some(frame));
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match self.reader.read_line() {
                LineEvent::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    return Json::parse(&line)
                        .map(Some)
                        .map_err(|e| io_err(format!("bad frame from server: {e}")));
                }
                LineEvent::Timeout => {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return Ok(None);
                        }
                    }
                }
                LineEvent::Eof => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
            }
        }
    }

    /// Reads frames until one that is *not* a pushed report arrives
    /// (reports are stashed for [`WireClient::next_report`]).
    fn read_response(&mut self, timeout: Option<Duration>) -> io::Result<Json> {
        // Don't let already-stashed reports satisfy a response read.
        let mut put_back = VecDeque::new();
        std::mem::swap(&mut put_back, &mut self.stashed);
        self.stashed = VecDeque::new();
        let result = loop {
            match self.read_frame(timeout)? {
                None => {
                    break Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "timed out waiting for server response",
                    ));
                }
                Some(frame) => {
                    if frame.get("op").and_then(Json::as_str) == Some("report") {
                        put_back.push_back(frame);
                    } else {
                        break Ok(frame);
                    }
                }
            }
        };
        self.stashed = put_back;
        result
    }

    /// Submits a job; returns the server-assigned job id, or the
    /// server's refusal message in the inner `Err`.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Result<usize, String>> {
        let line = spec.to_json().to_string();
        write_frame(&mut self.stream, &line)?;
        let resp = self.read_response(Some(Duration::from_secs(30)))?;
        match resp.get("op").and_then(Json::as_str) {
            Some("accepted") => {
                let id = resp
                    .get("job_id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| io_err(format!("accepted frame without job_id: {resp}")))?;
                Ok(Ok(id as usize))
            }
            Some("error") => Ok(Err(resp
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string())),
            _ => Err(io_err(format!("unexpected response to submit: {resp}"))),
        }
    }

    /// Waits up to `timeout` (`None` = forever) for the next pushed
    /// report frame; returns its `"job"` payload. `Ok(None)` on
    /// timeout.
    pub fn next_report(&mut self, timeout: Option<Duration>) -> io::Result<Option<Json>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let left = match deadline {
                None => None,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left)
                }
            };
            match self.read_frame(left)? {
                None => return Ok(None),
                Some(frame) => {
                    if frame.get("op").and_then(Json::as_str) == Some("report") {
                        let job = frame
                            .get("job")
                            .cloned()
                            .ok_or_else(|| io_err("report frame without job".into()))?;
                        return Ok(Some(job));
                    }
                    // Unsolicited non-report frames (none today) are
                    // skipped rather than failed: forward compatible.
                }
            }
        }
    }

    /// Round-trips a `stats` command; returns the snapshot payload
    /// (`{"uptime_ms":…,"metrics":{…}}`).
    pub fn stats(&mut self) -> io::Result<Json> {
        write_frame(
            &mut self.stream,
            &obj(vec![("op", Json::Str("stats".into()))]).to_string(),
        )?;
        let resp = self.read_response(Some(Duration::from_secs(10)))?;
        if resp.get("op").and_then(Json::as_str) == Some("stats") {
            resp.get("snapshot")
                .cloned()
                .ok_or_else(|| io_err(format!("stats frame without snapshot: {resp}")))
        } else {
            Err(io_err(format!("unexpected response to stats: {resp}")))
        }
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> io::Result<()> {
        write_frame(
            &mut self.stream,
            &obj(vec![("op", Json::Str("ping".into()))]).to_string(),
        )?;
        let resp = self.read_response(Some(Duration::from_secs(10)))?;
        if resp.get("op").and_then(Json::as_str) == Some("pong") {
            Ok(())
        } else {
            Err(io_err(format!("unexpected response to ping: {resp}")))
        }
    }

    /// Asks the server to shut down (`mode` is `"graceful"` or
    /// `"now"`) and waits for the acknowledgement.
    pub fn shutdown(&mut self, mode: &str) -> io::Result<()> {
        write_frame(
            &mut self.stream,
            &obj(vec![
                ("op", Json::Str("shutdown".into())),
                ("mode", Json::Str(mode.into())),
            ])
            .to_string(),
        )?;
        let resp = self.read_response(Some(Duration::from_secs(10)))?;
        if resp.get("op").and_then(Json::as_str) == Some("shutdown_ack") {
            Ok(())
        } else {
            Err(io_err(format!("unexpected response to shutdown: {resp}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Read that yields scripted results.
    struct Script(Vec<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            match self.0.remove(0) {
                Ok(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(e) => Err(e),
            }
        }
    }

    #[test]
    fn line_reader_survives_timeouts_mid_line() {
        let mut r = LineReader::new(Script(vec![
            Ok(b"{\"op\":".to_vec()),
            Err(io::Error::new(ErrorKind::WouldBlock, "timeout")),
            Ok(b"\"ping\"}\n{\"op\":\"pong\"}\r\n".to_vec()),
        ]));
        assert_eq!(r.read_line(), LineEvent::Timeout);
        assert_eq!(r.read_line(), LineEvent::Line("{\"op\":\"ping\"}".into()));
        assert_eq!(r.read_line(), LineEvent::Line("{\"op\":\"pong\"}".into()));
        assert_eq!(r.read_line(), LineEvent::Eof);

        // One line over three reads, then a read holding the end of
        // one line, a whole line and the start of the next.
        let mut r = LineReader::new(Script(vec![
            Ok(b"{\"op\"".to_vec()),
            Ok(b":\"pi".to_vec()),
            Ok(b"ng\"}\n{\"op\":".to_vec()),
            Ok(b"\"stats\"}\n{\"op\":\"pong\"}\n{\"op".to_vec()),
            Err(io::Error::new(ErrorKind::WouldBlock, "timeout")),
            Ok(b"\":\"shutdown\"}\n".to_vec()),
        ]));
        assert_eq!(r.read_line(), LineEvent::Line("{\"op\":\"ping\"}".into()));
        assert_eq!(r.read_line(), LineEvent::Line("{\"op\":\"stats\"}".into()));
        assert_eq!(r.read_line(), LineEvent::Line("{\"op\":\"pong\"}".into()));
        assert_eq!(r.read_line(), LineEvent::Timeout);
        assert_eq!(
            r.read_line(),
            LineEvent::Line("{\"op\":\"shutdown\"}".into())
        );
        assert_eq!(r.read_line(), LineEvent::Eof);
    }

    /// A Write that records the bytes of each call.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_the_line_and_its_newline_in_one_write() {
        let mut out = Calls::default();
        write_frame(&mut out, "{\"op\":\"pong\"}").expect("write");
        assert_eq!(out.0, vec![b"{\"op\":\"pong\"}\n".to_vec()]);
    }

    #[test]
    fn frames_render_one_line_json() {
        for f in [
            frames::hello(4, true),
            frames::accepted(7),
            frames::error("overloaded: queue full"),
            frames::pong(),
            frames::shutdown_ack("graceful"),
            frames::stats(
                Json::parse(r#"{"uptime_ms":12,"metrics":{"jobs_submitted":3}}"#).unwrap(),
            ),
        ] {
            assert!(!f.contains('\n'), "frame must be one line: {f}");
            let parsed = Json::parse(&f).expect("frame parses");
            assert!(parsed.get("op").is_some(), "frame has an op: {f}");
        }
        assert_eq!(
            Json::parse(&frames::accepted(7))
                .unwrap()
                .get("job_id")
                .and_then(Json::as_u64),
            Some(7)
        );
    }
}

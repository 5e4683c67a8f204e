//! Structured JSONL span tracing through a bounded byte ring.
//!
//! Trace events are small JSON objects, one per line, each carrying a
//! monotone sequence number, a microsecond timestamp relative to the
//! sink's epoch, and an `"ev"` kind plus event-specific fields. The
//! hierarchy (service → job → attempt → bound → solver episode) is
//! *flat on the wire*: events reference their span through `job`,
//! `attempt`, and `k` fields, so a reader can reconstruct the full
//! timeline of one quarantined job by filtering on its id — no state
//! machine needed.
//!
//! Lines buffer in a bounded byte ring (the `ByteRing` shape from
//! `crates/proof`, replicated here so the crate depends on nothing
//! but `sebmc-logic`) and drain to the writer only when the ring
//! fills or on an explicit [`TraceSink::flush`]: emitting an event
//! costs a short mutex hold and an in-memory copy, not a syscall. The
//! ring bounds the trace path's memory the same way the proof ring
//! bounds certification memory — in keeping with the paper's
//! space-first discipline, instrumentation must not grow with the
//! workload.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sebmc_logic::json::{obj, Json};

/// Default ring capacity: enough for a few hundred events between
/// drains without ever holding more than 64 KiB of trace data.
const DEFAULT_RING_BYTES: usize = 64 << 10;

/// A fixed-capacity FIFO ring buffer of bytes (the `ByteRing` shape
/// from `crates/proof`, private replica).
#[derive(Debug)]
struct ByteRing {
    buf: Box<[u8]>,
    /// Index of the oldest unread byte.
    head: usize,
    /// Number of unread bytes.
    len: usize,
}

impl ByteRing {
    /// A ring holding at most `capacity` bytes (at least 1).
    fn new(capacity: usize) -> Self {
        ByteRing {
            buf: vec![0u8; capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Free space in bytes.
    fn free(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Appends as much of `bytes` as fits and returns how many bytes
    /// were accepted (0 when full).
    fn push(&mut self, bytes: &[u8]) -> usize {
        let n = bytes.len().min(self.free());
        let cap = self.buf.len();
        let mut tail = (self.head + self.len) % cap;
        for &b in &bytes[..n] {
            self.buf[tail] = b;
            tail = (tail + 1) % cap;
        }
        self.len += n;
        n
    }

    /// Moves up to `out.len()` of the oldest bytes into `out` and
    /// returns how many were read (0 when empty).
    fn read_into(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.len);
        let cap = self.buf.len();
        for slot in &mut out[..n] {
            *slot = self.buf[self.head];
            self.head = (self.head + 1) % cap;
        }
        self.len -= n;
        n
    }
}

/// One typed field value in a trace event.
#[derive(Debug, Clone, Copy)]
pub enum FieldValue<'a> {
    /// An unsigned integer field.
    U64(u64),
    /// A string field (JSON-escaped on emission).
    Str(&'a str),
}

impl From<u64> for FieldValue<'_> {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue<'_> {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue<'_> {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl<'a> From<&'a str> for FieldValue<'a> {
    fn from(v: &'a str) -> Self {
        FieldValue::Str(v)
    }
}

impl From<FieldValue<'_>> for Json {
    fn from(v: FieldValue<'_>) -> Json {
        match v {
            FieldValue::U64(n) => n.into(),
            FieldValue::Str(s) => s.into(),
        }
    }
}

/// Everything behind the sink's mutex.
struct TraceInner {
    ring: ByteRing,
    out: Box<dyn Write + Send>,
    /// Next event sequence number.
    seq: u64,
    /// Bytes lost to writer errors (the trace degrades, the service
    /// does not).
    dropped: u64,
}

/// A thread-safe JSONL event sink with ring-buffered batching.
pub struct TraceSink {
    inner: Mutex<TraceInner>,
    epoch: Instant,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    /// A sink draining to an arbitrary writer (tests use an in-memory
    /// buffer).
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            inner: Mutex::new(TraceInner {
                ring: ByteRing::new(DEFAULT_RING_BYTES),
                out,
                seq: 0,
                dropped: 0,
            }),
            epoch: Instant::now(),
        }
    }

    /// A sink draining to a file created (truncated) at `path`.
    pub fn to_file(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Emits one event line: the JSON object
    /// `{"seq":N,"t_us":T,"ev":"kind",...}` with the fields in order.
    /// The line lands in the ring; the writer is only touched when the
    /// ring cannot hold the line.
    pub fn event(&self, kind: &str, fields: &[(&str, FieldValue<'_>)]) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        let mut event = vec![
            ("seq", inner.seq.into()),
            ("t_us", t_us.into()),
            ("ev", kind.into()),
        ];
        event.extend(
            fields
                .iter()
                .map(|&(name, value)| (name, Json::from(value))),
        );
        let line = format!("{}\n", obj(event));
        inner.seq += 1;
        if inner.ring.free() < line.len() {
            Self::drain_ring(&mut inner);
        }
        if line.len() <= inner.ring.free() {
            inner.ring.push(line.as_bytes());
        } else if inner.out.write_all(line.as_bytes()).is_err() {
            // Line bigger than the whole (drained) ring: written
            // through directly; on writer failure the trace degrades,
            // the service does not.
            inner.dropped += line.len() as u64;
        }
    }

    /// Moves every buffered byte from the ring to the writer.
    fn drain_ring(inner: &mut TraceInner) {
        let mut chunk = [0u8; 1024];
        loop {
            let n = inner.ring.read_into(&mut chunk);
            if n == 0 {
                break;
            }
            if inner.out.write_all(&chunk[..n]).is_err() {
                inner.dropped += n as u64;
            }
        }
    }

    /// Drains the ring and flushes the writer (called on shutdown and
    /// before reading a trace file back).
    pub fn flush(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            Self::drain_ring(&mut inner);
            let _ = inner.out.flush();
        }
    }

    /// Events emitted so far.
    pub fn events(&self) -> u64 {
        self.inner.lock().map_or(0, |i| i.seq)
    }

    /// Bytes lost to writer errors so far.
    pub fn dropped_bytes(&self) -> u64 {
        self.inner.lock().map_or(0, |i| i.dropped)
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handing bytes to a shared buffer (what the in-process
    /// scheduling tests use to read traces back).
    #[derive(Clone, Default)]
    pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

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
    fn events_render_as_jsonl_with_monotone_seq() {
        let buf = SharedBuf::default();
        let sink = TraceSink::to_writer(Box::new(buf.clone()));
        sink.event(
            "submit",
            &[("job", 3usize.into()), ("name", "ring_4".into())],
        );
        sink.event(
            "pop",
            &[("job", 3usize.into()), ("eff_priority", 4u64.into())],
        );
        sink.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"t_us\":"));
        assert!(lines[0].contains("\"ev\":\"submit\""));
        assert!(lines[0].contains("\"job\":3"));
        assert!(lines[0].contains("\"name\":\"ring_4\""));
        assert!(lines[1].starts_with("{\"seq\":1,"));
        assert!(lines[1].contains("\"eff_priority\":4"));
        assert_eq!(sink.events(), 2);
        assert_eq!(sink.dropped_bytes(), 0);
    }

    #[test]
    fn strings_are_json_escaped() {
        let buf = SharedBuf::default();
        let sink = TraceSink::to_writer(Box::new(buf.clone()));
        sink.event("note", &[("text", "a\"b\\c\nd".into())]);
        sink.flush();
        assert!(buf.contents().contains("\"text\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn ring_batches_writes_until_flush() {
        let buf = SharedBuf::default();
        let sink = TraceSink::to_writer(Box::new(buf.clone()));
        sink.event("tick", &[]);
        assert!(
            buf.contents().is_empty(),
            "one small event stays in the ring"
        );
        sink.flush();
        assert!(buf.contents().contains("\"ev\":\"tick\""));
    }

    #[test]
    fn many_events_survive_ring_pressure_without_loss() {
        let buf = SharedBuf::default();
        let sink = TraceSink::to_writer(Box::new(buf.clone()));
        for i in 0..5000u64 {
            sink.event("tick", &[("i", i.into())]);
        }
        sink.flush();
        let text = buf.contents();
        assert_eq!(text.lines().count(), 5000, "no event line lost");
        assert!(text.lines().last().unwrap().contains("\"i\":4999"));
    }
}

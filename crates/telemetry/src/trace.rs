//! Structured JSONL span tracing through a bounded buffer.
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
//! Lines collect in a 64 KiB buffer and drain to the writer only when
//! the next line would not fit or on an explicit [`TraceSink::flush`]:
//! emitting an event costs a short mutex hold and an in-memory copy,
//! not a syscall. The fixed buffer bounds the trace path's memory — in
//! keeping with the paper's space-first discipline, instrumentation
//! must not grow with the workload.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sebmc_logic::json::{obj, Json};

/// Buffer capacity: enough for a few hundred events between drains
/// without ever holding more than 64 KiB of trace data.
const BUFFER_BYTES: usize = 64 << 10;

/// Size of each write a drain makes; a failed write counts its whole
/// chunk as dropped.
const DRAIN_CHUNK: usize = 1024;

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
    /// Lines not yet written, at most `BUFFER_BYTES`.
    buf: Vec<u8>,
    out: Box<dyn Write + Send>,
    /// Next event sequence number.
    seq: u64,
    /// Bytes lost to writer errors (the trace degrades, the service
    /// does not).
    dropped: u64,
}

/// A thread-safe JSONL event sink with buffered batching.
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
                buf: Vec::with_capacity(BUFFER_BYTES),
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
    /// The line lands in the buffer; the writer is only touched when
    /// the buffer cannot hold the line.
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
        if BUFFER_BYTES - inner.buf.len() < line.len() {
            Self::drain(&mut inner);
        }
        if line.len() <= BUFFER_BYTES - inner.buf.len() {
            inner.buf.extend_from_slice(line.as_bytes());
        } else if inner.out.write_all(line.as_bytes()).is_err() {
            // Line bigger than the whole (drained) buffer: written
            // through directly; on writer failure the trace degrades,
            // the service does not.
            inner.dropped += line.len() as u64;
        }
    }

    /// Moves every buffered byte to the writer.
    fn drain(inner: &mut TraceInner) {
        for chunk in inner.buf.chunks(DRAIN_CHUNK) {
            if inner.out.write_all(chunk).is_err() {
                inner.dropped += chunk.len() as u64;
            }
        }
        inner.buf.clear();
    }

    /// Drains the buffer and flushes the writer (called on shutdown and
    /// before reading a trace file back).
    pub fn flush(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            Self::drain(&mut inner);
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
            "one small event stays in the buffer"
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

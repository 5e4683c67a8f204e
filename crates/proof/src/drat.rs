//! Binary DRAT encoding and incremental decoding.
//!
//! See the [crate docs](crate) for the record grammar. Encoding is
//! allocation-free into a caller-provided buffer; decoding is a
//! byte-at-a-time state machine that reads proof files written by
//! [`DratWriter`], input from outside the process, and counts every
//! malformed byte instead of trusting it.

use std::io::Write;

use sebmc_logic::Lit;

use crate::sink::ProofSink;

/// Record tag: original (axiom) clause.
pub const TAG_ORIG: u8 = b'o';
/// Record tag: derived (RUP-checkable) clause addition.
pub const TAG_ADD: u8 = b'a';
/// Record tag: clause deletion.
pub const TAG_DELETE: u8 = b'd';
/// Record tag: finalization lemma of an Unsat solve.
pub const TAG_FINAL: u8 = b'f';

/// Appends one varint (base-128, little-endian, high bit = continue).
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Encodes one record (`tag`, literals, `0` terminator) onto `buf`.
///
/// Literals use the **standard binary-DRAT mapping**
/// `2·(var + 1) + sign` — which, with this workspace's
/// `var << 1 | sign` packing, is exactly `code + 2`. The `+2` keeps
/// the `0` terminator unambiguous *and* makes the literal bytes
/// directly consumable by external binary-DRAT tooling (only the
/// record tags differ between the dialects; see
/// [`DratWriter::standard`]).
pub fn encode_record(tag: u8, lits: &[Lit], buf: &mut Vec<u8>) {
    buf.push(tag);
    for &l in lits {
        push_varint(buf, l.code() as u64 + 2);
    }
    buf.push(0);
}

/// Length in bytes of the record [`encode_record`] writes for `lits`
/// (the tag and the terminator included).
pub(crate) fn encoded_len(lits: &[Lit]) -> usize {
    2 + lits
        .iter()
        .map(|&l| {
            // Seven payload bits per varint byte.
            let bits = u64::BITS - (l.code() as u64 + 2).leading_zeros();
            bits.div_ceil(7) as usize
        })
        .sum::<usize>()
}

/// An incremental binary-DRAT record decoder.
///
/// Feed bytes one at a time with [`DratDecoder::feed`]; when it
/// returns `true`, a full record is available via
/// [`DratDecoder::tag`] / [`DratDecoder::take_lits`].
#[derive(Debug, Default)]
pub struct DratDecoder {
    tag: Option<u8>,
    acc: u64,
    shift: u32,
    /// A varint in flight has exceeded 64 bits (malformed stream); its
    /// value is dropped and counted when it terminates.
    overlong: bool,
    lits: Vec<Lit>,
    /// Bytes that were not a valid record tag, plus malformed varints.
    corrupt: u64,
}

impl DratDecoder {
    /// A fresh decoder at a record boundary.
    pub fn new() -> Self {
        DratDecoder::default()
    }

    /// Consumes one stream byte; returns `true` when it completed a
    /// record.
    pub fn feed(&mut self, byte: u8) -> bool {
        match self.tag {
            None => {
                if matches!(byte, TAG_ORIG | TAG_ADD | TAG_DELETE | TAG_FINAL) {
                    self.tag = Some(byte);
                } else {
                    // Skip the unknown byte, stay at the boundary; the
                    // count surfaces in the checker as a failed check.
                    self.corrupt += 1;
                }
                false
            }
            Some(_) => {
                // A shift past the accumulator width would panic in
                // debug builds; a malformed stream must degrade to a
                // counted corruption instead.
                if self.shift < u64::BITS {
                    self.acc |= u64::from(byte & 0x7f) << self.shift;
                } else {
                    self.overlong = true;
                }
                if byte & 0x80 != 0 {
                    self.shift = self.shift.saturating_add(7);
                    return false;
                }
                let v = self.acc;
                let overlong = self.overlong;
                self.acc = 0;
                self.shift = 0;
                self.overlong = false;
                if overlong {
                    self.corrupt += 1;
                    return false;
                }
                if v == 0 {
                    return true; // terminator: record complete
                }
                if v == 1 {
                    // Not a valid literal under the 2·(var+1)+sign
                    // mapping; count it and keep the record going.
                    self.corrupt += 1;
                    return false;
                }
                self.lits.push(Lit::from_code((v - 2) as usize));
                false
            }
        }
    }

    /// Tag of the just-completed record.
    pub fn tag(&self) -> u8 {
        self.tag.expect("a record was completed")
    }

    /// Takes the completed record's literals (resetting the decoder to
    /// the record boundary).
    pub fn take_lits(&mut self) -> Vec<Lit> {
        self.tag = None;
        std::mem::take(&mut self.lits)
    }

    /// Bytes skipped because they were not a valid record tag.
    pub fn corrupt_bytes(&self) -> u64 {
        self.corrupt
    }

    /// Whether the decoder sits at a record boundary (nothing partial
    /// buffered).
    pub fn at_boundary(&self) -> bool {
        self.tag.is_none()
    }
}

/// Decodes a complete in-memory stream, such as a proof file read
/// back, into `(tag, clause)` records. Malformed bytes are skipped;
/// use a [`DratDecoder`] to count them.
pub fn decode_stream(bytes: &[u8]) -> Vec<(u8, Vec<Lit>)> {
    let mut dec = DratDecoder::new();
    let mut out = Vec::new();
    for &b in bytes {
        if dec.feed(b) {
            let tag = dec.tag();
            out.push((tag, dec.take_lits()));
        }
    }
    out
}

/// A write-only [`ProofSink`]: encodes the event stream as binary DRAT
/// onto any [`Write`] destination, with exact byte accounting and no
/// checking.
///
/// Use it to export proofs (a file, a `Vec<u8>`) or to measure the
/// pure cost of proof logging (`std::io::sink()`); in
/// [`DratWriter::standard`] mode the output is plain binary DRAT
/// (original clauses dropped, finalizations written as additions) that
/// external tooling understands.
pub struct DratWriter<W: Write + Send> {
    out: W,
    buf: Vec<u8>,
    bytes: usize,
    include_originals: bool,
    /// Set when the destination reported an I/O error; the stream is
    /// truncated but the byte accounting stays exact for what was
    /// actually written.
    failed: bool,
}

impl<W: Write + Send> std::fmt::Debug for DratWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DratWriter")
            .field("bytes", &self.bytes)
            .field("include_originals", &self.include_originals)
            .field("failed", &self.failed)
            .finish()
    }
}

impl<W: Write + Send> DratWriter<W> {
    /// A writer in the annotated dialect (every tag, `o` included).
    pub fn new(out: W) -> Self {
        DratWriter {
            out,
            buf: Vec::with_capacity(64),
            bytes: 0,
            include_originals: true,
            failed: false,
        }
    }

    /// A writer emitting *standard* binary DRAT: `o` records skipped,
    /// `f` written as `a`.
    pub fn standard(out: W) -> Self {
        DratWriter {
            include_originals: false,
            ..DratWriter::new(out)
        }
    }

    /// Whether an I/O error truncated the stream.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Flushes and returns the destination.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn emit(&mut self, tag: u8, lits: &[Lit]) {
        self.buf.clear();
        encode_record(tag, lits, &mut self.buf);
        if !self.failed && self.out.write_all(&self.buf).is_err() {
            self.failed = true;
        }
        if !self.failed {
            self.bytes += self.buf.len();
        }
    }
}

impl<W: Write + Send> ProofSink for DratWriter<W> {
    fn original(&mut self, lits: &[Lit]) {
        if self.include_originals {
            self.emit(TAG_ORIG, lits);
        }
    }

    fn add(&mut self, lits: &[Lit]) {
        self.emit(TAG_ADD, lits);
    }

    fn delete(&mut self, lits: &[Lit]) {
        self.emit(TAG_DELETE, lits);
    }

    fn finalize_unsat(&mut self, neg_core: &[Lit]) {
        let tag = if self.include_originals {
            TAG_FINAL
        } else {
            TAG_ADD
        };
        self.emit(tag, neg_core);
    }

    fn bytes_emitted(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(code: usize) -> Lit {
        Lit::from_code(code)
    }

    /// The literal bytes must follow the standard binary-DRAT mapping
    /// `2·(var + 1) + sign` so external checkers decode them
    /// correctly (regression: an earlier draft wrote `code + 1`,
    /// which external tooling reads as shifted, polarity-flipped
    /// literals).
    #[test]
    fn literal_encoding_matches_the_binary_drat_spec() {
        use sebmc_logic::Var;
        let pos0 = Var::new(0).positive(); // DIMACS +1 → ulit 2
        let neg0 = Var::new(0).negative(); // DIMACS -1 → ulit 3
        let pos6 = Var::new(6).positive(); // DIMACS +7 → ulit 14
        let mut buf = Vec::new();
        encode_record(TAG_ADD, &[pos0, neg0, pos6], &mut buf);
        assert_eq!(buf, vec![TAG_ADD, 2, 3, 14, 0]);
    }

    #[test]
    fn varints_round_trip_through_the_decoder() {
        // Codes spanning 1, 2 and 3 varint bytes.
        let lits: Vec<Lit> = [0usize, 1, 126, 127, 128, 300, 16_383, 16_384, 1 << 20]
            .iter()
            .map(|&c| lit(c))
            .collect();
        let mut buf = Vec::new();
        encode_record(TAG_ADD, &lits, &mut buf);
        assert_eq!(encoded_len(&lits), buf.len());
        let records = decode_stream(&buf);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, TAG_ADD);
        assert_eq!(records[0].1, lits);
    }

    #[test]
    fn empty_clause_and_multi_record_streams() {
        let mut buf = Vec::new();
        encode_record(TAG_ORIG, &[lit(4), lit(7)], &mut buf);
        encode_record(TAG_FINAL, &[], &mut buf);
        encode_record(TAG_DELETE, &[lit(4), lit(7)], &mut buf);
        let records = decode_stream(&buf);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], (TAG_ORIG, vec![lit(4), lit(7)]));
        assert_eq!(records[1], (TAG_FINAL, vec![]));
        assert_eq!(records[2], (TAG_DELETE, vec![lit(4), lit(7)]));
    }

    #[test]
    fn decoder_is_byte_at_a_time_safe() {
        // Feeding the same stream in 1-byte slices must yield the same
        // records.
        let mut buf = Vec::new();
        encode_record(TAG_ADD, &[lit(128), lit(16_500)], &mut buf);
        encode_record(TAG_DELETE, &[lit(2)], &mut buf);
        let mut dec = DratDecoder::new();
        let mut seen = Vec::new();
        for &b in &buf {
            if dec.feed(b) {
                seen.push((dec.tag(), dec.take_lits()));
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, vec![lit(128), lit(16_500)]);
        assert_eq!(seen[1].1, vec![lit(2)]);
        assert!(dec.at_boundary());
        assert_eq!(dec.corrupt_bytes(), 0);
    }

    /// A varint with more continuation bytes than a `u64` can hold
    /// must be counted as corruption, not overflow the decoder's
    /// shift (which would panic in debug builds).
    #[test]
    fn overlong_varints_are_counted_not_fatal() {
        let mut dec = DratDecoder::new();
        let mut stream = vec![TAG_ADD];
        stream.extend([0x80u8; 12]); // 12 continuation bytes > 64 bits
        stream.push(0x01);
        stream.push(0); // terminator
        let mut completed = 0;
        for &b in &stream {
            if dec.feed(b) {
                completed += 1;
                let lits = dec.take_lits();
                assert!(lits.is_empty(), "the overlong literal was dropped");
            }
        }
        assert_eq!(completed, 1, "the record still terminates");
        assert_eq!(dec.corrupt_bytes(), 1);
        assert!(dec.at_boundary());
    }

    #[test]
    fn unknown_tags_are_counted_not_fatal() {
        let mut dec = DratDecoder::new();
        assert!(!dec.feed(b'x'));
        assert_eq!(dec.corrupt_bytes(), 1);
        let mut buf = Vec::new();
        encode_record(TAG_ADD, &[lit(1)], &mut buf);
        let mut done = 0;
        for &b in &buf {
            if dec.feed(b) {
                done += 1;
                let l = dec.take_lits();
                assert_eq!(l, vec![lit(1)]);
            }
        }
        assert_eq!(done, 1);
    }

    #[test]
    fn writer_accounts_bytes_and_standard_mode_drops_originals() {
        let mut full = DratWriter::new(Vec::new());
        full.original(&[lit(0), lit(2)]);
        full.add(&[lit(0)]);
        full.finalize_unsat(&[]);
        let full_bytes = full.bytes_emitted();
        let out = full.into_inner();
        assert_eq!(out.len(), full_bytes, "accounting matches the stream");
        let records = decode_stream(&out);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].0, TAG_FINAL);

        let mut std_w = DratWriter::standard(Vec::new());
        std_w.original(&[lit(0), lit(2)]);
        std_w.add(&[lit(0)]);
        std_w.finalize_unsat(&[]);
        let out = std_w.into_inner();
        let records = decode_stream(&out);
        assert_eq!(records.len(), 2, "originals dropped");
        assert!(records.iter().all(|(t, _)| *t == TAG_ADD));
    }
}

//! AIGER parsing: ASCII (`aag`) and binary (`aig`).

use std::error::Error;
use std::fmt;

use crate::format::{AigerAnd, AigerFile, AigerLatch, AigerReset, SymbolKind};

/// Error produced when parsing an AIGER document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    /// 1-based line number for ASCII input, byte offset for binary.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aiger parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl Error for ParseAigerError {}

fn err(position: usize, message: impl Into<String>) -> ParseAigerError {
    ParseAigerError {
        position,
        message: message.into(),
    }
}

struct Header {
    max_var: u32,
    i: usize,
    l: usize,
    o: usize,
    a: usize,
    b: usize,
    c: usize,
}

fn parse_header(line: &str, expect_tag: &str) -> Result<Header, ParseAigerError> {
    let mut parts = line.split_whitespace();
    let tag = parts.next().ok_or_else(|| err(1, "empty header"))?;
    if tag != expect_tag {
        return Err(err(
            1,
            format!("expected '{expect_tag}' header, got '{tag}'"),
        ));
    }
    let nums: Vec<usize> = parts
        .map(|t| {
            t.parse()
                .map_err(|_| err(1, format!("bad header field '{t}'")))
        })
        .collect::<Result<_, _>>()?;
    if nums.len() < 5 || nums.len() > 7 {
        return Err(err(
            1,
            format!("header needs 5-7 fields, got {}", nums.len()),
        ));
    }
    // Literal 2·M+1 must fit a u32, or every literal would be truncated.
    let max_var = u32::try_from(nums[0])
        .ok()
        .filter(|&m| m <= (u32::MAX - 1) / 2)
        .ok_or_else(|| {
            err(
                1,
                format!(
                    "maximum variable index {} overflows 32-bit literals",
                    nums[0]
                ),
            )
        })?;
    Ok(Header {
        max_var,
        i: nums[1],
        l: nums[2],
        o: nums[3],
        a: nums[4],
        b: nums.get(5).copied().unwrap_or(0),
        c: nums.get(6).copied().unwrap_or(0),
    })
}

fn parse_reset(latch_lit: u32, token: &str, lineno: usize) -> Result<AigerReset, ParseAigerError> {
    let v: u32 = token
        .parse()
        .map_err(|_| err(lineno, format!("bad reset token '{token}'")))?;
    match v {
        0 => Ok(AigerReset::Zero),
        1 => Ok(AigerReset::One),
        x if x == latch_lit => Ok(AigerReset::Uninitialized),
        other => Err(err(
            lineno,
            format!("reset must be 0, 1 or the latch literal, got {other}"),
        )),
    }
}

/// Parses symbol-table and comment lines (shared by both formats).
fn parse_trailer(
    lines: &mut std::iter::Enumerate<std::str::Lines<'_>>,
    file: &mut AigerFile,
) -> Result<(), ParseAigerError> {
    let mut in_comments = false;
    for (idx, line) in lines {
        let lineno = idx + 1;
        if in_comments {
            file.comments.push(line.to_string());
            continue;
        }
        if line == "c" {
            in_comments = true;
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let (kind, rest) = match line.chars().next() {
            Some('i') => (SymbolKind::Input, &line[1..]),
            Some('l') => (SymbolKind::Latch, &line[1..]),
            Some('o') => (SymbolKind::Output, &line[1..]),
            Some('b') => (SymbolKind::Bad, &line[1..]),
            Some('c') => (SymbolKind::Constraint, &line[1..]),
            _ => return Err(err(lineno, format!("unexpected trailer line '{line}'"))),
        };
        let mut parts = rest.splitn(2, ' ');
        let pos: usize = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| err(lineno, format!("bad symbol position in '{line}'")))?;
        let name = parts
            .next()
            .ok_or_else(|| err(lineno, format!("missing symbol name in '{line}'")))?;
        file.symbols.push((kind, pos, name.to_string()));
    }
    Ok(())
}

/// Parses the ASCII (`aag`) format.
///
/// # Errors
///
/// Returns [`ParseAigerError`] for malformed headers, bad literals,
/// count mismatches, or structural violations (checked with
/// [`AigerFile::validate`]).
///
/// # Example
///
/// ```
/// # use sebmc_aiger::read::parse_ascii;
/// // A single AND gate: o0 = i0 & i1.
/// let f = parse_ascii("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")?;
/// assert_eq!(f.inputs, vec![2, 4]);
/// assert_eq!(f.ands.len(), 1);
/// # Ok::<(), sebmc_aiger::ParseAigerError>(())
/// ```
pub fn parse_ascii(input: &str) -> Result<AigerFile, ParseAigerError> {
    let mut lines = input.lines().enumerate();
    let (_, header_line) = lines.next().ok_or_else(|| err(1, "missing header"))?;
    let h = parse_header(header_line, "aag")?;
    let mut file = AigerFile {
        max_var: h.max_var,
        ..AigerFile::default()
    };

    let mut next_line = |what: &str| -> Result<(usize, &str), ParseAigerError> {
        lines
            .next()
            .map(|(i, l)| (i + 1, l))
            .ok_or_else(|| err(0, format!("unexpected end of file in {what} section")))
    };

    let parse_lit = |tok: &str, lineno: usize| -> Result<u32, ParseAigerError> {
        tok.parse()
            .map_err(|_| err(lineno, format!("bad literal '{tok}'")))
    };

    for _ in 0..h.i {
        let (lineno, line) = next_line("input")?;
        file.inputs.push(parse_lit(line.trim(), lineno)?);
    }
    for _ in 0..h.l {
        let (lineno, line) = next_line("latch")?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() < 2 || toks.len() > 3 {
            return Err(err(lineno, "latch line needs 2-3 fields"));
        }
        let lit = parse_lit(toks[0], lineno)?;
        let next = parse_lit(toks[1], lineno)?;
        let reset = if toks.len() == 3 {
            parse_reset(lit, toks[2], lineno)?
        } else {
            AigerReset::Zero
        };
        file.latches.push(AigerLatch { lit, next, reset });
    }
    for _ in 0..h.o {
        let (lineno, line) = next_line("output")?;
        file.outputs.push(parse_lit(line.trim(), lineno)?);
    }
    for _ in 0..h.b {
        let (lineno, line) = next_line("bad")?;
        file.bad.push(parse_lit(line.trim(), lineno)?);
    }
    for _ in 0..h.c {
        let (lineno, line) = next_line("constraint")?;
        file.constraints.push(parse_lit(line.trim(), lineno)?);
    }
    for _ in 0..h.a {
        let (lineno, line) = next_line("and")?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 3 {
            return Err(err(lineno, "and line needs 3 fields"));
        }
        file.ands.push(AigerAnd {
            lhs: parse_lit(toks[0], lineno)?,
            rhs0: parse_lit(toks[1], lineno)?,
            rhs1: parse_lit(toks[2], lineno)?,
        });
    }
    parse_trailer(&mut lines, &mut file)?;
    file.validate().map_err(|m| err(0, m))?;
    Ok(file)
}

/// Parses the binary (`aig`) format.
///
/// # Errors
///
/// Returns [`ParseAigerError`] for malformed content; positions are
/// byte offsets.
pub fn parse_binary(input: &[u8]) -> Result<AigerFile, ParseAigerError> {
    // The header and the latch/output/bad/constraint sections are
    // ASCII lines; the AND section is binary; the trailer is ASCII.
    let mut pos = 0usize;
    let read_line = |pos: &mut usize| -> Result<String, ParseAigerError> {
        let start = *pos;
        while *pos < input.len() && input[*pos] != b'\n' {
            *pos += 1;
        }
        if *pos >= input.len() {
            return Err(err(start, "unexpected end of binary aiger"));
        }
        let line = std::str::from_utf8(&input[start..*pos])
            .map_err(|_| err(start, "non-UTF8 header line"))?
            .to_string();
        *pos += 1; // consume newline
        Ok(line)
    };

    let header_line = read_line(&mut pos)?;
    let h = parse_header(&header_line, "aig")?;
    if h.max_var as usize != h.i + h.l + h.a {
        return Err(err(
            0,
            format!(
                "binary aiger requires M = I+L+A, got M={} I={} L={} A={}",
                h.max_var, h.i, h.l, h.a
            ),
        ));
    }
    let mut file = AigerFile {
        max_var: h.max_var,
        ..AigerFile::default()
    };
    // Implicit inputs: literals 2, 4, …, 2I.
    for i in 0..h.i {
        file.inputs.push(2 * (i as u32 + 1));
    }
    // Latches: implicit current literals, explicit next (and reset).
    for l in 0..h.l {
        let lit = 2 * (h.i as u32 + l as u32 + 1);
        let line = read_line(&mut pos)?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.is_empty() || toks.len() > 2 {
            return Err(err(pos, "binary latch line needs 1-2 fields"));
        }
        let next: u32 = toks[0]
            .parse()
            .map_err(|_| err(pos, format!("bad next literal '{}'", toks[0])))?;
        let reset = if toks.len() == 2 {
            parse_reset(lit, toks[1], pos)?
        } else {
            AigerReset::Zero
        };
        file.latches.push(AigerLatch { lit, next, reset });
    }
    let read_lit_line = |pos: &mut usize| -> Result<u32, ParseAigerError> {
        let line = read_line(pos)?;
        line.trim()
            .parse()
            .map_err(|_| err(*pos, format!("bad literal line '{line}'")))
    };
    for _ in 0..h.o {
        let lit = read_lit_line(&mut pos)?;
        file.outputs.push(lit);
    }
    for _ in 0..h.b {
        let lit = read_lit_line(&mut pos)?;
        file.bad.push(lit);
    }
    for _ in 0..h.c {
        let lit = read_lit_line(&mut pos)?;
        file.constraints.push(lit);
    }
    // Binary AND section: two LEB128-style deltas per gate.
    let read_delta = |pos: &mut usize| -> Result<u32, ParseAigerError> {
        let mut x: u32 = 0;
        let mut shift = 0;
        loop {
            if *pos >= input.len() {
                return Err(err(*pos, "unexpected end of delta encoding"));
            }
            let byte = input[*pos];
            *pos += 1;
            x |= u32::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
            if shift > 28 {
                return Err(err(*pos, "delta encoding too long"));
            }
        }
    };
    for a in 0..h.a {
        let lhs = 2 * (h.i as u32 + h.l as u32 + a as u32 + 1);
        let delta0 = read_delta(&mut pos)?;
        let delta1 = read_delta(&mut pos)?;
        let rhs0 = lhs
            .checked_sub(delta0)
            .ok_or_else(|| err(pos, "delta0 underflows"))?;
        let rhs1 = rhs0
            .checked_sub(delta1)
            .ok_or_else(|| err(pos, "delta1 underflows"))?;
        file.ands.push(AigerAnd { lhs, rhs0, rhs1 });
    }
    // Trailer (symbols/comments) is ASCII.
    if pos < input.len() {
        let rest = std::str::from_utf8(&input[pos..]).map_err(|_| err(pos, "non-UTF8 trailer"))?;
        let mut lines = rest.lines().enumerate();
        parse_trailer(&mut lines, &mut file)?;
    }
    file.validate().map_err(|m| err(0, m))?;
    Ok(file)
}

/// Parses either format by sniffing the header tag.
///
/// # Errors
///
/// Returns [`ParseAigerError`] if the content is neither valid `aag`
/// nor valid `aig`.
pub fn parse_auto(input: &[u8]) -> Result<AigerFile, ParseAigerError> {
    if input.starts_with(b"aag ") {
        let text = std::str::from_utf8(input).map_err(|_| err(0, "non-UTF8 ascii aiger"))?;
        parse_ascii(text)
    } else if input.starts_with(b"aig ") {
        parse_binary(input)
    } else {
        Err(err(
            0,
            "unrecognized AIGER header (expected 'aag' or 'aig')",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = "aag 1 0 1 2 0\n2 3\n2\n3\nl0 toggle\nc\nhello\n";

    #[test]
    fn parses_toggle_example() {
        let f = parse_ascii(TOGGLE).unwrap();
        assert_eq!(f.max_var, 1);
        assert_eq!(f.latches.len(), 1);
        assert_eq!(f.latches[0].next, 3);
        assert_eq!(f.outputs, vec![2, 3]);
        assert_eq!(f.symbols.len(), 1);
        assert_eq!(f.comments, vec!["hello"]);
    }

    #[test]
    fn parses_and_gate() {
        let f = parse_ascii("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").unwrap();
        assert_eq!(
            f.ands[0],
            AigerAnd {
                lhs: 6,
                rhs0: 2,
                rhs1: 4
            }
        );
    }

    #[test]
    fn parses_aiger19_sections() {
        let f = parse_ascii("aag 2 1 1 0 0 1 1\n2\n4 2 4\n4\n2\n").unwrap();
        assert_eq!(f.bad, vec![4]);
        assert_eq!(f.constraints, vec![2]);
        assert_eq!(f.latches[0].reset, AigerReset::Uninitialized);
        assert!(f.is_aiger19());
    }

    #[test]
    fn rejects_truncated_file() {
        let e = parse_ascii("aag 3 2 0 1 1\n2\n4\n").unwrap_err();
        assert!(e.message.contains("end of file"), "{e}");
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_ascii("aat 1 0 0 0 0\n").is_err());
        assert!(parse_ascii("aag 1 0\n").is_err());
        assert!(parse_ascii("aag x 0 0 0 0\n").is_err());
        // 2^32 + 1 must not truncate to a maximum variable index of 1.
        let err = parse_ascii("aag 4294967297 0 1 0 0 1\n2 3\n2\n").unwrap_err();
        assert!(err.message.contains("overflows 32-bit literals"), "{err}");
        // The largest index whose literals still fit is accepted.
        let fits = format!("aag {} 0 0 0 0\n", (u32::MAX - 1) / 2);
        assert!(parse_ascii(&fits).is_ok());
    }

    #[test]
    fn rejects_bad_reset() {
        let e = parse_ascii("aag 2 1 1 0 0\n2\n4 2 7\n").unwrap_err();
        assert!(e.message.contains("reset"), "{e}");
    }

    #[test]
    fn rejects_invalid_structure() {
        // Output uses undefined variable 5.
        let e = parse_ascii("aag 5 1 0 1 0\n2\n10\n").unwrap_err();
        assert!(e.message.contains("undefined"), "{e}");
    }

    #[test]
    fn binary_round_trip_of_known_bytes() {
        // Binary encoding of: aig 3 1 1 0 1 with latch next=6,
        // and gate 6 = 2 & 4. Deltas: 6-4=2, 4-2=2.
        let mut bytes = b"aig 3 1 1 0 1\n6\n".to_vec();
        bytes.push(2);
        bytes.push(2);
        let f = parse_binary(&bytes).unwrap();
        assert_eq!(f.inputs, vec![2]);
        assert_eq!(f.latches[0].lit, 4);
        assert_eq!(f.latches[0].next, 6);
        assert_eq!(
            f.ands[0],
            AigerAnd {
                lhs: 6,
                rhs0: 4,
                rhs1: 2
            }
        );
    }

    #[test]
    fn binary_rejects_m_mismatch() {
        let e = parse_binary(b"aig 9 1 1 0 1\n6\n\x02\x02").unwrap_err();
        assert!(e.message.contains("M = I+L+A"), "{e}");
    }

    #[test]
    fn binary_multibyte_delta() {
        // One gate whose delta0 needs two bytes: lhs = 2*(200+1) -
        // build 200 inputs, 0 latches, 1 and.
        let mut text = String::from("aig 201 200 0 0 1\n");
        let mut bytes = text.clone().into_bytes();
        let lhs = 2 * 201u32;
        let rhs0 = 2; // delta0 = 402 - 2 = 400 (two bytes)
        let rhs1 = 2;
        let d0 = lhs - rhs0;
        let d1 = rhs0 - rhs1;
        bytes.push((d0 & 0x7f) as u8 | 0x80);
        bytes.push((d0 >> 7) as u8);
        bytes.push(d1 as u8);
        let f = parse_binary(&bytes).unwrap();
        assert_eq!(f.ands[0], AigerAnd { lhs, rhs0, rhs1 });
        text.clear();
    }

    #[test]
    fn auto_detects_format() {
        assert!(parse_auto(TOGGLE.as_bytes()).is_ok());
        assert!(parse_auto(b"aig 0 0 0 0 0\n").is_ok());
        assert!(parse_auto(b"garbage").is_err());
    }
}

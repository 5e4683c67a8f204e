//! Verdict certification: streaming DRAT proof logging with a
//! bounded-memory forward checker.
//!
//! The paper's whole premise is that bounded-model-checking verdicts
//! should stay trustworthy while memory stays bounded. Reachable
//! verdicts are already checkable — every SAT-backed engine produces a
//! witness trace that `Model::check_trace` replays through the
//! concrete simulator — but an *Unreachable* verdict from a CDCL
//! solver used to be taken on faith. This crate closes that hole in
//! the style the certified-UNSAT line of work made standard: the
//! solver emits a **DRAT** proof (a sequence of clause additions, each
//! checkable by reverse unit propagation, interleaved with clause
//! deletions), and a checker validates it. Two twists keep it on the
//! paper's space-efficiency theme:
//!
//! * the proof is **streamed**, never stored: the solver's
//!   [`ProofSink`] hooks hand each event to the [`StreamingChecker`],
//!   which buffers a bounded batch of events and verifies lemmas on
//!   the fly — checker memory is `O(active clauses)` (it mirrors the
//!   solver's live clause database, deletions included), not
//!   `O(proof)`;
//! * the stream is **byte-accounted exactly** ([`ProofSink::bytes_emitted`]
//!   is the size of the binary-DRAT encoding), so the size of the
//!   certificate joins the clause-arena and watch-storage bytes in the
//!   experiment tables.
//!
//! # The proof dialect
//!
//! Records are binary-DRAT shaped — a one-byte tag, then the clause's
//! literals as base-128 varints, then a `0` terminator — with two
//! extra tags beyond the standard `a`/`d` so one self-contained stream
//! can certify *incremental* solving:
//!
//! | tag | meaning |
//! |---|---|
//! | `o` | **original** clause asserted by the caller (incremental adds included); inserted unchecked |
//! | `a` | derived lemma; must pass reverse unit propagation (RUP) against the current active set |
//! | `d` | deletion of one active clause, identified by its literal content |
//! | `f` | **finalization** lemma of one Unsat solve: the negated failed-assumption core (empty for a top-level conflict); checked like `a` and remembered so the verdict can be matched against the assumptions that produced it |
//!
//! Literals are encoded with the standard binary-DRAT mapping
//! `2·(var + 1) + sign` — with this workspace's `var << 1 | sign`
//! packing that is exactly `code + 2`, so the literal bytes are what
//! external tooling expects and the `0` terminator stays unambiguous.
//! A standard DRAT *stream* is obtained by dropping `o` records (the
//! original formula travels separately as DIMACS) and writing `f` as
//! `a` — see [`DratWriter::standard`].
//!
//! # Soundness
//!
//! Every `a`/`f` clause verified by RUP is entailed by the clauses
//! active when it was checked; by induction, everything ever verified
//! is entailed by the `o` clauses alone. Deletions only ever shrink
//! the active set, so they can cost completeness (a later RUP check
//! might fail) but never soundness — which is why the checker keeps
//! top-level units even when the clause that produced them dies.
//! A verified empty clause certifies plain unsatisfiability; a
//! verified finalization lemma `¬a₁ ∨ … ∨ ¬aₙ` certifies
//! unsatisfiability under the assumptions `a₁ … aₙ`
//! ([`StreamingChecker`] matches it in [`ProofSink::certifies`]).
//!
//! # Example
//!
//! ```
//! use sebmc_logic::Lit;
//! use sebmc_proof::{ProofSink, StreamingChecker};
//!
//! let a = Lit::from_code(0);
//! let b = Lit::from_code(2);
//! let mut sink = StreamingChecker::new();
//! sink.original(&[a, b]);
//! sink.original(&[!a, b]);
//! sink.original(&[!b]);
//! sink.add(&[b]); // resolvent of the first two: RUP
//! sink.finalize_unsat(&[]); // the empty clause now follows
//! let cert = sink.summary().unwrap();
//! assert_eq!(cert.failed_checks, 0);
//! assert!(sink.certifies(&[]));
//! assert!(sink.bytes_emitted() > 0);
//! ```

#![forbid(unsafe_code)]

mod cert;
mod checker;
mod drat;
mod sink;
mod tee;

pub use cert::Certificate;
pub use checker::StreamingChecker;
pub use drat::{decode_stream, DratDecoder, DratWriter, TAG_ADD, TAG_DELETE, TAG_FINAL, TAG_ORIG};
pub use sink::ProofSink;
pub use tee::TeeSink;

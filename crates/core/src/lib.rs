//! Space-efficient bounded model checking — a from-scratch Rust
//! reproduction of *"Space-Efficient Bounded Model Checking"* (Jacob
//! Katz, Ziyad Hanna, Nachum Dershowitz; DATE 2005).
//!
//! Classical BMC (formulation (1)) unrolls the transition relation `k`
//! times, so its formula carries `k` copies of `TR` — the memory
//! explosion the paper attacks. The paper's alternatives keep **one**
//! copy:
//!
//! | Formulation | Module | Engine | Growth per bound |
//! |---|---|---|---|
//! | (1) unrolled CNF | [`unroll`] | [`UnrollSat`] | Θ(\|TR\|) |
//! | (2) linear QBF | [`qbf_enc`] | [`QbfLinear`] | Θ(n), constant #∀ |
//! | (3) iterative squaring | [`squaring`] | [`QbfSquaring`] | log₂ k iterations, growing #∀ |
//! | (4) jSAT | [`jsat`] | [`JSat`] | constant formula |
//!
//! All engines implement [`Engine`]: [`Engine::start`] opens a
//! [`Session`] bound to one model, [`Semantics`] and [`Budget`] (the
//! paper's per-instance 300 s / 1 GB protocol, byte-accurate, plus a
//! shared [`CancelToken`]), and [`Session::check_bound`] decides a
//! *sequence* of bounds while engine state — solvers, learnt clauses,
//! caches — persists between them. [`DeepeningPortfolio::sweep`] is
//! the one loop that deepens the bound over such sessions — one engine
//! inline, several raced per bound. Engines that find
//! reachable targets produce replayable witness
//! [`Trace`](sebmc_model::Trace)s (except the QBF back-ends, which
//! decide validity only — as in 2005).
//!
//! # Quickstart
//!
//! ```
//! use sebmc::{Budget, Engine, JSat, Semantics, UnrollSat};
//! use sebmc_model::builders::counter_with_reset;
//!
//! let model = counter_with_reset(3); // 3-bit counter, target 7
//! let mut jsat = JSat::default().start(&model, Semantics::Exactly, Budget::none());
//! let mut unroll = UnrollSat.start(&model, Semantics::Exactly, Budget::none());
//! for k in 0..9 {
//!     let a = jsat.check_bound(k).result;
//!     let b = unroll.check_bound(k).result;
//!     assert!(a.agrees_with(&b));
//! }
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod fingerprint;
mod frame;
pub mod inc_unroll;
pub mod induction;
pub mod jsat;
pub mod portfolio;
pub mod qbf_enc;
mod session;
pub mod squaring;
pub mod unroll;

pub use engine::{
    BmcOutcome, BmcResult, Budget, CancelToken, Engine, RunStats, Semantics, Session,
};
pub use fingerprint::model_fingerprint;
pub use inc_unroll::IncrementalUnroll;
pub use induction::{k_induction, k_induction_run, InductionResult, InductionRun};
pub use jsat::{JSat, JSatConfig, JSatSession, JSatStats};
pub use portfolio::{
    engine_panic_reason, truncate_panic_payload, DeepeningPortfolio, PortfolioBoundOutcome,
    PortfolioEntry, SweepProgress,
};
pub use qbf_enc::{encode_qbf_linear, QbfBackend, QbfEncoding, QbfLinear, QbfSession};
pub use sebmc_proof::Certificate;
pub use session::lift_verdict;
pub use squaring::{encode_qbf_squaring, QbfSquaring};
pub use unroll::{encode_unrolled, UnrollSat};

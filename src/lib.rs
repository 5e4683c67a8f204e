//! Facade crate for the `sebmc` workspace — a from-scratch Rust
//! reproduction of *"Space-Efficient Bounded Model Checking"* (Katz,
//! Hanna, Dershowitz; DATE 2005).
//!
//! This crate simply re-exports the workspace members under stable
//! names so that examples and integration tests can use a single
//! dependency:
//!
//! * [`logic`] — literals, CNF, And-Inverter Graphs, Tseitin, DIMACS.
//! * [`sat`] — an incremental CDCL SAT solver (with streaming DRAT
//!   proof logging).
//! * [`proof`] — verdict certification: the binary-DRAT writer and the
//!   bounded-memory on-the-fly forward checker
//!   ([`StreamingChecker`](proof::StreamingChecker)/[`Certificate`](proof::Certificate)).
//! * [`qbf`] — prenex-CNF QBF representation and two QBF solvers.
//! * [`aiger`] — AIGER (`.aag`/`.aig`) reader and writer.
//! * [`model`] — symbolic transition systems and the benchmark suite.
//! * [`analysis`] — static model analysis: cone-of-influence
//!   reduction, constant-latch sweeping, unused-input elimination and
//!   witness lifting
//!   ([`analyze`](analysis::analyze)/[`reduce`](analysis::reduce)/[`Reconstruction`](analysis::Reconstruction)).
//! * [`bmc`] — the paper's contribution: the three bounded-reachability
//!   encodings and the special-purpose jSAT decision procedure, behind
//!   a session-based incremental engine API
//!   ([`Engine`](bmc::Engine)/[`Session`](bmc::Session)/[`Budget`](bmc::Budget)),
//!   deepened bound by bound by one loop
//!   ([`DeepeningPortfolio::sweep`](bmc::DeepeningPortfolio::sweep)).
//! * [`service`] — the multi-worker checking service: a job queue over
//!   engine sessions with portfolio-level deepening, per-job/service
//!   cancellation and byte-budget admission control
//!   ([`ServiceHandle`](service::ServiceHandle)/[`Job`](service::Job)/[`ServiceReport`](service::ServiceReport)).
//! * [`telemetry`] — observability: the lock-free metrics registry,
//!   structured JSONL tracing, and solver progress introspection
//!   ([`Telemetry`](telemetry::Telemetry)/[`MetricsRegistry`](telemetry::MetricsRegistry)/[`ProgressSink`](telemetry::ProgressSink)).
//!
//! # Quickstart
//!
//! ```
//! use sebmc_repro::bmc::{Budget, Engine, JSat, Semantics};
//! use sebmc_repro::model::builders::counter_with_reset;
//!
//! let model = counter_with_reset(4);
//! // One session: formula (4) and the failed-state cache persist
//! // across bounds.
//! let mut session = JSat::default().start(&model, Semantics::Exactly, Budget::none());
//! assert!(session.check_bound(14).result.is_unreachable());
//! assert!(session.check_bound(15).result.is_reachable());
//! ```

pub use sebmc as bmc;
pub use sebmc_aiger as aiger;
pub use sebmc_analysis as analysis;
pub use sebmc_logic as logic;
pub use sebmc_model as model;
pub use sebmc_proof as proof;
pub use sebmc_qbf as qbf;
pub use sebmc_sat as sat;
pub use sebmc_service as service;
pub use sebmc_telemetry as telemetry;

//! Transition systems and benchmark workloads for the *"Space-Efficient
//! Bounded Model Checking"* (DATE 2005) reproduction.
//!
//! * [`Model`] — a symbolic transition system `M = (S, I, TR)` plus the
//!   target predicate `F`, in functional (AIGER-latch) form over an
//!   And-Inverter Graph; built with [`ModelBuilder`].
//! * [`Trace`] — checkable witness traces ([`Model::check_trace`]
//!   replays them through the concrete simulator).
//! * [`explicit`] — exhaustive ground-truth bounded reachability for
//!   small models; every symbolic engine is validated against it.
//! * [`builders`] / [`suite`] — the thirteen synthetic benchmark
//!   families standing in for the paper's thirteen proprietary Intel
//!   test cases, which are not available (the [`builders`] module
//!   docs say what the families keep of them).
//!
//! # Example
//!
//! ```
//! use sebmc_model::builders::counter_with_reset;
//! use sebmc_model::explicit::min_steps_to_target;
//!
//! let model = counter_with_reset(3);
//! // The 3-bit counter first hits its maximum after 7 steps.
//! assert_eq!(min_steps_to_target(&model, 10), Some(7));
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod builders;
pub mod explicit;
pub mod model;
pub mod suite;
pub mod trace;

pub use builder::{BuildModelError, ModelBuilder};
pub use model::{pack_state, unpack_state, Model};
pub use suite::{suite13, suite13_small, BOUNDS_PER_MODEL};
pub use trace::{Trace, TraceError};

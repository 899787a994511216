//! # stream-sim
//!
//! Deterministic discrete-event simulation substrate for the PJoin
//! reproduction.
//!
//! The paper measured a Java implementation in wall-clock time on a
//! 2.4 GHz Pentium-IV. We substitute a **virtual-time cost model**: every
//! operator reports the work it performed ([`Work`] counters — tuples
//! probed, inserted, purged, scanned, pages read/written, …) and a
//! [`CostModel`] converts that work into virtual time. A [`Driver`] merges
//! the two input streams by arrival time and advances an operator's busy
//! clock, so an operator whose per-element cost grows (e.g. XJoin probing
//! an ever-larger state) *falls behind* its inputs exactly as the paper's
//! implementation did — reproducing the output-rate curves of §4
//! deterministically and in milliseconds of real time.
//!
//! Contents:
//!
//! * [`clock`] — the virtual clock.
//! * [`event_queue`] — a stable priority queue of timestamped events.
//! * [`poisson`] — exponential / Poisson inter-arrival sampling.
//! * [`cost`] — [`Work`] counters and the [`CostModel`].
//! * [`driver`] — the [`BinaryStreamOp`] trait and the simulation [`Driver`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod driver;
pub mod event_queue;
pub mod poisson;

pub use clock::VirtualClock;
pub use cost::{CostModel, Work};
pub use driver::{BinaryStreamOp, Drained, Driver, DriverConfig, OpOutput, RunStats, Side};
pub use event_queue::EventQueue;
pub use poisson::ExpSampler;

pub use punct_types::Timestamp;

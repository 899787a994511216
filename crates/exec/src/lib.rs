//! # punct-exec
//!
//! A sharded parallel executor for [PJoin](pjoin) — scaling the
//! punctuation-exploiting stream join of *Joining Punctuated Streams*
//! (EDBT 2004) across cores while preserving single-stream punctuation
//! semantics.
//!
//! ## Architecture
//!
//! ```text
//!            ┌─────────┐   per-shard bounded    ┌─────────┐
//! caller ──▶ │ router  │ ─────────────────────▶ │ shard 0 │──┐
//!  (bounded) │  hash-  │ ─────────────────────▶ │ shard 1 │──┤ shared bounded
//!            │partition│          …             │    …    │  ├───────▶ merger ──▶ caller
//!            └────┬────┘ ─────────────────────▶ │ shard N │──┘            ▲  (bounded)
//!                 │                             └─────────┘               │
//!                 └──────────── punctuation aligner (shared) ─────────────┘
//! ```
//!
//! * **Partitioning** ([`router`]): tuples are hash-partitioned by
//!   canonical join key, so each shard's [`PJoin`](pjoin::PJoin) sees a
//!   disjoint key subspace and needs no cross-shard coordination on the
//!   hot path.
//! * **Punctuation broadcast** ([`router`]): a punctuation goes to every
//!   shard whose keys it can close — one shard for constants, the owning
//!   set for enumerations, all shards for ranges and wildcards. Each
//!   shard purges its own state and propagates independently, exactly as
//!   the paper's single-threaded operator does.
//! * **Alignment** ([`align`]): shard propagations are merged so the
//!   downstream stream carries each ingested punctuation **exactly
//!   once**, and only after *every* shard it was sent to has purged and
//!   propagated it — the sharded executor is thus indistinguishable
//!   from a single PJoin to downstream consumers (modulo output order).
//! * **Merge** ([`merge`]): arrival-order by default; an optional
//!   watermark-based timestamp-ordered k-way merge behind
//!   [`ExecConfig::ordered_merge`].
//! * **Bounded channels everywhere** ([`executor`]): backpressure
//!   propagates to the caller; shutdown drains while feeding so finish
//!   never deadlocks.
//!
//! ## Quick start
//!
//! ```
//! use pjoin::PJoinConfig;
//! use punct_exec::{ExecConfig, ShardedPJoin};
//! use punct_types::{Punctuation, Timestamp, Timestamped, Tuple};
//! use stream_sim::Side;
//!
//! let exec = ShardedPJoin::spawn(ExecConfig::new(4, PJoinConfig::new(2, 2)));
//! for k in 0..8i64 {
//!     exec.push(Side::Left, Timestamped::new(Timestamp(k as u64), Tuple::of((k, 10 * k)).into()));
//!     exec.push(Side::Right, Timestamped::new(Timestamp(k as u64), Tuple::of((k, -k)).into()));
//! }
//! exec.push(Side::Left, Timestamped::new(Timestamp(9), Punctuation::close_value(2, 0, 3i64).into()));
//! let (outputs, stats) = exec.finish();
//! // 8 joined tuples, and the punctuation exactly once.
//! assert_eq!(outputs.iter().filter(|e| e.item.is_tuple()).count(), 8);
//! assert_eq!(outputs.iter().filter(|e| e.item.is_punctuation()).count(), 1);
//! assert_eq!(stats.total_stats().tuples_purged, 1);
//! ```

#![forbid(unsafe_code)]

pub mod align;
pub mod config;
pub mod error;
pub mod executor;
pub mod merge;
pub mod metrics;
pub mod router;
pub mod shard;

pub use align::{AlignOutcome, Aligner, SharedAligner};
pub use config::{ExecConfig, ExecConfigError, MAX_SHARDS};
pub use error::ExecError;
pub use executor::{ExecStats, ShardedPJoin};
pub use merge::MergeReport;
pub use metrics::{RuntimeMetrics, ShardMetrics};
pub use router::{
    route_punctuation, route_tuple, route_tuple_hashed, shard_of, shard_of_hash, Route,
    RouterReport,
};
pub use shard::{RoutedElement, ShardReport};

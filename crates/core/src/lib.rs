//! # pjoin
//!
//! **PJoin** — the punctuation-exploiting stream join operator of
//! *Joining Punctuated Streams* (Ding, Mehta, Rundensteiner, Heineman;
//! EDBT 2004) — reproduced as a Rust library.
//!
//! PJoin is a binary, hash-based, symmetric equi-join over punctuated
//! streams. Beyond the XJoin-style machinery (memory join, state
//! relocation to disk, reactive disk join), it exploits **punctuations**
//! to
//!
//! 1. **purge** state: a tuple matching the *opposite* stream's
//!    punctuation set can never join future tuples and is removed
//!    (eagerly, or lazily in batches controlled by a *purge threshold*);
//! 2. **drop on the fly**: an arriving tuple already covered by the
//!    opposite punctuation set is joined against the state but never
//!    stored;
//! 3. **propagate** punctuations downstream: an incrementally-maintained
//!    *punctuation index* (pid + per-punctuation match count) detects
//!    when all results matching a punctuation have been emitted, at which
//!    point the punctuation is released to the output stream for the
//!    benefit of downstream operators such as group-by.
//!
//! All components are scheduled by an **event-driven framework**
//! ([`framework`]): a [`Monitor`](framework::Monitor) watches runtime
//! parameters (state size, punctuations since the last purge /
//! propagation, …) and raises events; an **event-listener registry**
//! ([`Registry`](framework::Registry)) maps each event to the ordered
//! components that handle it — reproducing the paper's Table 1
//! configuration mechanism, including runtime re-configuration.
//!
//! ## Quick start
//!
//! ```
//! use pjoin::{PJoin, PJoinBuilder};
//! use punct_types::{Punctuation, StreamElement, Timestamp, Tuple};
//! use stream_sim::{BinaryStreamOp, OpOutput, Side};
//!
//! // A join over streams of (key, payload) pairs.
//! let mut join = PJoinBuilder::new(2, 2).eager_purge().build();
//! let mut out = OpOutput::new();
//!
//! join.on_element(Side::Left, Tuple::of((1i64, 10i64)).into(), Timestamp(1), &mut out);
//! join.on_element(Side::Right, Tuple::of((1i64, 20i64)).into(), Timestamp(2), &mut out);
//! assert_eq!(out.drain().count(), 1); // (1, 10, 1, 20)
//!
//! // A punctuation closing key 1 on the right lets PJoin purge the
//! // left-state tuple with key 1.
//! join.on_element(
//!     Side::Right,
//!     Punctuation::close_value(2, 0, 1i64).into(),
//!     Timestamp(3),
//!     &mut out,
//! );
//! assert_eq!(join.state_tuples(), 1); // only the right tuple remains
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod components;
pub mod config;
pub mod dedup;
pub mod framework;
pub mod nary;
pub mod operator;
pub mod punctuation_index;
pub mod record;
pub mod state;

pub use builder::PJoinBuilder;
pub use config::{IndexBuildStrategy, PJoinConfig, PropagationTrigger, PurgeStrategy};
pub use nary::{run_nary, NaryConfig, NaryPJoin};
pub use operator::{PJoin, PJoinStats, StateExportError};
pub use punctuation_index::PunctuationIndex;
pub use record::PRecord;
pub use state::JoinState;

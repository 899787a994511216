//! # punct-types
//!
//! The value, tuple, schema and **punctuation** type system underlying the
//! PJoin reproduction (Ding, Mehta, Rundensteiner, Heineman: *Joining
//! Punctuated Streams*, EDBT 2004).
//!
//! A *punctuated stream* interleaves data tuples with [`Punctuation`]s —
//! ordered sets of [`Pattern`]s, one per attribute — that assert that no
//! tuple arriving **after** the punctuation will match it. Stateful
//! operators exploit punctuations to discard state (purge) and blocking
//! operators use them to emit partial results early.
//!
//! The crate provides:
//!
//! * [`Value`] / [`ValueType`] — a small dynamically-typed value model with
//!   total ordering and hashing so values can serve as join keys.
//! * [`Schema`] / [`Field`] — named, typed attribute lists.
//! * [`Tuple`] — an immutable, cheaply-cloneable row of values.
//! * [`Pattern`] — the five pattern kinds of the paper (wildcard, constant,
//!   range, enumeration list, empty) with `match` and `and` semantics.
//! * [`Punctuation`] — an ordered set of patterns over a schema.
//! * [`PunctuationSet`] — an indexed collection of punctuations with a
//!   fast `set_match` on a designated (join) attribute.
//! * [`StreamElement`] / [`Timestamped`] — the element model of a
//!   punctuated stream.
//! * a textual grammar ([`parse`]) for writing punctuations in tests,
//!   examples and config files, e.g. `<*, 42, [10,20), {1,2,3}, ->`.
//! * a wire-stable binary encoding ([`wire`]) of all of the above, used
//!   by the networked transport (`punct-net`).

#![forbid(unsafe_code)]

pub mod batch;
pub mod error;
pub mod parse;
pub mod pattern;
pub mod punct_seq;
pub mod punct_set;
pub mod punctuation;
pub mod schema;
pub mod shard_map;
pub mod stream;
pub mod tuple;
pub mod value;
pub mod wire;

pub use batch::BatchConfig;
pub use error::TypeError;
pub use pattern::{Bound, Pattern};
pub use punct_seq::{PunctSeq, PunctSeqAssigner};
pub use punct_set::{PunctId, PunctuationSet};
pub use punctuation::Punctuation;
pub use schema::{Field, Schema};
pub use shard_map::{partition, ShardMap};
pub use stream::{StreamElement, Timestamp, Timestamped};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
pub use wire::{WireError, WireReader};

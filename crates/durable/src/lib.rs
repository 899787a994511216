//! Durable state for punctuated-stream pipelines.
//!
//! Everything above this crate is exactly-once *until the process dies*:
//! `punct-net` resumes streams across disconnects, but operator state —
//! slab buckets, punctuation sets, aligner FIFOs — lives only in memory.
//! This crate closes that gap with **checkpoint barriers**: a checkpoint
//! is cut at an Empty-pattern barrier punctuation (the same sequenced
//! mechanism PR 7's migration uses, so it is exactly-once through
//! faults), and the post-purge state at the cut is written to disk in a
//! versioned, CRC-guarded snapshot format, one self-contained file per
//! epoch.
//!
//! The crate is deliberately mechanism-only. It knows how to
//!
//! * serialize what a cut produces — the stored join records per
//!   `(shard, side)` and the input punctuations not yet fully emitted —
//!   via [`snapshot`]; punctuation sets and aligners are rebuilt by
//!   re-injecting those punctuations, never serialized;
//! * frame those blobs into an epoch file with magic, format version,
//!   and a CRC32 per section via [`format`], rejecting corruption and
//!   truncation with a typed [`SnapshotError`] instead of a panic or a
//!   silent partial restore;
//! * manage a directory of epochs with atomic publication (tmp+rename +
//!   manifest) and bounded retention via [`CheckpointStore`]. Every
//!   epoch file holds all of its sections, so any retained epoch loads
//!   on its own.
//!
//! *Policy* — when to cut a barrier, who replays which inputs — lives
//! with the caller: `punct-cluster` wires this store into its coordinator
//! for crash recovery of worker processes and restart from disk. The
//! in-process sharded executor does not checkpoint.
//!
//! ## Format versioning rule
//!
//! [`format::FORMAT_VERSION`] follows the same rule as the net-layer
//! `WIRE_VERSION`: any change to the byte layout of the epoch file or of
//! any section payload bumps it, and a reader rejects files whose
//! version it does not know ([`SnapshotError::UnsupportedVersion`]) —
//! snapshots are restart-compatibility surfaces, not internal scratch.

pub mod format;
pub mod snapshot;
pub mod store;

pub use format::{crc32, SnapshotError, FORMAT_VERSION, MAGIC};
pub use snapshot::{
    decode_pending, encode_pending, PendingPunct, ShardRecords, Snapshot, SnapshotMeta,
};
pub use store::{CheckpointStore, StoreStats};

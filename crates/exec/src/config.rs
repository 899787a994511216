//! Configuration of the sharded executor.

use pjoin::PJoinConfig;
use punct_types::{batch::DEFAULT_BATCH_ELEMS, BatchConfig};

/// Upper bound on the shard count: the punctuation aligner tracks the
/// shards that have propagated a punctuation in a `u64` bitmask.
pub const MAX_SHARDS: usize = 64;

/// Default capacity (in messages) of the caller → router channel.
pub const DEFAULT_INPUT_CAPACITY: usize = 1024;

/// Default capacity (in batches) of each router → shard channel.
pub const DEFAULT_SHARD_CAPACITY: usize = 256;

/// Default capacity (in events) of the shared shard → merger channel.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Default capacity (in batches) of the merger → caller channel.
pub const DEFAULT_OUTPUT_CAPACITY: usize = 4096;

/// Default bound (in elements) on the caller-side pending buffer that
/// [`push`](crate::ShardedPJoin::push) drains merged outputs into while
/// the input channel is full. Generous — a single-threaded caller that
/// pushes a whole stream before polling still fits typical test/bench
/// workloads — but finite, so a caller that never polls cannot grow the
/// buffer without limit; past the bound, `push` blocks until a
/// concurrent consumer drains outputs (backpressure).
pub const DEFAULT_PENDING_CAPACITY: usize = 1 << 20;

/// Rejected [`ExecConfig`] construction: the shard count is outside
/// `1..=MAX_SHARDS`. The upper bound is structural — [`Route::mask`]
/// (crate::Route::mask) and the punctuation aligner track shards in a
/// `u64` bitmask, so a 65th shard would shift out of the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecConfigError {
    /// Zero shards requested.
    ZeroShards,
    /// More shards than the `u64` shard bitmask can represent.
    TooManyShards {
        /// The requested shard count.
        got: usize,
        /// The structural maximum ([`MAX_SHARDS`]).
        max: usize,
    },
}

impl std::fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecConfigError::ZeroShards => {
                write!(f, "shard count must be in 1..={MAX_SHARDS}, got 0")
            }
            ExecConfigError::TooManyShards { got, max } => {
                write!(
                    f,
                    "shard count must be in 1..={max}, got {got} (shard bitmasks are u64)"
                )
            }
        }
    }
}

impl std::error::Error for ExecConfigError {}

/// Configuration of a [`ShardedPJoin`](crate::ShardedPJoin).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of shards (parallel PJoin instances), `1..=MAX_SHARDS`.
    pub shards: usize,
    /// The join configuration instantiated *per shard*. Note that
    /// per-shard thresholds (purge threshold, `memory_max_tuples`) apply
    /// to each shard independently, so aggregate limits scale with the
    /// shard count.
    pub join: PJoinConfig,
    /// Merge shard outputs in timestamp order (watermark-based k-way
    /// merge) instead of arrival order. Requires the caller to push
    /// elements in non-decreasing timestamp order.
    pub ordered_merge: bool,
    /// Caller → router channel capacity, in messages.
    pub input_capacity: usize,
    /// Router → shard channel capacity, in batches (per shard).
    pub shard_capacity: usize,
    /// Shards → merger channel capacity, in events.
    pub event_capacity: usize,
    /// Merger → caller channel capacity, in output batches.
    pub output_capacity: usize,
    /// Elements accumulated per shard before the router flushes a batch
    /// (batches also flush whenever the router input runs dry, so idle
    /// latency stays at one scheduling quantum). Defaults to
    /// [`DEFAULT_BATCH_ELEMS`]; `1` flushes every element on its own.
    pub router_batch: usize,
    /// Bound (in elements) on the caller-side pending output buffer;
    /// see [`DEFAULT_PENDING_CAPACITY`].
    pub pending_capacity: usize,
}

impl ExecConfig {
    /// A configuration with default channel sizing, or a typed error when
    /// the shard count is outside `1..=MAX_SHARDS` — the bound guards
    /// `Route::mask`'s `1u64 << shard` from shift overflow.
    pub fn try_new(shards: usize, join: PJoinConfig) -> Result<ExecConfig, ExecConfigError> {
        if shards == 0 {
            return Err(ExecConfigError::ZeroShards);
        }
        if shards > MAX_SHARDS {
            return Err(ExecConfigError::TooManyShards {
                got: shards,
                max: MAX_SHARDS,
            });
        }
        Ok(ExecConfig {
            shards,
            join,
            ordered_merge: false,
            input_capacity: DEFAULT_INPUT_CAPACITY,
            shard_capacity: DEFAULT_SHARD_CAPACITY,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            output_capacity: DEFAULT_OUTPUT_CAPACITY,
            router_batch: DEFAULT_BATCH_ELEMS,
            pending_capacity: DEFAULT_PENDING_CAPACITY,
        })
    }

    /// A configuration with default channel sizing.
    ///
    /// # Panics
    /// If `shards` is zero or exceeds [`MAX_SHARDS`]; use
    /// [`try_new`](Self::try_new) to handle that as a value.
    pub fn new(shards: usize, join: PJoinConfig) -> ExecConfig {
        match ExecConfig::try_new(shards, join) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Enables timestamp-ordered merging of shard outputs.
    pub fn ordered(mut self) -> ExecConfig {
        self.ordered_merge = true;
        self
    }

    /// Overrides the router's flush threshold with `batch.max_elems`.
    pub fn with_batch(mut self, batch: BatchConfig) -> ExecConfig {
        self.router_batch = batch.max_elems;
        self
    }

    /// Overrides the caller-side pending buffer bound (min 1 element).
    pub fn with_pending_capacity(mut self, capacity: usize) -> ExecConfig {
        self.pending_capacity = capacity.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_bounded() {
        let c = ExecConfig::new(4, PJoinConfig::new(2, 2));
        assert_eq!(c.shards, 4);
        assert!(!c.ordered_merge);
        assert!(c.input_capacity > 0);
        assert!(c.shard_capacity > 0);
        assert!(c.event_capacity > 0);
        assert!(c.output_capacity > 0);
        assert!(c.ordered().ordered_merge);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_rejected() {
        ExecConfig::new(0, PJoinConfig::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn too_many_shards_rejected() {
        ExecConfig::new(MAX_SHARDS + 1, PJoinConfig::new(2, 2));
    }

    #[test]
    fn try_new_returns_typed_errors() {
        // Regression: 65 shards used to reach `1u64 << 64` in
        // `Route::mask` (debug panic / release wrap); now it is rejected
        // at construction with a typed error.
        assert_eq!(
            ExecConfig::try_new(0, PJoinConfig::new(2, 2)).err(),
            Some(ExecConfigError::ZeroShards)
        );
        assert_eq!(
            ExecConfig::try_new(MAX_SHARDS + 1, PJoinConfig::new(2, 2)).err(),
            Some(ExecConfigError::TooManyShards {
                got: MAX_SHARDS + 1,
                max: MAX_SHARDS
            })
        );
        assert!(ExecConfig::try_new(MAX_SHARDS, PJoinConfig::new(2, 2)).is_ok());
        let msg = ExecConfigError::TooManyShards { got: 65, max: 64 }.to_string();
        assert!(
            msg.contains("shard count"),
            "panic-compatible message: {msg}"
        );
    }

    #[test]
    fn pending_capacity_is_bounded_and_overridable() {
        let c = ExecConfig::new(2, PJoinConfig::new(2, 2));
        assert_eq!(c.pending_capacity, DEFAULT_PENDING_CAPACITY);
        assert_eq!(c.with_pending_capacity(0).pending_capacity, 1);
        let small = ExecConfig::new(2, PJoinConfig::new(2, 2)).with_pending_capacity(64);
        assert_eq!(small.pending_capacity, 64);
    }

    #[test]
    fn batch_config_drives_router_batch() {
        let c = ExecConfig::new(2, PJoinConfig::new(2, 2))
            .with_batch(punct_types::BatchConfig::with_elems(7));
        assert_eq!(c.router_batch, 7);
        let per_elem = ExecConfig::new(2, PJoinConfig::new(2, 2))
            .with_batch(punct_types::BatchConfig::per_element());
        assert_eq!(per_elem.router_batch, 1);
    }
}

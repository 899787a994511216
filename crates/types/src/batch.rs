//! Batched-execution configuration shared by every layer of the data
//! path.
//!
//! PJoin's framework schedules components per element, and the first
//! reproduction inherited that granularity everywhere: one channel send,
//! one wire frame and one syscall per tuple. Batching amortizes those
//! transport costs — the join itself still runs element by element —
//! without changing observable semantics: punctuations act as flush
//! barriers, so alignment and exactly-once ordering are untouched, and a
//! batch size of `1` reproduces per-element behavior exactly.
//!
//! One [`BatchConfig`] value is threaded through the sharded executor
//! (`punct-exec`: elements staged per router → shard channel send) and
//! the networked transport (`punct-net`: elements per `DataBatch` frame
//! / socket write); the equivalence suites sweep the element cap through
//! it.

/// Default cap on elements per batch (matches the router's historical
/// flush threshold, so default behavior stays familiar).
pub const DEFAULT_BATCH_ELEMS: usize = 128;

/// Default cap on encoded bytes per wire batch: one `DataBatch` frame
/// never asks the peer for more than this in a single allocation, and a
/// socket write stays well under typical send-buffer sizes.
pub const DEFAULT_BATCH_BYTES: usize = 64 * 1024;

/// How aggressively the data path batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum elements staged per batch (router flush threshold,
    /// elements per wire frame). Clamped to at least 1.
    pub max_elems: usize,
    /// Maximum encoded bytes per wire batch. Only the transport layer
    /// consults this (in-process batches move `Arc`ed tuples, not
    /// bytes). Clamped to at least one frame.
    pub max_bytes: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { max_elems: DEFAULT_BATCH_ELEMS, max_bytes: DEFAULT_BATCH_BYTES }
    }
}

impl BatchConfig {
    /// Per-element execution: batch size 1 everywhere — the exact
    /// pre-batching behavior.
    pub const fn per_element() -> BatchConfig {
        BatchConfig { max_elems: 1, max_bytes: DEFAULT_BATCH_BYTES }
    }

    /// A config with the given element cap and the default byte cap.
    pub fn with_elems(max_elems: usize) -> BatchConfig {
        BatchConfig { max_elems: max_elems.max(1), ..BatchConfig::default() }
    }

    /// True when batching is effectively off (per-element execution).
    pub fn is_per_element(&self) -> bool {
        self.max_elems <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BatchConfig::default();
        assert_eq!(c.max_elems, DEFAULT_BATCH_ELEMS);
        assert_eq!(c.max_bytes, DEFAULT_BATCH_BYTES);
        assert!(!c.is_per_element());
    }

    #[test]
    fn per_element_is_batch_one() {
        let c = BatchConfig::per_element();
        assert_eq!(c.max_elems, 1);
        assert!(c.is_per_element());
    }

    #[test]
    fn with_elems_clamps_to_one() {
        assert_eq!(BatchConfig::with_elems(0).max_elems, 1);
        assert_eq!(BatchConfig::with_elems(256).max_elems, 256);
    }
}

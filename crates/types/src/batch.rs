//! Batched-execution configuration shared by every layer of the data
//! path.
//!
//! PJoin's framework schedules components per element, and the first
//! reproduction inherited that granularity everywhere: one channel send,
//! one wire frame and one syscall per tuple. Batching amortizes those
//! transport costs — the join itself still runs element by element —
//! without changing observable semantics: a punctuation stays behind the
//! tuples it covers in every batch it rides, so alignment and
//! exactly-once delivery are untouched. A batch size of `1` flushes
//! every element on its own: one router → shard send and one
//! one-element `DataBatch` frame per element (there is no separate
//! per-element wire frame).
//!
//! One [`BatchConfig`] value is threaded through the sharded executor
//! (`punct-exec`: elements staged per router → shard channel send) and
//! the networked transport (`punct-net`: elements per `DataBatch` frame
//! / socket write); the equivalence suites sweep the element cap through
//! it.

/// Default cap on elements per batch (matches the router's historical
/// flush threshold, so default behavior stays familiar).
pub const DEFAULT_BATCH_ELEMS: usize = 128;

/// How aggressively the data path batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum elements staged per batch (router flush threshold,
    /// elements per wire frame). Clamped to at least 1.
    pub max_elems: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { max_elems: DEFAULT_BATCH_ELEMS }
    }
}

impl BatchConfig {
    /// Per-element execution: batch size 1 everywhere — every element
    /// flushes on its own.
    pub const fn per_element() -> BatchConfig {
        BatchConfig { max_elems: 1 }
    }

    /// A config with the given element cap.
    pub fn with_elems(max_elems: usize) -> BatchConfig {
        BatchConfig { max_elems: max_elems.max(1) }
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

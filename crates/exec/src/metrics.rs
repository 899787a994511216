//! Executor metrics: the [`RuntimeMetrics`] snapshot shape and the
//! per-shard cell that publishes it without locking.
//!
//! Each shard owns a [`ShardMetrics`] of relaxed atomic counters: the
//! shard stores after every batch, the caller loads on every
//! [`shard_metrics`](crate::ShardedPJoin::shard_metrics) snapshot, and
//! nobody waits — monitoring puts no lock on the data path. The one
//! lock — the latency histograms, which are too wide for an atomic — is
//! taken only when tracing is enabled, so the default hot path never
//! touches a mutex to publish metrics.
//!
//! Consistency: each counter is individually exact (it is the shard's
//! own monotone tally), but a snapshot may observe counters from
//! *different* publish points — e.g. `consumed` from a newer batch than
//! `emitted`. Every reader either displays the numbers (live progress
//! meters) or reads them after `finish()`, when the shard threads have
//! been joined and the values are final and mutually consistent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use punct_trace::JoinLatencies;

/// Live metrics of one shard (or, summed, of the whole executor) — the
/// externally visible face of the paper's monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeMetrics {
    /// Elements consumed so far.
    pub consumed: u64,
    /// Tuples currently in the join state.
    pub state_tuples: usize,
    /// Punctuations currently held by the operator's punctuation indexes
    /// ([`PJoin::punctuations_held`](pjoin::PJoin::punctuations_held)).
    pub puncts_held: usize,
    /// Results emitted so far.
    pub emitted: u64,
    /// End-to-end latency histograms (empty unless the operator was
    /// configured with tracing; merged exactly by `+`).
    pub latencies: JoinLatencies,
}

impl std::ops::Add for RuntimeMetrics {
    type Output = RuntimeMetrics;
    fn add(self, rhs: RuntimeMetrics) -> RuntimeMetrics {
        RuntimeMetrics {
            consumed: self.consumed + rhs.consumed,
            state_tuples: self.state_tuples + rhs.state_tuples,
            puncts_held: self.puncts_held + rhs.puncts_held,
            emitted: self.emitted + rhs.emitted,
            latencies: self.latencies + rhs.latencies,
        }
    }
}

impl std::iter::Sum for RuntimeMetrics {
    fn sum<I: Iterator<Item = RuntimeMetrics>>(iter: I) -> RuntimeMetrics {
        iter.fold(RuntimeMetrics::default(), |acc, m| acc + m)
    }
}

/// Lock-free live metrics for one shard. The shard thread stores after
/// each batch; readers snapshot at will.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    consumed: AtomicU64,
    state_tuples: AtomicU64,
    puncts_held: AtomicU64,
    emitted: AtomicU64,
    /// Latency histograms are hundreds of buckets wide — published under
    /// a mutex, but **only when tracing is enabled** (the histograms are
    /// empty otherwise), so the untraced hot path stays lock-free.
    latencies: Mutex<JoinLatencies>,
}

impl ShardMetrics {
    /// A zeroed metrics cell.
    pub fn new() -> ShardMetrics {
        ShardMetrics::default()
    }

    /// Publishes the shard's counters (relaxed stores; the values are
    /// monotone tallies, not synchronization).
    pub fn publish(&self, consumed: u64, state_tuples: usize, puncts_held: usize, emitted: u64) {
        self.consumed.store(consumed, Ordering::Relaxed);
        self.state_tuples.store(state_tuples as u64, Ordering::Relaxed);
        self.puncts_held.store(puncts_held as u64, Ordering::Relaxed);
        self.emitted.store(emitted, Ordering::Relaxed);
    }

    /// Publishes the latency histograms. Called only when tracing is
    /// enabled — the sole lock on the publish path, and deliberately off
    /// the default configuration.
    pub fn publish_latencies(&self, latencies: &JoinLatencies) {
        *self.latencies.lock().expect("latencies lock") = *latencies;
    }

    /// A point-in-time copy in the runtime's metrics shape.
    pub fn snapshot(&self) -> RuntimeMetrics {
        RuntimeMetrics {
            consumed: self.consumed.load(Ordering::Relaxed),
            state_tuples: self.state_tuples.load(Ordering::Relaxed) as usize,
            puncts_held: self.puncts_held.load(Ordering::Relaxed) as usize,
            emitted: self.emitted.load(Ordering::Relaxed),
            latencies: *self.latencies.lock().expect("latencies lock"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_aggregate_by_sum() {
        let a = RuntimeMetrics { consumed: 1, state_tuples: 2, emitted: 3, ..Default::default() };
        let b =
            RuntimeMetrics { consumed: 10, state_tuples: 20, emitted: 30, ..Default::default() };
        let total: RuntimeMetrics = [a, b].into_iter().sum();
        assert_eq!(
            total,
            RuntimeMetrics { consumed: 11, state_tuples: 22, emitted: 33, ..Default::default() }
        );
    }

    #[test]
    fn publish_then_snapshot_round_trips() {
        let m = ShardMetrics::new();
        assert_eq!(m.snapshot().consumed, 0);
        m.publish(10, 7, 4, 3);
        let snap = m.snapshot();
        assert_eq!(snap.consumed, 10);
        assert_eq!(snap.state_tuples, 7);
        assert_eq!(snap.puncts_held, 4);
        assert_eq!(snap.emitted, 3);
    }

    #[test]
    fn latencies_publish_is_separate() {
        let m = ShardMetrics::new();
        let mut lat = JoinLatencies::new();
        lat.tuple_emit.record(5);
        m.publish_latencies(&lat);
        assert_eq!(m.snapshot().latencies, lat);
    }
}

//! A multi-threaded runtime mirroring the paper's execution model: the
//! memory join runs as the main worker thread, consuming elements from
//! the inputs, while the monitor's status is shared with the outside
//! world — "the memory join runs as the main thread … the listeners of
//! the event … will start running as a second thread" (§3.6).
//!
//! The deterministic experiments use the single-threaded
//! [`Driver`](stream_sim::Driver); this runtime exists for live /
//! interactive use (see `examples/auction.rs`) and demonstrates the
//! operator behind a channel API: callers push timestamped elements and
//! receive join output asynchronously.

use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use punct_trace::JoinLatencies;
use punct_types::{StreamElement, Timestamp, Timestamped};
use std::sync::Arc;
use stream_sim::{BinaryStreamOp, OpOutput, Side};

use crate::config::PJoinConfig;
use crate::operator::{PJoin, PJoinStats};

/// Default bound of the input command channel.
pub const DEFAULT_INPUT_CAPACITY: usize = 1024;

/// Default bound of the output channel. Large enough that moderate
/// workloads never block the worker, small enough that a result set
/// cannot accumulate without bound when the consumer stalls.
pub const DEFAULT_OUTPUT_CAPACITY: usize = 65_536;

/// Commands accepted by the worker.
enum Input {
    Element(Side, Timestamped<StreamElement>),
    /// Many elements in one channel send (see [`PJoinRuntime::push_batch`]).
    Batch(Vec<(Side, Timestamped<StreamElement>)>),
    RequestPropagation,
    Finish,
}

/// Live runtime metrics, updated by the worker after every element —
/// the externally visible face of the paper's monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeMetrics {
    /// Elements consumed so far.
    pub consumed: u64,
    /// Tuples currently in the join state.
    pub state_tuples: usize,
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
            emitted: self.emitted + rhs.emitted,
            latencies: self.latencies + rhs.latencies,
        }
    }
}

impl std::ops::AddAssign for RuntimeMetrics {
    fn add_assign(&mut self, rhs: RuntimeMetrics) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for RuntimeMetrics {
    fn sum<I: Iterator<Item = RuntimeMetrics>>(iter: I) -> RuntimeMetrics {
        iter.fold(RuntimeMetrics::default(), |acc, m| acc + m)
    }
}

/// Handle to a running threaded PJoin.
pub struct PJoinRuntime {
    input_tx: Sender<Input>,
    output_rx: Receiver<Timestamped<StreamElement>>,
    metrics: Arc<Mutex<RuntimeMetrics>>,
    handle: JoinHandle<PJoinStats>,
}

impl PJoinRuntime {
    /// Spawns the worker thread with the default channel capacities.
    pub fn spawn(config: PJoinConfig) -> PJoinRuntime {
        PJoinRuntime::spawn_with_capacities(
            config,
            DEFAULT_INPUT_CAPACITY,
            DEFAULT_OUTPUT_CAPACITY,
        )
    }

    /// Spawns the worker thread with explicit input/output channel bounds.
    ///
    /// Both channels are bounded: a consumer that stops polling
    /// eventually blocks the worker, and through the full input channel
    /// blocks the producer — backpressure instead of unbounded result
    /// buffering. A producer that also owns the consuming end (the
    /// single-threaded push-everything pattern) must either interleave
    /// [`poll_outputs`](Self::poll_outputs) or size `output_capacity`
    /// for the result volume of the feed phase; [`finish`](Self::finish)
    /// drains while signalling and so never deadlocks.
    pub fn spawn_with_capacities(
        config: PJoinConfig,
        input_capacity: usize,
        output_capacity: usize,
    ) -> PJoinRuntime {
        let (input_tx, input_rx) = bounded::<Input>(input_capacity.max(1));
        let (output_tx, output_rx) = bounded::<Timestamped<StreamElement>>(output_capacity.max(1));
        let metrics = Arc::new(Mutex::new(RuntimeMetrics::default()));
        let metrics_worker = Arc::clone(&metrics);
        let handle = std::thread::spawn(move || {
            worker(config, input_rx, output_tx, metrics_worker)
        });
        PJoinRuntime { input_tx, output_rx, metrics, handle }
    }

    /// Feeds one element, blocking while the input buffer is full
    /// (backpressure from a stalled worker or consumer).
    pub fn push(&self, side: Side, element: Timestamped<StreamElement>) {
        self.input_tx
            .send(Input::Element(side, element))
            .expect("worker alive while runtime handle exists");
    }

    /// Feeds many elements with one channel send, amortizing the channel
    /// cost. Semantics are identical to pushing the elements one by one.
    pub fn push_batch(&self, items: Vec<(Side, Timestamped<StreamElement>)>) {
        if items.is_empty() {
            return;
        }
        self.input_tx
            .send(Input::Batch(items))
            .expect("worker alive while runtime handle exists");
    }

    /// Blocking drain: waits up to `max_wait` for an output, then keeps
    /// collecting until the channel is momentarily empty. Complements the
    /// non-blocking [`poll_outputs`](Self::poll_outputs) for consumers
    /// that batch their reads.
    pub fn drain(&self, max_wait: std::time::Duration) -> Vec<Timestamped<StreamElement>> {
        let mut out = Vec::new();
        if let Ok(e) = self.output_rx.recv_timeout(max_wait) {
            out.push(e);
            while let Ok(e) = self.output_rx.try_recv() {
                out.push(e);
            }
        }
        out
    }

    /// Pull-mode propagation request.
    pub fn request_propagation(&self) {
        let _ = self.input_tx.send(Input::RequestPropagation);
    }

    /// Non-blocking drain of currently available outputs.
    pub fn poll_outputs(&self) -> Vec<Timestamped<StreamElement>> {
        let mut out = Vec::new();
        while let Ok(e) = self.output_rx.try_recv() {
            out.push(e);
        }
        out
    }

    /// Current runtime metrics snapshot.
    pub fn metrics(&self) -> RuntimeMetrics {
        *self.metrics.lock()
    }

    /// Signals end-of-streams, drains all remaining outputs and returns
    /// them together with the final operator statistics.
    ///
    /// Drain-while-feeding: the worker may be blocked on a full output
    /// buffer (bounded channel), so outputs are consumed while the
    /// `Finish` command waits for space in the input channel — the two
    /// bounded channels cannot deadlock against each other.
    pub fn finish(self) -> (Vec<Timestamped<StreamElement>>, PJoinStats) {
        let mut outputs = Vec::new();
        let mut signal = Some(Input::Finish);
        while let Some(msg) = signal.take() {
            match self.input_tx.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    signal = Some(msg);
                    // Make room: consume the output the worker is
                    // blocked flushing (timeout covers the race where
                    // it is still mid-element).
                    if let Ok(e) =
                        self.output_rx.recv_timeout(std::time::Duration::from_millis(1))
                    {
                        outputs.push(e);
                    }
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        drop(self.input_tx);
        // Drain until the worker closes the channel.
        while let Ok(e) = self.output_rx.recv() {
            outputs.push(e);
        }
        let stats = self.handle.join().expect("worker must not panic");
        (outputs, stats)
    }
}

fn worker(
    config: PJoinConfig,
    input_rx: Receiver<Input>,
    output_tx: Sender<Timestamped<StreamElement>>,
    metrics: Arc<Mutex<RuntimeMetrics>>,
) -> PJoinStats {
    let mut join = PJoin::new(config);
    let mut out = OpOutput::new();
    let mut last_ts = Timestamp::ZERO;
    let mut emitted = 0u64;
    let mut consumed = 0u64;
    let idle_wait = std::time::Duration::from_millis(1);

    loop {
        match input_rx.recv_timeout(idle_wait) {
            Ok(Input::Element(side, e)) => {
                last_ts = last_ts.max(e.ts);
                join.on_element(side, e.item, e.ts, &mut out);
                consumed += 1;
            }
            Ok(Input::Batch(items)) => {
                // One channel receive, then exactly the `Element` arm per
                // item, so outputs carry the same timestamps either way.
                for (side, e) in items {
                    last_ts = last_ts.max(e.ts);
                    join.on_element(side, e.item, e.ts, &mut out);
                    consumed += 1;
                    flush(&mut out, last_ts, &output_tx, &mut emitted);
                }
            }
            Ok(Input::RequestPropagation) => {
                join.request_propagation();
                // Handled by the monitor at the next dispatch.
                join.on_idle(last_ts, &mut out);
            }
            Ok(Input::Finish) => {
                while join.on_end(last_ts, &mut out) {
                    flush(&mut out, last_ts, &output_tx, &mut emitted);
                }
                flush(&mut out, last_ts, &output_tx, &mut emitted);
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle gap: offer background work (disk join, time-based
                // propagation) exactly like the paper's second thread.
                join.on_idle(last_ts, &mut out);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        flush(&mut out, last_ts, &output_tx, &mut emitted);
        {
            let mut m = metrics.lock();
            m.consumed = consumed;
            m.state_tuples = join.state_tuples();
            m.emitted = emitted;
            if join.tracing_enabled() {
                m.latencies = *join.latencies();
            }
        }
    }
    drop(output_tx);
    *join.stats()
}

fn flush(
    out: &mut OpOutput,
    ts: Timestamp,
    tx: &Sender<Timestamped<StreamElement>>,
    emitted: &mut u64,
) {
    for e in out.drain() {
        *emitted += 1;
        if tx.send(Timestamped::new(ts, e)).is_err() {
            return; // receiver gone; drop remaining output
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Punctuation, Tuple};

    fn tup(ts: u64, k: i64, p: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(ts), StreamElement::Tuple(Tuple::of((k, p))))
    }

    fn punct(ts: u64, k: i64) -> Timestamped<StreamElement> {
        Timestamped::new(
            Timestamp(ts),
            StreamElement::Punctuation(Punctuation::close_value(2, 0, k)),
        )
    }

    #[test]
    fn joins_across_threads() {
        let rt = PJoinRuntime::spawn(PJoinConfig::new(2, 2));
        rt.push(Side::Left, tup(1, 7, 0));
        rt.push(Side::Right, tup(2, 7, 1));
        rt.push(Side::Left, tup(3, 8, 0));
        let (outputs, _stats) = rt.finish();
        let tuples: Vec<_> = outputs.iter().filter(|e| e.item.is_tuple()).collect();
        assert_eq!(tuples.len(), 1);
    }

    #[test]
    fn propagates_punctuations() {
        let config = PJoinConfig {
            purge: crate::config::PurgeStrategy::Eager,
            index_build: crate::config::IndexBuildStrategy::Eager,
            propagation: crate::config::PropagationTrigger::PushCount { count: 1 },
            ..PJoinConfig::new(2, 2)
        };
        let rt = PJoinRuntime::spawn(config);
        rt.push(Side::Left, tup(1, 7, 0));
        rt.push(Side::Right, tup(2, 7, 1));
        rt.push(Side::Left, punct(3, 7));
        rt.push(Side::Right, punct(4, 7));
        let (outputs, stats) = rt.finish();
        let puncts = outputs.iter().filter(|e| e.item.is_punctuation()).count();
        assert!(puncts >= 2, "both punctuations propagate, got {puncts}");
        assert!(stats.puncts_propagated >= 2);
    }

    #[test]
    fn tiny_output_buffer_blocks_worker_but_finish_drains() {
        // Four stored left tuples make one right arrival emit four
        // results at once — more than the output buffer holds, so the
        // worker blocks mid-flush. finish() must still drain everything.
        let rt = PJoinRuntime::spawn_with_capacities(PJoinConfig::new(2, 2), 8, 2);
        for i in 0..4u64 {
            rt.push(Side::Left, tup(i, 7, i as i64));
        }
        rt.push(Side::Right, tup(5, 7, 99));
        let (outputs, _stats) = rt.finish();
        let tuples = outputs.iter().filter(|e| e.item.is_tuple()).count();
        assert_eq!(tuples, 4);
    }

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
    fn latencies_flow_through_runtime_metrics() {
        let config = PJoinConfig {
            purge: crate::config::PurgeStrategy::Eager,
            index_build: crate::config::IndexBuildStrategy::Eager,
            propagation: crate::config::PropagationTrigger::PushCount { count: 1 },
            ..PJoinConfig::new(2, 2)
        }
        .with_tracing();
        let rt = PJoinRuntime::spawn(config);
        rt.push(Side::Left, tup(1_000, 7, 0));
        rt.push(Side::Right, tup(2_000, 7, 1));
        rt.push(Side::Left, punct(3_000, 7));
        rt.push(Side::Right, punct(4_000, 7));
        // Wait until all four inputs are consumed so the metrics snapshot
        // is final before finish() tears the runtime down.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while rt.metrics().consumed < 4 {
            assert!(std::time::Instant::now() < deadline, "worker did not process in time");
            std::thread::yield_now();
        }
        let m = rt.metrics();
        assert_eq!(m.latencies.tuple_emit.count(), 1, "one join result");
        // The left tuple (t=1000) was stored 1000 µs before the right
        // arrival joined it.
        assert_eq!(m.latencies.tuple_emit.max(), 1_000);
        let _ = rt.finish();
    }

    #[test]
    fn metrics_are_visible() {
        let rt = PJoinRuntime::spawn(PJoinConfig::new(2, 2));
        rt.push(Side::Left, tup(1, 1, 0));
        // Wait for the worker to process.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if rt.metrics().consumed >= 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "worker did not process in time");
            std::thread::yield_now();
        }
        assert_eq!(rt.metrics().state_tuples, 1);
        let _ = rt.finish();
    }
}

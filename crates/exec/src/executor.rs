//! The sharded executor: public handle over the router and shard worker
//! threads.
//!
//! # Topology
//!
//! ```text
//! caller ──bounded──▶ router ──bounded×N──▶ shard₀..N₋₁ ──shared bounded──▶ caller
//!                       │                        ▲
//!                       ├── single-target counts ┤ per shard, atomics
//!                       └── aligner (mutex) ─────┘ shared; fan-out > 1 only
//! ```
//!
//! Every channel is bounded, so state cannot grow without limit inside
//! the pipeline — backpressure propagates from the caller's consumption
//! rate all the way to [`ShardedPJoin::push`]. The *one* unbounded
//! buffer is the caller-side `pending` vector that `push` drains
//! outputs into when the input channel is full: a single-threaded caller
//! that pushes an entire stream before polling must park results
//! somewhere, and parking them caller-side (where the caller can drain
//! them at will via [`poll_outputs`]) is the only deadlock-free option.
//! Callers that poll concurrently keep it empty.
//!
//! [`poll_outputs`]: ShardedPJoin::poll_outputs

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use pjoin::framework::FrameworkProfile;
use pjoin::PJoinStats;
use punct_trace::TraceLog;
use punct_types::{StreamElement, Timestamped};
use stream_sim::{Side, Work};

use crate::align::{AlignReport, SharedAligner};
use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::metrics::{RuntimeMetrics, ShardMetrics};
use crate::router::{router_loop, RouterCounters, RouterMsg, RouterReport};
use crate::shard::{shard_loop, Batch, Outlet, RoutedElement, ShardMsg, ShardReport};

/// The first lane failure, shared by the lane threads (writers) and the
/// executor handle (reader). The flag makes the no-failure fast path a
/// single relaxed-ish atomic load; the mutex is touched only to record
/// or read an actual error.
#[derive(Debug, Default)]
struct FailureSlot {
    failed: std::sync::atomic::AtomicBool,
    error: Mutex<Option<ExecError>>,
}

impl FailureSlot {
    /// Records the first failure (later ones are dropped — the first
    /// cause is the one worth reporting).
    fn record(&self, err: ExecError) {
        let mut slot = self.error.lock().expect("failure slot");
        if slot.is_none() {
            *slot = Some(err);
        }
        self.failed.store(true, Ordering::Release);
    }

    fn get(&self) -> Option<ExecError> {
        if !self.failed.load(Ordering::Acquire) {
            return None;
        }
        self.error.lock().expect("failure slot").clone()
    }
}

/// Stringifies a caught panic payload (the two shapes `panic!` produces,
/// with a fallback for exotic payloads).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Final accounting for a sharded run.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Router counters.
    pub router: RouterReport,
    /// The shards' alignment tallies summed, with the aligner's
    /// incomplete expectations added to `puncts_unaligned`.
    pub align: AlignReport,
    /// The router thread's trace (empty unless tracing was enabled).
    pub router_trace: TraceLog,
    /// Lifetime acquisitions of the shared aligner mutex — the only
    /// lock on the data path, taken only for punctuations that fan out
    /// to more than one shard (a single-target punctuation is audited by
    /// per-shard count instead), plus once by `finish`.
    /// Benches divide this by the element count to report lock traffic.
    pub aligner_acquisitions: u64,
    /// The first lane failure, if any. When set, `shards` omits the
    /// report of any shard that died and the output stream is
    /// incomplete — treat the run as failed.
    pub failure: Option<ExecError>,
}

impl ExecStats {
    /// Join statistics aggregated over all shards.
    pub fn total_stats(&self) -> PJoinStats {
        self.shards.iter().map(|s| s.stats).sum()
    }

    /// Runtime metrics aggregated over all shards. Latency histograms
    /// merge exactly (element-wise bucket addition), so for a workload
    /// whose keys and closing punctuations co-locate they equal the
    /// single-threaded operator's regardless of shard count.
    pub fn total_metrics(&self) -> RuntimeMetrics {
        self.shards.iter().map(|s| s.metrics).sum()
    }

    /// Total modeled work over all shards.
    pub fn total_work(&self) -> Work {
        self.shards.iter().fold(Work::ZERO, |acc, s| acc + s.work)
    }

    /// The virtual-time critical path under `cost`: the most heavily
    /// loaded shard's modeled nanoseconds. With perfect balance this
    /// approaches `total / shards` — the quantity the shard-scaling
    /// bench reports.
    pub fn critical_path_nanos(&self, cost: &stream_sim::CostModel) -> u64 {
        self.shards
            .iter()
            .map(|s| cost.nanos(&s.work))
            .max()
            .unwrap_or(0)
    }

    /// Framework profiles merged over all shards.
    pub fn total_profile(&self) -> FrameworkProfile {
        let mut total = FrameworkProfile::new();
        for s in &self.shards {
            total.merge(&s.profile);
        }
        total
    }

    /// Every lane's trace events (shards, router) merged into one log
    /// and sorted by wall time.
    pub fn all_trace_events(&self) -> TraceLog {
        let mut log = TraceLog::default();
        for s in &self.shards {
            log.merge(s.trace.clone());
        }
        log.merge(self.router_trace.clone());
        log.sort_by_wall();
        log
    }

    /// The run's merged trace in JSON-lines form (one event per line).
    pub fn trace_jsonl(&self) -> String {
        punct_trace::jsonl(&self.all_trace_events().events)
    }

    /// The run's merged trace in Chrome `trace_event` form — load it in
    /// `chrome://tracing` or Perfetto; each shard and the router is its
    /// own named thread row.
    pub fn chrome_trace(&self) -> String {
        punct_trace::chrome_trace(&self.all_trace_events().events)
    }
}

/// An N-shard parallel PJoin.
///
/// Tuples are hash-partitioned by join key onto `N` independent
/// [`PJoin`](pjoin::PJoin) instances, each on its own thread;
/// punctuations fan out to the shards they affect and are re-aligned on
/// the way out so the output stream carries each exactly once. See the
/// crate docs for the full architecture.
pub struct ShardedPJoin {
    input: Sender<RouterMsg>,
    /// The output stream every shard sends into. Guarded by a mutex so
    /// the handle is `Sync` — the backpressure story requires a consumer
    /// thread to drain outputs concurrently with a producer thread
    /// pushing (see [`ExecConfig::pending_capacity`]). The lock is per
    /// shard *batch*, never per element, so it stays off the tuple hot
    /// path.
    output: Mutex<Receiver<Batch>>,
    /// Outputs drained by `push` while the input channel was full,
    /// bounded at `pending_capacity` elements (see [`ExecConfig`]).
    pending: Mutex<Vec<Timestamped<StreamElement>>>,
    pending_capacity: usize,
    shard_metrics: Vec<Arc<ShardMetrics>>,
    aligner: Arc<SharedAligner>,
    router_counters: Arc<RouterCounters>,
    failure: Arc<FailureSlot>,
    /// Direct senders to the shard channels, kept only for the
    /// fault-injection kill hook; the data path goes through the router.
    shard_txs: Vec<Sender<ShardMsg>>,
    router: Option<JoinHandle<TraceLog>>,
    workers: Vec<JoinHandle<Option<ShardReport>>>,
    shards: usize,
}

impl ShardedPJoin {
    /// Spawns the router and `config.shards` shard workers.
    pub fn spawn(config: ExecConfig) -> ShardedPJoin {
        // Pin the wall-clock trace epoch before any lane thread starts,
        // so every lane stamps against a base that predates its first
        // event (harmless when tracing is off).
        punct_trace::wall_epoch();
        let shards = config.shards;
        let aligner = Arc::new(SharedAligner::new());
        let router_counters = Arc::new(RouterCounters::new(shards));
        let failure = Arc::new(FailureSlot::default());

        let (input_tx, input_rx) = bounded::<RouterMsg>(config.input_capacity);
        let (output_tx, output_rx) = bounded(config.output_capacity);
        // Drained batch buffers flow back from shards to the router here,
        // so the steady-state data path cycles a fixed pool of
        // `Vec<RoutedElement>` allocations. Sized to a few buffers per
        // shard; overflow just drops the buffer (the router reallocates).
        let (recycle_tx, recycle_rx) = bounded::<Vec<RoutedElement>>(shards * 4);

        let mut shard_txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut shard_metrics = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded(config.shard_capacity);
            shard_txs.push(tx);
            let metrics = Arc::new(ShardMetrics::new());
            shard_metrics.push(Arc::clone(&metrics));
            let join_config = config.join.clone();
            let outlet = Outlet::new(
                shard,
                shards,
                config.join.clone(),
                output_tx.clone(),
                Arc::clone(&aligner),
                Arc::clone(&router_counters),
            );
            let recycle = recycle_tx.clone();
            let slot = Arc::clone(&failure);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pjoin-shard-{shard}"))
                    .spawn(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            shard_loop(shard, join_config, rx, outlet, recycle, metrics)
                        }));
                        // A dead shard's output sender dropped while it
                        // unwound, so `finish` cannot hang waiting on it;
                        // publish the failure promptly.
                        result
                            .map_err(|payload| {
                                slot.record(ExecError::ShardPanicked {
                                    shard,
                                    message: panic_message(payload.as_ref()),
                                })
                            })
                            .ok()
                    })
                    .expect("spawn shard thread"),
            );
        }
        drop(output_tx); // the output channel closes when the last shard exits
        drop(recycle_tx); // router's recycle pool drains once shards exit

        let kill_txs = shard_txs.clone();
        let router = {
            let join_config = config.join.clone();
            let aligner = Arc::clone(&aligner);
            let counters = Arc::clone(&router_counters);
            let slot = Arc::clone(&failure);
            let batch = config.router_batch.max(1);
            std::thread::Builder::new()
                .name("pjoin-router".into())
                .spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        router_loop(
                            join_config,
                            shards,
                            batch,
                            input_rx,
                            shard_txs,
                            recycle_rx,
                            aligner,
                            counters,
                        )
                    }));
                    result.unwrap_or_else(|_| {
                        slot.record(ExecError::RouterExited);
                        TraceLog::default()
                    })
                })
                .expect("spawn router thread")
        };

        ShardedPJoin {
            input: input_tx,
            output: Mutex::new(output_rx),
            pending: Mutex::new(Vec::new()),
            pending_capacity: config.pending_capacity.max(1),
            shard_metrics,
            aligner,
            router_counters,
            failure,
            shard_txs: kill_txs,
            router: Some(router),
            workers,
            shards,
        }
    }

    /// The first lane failure, if any — available the moment a shard
    /// dies, not only at `finish`. A non-`None` result means output is
    /// incomplete and further feeding is pointless.
    pub fn failure(&self) -> Option<ExecError> {
        self.failure.get()
    }

    /// Fault-injection hook: panic a shard thread. Exercises the same
    /// failure path a real shard panic takes (operator bug, allocation
    /// failure); used by the failure-propagation regression tests and
    /// the cluster equivalence gate.
    #[doc(hidden)]
    pub fn debug_kill_shard(&self, shard: usize) {
        let _ = self.shard_txs[shard].send(ShardMsg::Die);
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Feeds one element. Never deadlocks: if the input channel is full,
    /// outputs are drained into the pending buffer (see crate
    /// docs) until space frees up.
    ///
    /// # Panics
    ///
    /// Panics with the lane's [`ExecError`] if the pipeline has failed
    /// (e.g. a shard thread died) — loud beats silently feeding a
    /// pipeline that drops the dead shard's keys. Fallible callers use
    /// [`try_push`](ShardedPJoin::try_push).
    pub fn push(&self, side: Side, element: Timestamped<StreamElement>) {
        self.feed_or_panic(RouterMsg::One(side, element));
    }

    /// Feeds a batch of elements in arrival order. Panics on pipeline
    /// failure, like [`push`](ShardedPJoin::push).
    pub fn push_batch(&self, batch: Vec<(Side, Timestamped<StreamElement>)>) {
        if !batch.is_empty() {
            self.feed_or_panic(RouterMsg::Batch(batch));
        }
    }

    /// Fallible [`push`](ShardedPJoin::push): returns the lane failure
    /// instead of panicking, as soon as one is recorded — a dead shard
    /// surfaces on the *next* push, not at `finish`.
    pub fn try_push(
        &self,
        side: Side,
        element: Timestamped<StreamElement>,
    ) -> Result<(), ExecError> {
        self.feed(RouterMsg::One(side, element))
    }

    fn feed_or_panic(&self, msg: RouterMsg) {
        if let Err(err) = self.feed(msg) {
            panic!("sharded executor failed: {err}");
        }
    }

    fn feed(&self, msg: RouterMsg) -> Result<(), ExecError> {
        let mut msg = Some(msg);
        while let Some(m) = msg.take() {
            if let Some(err) = self.failure.get() {
                return Err(err);
            }
            match self.input.try_send(m) {
                Ok(()) => {}
                Err(TrySendError::Full(m)) => {
                    msg = Some(m);
                    let room =
                        self.pending.lock().expect("pending lock").len() < self.pending_capacity;
                    let output = if room { self.try_output() } else { None };
                    match output {
                        // Make room by consuming pipeline output: block
                        // briefly for one shard batch.
                        Some(output) => {
                            if let Ok(batch) =
                                output.recv_timeout(std::time::Duration::from_millis(1))
                            {
                                adopt(&mut self.pending.lock().expect("pending lock"), batch);
                            }
                        }
                        // Pending buffer at capacity, or a consumer is
                        // inside `recv_outputs`: stop absorbing output
                        // and apply backpressure to the caller instead,
                        // while the concurrent consumer drains.
                        None => std::thread::sleep(std::time::Duration::from_micros(200)),
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    return Err(self.failure.get().unwrap_or(ExecError::RouterExited));
                }
            }
        }
        Ok(())
    }

    /// The output stream, unless another thread holds it: that thread is
    /// a consumer inside `recv_outputs` (or a producer taking one batch in
    /// `feed`), so the queue is being drained either way and a
    /// non-blocking caller has nothing to wait for.
    fn try_output(&self) -> Option<MutexGuard<'_, Receiver<Batch>>> {
        match self.output.try_lock() {
            Ok(output) => Some(output),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("output lock poisoned"),
        }
    }

    /// Elements currently parked in the caller-side pending buffer
    /// (bounded by [`ExecConfig::pending_capacity`]).
    pub fn pending_len(&self) -> usize {
        self.pending.lock().expect("pending lock").len()
    }

    /// Feeds a batch of same-side elements in arrival order without
    /// re-tagging each element with its side — the zero-copy entry the
    /// networked pipeline uses to hand a decoded `DataBatch` frame's
    /// elements straight to the router.
    pub fn push_side_batch(&self, side: Side, batch: Vec<Timestamped<StreamElement>>) {
        if !batch.is_empty() {
            self.feed_or_panic(RouterMsg::SideBatch(side, batch));
        }
    }

    /// Total acquisitions of the shared aligner mutex so far — the only
    /// lock on the router → shard → caller data path, taken only for
    /// punctuations that fan out to several shards. Exposed so benches
    /// can report lock traffic per element (zero for tuple-only
    /// workloads and for constant join-attribute punctuations).
    pub fn aligner_acquisitions(&self) -> u64 {
        self.aligner.acquisitions()
    }

    /// Drains everything the executor has produced so far, in arrival
    /// order (non-blocking): the pending buffer, then whatever the shards
    /// have queued — unless another thread is inside
    /// [`recv_outputs`](ShardedPJoin::recv_outputs), which then is the
    /// one draining the queue. The first batch becomes the returned
    /// `Vec`; later ones are appended to it.
    pub fn poll_outputs(&self) -> Vec<Timestamped<StreamElement>> {
        let mut drained = std::mem::take(&mut *self.pending.lock().expect("pending lock"));
        if let Some(output) = self.try_output() {
            while let Ok(batch) = output.try_recv() {
                adopt(&mut drained, batch);
            }
        }
        drained
    }

    /// Like [`poll_outputs`](ShardedPJoin::poll_outputs), but blocks up
    /// to `timeout` for the first batch when nothing is available yet.
    /// Used by pull-style consumers (the networked sink publisher) to
    /// avoid spinning on an empty pipeline.
    pub fn recv_outputs(&self, timeout: std::time::Duration) -> Vec<Timestamped<StreamElement>> {
        let mut drained = self.poll_outputs();
        if drained.is_empty() {
            let output = self.output.lock().expect("output lock");
            if let Ok(batch) = output.recv_timeout(timeout) {
                drained = batch;
                // Whatever else is already queued comes along for free.
                while let Ok(batch) = output.try_recv() {
                    drained.extend(batch);
                }
            }
        }
        drained
    }

    /// A live snapshot of each shard's runtime metrics, indexed by
    /// shard. Lock-free on the shard side: the values are relaxed atomic
    /// loads of each shard's published counters.
    pub fn shard_metrics(&self) -> Vec<RuntimeMetrics> {
        self.shard_metrics.iter().map(|m| m.snapshot()).collect()
    }

    /// Live metrics aggregated over all shards.
    pub fn metrics(&self) -> RuntimeMetrics {
        self.shard_metrics().into_iter().sum()
    }

    /// Tuples routed so far (live router counter).
    pub fn tuples_routed(&self) -> u64 {
        self.router_counters.tuples.load(Ordering::Relaxed)
    }

    /// Signals end of input, drains every channel and joins all threads.
    /// Returns the remaining outputs (after those already polled) and
    /// the final accounting. Deadlock-free: the finish signal is fed
    /// with the same drain-while-feeding loop as `push`, and the output
    /// channel is drained until the last shard hangs up.
    pub fn finish(mut self) -> (Vec<Timestamped<StreamElement>>, ExecStats) {
        // Failure here is fine: dropping the input sender below makes
        // the router flush and finish the shards anyway.
        let _ = self.feed(RouterMsg::Finish);
        // Dropping the sender lets the router exit even if the finish
        // message were lost; it is also what terminates `recv` below
        // once every shard finishes and drops its output sender.
        drop(std::mem::replace(&mut self.input, {
            // Replace with a dummy closed sender so Drop stays trivial.
            let (tx, _rx) = bounded(1);
            tx
        }));
        // The fault-injection senders would hold the shard channels open
        // if the router died before sending `Finish`; without them a
        // shard sees its channel close and finishes anyway.
        self.shard_txs.clear();

        let mut outputs = std::mem::take(&mut *self.pending.lock().expect("pending lock"));
        {
            let output = self.output.lock().expect("output lock");
            while let Ok(batch) = output.recv() {
                adopt(&mut outputs, batch);
            }
        }

        let router = self.router.take().expect("router handle");
        let router_trace = router.join().expect("router thread panicked");
        // A shard that panicked returns None (its panic was caught and
        // recorded in the failure slot); its report is simply absent.
        let mut shard_reports: Vec<ShardReport> = std::mem::take(&mut self.workers)
            .into_iter()
            .filter_map(|w| w.join().expect("shard wrapper panicked"))
            .collect();
        shard_reports.sort_by_key(|r| r.shard);
        // Every shard is joined, so the aligner's open expectations are
        // final: each is a fanned-out punctuation some target shard never
        // propagated.
        let open = AlignReport {
            puncts_unaligned: self.aligner.lock().pending_len() as u64,
            ..AlignReport::default()
        };
        let align = shard_reports.iter().fold(open, |sum, r| sum + r.align);

        let stats = ExecStats {
            shards: shard_reports,
            router: self.router_counters.report(),
            align,
            router_trace,
            aligner_acquisitions: self.aligner.acquisitions(),
            failure: self.failure.get(),
        };
        // Audit the lock-light invariant: the aligner mutex is the only
        // lock shared across the pipeline, and it must be acquired only
        // for punctuations that fan out — once by the router per such
        // punctuation, at most `shards` times by the shards per such
        // punctuation (one observation per target shard), plus the one
        // final audit above. Single-target punctuations never
        // take it. The bound is independent of the tuple count and of the
        // single-target count, so a per-tuple or per-punctuation locking
        // regression trips it.
        if cfg!(debug_assertions) {
            let fanned_out = stats.router.puncts_multicast + stats.router.puncts_broadcast;
            let bound = fanned_out * (self.shards as u64 + 1) + 1;
            let acquisitions = stats.aligner_acquisitions;
            debug_assert!(
                acquisitions <= bound,
                "aligner mutex acquired {acquisitions} times for {fanned_out} fanned-out \
                 punctuations on {} shards (bound {bound}): the tuple path and single-target \
                 punctuations must stay lock-free",
                self.shards,
            );
        }
        (outputs, stats)
    }
}

/// Appends `batch` to `buffer` — by taking the allocation over when the
/// buffer holds nothing, so a batch that is drained alone is never copied.
fn adopt(buffer: &mut Batch, batch: Batch) {
    if buffer.is_empty() {
        *buffer = batch;
    } else {
        buffer.extend(batch);
    }
}

/// The handle is shared across producer and consumer threads — the
/// bounded-pending backpressure contract depends on it (a producer at
/// the pending cap waits for a concurrent `poll_outputs`). Keep that
/// statically true.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedPJoin>();
};

impl Drop for ShardedPJoin {
    fn drop(&mut self) {
        // Finish was not called (or panicked): unblock the pipeline so
        // the threads can exit, then detach them. Closing the input side
        // cascades: router exits → shard channels close → shards exit.
        // The output receiver drops with the handle, so a shard blocked
        // on a full output channel wakes to a closed one and exits too.
        if self.router.is_some() {
            let (closed_tx, _rx) = bounded(1);
            let _ = std::mem::replace(&mut self.input, closed_tx);
        }
    }
}

//! The cluster coordinator: owner of the shard map, router of the data
//! plane, and conductor of punctuation-coordinated repartitioning.
//!
//! One [`Cluster`] value is the whole control surface: it accepts worker
//! handshakes, routes every pushed element to the worker owning its
//! shard (through per-worker fault-tolerant [`StreamSender`]s, optionally
//! behind a [`FaultProxy`]), merges worker sinks into one output stream,
//! and aligns punctuation propagations across workers so the merged
//! stream carries each ingested punctuation **exactly once** — the
//! cluster is indistinguishable from one single-threaded PJoin to a
//! downstream consumer, modulo output order.
//!
//! ## The migration state machine
//!
//! [`Cluster::repartition`] runs one synchronous epoch change:
//!
//! 1. **Arm**: `MigrateBegin { epoch, nonce }` to every worker on the
//!    control plane.
//! 2. **Barrier**: an Empty-pattern punctuation down *both* data streams
//!    of *every* worker, then flush — the barrier is ordered behind all
//!    earlier elements and delivered exactly once even through a faulty
//!    link, because it is an ordinary sequenced element.
//! 3. **Drain**: each worker publishes its sink marker, reports
//!    `BarrierReached`, and exports its state; the coordinator consumes
//!    each sink up to the marker so every pre-barrier output (and
//!    propagation observation) lands before the new epoch exists.
//! 4. **Rehash + install**: exported records are re-partitioned under
//!    the new map and shipped to their new owners, followed by
//!    `MigrateCommit`; workers echo the commit.
//! 5. **Re-inject**: punctuations ingested before the barrier but not
//!    yet fully propagated are re-sent through the new topology, with
//!    fresh aligner expectations — never-dropped, never-duplicated.
//!
//! Pushes are rejected while a migration is in flight (single migration
//! at a time is a cluster-v1 constraint, enforced by construction: this
//! method is synchronous).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pjoin::components::propagation::translate_punctuation;
use pjoin::PJoinConfig;
use punct_durable::{CheckpointStore, PendingPunct, ShardRecords, Snapshot, SnapshotMeta};
use punct_exec::{route_punctuation, AlignOutcome, Aligner, Route};
use punct_trace::{wall_now_ns, TelemetryMsg};
use punct_net::{
    wait_readable, ClientOptions, FaultConfig, FaultProxy, Frame, ProxyStats, SinkSubscriber,
    StreamSender, WIRE_VERSION,
};
use punct_types::{
    partition, PunctSeq, Punctuation, ShardMap, StreamElement, Timestamp, Timestamped, Tuple,
    Value,
};
use stream_sim::Side;

use crate::error::ClusterError;
use crate::protocol::{
    barrier_punct, encode_config, is_barrier, CtrlConn, HeartbeatSettings, JoinSpec,
    TelemetrySettings, CTRL_TIMEOUT, MIGRATE_CHUNK,
};
use crate::telemetry::ClusterTelemetry;

/// Clock probes per worker during assembly; the minimum-RTT sample wins,
/// so a short burst over a hot loopback connection bounds the offset
/// error to a few tens of microseconds.
const CLOCK_PROBES: u32 = 5;

/// How long [`Cluster::poll_outputs`] waits — on every link socket at
/// once, so data ends the wait early — when a pass over the links found
/// no output.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// [`Cluster::push`] holds the caller back once a sender has this many
/// credit windows of elements pushed but not yet written: enough queued
/// to keep a worker's window full across a drain pass, little enough
/// that a caller outrunning the workers cannot grow the buffers without
/// limit.
const BACKLOG_WINDOWS: u64 = 4;

/// Nonce namespaces keep checkpoint and rollback barriers unmistakable
/// for migration barriers in worker logs and protocol errors.
const CHECKPOINT_NONCE: u64 = 0x4B00_0000_0000_0000;
const ROLLBACK_NONCE: u64 = 0x4C00_0000_0000_0000;

/// Relaunches the worker with the given index against the coordinator's
/// control address. Crash recovery calls this to replace a dead worker;
/// the closure decides *how* a worker runs (thread, forked process,
/// container) — the coordinator only awaits the new `JoinCluster`
/// handshake.
pub type RespawnFn = Arc<dyn Fn(usize, SocketAddr) -> std::io::Result<()> + Send + Sync>;

/// How (and whether) the cluster checkpoints itself to disk and recovers
/// dead workers. Disabled by default: no checkpoint frames on the wire,
/// no input buffering, and zero disk writes.
#[derive(Clone, Default)]
pub struct DurabilityOptions {
    /// Checkpoint directory. `None` disables durability entirely.
    pub dir: Option<PathBuf>,
    /// Cut a checkpoint automatically whenever this much time has passed
    /// since the last one (checked in [`Cluster::poll_outputs`]). `None`
    /// means only explicit [`Cluster::checkpoint`] calls cut epochs.
    pub interval: Option<Duration>,
    /// Complete epochs kept on disk (minimum 1).
    pub retain: usize,
    /// Worker heartbeat policy, shipped to workers in the config blob.
    pub heartbeat: HeartbeatSettings,
    /// How to relaunch a dead worker. Without it, a lost worker is a
    /// fatal error even with checkpointing on.
    pub respawn: Option<RespawnFn>,
}

impl std::fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("dir", &self.dir)
            .field("interval", &self.interval)
            .field("retain", &self.retain)
            .field("heartbeat", &self.heartbeat)
            .field("respawn", &self.respawn.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl DurabilityOptions {
    /// Checkpoints to `dir` with the default interval (explicit cuts
    /// only), retention of 2 epochs, and heartbeats every 100 ms with a
    /// 10-interval miss limit.
    pub fn at(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: Some(dir.into()),
            interval: None,
            retain: 2,
            heartbeat: HeartbeatSettings { interval_ms: 100, miss_limit: 10 },
            respawn: None,
        }
    }

    /// Whether durability is on.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// The coordinator's live durability state (present only when
/// [`DurabilityOptions::enabled`]).
struct DurableState {
    store: CheckpointStore,
    interval: Option<Duration>,
    heartbeat: HeartbeatSettings,
    respawn: Option<RespawnFn>,
    /// Next checkpoint epoch to cut (strictly increasing).
    next_epoch: u64,
    /// Every input pushed since the last committed cut, in push order —
    /// replayed through the routing path after a rollback.
    input_log: Vec<(Side, Timestamped<StreamElement>)>,
    /// Inputs fully covered by the last committed epoch.
    input_cursor: u64,
    /// Outputs absorbed since the last committed cut, withheld from the
    /// caller until a checkpoint (or finish) commits them — a crash
    /// discards them and the replay regenerates them, so the caller
    /// never sees an output twice.
    uncommitted: Vec<Timestamped<StreamElement>>,
    last_cut: Instant,
    /// Per-worker liveness stamps (any control frame refreshes).
    last_heard: Vec<Instant>,
    checkpoints: u64,
    recoveries: u64,
}

/// How a cluster is assembled and driven.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// The join every shard runs.
    pub spec: JoinSpec,
    /// Worker processes expected to join.
    pub workers: usize,
    /// Initial number of global shards.
    pub shards: usize,
    /// Data-plane client options (per-worker stream senders).
    pub client: ClientOptions,
    /// When set, a [`FaultProxy`] with this configuration is spawned in
    /// front of **each worker's ingest server**, so every data-plane
    /// link misbehaves independently.
    pub fault: Option<FaultConfig>,
    /// Deadline for any single control-plane exchange.
    pub ctrl_timeout: Duration,
    /// How the telemetry plane runs (shipped to workers in the config
    /// blob). Default: enabled, 1 s report interval, tracing on.
    pub telemetry: TelemetrySettings,
    /// Durable checkpoint/recovery policy. Default: disabled.
    pub durability: DurabilityOptions,
}

impl ClusterOptions {
    /// A cluster of `workers` workers serving `shards` shards of the
    /// `spec` join, with default transport options and clean links.
    pub fn new(spec: JoinSpec, workers: usize, shards: usize) -> ClusterOptions {
        ClusterOptions {
            spec,
            workers,
            shards,
            client: ClientOptions::default(),
            fault: None,
            ctrl_timeout: CTRL_TIMEOUT,
            telemetry: TelemetrySettings::default(),
            durability: DurabilityOptions::default(),
        }
    }
}

/// One repartition's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStats {
    /// The epoch the migration activated.
    pub epoch: u64,
    /// Global shard count after the migration.
    pub shards: usize,
    /// Records moved (sum over shards and sides).
    pub records_moved: u64,
    /// Punctuations re-injected through the new topology.
    pub puncts_reinjected: u64,
    /// Wall-clock duration of the whole migration (the data-plane pause).
    pub pause: Duration,
    /// Pause share spent reaching the barrier and draining sinks to
    /// their markers (phases 1–3b).
    pub drain: Duration,
    /// Pause share spent collecting exported state (phase 3c).
    pub export: Duration,
    /// Pause share spent rehashing, shipping, and committing the new
    /// epoch (phase 4).
    pub install: Duration,
    /// Pause share spent re-injecting pending punctuations (phase 5).
    pub reinject: Duration,
}

/// Final accounting for one cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// The merged output stream (tuples + punctuations, arrival order).
    pub outputs: Vec<Timestamped<StreamElement>>,
    /// Elements pushed into the cluster (tuples + punctuations, not
    /// counting barriers or re-injections).
    pub pushed: u64,
    /// Every completed migration, in order.
    pub migrations: Vec<MigrationStats>,
    /// Data-plane reconnects summed over senders (fault recovery).
    pub sender_reconnects: u32,
    /// Per-worker fault-proxy stats, when proxies were configured.
    pub proxy_stats: Vec<ProxyStats>,
    /// The merged cluster telemetry (final worker flushes folded in).
    pub telemetry: ClusterTelemetry,
    /// Checkpoint epochs committed during the run (0 when disabled).
    pub checkpoints: u64,
    /// Worker crash recoveries performed during the run.
    pub recoveries: u64,
}

struct WorkerLink {
    ctrl: CtrlConn,
    proxy: Option<FaultProxy>,
    left: StreamSender,
    right: StreamSender,
    sink: SinkSubscriber,
    sink_done: bool,
}

impl WorkerLink {
    fn sender(&mut self, side: Side) -> &mut StreamSender {
        match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        }
    }
}

/// A running cluster, from the driving process's point of view.
pub struct Cluster {
    opts: ClusterOptions,
    cfg: PJoinConfig,
    listener: TcpListener,
    ctrl_addr: SocketAddr,
    map: ShardMap,
    links: Vec<WorkerLink>,
    aligner: Aligner,
    next_seq: u64,
    /// Input punctuations not yet emitted downstream, by aligner
    /// sequence — the re-injection log.
    pending_log: HashMap<u64, (Side, Punctuation)>,
    /// Outputs drained from worker sinks, ready for the caller.
    ready: Vec<Timestamped<StreamElement>>,
    clock: Timestamp,
    pushed: u64,
    migrations: Vec<MigrationStats>,
    telem: ClusterTelemetry,
    durable: Option<DurableState>,
}

impl Cluster {
    /// Binds the control endpoint. Workers can be launched against
    /// [`ctrl_addr`](Cluster::ctrl_addr) as soon as this returns;
    /// [`accept_workers`](Cluster::accept_workers) completes the
    /// assembly.
    pub fn bind(opts: ClusterOptions) -> Result<Cluster, ClusterError> {
        assert!(opts.workers > 0, "a cluster needs at least one worker");
        assert!(opts.workers <= 64, "the punctuation aligner masks at most 64 workers");
        assert!(opts.shards >= opts.workers, "fewer shards than workers leaves workers idle");
        assert!(opts.shards <= 64, "shard routing masks at most 64 global shards");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let ctrl_addr = listener.local_addr()?;
        let cfg = opts.spec.pjoin_config();
        let durable = match &opts.durability.dir {
            Some(dir) => {
                let store = CheckpointStore::open(dir, opts.durability.retain.max(1))?;
                let next_epoch = store.latest()?.map_or(1, |e| e + 1);
                Some(DurableState {
                    store,
                    interval: opts.durability.interval,
                    heartbeat: opts.durability.heartbeat,
                    respawn: opts.durability.respawn.clone(),
                    next_epoch,
                    input_log: Vec::new(),
                    input_cursor: 0,
                    uncommitted: Vec::new(),
                    last_cut: Instant::now(),
                    last_heard: vec![Instant::now(); opts.workers],
                    checkpoints: 0,
                    recoveries: 0,
                })
            }
            None => None,
        };
        Ok(Cluster {
            cfg,
            listener,
            ctrl_addr,
            map: ShardMap { epoch: 0, assignment: Vec::new() },
            links: Vec::new(),
            aligner: Aligner::new(),
            next_seq: 0,
            pending_log: HashMap::new(),
            ready: Vec::new(),
            clock: Timestamp(0),
            pushed: 0,
            migrations: Vec::new(),
            telem: ClusterTelemetry::new(opts.workers, opts.telemetry),
            durable,
            opts,
        })
    }

    /// The control-plane address workers join through.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// The `ShardMapUpdate` config blob under the current options.
    fn config_blob(&self) -> Vec<u8> {
        encode_config(&self.opts.spec, &self.opts.telemetry, &self.opts.durability.heartbeat)
    }

    /// The active shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Accepts the configured number of worker handshakes, wires the
    /// data plane (senders + sink subscriptions, with fault proxies when
    /// configured), and activates the initial shard-map epoch on every
    /// worker. Returns once all workers acknowledged the epoch.
    pub fn accept_workers(&mut self) -> Result<(), ClusterError> {
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        let mut joined: Vec<Option<WorkerLink>> = Vec::new();
        joined.resize_with(self.opts.workers, || None);
        self.listener.set_nonblocking(true)?;
        while joined.iter().any(Option::is_none) {
            if Instant::now() >= deadline {
                return Err(ClusterError::Timeout("worker handshakes".into()));
            }
            let sock = match self.listener.accept() {
                Ok((sock, _)) => sock,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    wait_readable(&[self.listener.as_fd()], wait)?;
                    continue;
                }
                Err(e) => return Err(ClusterError::Io(e)),
            };
            let mut ctrl = CtrlConn::from_stream(sock)?;
            let frame = ctrl.recv_deadline(deadline, "JoinCluster")?;
            let Frame::JoinCluster { wire_version, worker, ingest_addr, sink_addr } = frame
            else {
                return Err(ClusterError::Protocol(format!(
                    "expected JoinCluster, got {frame:?}"
                )));
            };
            if wire_version != WIRE_VERSION {
                ctrl.send(&Frame::Error {
                    code: punct_net::error_code::VERSION_MISMATCH,
                    message: format!(
                        "coordinator speaks wire v{WIRE_VERSION}, worker spoke v{wire_version}"
                    ),
                })?;
                return Err(ClusterError::Protocol(format!(
                    "worker {worker} speaks wire v{wire_version}, expected v{WIRE_VERSION}"
                )));
            }
            let idx = worker as usize;
            if idx >= joined.len() || joined[idx].is_some() {
                return Err(ClusterError::Protocol(format!(
                    "unexpected or duplicate worker index {worker}"
                )));
            }
            let ingest: SocketAddr = ingest_addr
                .parse()
                .map_err(|_| ClusterError::Protocol(format!("bad ingest addr {ingest_addr}")))?;
            let sink: SocketAddr = sink_addr
                .parse()
                .map_err(|_| ClusterError::Protocol(format!("bad sink addr {sink_addr}")))?;
            let proxy = match &self.opts.fault {
                Some(cfg) => {
                    // Give each link an independent fault schedule.
                    let mut cfg = *cfg;
                    cfg.seed = cfg.seed.wrapping_add(0x9E37_79B9 * (idx as u64 + 1));
                    Some(FaultProxy::spawn(ingest, cfg)?)
                }
                None => None,
            };
            let data_addr = proxy.as_ref().map_or(ingest, FaultProxy::addr);
            let left = StreamSender::new(
                data_addr,
                0,
                Side::Left,
                self.opts.spec.side_schema(Side::Left),
                self.opts.client.clone(),
            );
            let right = StreamSender::new(
                data_addr,
                1,
                Side::Right,
                self.opts.spec.side_schema(Side::Right),
                self.opts.client.clone(),
            );
            joined[idx] = Some(WorkerLink {
                ctrl,
                proxy,
                left,
                right,
                sink: SinkSubscriber::new(sink),
                sink_done: false,
            });
        }
        self.links = joined.into_iter().map(|l| l.expect("all slots filled")).collect();

        // Activate epoch 1 through the unified staged-install path:
        // ShardMapUpdate stages, MigrateCommit activates and is echoed.
        self.map = ShardMap::round_robin(1, self.opts.shards, self.opts.workers);
        let blob = self.config_blob();
        for (idx, link) in self.links.iter_mut().enumerate() {
            link.ctrl.send(&Frame::ShardMapUpdate {
                worker: idx as u32,
                map: self.map.clone(),
                config: blob.clone(),
            })?;
            link.ctrl.send(&Frame::MigrateCommit { epoch: 1 })?;
        }
        self.await_commits(1)?;
        self.sync_clocks()?;
        Ok(())
    }

    /// Estimates each worker's clock offset with a burst of
    /// request-response probes over the control plane (min-RTT sample
    /// wins). Runs after the workers enter their serve loops, where a
    /// control frame wakes the worker at once.
    fn sync_clocks(&mut self) -> Result<(), ClusterError> {
        if !self.opts.telemetry.enabled {
            return Ok(());
        }
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        for w in 0..self.links.len() {
            for probe in 0..CLOCK_PROBES {
                let payload =
                    TelemetryMsg::ClockProbe { probe, t0_ns: wall_now_ns() }.encode();
                self.links[w].ctrl.send(&Frame::Telemetry { payload })?;
                let want = self.telem.clock(w).samples() + 1;
                while self.telem.clock(w).samples() < want {
                    match self.links[w].ctrl.recv_deadline(deadline, "clock ack")? {
                        Frame::Telemetry { payload } => self.ingest_telemetry(w, &payload)?,
                        Frame::Heartbeat { .. } => self.note_heard(w),
                        other => {
                            return Err(ClusterError::Protocol(format!(
                                "expected a clock ack from worker {w}, got {other:?}"
                            )))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Routes one element to the worker(s) owning it under the active
    /// map. Tuples go to exactly one worker; punctuations go to every
    /// worker owning a shard they can close, with an aligner expectation
    /// so the merged output carries them exactly once.
    ///
    /// With durability enabled, the element is appended to the input
    /// replay log *before* routing, and a worker lost mid-route triggers
    /// recovery in place: the rolled-back cluster replays the log —
    /// including this element — so the push still succeeds.
    pub fn push(
        &mut self,
        side: Side,
        element: Timestamped<StreamElement>,
    ) -> Result<(), ClusterError> {
        if let Some(d) = &mut self.durable {
            d.input_log.push((side, element.clone()));
        }
        self.pushed += 1;
        match self.route_element(side, element).and_then(|()| self.relieve_backlog()) {
            Err(ClusterError::WorkerLost(w)) => self.recover(w),
            other => other,
        }
    }

    /// Backpressure for [`push`](Cluster::push): while any sender holds
    /// more than [`BACKLOG_WINDOWS`] credit windows of unwritten
    /// elements, run the drain pass [`poll_outputs`](Cluster::poll_outputs)
    /// runs — credits come back, senders write, and the outputs drained
    /// meanwhile wait in `ready` for the caller's next poll.
    fn relieve_backlog(&mut self) -> Result<(), ClusterError> {
        let over = |s: &StreamSender| s.backlog() > BACKLOG_WINDOWS * u64::from(s.window());
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        while self.links.iter().any(|l| over(&l.left) || over(&l.right)) {
            let absorbed = self.pass()?;
            self.check_liveness()?;
            if absorbed == 0 {
                self.wait_for_links(IDLE_WAIT)?;
            }
            if Instant::now() >= deadline {
                return Err(ClusterError::Timeout("sender backlog to drain".into()));
            }
        }
        Ok(())
    }

    /// The routing body shared by [`push`](Cluster::push) and
    /// post-recovery replay (which must not re-log or re-count).
    fn route_element(
        &mut self,
        side: Side,
        element: Timestamped<StreamElement>,
    ) -> Result<(), ClusterError> {
        self.clock = self.clock.max(element.ts);
        match element.item {
            StreamElement::Tuple(ref t) => {
                let hash = t.get(self.opts.spec.join_attr(side)).and_then(Value::join_hash);
                let worker = self.map.worker_of(partition(hash, self.map.shards())) as usize;
                self.links[worker]
                    .sender(side)
                    .push(element)
                    .map_err(|e| self.lost(worker, e.into()))?;
                Ok(())
            }
            StreamElement::Punctuation(ref p) => {
                if p.width() != self.opts.spec.side_width(side) {
                    // Mirror the single-threaded operator: ignore.
                    return Ok(());
                }
                if is_barrier(p, self.opts.spec.join_attr(side)) {
                    return Err(ClusterError::Protocol(
                        "Empty-pattern punctuations on the join attribute are reserved \
                         for cluster barriers"
                            .into(),
                    ));
                }
                let p = p.clone();
                let seq = self.next_seq;
                self.next_seq += 1;
                self.route_punct(side, &p, seq, element.ts)?;
                self.pending_log.insert(seq, (side, p));
                Ok(())
            }
        }
    }

    /// Classifies a per-worker transport error: recoverable clusters
    /// report [`ClusterError::WorkerLost`] (the caller recovers in
    /// place), everyone else sees the underlying error.
    fn lost(&self, worker: usize, e: ClusterError) -> ClusterError {
        let recoverable = self.durable.as_ref().is_some_and(|d| d.respawn.is_some());
        if recoverable {
            ClusterError::WorkerLost(worker)
        } else {
            e
        }
    }

    /// Convenience: push a tuple arriving at `ts` on `side`.
    pub fn push_tuple(&mut self, side: Side, ts: u64, tuple: Tuple) -> Result<(), ClusterError> {
        self.push(side, Timestamped::new(Timestamp(ts), StreamElement::Tuple(tuple)))
    }

    /// Convenience: push a punctuation arriving at `ts` on `side`.
    pub fn push_punct(
        &mut self,
        side: Side,
        ts: u64,
        punct: Punctuation,
    ) -> Result<(), ClusterError> {
        self.push(side, Timestamped::new(Timestamp(ts), StreamElement::Punctuation(punct)))
    }

    /// Registers the aligner expectation for punctuation `p` (sequence
    /// `seq`) under the active map and sends it to every target worker.
    fn route_punct(
        &mut self,
        side: Side,
        p: &Punctuation,
        seq: u64,
        ts: Timestamp,
    ) -> Result<(), ClusterError> {
        let route = route_punctuation(p, side, &self.cfg, self.map.shards());
        let workers = self.target_workers(&route);
        debug_assert!(!workers.is_empty(), "every shard has an owner");
        if self.opts.telemetry.enabled {
            let side_idx = if side == Side::Left { 0u8 } else { 1u8 };
            self.telem.note_route(seq, side_idx, p.content_hash(), wall_now_ns(), &workers);
        }
        let mask = workers.iter().fold(0u64, |m, &w| m | (1 << w));
        let translated = translate_punctuation(
            p,
            self.opts.spec.side_offset(side),
            self.opts.spec.output_width(),
        );
        self.aligner.expect(translated, PunctSeq(seq), mask);
        for w in workers {
            self.links[w]
                .sender(side)
                .push(Timestamped::new(ts, StreamElement::Punctuation(p.clone())))?;
        }
        Ok(())
    }

    /// The distinct workers owning any shard of `route`, ascending.
    fn target_workers(&self, route: &Route) -> Vec<usize> {
        let shard_mask = route.mask(self.map.shards());
        let mut workers: Vec<usize> = (0..self.map.shards())
            .filter(|s| shard_mask & (1 << s) != 0)
            .map(|s| self.map.worker_of(s) as usize)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// Drains whatever the worker sinks have published so far, in
    /// arrival order per worker. Tuples pass through; punctuation
    /// propagations are merged by the aligner (exactly one copy emitted
    /// once every target worker propagated).
    ///
    /// The call never blocks while there is output to hand over: it
    /// makes one pass over every link — sink, control socket and both
    /// senders (acks and credits picked up, everything they allow
    /// written, coalesced tuples included) — and returns what the pass
    /// absorbed. Only a pass that found no output waits, about
    /// [`IDLE_WAIT`] and on all link sockets at once, so arriving data
    /// ends the wait; an empty return therefore always cost about that
    /// long. Call it periodically while pushing, and in a loop while
    /// waiting for results: senders make progress only inside `push`,
    /// here, and in `finish`.
    ///
    /// With durability enabled this is also the supervision tick: missed
    /// heartbeats and dead control links trigger crash recovery here,
    /// and an elapsed checkpoint interval cuts the next epoch. Only
    /// **committed** outputs are returned — outputs produced since the
    /// last cut stay withheld until the next checkpoint (or finish)
    /// commits them.
    pub fn poll_outputs(&mut self) -> Result<Vec<Timestamped<StreamElement>>, ClusterError> {
        // A recovery can itself trip over another dead worker's link at
        // most once per worker; anything beyond that is a real failure.
        for _ in 0..=self.opts.workers {
            match self.poll_once() {
                Ok(()) => {
                    self.maybe_checkpoint()?;
                    return Ok(std::mem::take(&mut self.ready));
                }
                Err(ClusterError::WorkerLost(w)) => self.recover(w)?,
                Err(e) => return Err(e),
            }
        }
        Err(ClusterError::Protocol("workers kept dying faster than recovery".into()))
    }

    /// Passes over the links until one absorbs output or [`IDLE_WAIT`]
    /// has gone by, sleeping on the link sockets in between.
    fn poll_once(&mut self) -> Result<(), ClusterError> {
        let idle_until = Instant::now() + IDLE_WAIT;
        loop {
            let absorbed = self.pass()?;
            self.check_liveness()?;
            let remaining = idle_until.saturating_duration_since(Instant::now());
            if absorbed > 0 || remaining.is_zero() {
                return Ok(());
            }
            self.wait_for_links(remaining)?;
        }
    }

    /// One non-blocking pass over every link: control frames folded in,
    /// senders serviced, sinks drained. Returns the sink elements
    /// absorbed.
    fn pass(&mut self) -> Result<usize, ClusterError> {
        self.drain_ctrl()?;
        let mut absorbed = 0;
        for w in 0..self.links.len() {
            for side in [Side::Left, Side::Right] {
                let r = self.links[w].sender(side).service();
                r.map_err(|e| self.lost(w, e.into()))?;
            }
            while !self.links[w].sink_done {
                match self.links[w].sink.next(Duration::ZERO) {
                    Ok(Some(element)) => {
                        self.absorb(w, element, false)?;
                        absorbed += 1;
                    }
                    Ok(None) => break,
                    Err(e) => return Err(self.lost(w, e.into())),
                }
            }
        }
        Ok(absorbed)
    }

    /// Sleeps until any link socket — control, sink subscription, either
    /// sender — turns readable, or `timeout` passes.
    fn wait_for_links(&self, timeout: Duration) -> Result<(), ClusterError> {
        let mut fds = Vec::with_capacity(4 * self.links.len());
        for link in &self.links {
            fds.push(link.ctrl.socket().as_fd());
            let data =
                [link.sink.socket(), link.left.awaited_socket(), link.right.awaited_socket()];
            fds.extend(data.into_iter().flatten().map(AsFd::as_fd));
        }
        wait_readable(&fds, timeout)?;
        Ok(())
    }

    /// Reports a worker whose heartbeat deadline has expired as lost.
    /// Call right after a [`pass`](Cluster::pass): a heartbeat that sat
    /// unread while this thread was busy is not a missed one.
    fn check_liveness(&self) -> Result<(), ClusterError> {
        let Some(d) = self.durable.as_ref().filter(|d| d.respawn.is_some()) else {
            return Ok(());
        };
        let Some(deadline) = d.heartbeat.deadline() else {
            return Ok(());
        };
        let now = Instant::now();
        match d.last_heard.iter().position(|&heard| now.duration_since(heard) > deadline) {
            Some(dead) => Err(ClusterError::WorkerLost(dead)),
            None => Ok(()),
        }
    }

    /// Refreshes `worker`'s liveness stamp.
    fn note_heard(&mut self, worker: usize) {
        if let Some(d) = &mut self.durable {
            d.last_heard[worker] = Instant::now();
        }
    }

    /// Hands one merged output to the caller — directly when durability
    /// is off, via the uncommitted buffer (released at the next
    /// checkpoint commit) when it is on.
    fn emit(&mut self, element: Timestamped<StreamElement>) {
        match &mut self.durable {
            Some(d) => d.uncommitted.push(element),
            None => self.ready.push(element),
        }
    }

    /// Folds one sink element into the merged output. `marker_ok` admits
    /// the migration sink marker (only the repartition drain sets it).
    /// Returns whether the element was that marker.
    fn absorb(
        &mut self,
        worker: usize,
        element: Timestamped<StreamElement>,
        marker_ok: bool,
    ) -> Result<bool, ClusterError> {
        match element.item {
            StreamElement::Tuple(_) => {
                self.emit(element);
                Ok(false)
            }
            StreamElement::Punctuation(ref p) => {
                if is_barrier(p, self.opts.spec.join_attr_a) {
                    if marker_ok {
                        return Ok(true);
                    }
                    return Err(ClusterError::Protocol(format!(
                        "worker {worker} published a sink marker outside a migration"
                    )));
                }
                let (outcome, seq) = self.aligner.observe_seq(worker, p);
                if self.opts.telemetry.enabled {
                    if let Some(s) = seq {
                        self.telem.note_observe(worker, s.0, wall_now_ns());
                    }
                }
                match outcome {
                    AlignOutcome::Emit => {
                        let s = seq.expect("emit resolves an instance").0;
                        self.pending_log.remove(&s);
                        if self.opts.telemetry.enabled {
                            self.telem.note_merge(s, wall_now_ns());
                        }
                        self.emit(element);
                        Ok(false)
                    }
                    AlignOutcome::Pending => Ok(false),
                    AlignOutcome::Unexpected => Err(ClusterError::Protocol(format!(
                        "worker {worker} propagated an unregistered punctuation {p}"
                    ))),
                }
            }
        }
    }

    /// Receives the next **non-telemetry** control frame from `worker`,
    /// folding any interleaved telemetry pushes into the aggregator —
    /// periodic reports are asynchronous to the migration protocol, so
    /// every blocking control-plane wait must tolerate them.
    fn recv_ctrl(
        &mut self,
        worker: usize,
        deadline: Instant,
        what: &str,
    ) -> Result<Frame, ClusterError> {
        loop {
            let frame = self.links[worker].ctrl.recv_deadline(deadline, what)?;
            match frame {
                Frame::Telemetry { payload } => {
                    self.note_heard(worker);
                    self.ingest_telemetry(worker, &payload)?;
                }
                Frame::Heartbeat { .. } => self.note_heard(worker),
                other => return Ok(other),
            }
        }
    }

    /// Non-blocking drain of pending asynchronous frames (telemetry
    /// pushes and heartbeats) on every control link. Outside a
    /// migration those are the only frames workers originate, so
    /// anything else is a protocol error. Every frame — whatever its
    /// payload — refreshes the sender's liveness stamp, and a link at
    /// end of stream reports its worker gone.
    fn drain_ctrl(&mut self) -> Result<(), ClusterError> {
        for w in 0..self.links.len() {
            loop {
                match self.links[w].ctrl.poll_recv() {
                    Ok(Some(Frame::Telemetry { payload })) => {
                        self.note_heard(w);
                        self.ingest_telemetry(w, &payload)?;
                    }
                    Ok(Some(Frame::Heartbeat { .. })) => self.note_heard(w),
                    Ok(Some(other)) => {
                        return Err(ClusterError::Protocol(format!(
                            "unexpected control frame from worker {w}: {other:?}"
                        )))
                    }
                    Ok(None) => break,
                    Err(e) => return Err(self.lost(w, e)),
                }
            }
        }
        Ok(())
    }

    /// Folds one telemetry payload from `worker` into the aggregator.
    fn ingest_telemetry(&mut self, worker: usize, payload: &[u8]) -> Result<(), ClusterError> {
        let t1 = wall_now_ns();
        let msg = TelemetryMsg::decode(payload).map_err(|e| {
            ClusterError::Protocol(format!("worker {worker} sent a bad telemetry payload: {e}"))
        })?;
        match msg {
            TelemetryMsg::ClockAck { t0_ns, worker_ns, .. } => {
                self.telem.observe_clock(worker, t0_ns, worker_ns, t1);
            }
            TelemetryMsg::Report(report) => {
                if report.worker as usize != worker {
                    return Err(ClusterError::Protocol(format!(
                        "worker {worker} sent a report claiming worker {}",
                        report.worker
                    )));
                }
                self.telem.ingest_report(worker, *report);
            }
            TelemetryMsg::ClockProbe { .. } => {
                return Err(ClusterError::Protocol(format!(
                    "worker {worker} sent a clock probe; only the coordinator probes"
                )))
            }
        }
        Ok(())
    }

    /// Elastically repartitions the cluster to `new_shards` global
    /// shards: barrier, drain, migrate, commit, re-inject. Synchronous —
    /// when this returns the new epoch is active everywhere and pushes
    /// may resume. No join output is lost or duplicated across the
    /// resize, and no punctuation is propagated twice.
    pub fn repartition(&mut self, new_shards: usize) -> Result<MigrationStats, ClusterError> {
        assert!(new_shards >= self.opts.workers, "fewer shards than workers");
        assert!(new_shards <= 64, "shard routing masks at most 64 global shards");
        let t0 = Instant::now();
        let epoch = self.map.epoch + 1;
        let nonce = epoch;
        let deadline = Instant::now() + self.opts.ctrl_timeout;

        // 1. Arm every worker.
        for link in &mut self.links {
            link.ctrl.send(&Frame::MigrateBegin { epoch, nonce })?;
        }
        // 2. Barrier both streams of every worker, then flush: once
        // flushed, the barrier (and everything before it) is in each
        // worker's ingest channel exactly once. The barrier's timestamp
        // carries the nonce: the arm frame (ctrl plane) and the barrier
        // (data plane) race on separate connections, and the tag lets
        // the worker pair each crossing with the right protocol step no
        // matter the arrival order.
        let ts = Timestamp(nonce);
        for link in &mut self.links {
            for side in [Side::Left, Side::Right] {
                let b = barrier_punct(&self.opts.spec, side);
                link.sender(side).push(Timestamped::new(ts, StreamElement::Punctuation(b)))?;
            }
            link.left.flush()?;
            link.right.flush()?;
        }
        // 3a. Workers confirm the barrier crossed both their streams.
        for w in 0..self.links.len() {
            let frame = self.recv_ctrl(w, deadline, "BarrierReached")?;
            match frame {
                Frame::BarrierReached { nonce: got } if got == nonce => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected BarrierReached({nonce}) from worker {w}, got {other:?}"
                    )))
                }
            }
        }
        // 3b. Drain each sink to its marker: every pre-barrier output
        // and propagation observation lands before the new epoch.
        for w in 0..self.links.len() {
            loop {
                match self.links[w].sink.next(Duration::from_millis(200))? {
                    Some(element) => {
                        if self.absorb(w, element, true)? {
                            break;
                        }
                    }
                    None => {
                        if Instant::now() >= deadline {
                            return Err(ClusterError::Timeout(format!(
                                "sink marker from worker {w}"
                            )));
                        }
                    }
                }
            }
        }
        let t_drained = Instant::now();
        // 3c. Collect every worker's exported state.
        let mut moved: Vec<(Side, u64, Tuple)> = Vec::new();
        for w in 0..self.links.len() {
            let mut announced: Option<u64> = None;
            let mut got: u64 = 0;
            while announced != Some(got) {
                let frame = self.recv_ctrl(w, deadline, "migration state")?;
                match frame {
                    Frame::MigrateState { side, records, .. } => {
                        let side = if side == 0 { Side::Left } else { Side::Right };
                        got += records.len() as u64;
                        moved.extend(
                            records.into_iter().map(|(us, t)| (side, us, t)),
                        );
                    }
                    Frame::MigrateStateDone { records } => {
                        if records < got {
                            return Err(ClusterError::Protocol(format!(
                                "worker {w} announced {records} records after sending {got}"
                            )));
                        }
                        announced = Some(records);
                        if records == got {
                            break;
                        }
                    }
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "expected migration state from worker {w}, got {other:?}"
                        )))
                    }
                }
            }
        }
        let records_moved = moved.len() as u64;
        let t_exported = Instant::now();

        // 4. Rehash under the new map and install.
        let new_map = ShardMap::round_robin(epoch, new_shards, self.opts.workers);
        // Keyed by (new global shard, side index).
        type ShardRecords = HashMap<(u32, u8), Vec<(u64, Tuple)>>;
        let mut per_worker: Vec<ShardRecords> = vec![HashMap::new(); self.links.len()];
        for (side, arrival_us, tuple) in moved {
            let hash = tuple.get(self.opts.spec.join_attr(side)).and_then(Value::join_hash);
            let shard = partition(hash, new_shards);
            let worker = new_map.worker_of(shard) as usize;
            let side_idx = if side == Side::Left { 0u8 } else { 1u8 };
            per_worker[worker]
                .entry((shard as u32, side_idx))
                .or_default()
                .push((arrival_us, tuple));
        }
        let blob = self.config_blob();
        for (w, groups) in per_worker.into_iter().enumerate() {
            let link = &mut self.links[w];
            link.ctrl.send(&Frame::ShardMapUpdate {
                worker: w as u32,
                map: new_map.clone(),
                config: blob.clone(),
            })?;
            let mut installed: u64 = 0;
            for ((shard, side), records) in groups {
                installed += records.len() as u64;
                for chunk in records.chunks(MIGRATE_CHUNK) {
                    link.ctrl.send(&Frame::MigrateState {
                        shard,
                        side,
                        records: chunk.to_vec(),
                    })?;
                }
            }
            link.ctrl.send(&Frame::MigrateStateDone { records: installed })?;
            link.ctrl.send(&Frame::MigrateCommit { epoch })?;
        }
        self.await_commits(epoch)?;
        self.map = new_map;
        let t_installed = Instant::now();

        // 5. Re-inject not-yet-emitted punctuations through the new
        // topology, oldest first. Their partial pre-barrier propagation
        // observations were dropped with the old expectations, so each
        // still emits exactly once.
        let pending = self.aligner.drain_pending();
        let puncts_reinjected = pending.len() as u64;
        for (_, seq) in pending {
            let (side, p) = self.pending_log.get(&seq.0).cloned().ok_or_else(|| {
                ClusterError::Protocol(format!("pending punctuation {} not in log", seq.0))
            })?;
            self.route_punct(side, &p, seq.0, ts)?;
        }

        let stats = MigrationStats {
            epoch,
            shards: new_shards,
            records_moved,
            puncts_reinjected,
            pause: t0.elapsed(),
            drain: t_drained.duration_since(t0),
            export: t_exported.duration_since(t_drained),
            install: t_installed.duration_since(t_exported),
            reinject: t_installed.elapsed(),
        };
        self.migrations.push(stats);
        self.telem.migrations.push(stats);
        Ok(stats)
    }

    /// Cuts one durable checkpoint epoch, synchronously. The cut is a
    /// barrier punctuation down both streams of every worker — the same
    /// exactly-once mechanism migration uses — so the snapshot is a
    /// consistent prefix of the run:
    ///
    /// 1. **Arm**: `Checkpoint { epoch, nonce }` to every worker.
    /// 2. **Barrier + drain**: barrier both streams, flush, await
    ///    `BarrierReached`, and drain each sink to its marker so every
    ///    pre-cut output is absorbed (into the uncommitted buffer).
    /// 3. **Export**: workers export their post-purge records exactly as
    ///    migration does, then resume immediately — no install wait, so
    ///    the pause is export-bound, not round-trip-bound.
    /// 4. **Commit**: records + pending punctuations + input cursor are
    ///    written as one epoch (delta-encoded, CRC-guarded, atomically
    ///    published). Only then are withheld outputs released, the input
    ///    replay log truncated, and `CheckpointDone` (with each worker's
    ///    sink watermark, for history truncation) sent.
    ///
    /// Returns the committed epoch.
    ///
    /// A worker dying mid-cut aborts the epoch, triggers crash recovery
    /// (with a respawn hook configured), and the cut is retried against
    /// the recovered cluster.
    pub fn checkpoint(&mut self) -> Result<u64, ClusterError> {
        for _ in 0..=self.opts.workers {
            match self.try_checkpoint() {
                Err(ClusterError::WorkerLost(w)) => self.recover(w)?,
                r => return r,
            }
        }
        Err(ClusterError::Protocol("workers kept dying faster than recovery".into()))
    }

    fn try_checkpoint(&mut self) -> Result<u64, ClusterError> {
        let Some(d) = self.durable.as_ref() else {
            return Err(ClusterError::Protocol(
                "checkpoint() requires durability to be enabled".into(),
            ));
        };
        let epoch = d.next_epoch;
        let nonce = CHECKPOINT_NONCE | epoch;
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        // 1. Arm.
        for w in 0..self.links.len() {
            let r = self.links[w].ctrl.send(&Frame::Checkpoint { epoch, nonce });
            r.map_err(|e| self.lost(w, e))?;
        }
        // 2. Barrier both streams of every worker, flush, confirm. The
        // barrier's timestamp carries the nonce (see `repartition`).
        let ts = Timestamp(nonce);
        for w in 0..self.links.len() {
            for side in [Side::Left, Side::Right] {
                let b = barrier_punct(&self.opts.spec, side);
                let r = self.links[w]
                    .sender(side)
                    .push(Timestamped::new(ts, StreamElement::Punctuation(b)));
                r.map_err(|e| self.lost(w, e.into()))?;
            }
            let r = self.links[w].left.flush();
            r.map_err(|e| self.lost(w, e.into()))?;
            let r = self.links[w].right.flush();
            r.map_err(|e| self.lost(w, e.into()))?;
        }
        for w in 0..self.links.len() {
            let frame = match self.recv_ctrl(w, deadline, "checkpoint BarrierReached") {
                Ok(frame) => frame,
                Err(e) => return Err(self.lost(w, e)),
            };
            match frame {
                Frame::BarrierReached { nonce: got } if got == nonce => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected BarrierReached({nonce}) from worker {w}, got {other:?}"
                    )))
                }
            }
        }
        // 2b. Drain each sink to its marker.
        for w in 0..self.links.len() {
            loop {
                match self.links[w].sink.next(Duration::from_millis(200)) {
                    Ok(Some(element)) => {
                        if self.absorb(w, element, true)? {
                            break;
                        }
                    }
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            return Err(ClusterError::Timeout(format!(
                                "checkpoint sink marker from worker {w}"
                            )));
                        }
                    }
                    Err(e) => return Err(self.lost(w, e.into())),
                }
            }
        }
        // 3. Collect exports, keyed by the worker-reported global shard.
        let mut groups: HashMap<(u32, u8), Vec<(u64, Tuple)>> = HashMap::new();
        for w in 0..self.links.len() {
            let mut announced: Option<u64> = None;
            let mut got: u64 = 0;
            while announced != Some(got) {
                let frame = match self.recv_ctrl(w, deadline, "checkpoint state") {
                    Ok(frame) => frame,
                    Err(e) => return Err(self.lost(w, e)),
                };
                match frame {
                    Frame::MigrateState { shard, side, records } => {
                        got += records.len() as u64;
                        groups.entry((shard, side)).or_default().extend(records);
                    }
                    Frame::MigrateStateDone { records } => {
                        if records < got {
                            return Err(ClusterError::Protocol(format!(
                                "worker {w} announced {records} records after sending {got}"
                            )));
                        }
                        announced = Some(records);
                        if records == got {
                            break;
                        }
                    }
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "expected checkpoint state from worker {w}, got {other:?}"
                        )))
                    }
                }
            }
        }
        // 4. Write the epoch, then commit its side effects.
        let records: Vec<ShardRecords> = groups
            .into_iter()
            .map(|((shard, side), records)| ShardRecords { shard, side, records })
            .collect();
        let mut pending: Vec<PendingPunct> = self
            .pending_log
            .iter()
            .map(|(&seq, (side, punct))| PendingPunct {
                seq,
                side: if *side == Side::Left { 0 } else { 1 },
                punct: punct.clone(),
            })
            .collect();
        pending.sort_by_key(|p| p.seq);
        let meta = SnapshotMeta {
            config_blob: self.config_blob(),
            workers: self.opts.workers as u32,
            shards: self.map.shards() as u32,
            input_cursor: self.pushed,
            pushed: self.pushed,
        };
        let mut snap = Snapshot::of_records(epoch, meta, records);
        snap.pending = pending;
        let d = self.durable.as_mut().expect("checked on entry");
        d.store.commit(&snap)?;
        d.next_epoch = epoch + 1;
        d.input_log.clear();
        d.input_cursor = self.pushed;
        d.checkpoints += 1;
        d.last_cut = Instant::now();
        let released: Vec<Timestamped<StreamElement>> = d.uncommitted.drain(..).collect();
        self.ready.extend(released);
        for w in 0..self.links.len() {
            let sink_watermark = self.links[w].sink.received();
            let r = self.links[w].ctrl.send(&Frame::CheckpointDone { epoch, sink_watermark });
            r.map_err(|e| self.lost(w, e))?;
        }
        Ok(epoch)
    }

    /// Cuts a checkpoint if the configured interval has elapsed. A
    /// worker lost mid-cut is recovered and the cut retried inside
    /// [`checkpoint`](Cluster::checkpoint).
    fn maybe_checkpoint(&mut self) -> Result<(), ClusterError> {
        let due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.interval.is_some_and(|iv| d.last_cut.elapsed() >= iv));
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Recovers the cluster after losing `dead`: every surviving worker
    /// is rolled back to the latest complete checkpoint (or to empty
    /// state if none exists), a replacement worker is spawned and
    /// adopted under the dead worker's index, and every input since the
    /// checkpoint is replayed through the normal routing path. Withheld
    /// (uncommitted) outputs are discarded first, so the replay cannot
    /// duplicate anything the caller saw.
    fn recover(&mut self, dead: usize) -> Result<(), ClusterError> {
        let Some(d) = self.durable.as_mut() else {
            return Err(ClusterError::WorkerLost(dead));
        };
        let Some(respawn) = d.respawn.clone() else {
            return Err(ClusterError::WorkerLost(dead));
        };
        d.recoveries += 1;
        let nonce = ROLLBACK_NONCE | d.recoveries;
        d.uncommitted.clear();
        let snap = d.store.latest_complete()?;
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        let epoch = self.map.epoch + 1;

        // 1. Roll back the survivors: arm, barrier, and discard
        // everything still in flight — outputs, propagations, and any
        // stale traffic from a checkpoint the crash aborted. A second
        // worker dying during recovery is fatal (cluster v1).
        for w in 0..self.links.len() {
            if w == dead {
                continue;
            }
            self.links[w].ctrl.send(&Frame::Rollback { epoch, nonce })?;
            for side in [Side::Left, Side::Right] {
                let b = barrier_punct(&self.opts.spec, side);
                self.links[w]
                    .sender(side)
                    .push(Timestamped::new(Timestamp(nonce), StreamElement::Punctuation(b)))?;
            }
            self.links[w].left.flush()?;
            self.links[w].right.flush()?;
        }
        for w in 0..self.links.len() {
            if w == dead {
                continue;
            }
            // Tolerate frames from an aborted checkpoint (its barrier
            // sits ahead of the rollback barrier in stream order, so its
            // frames arrive first and are all superseded).
            loop {
                match self.recv_ctrl(w, deadline, "rollback BarrierReached")? {
                    Frame::BarrierReached { nonce: got } if got == nonce => break,
                    Frame::BarrierReached { .. }
                    | Frame::MigrateState { .. }
                    | Frame::MigrateStateDone { .. } => {}
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "expected BarrierReached({nonce}) from worker {w}, got {other:?}"
                        )))
                    }
                }
            }
            // The worker is now blocked awaiting its install, so its
            // sink quiesces after the rollback marker: discard until a
            // marker has been seen and the sink has gone quiet.
            let mut saw_marker = false;
            let mut last_element = Instant::now();
            loop {
                match self.links[w].sink.next(Duration::from_millis(20))? {
                    Some(element) => {
                        last_element = Instant::now();
                        if let StreamElement::Punctuation(ref p) = element.item {
                            if is_barrier(p, self.opts.spec.join_attr_a) {
                                saw_marker = true;
                            }
                        }
                    }
                    None => {
                        if saw_marker && last_element.elapsed() >= Duration::from_millis(200) {
                            break;
                        }
                        if Instant::now() >= deadline {
                            return Err(ClusterError::Timeout(format!(
                                "rollback sink marker from worker {w}"
                            )));
                        }
                    }
                }
            }
        }

        // 2. Replace the dead worker and adopt its successor.
        self.telem.reset_worker(dead);
        respawn(dead, self.ctrl_addr).map_err(ClusterError::Io)?;
        self.accept_replacement(dead, deadline)?;

        // 3. Reset the merge state and install the checkpoint into
        // every worker (fresh map epoch; survivors unblock on commit).
        self.aligner = Aligner::new();
        self.pending_log.clear();
        let (moved, pending) = match snap {
            Some(snap) => (flatten_records(snap.records), snap.pending),
            None => (Vec::new(), Vec::new()),
        };
        self.install_state(moved, pending)?;

        // 4. Replay every input since the checkpoint, in push order.
        // The log stays intact: until the next commit, a second crash
        // must replay the same suffix again.
        let log = std::mem::take(&mut self.durable.as_mut().expect("durable").input_log);
        for (side, element) in &log {
            self.route_element(*side, element.clone())?;
        }
        let d = self.durable.as_mut().expect("durable");
        d.input_log = log;
        let now = Instant::now();
        for heard in &mut d.last_heard {
            *heard = now;
        }
        Ok(())
    }

    /// Accepts the replacement worker's `JoinCluster` handshake and
    /// rebuilds the dead worker's link (fresh fault proxy under a new
    /// seed, fresh zero-sequence senders, fresh sink subscription).
    fn accept_replacement(&mut self, dead: usize, deadline: Instant) -> Result<(), ClusterError> {
        self.listener.set_nonblocking(true)?;
        let sock = loop {
            if Instant::now() >= deadline {
                return Err(ClusterError::Timeout(format!(
                    "replacement handshake for worker {dead}"
                )));
            }
            match self.listener.accept() {
                Ok((sock, _)) => break sock,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    wait_readable(&[self.listener.as_fd()], wait)?;
                }
                Err(e) => return Err(ClusterError::Io(e)),
            }
        };
        let mut ctrl = CtrlConn::from_stream(sock)?;
        let frame = ctrl.recv_deadline(deadline, "replacement JoinCluster")?;
        let Frame::JoinCluster { wire_version, worker, ingest_addr, sink_addr } = frame else {
            return Err(ClusterError::Protocol(format!("expected JoinCluster, got {frame:?}")));
        };
        if wire_version != WIRE_VERSION {
            return Err(ClusterError::Protocol(format!(
                "replacement worker speaks wire v{wire_version}, expected v{WIRE_VERSION}"
            )));
        }
        if worker as usize != dead {
            return Err(ClusterError::Protocol(format!(
                "replacement joined as worker {worker}, expected {dead}"
            )));
        }
        let ingest: SocketAddr = ingest_addr
            .parse()
            .map_err(|_| ClusterError::Protocol(format!("bad ingest addr {ingest_addr}")))?;
        let sink: SocketAddr = sink_addr
            .parse()
            .map_err(|_| ClusterError::Protocol(format!("bad sink addr {sink_addr}")))?;
        let recoveries = self.durable.as_ref().map_or(0, |d| d.recoveries);
        let proxy = match &self.opts.fault {
            Some(cfg) => {
                let mut cfg = *cfg;
                cfg.seed = cfg
                    .seed
                    .wrapping_add(0x9E37_79B9 * (dead as u64 + 1))
                    .wrapping_add(0xD1CE_0000 * recoveries);
                Some(FaultProxy::spawn(ingest, cfg)?)
            }
            None => None,
        };
        let data_addr = proxy.as_ref().map_or(ingest, FaultProxy::addr);
        let left = StreamSender::new(
            data_addr,
            0,
            Side::Left,
            self.opts.spec.side_schema(Side::Left),
            self.opts.client.clone(),
        );
        let right = StreamSender::new(
            data_addr,
            1,
            Side::Right,
            self.opts.spec.side_schema(Side::Right),
            self.opts.client.clone(),
        );
        self.links[dead] = WorkerLink {
            ctrl,
            proxy,
            left,
            right,
            sink: SinkSubscriber::new(sink),
            sink_done: false,
        };
        Ok(())
    }

    /// Stages `moved` (rehashed under the current shard count) into
    /// every worker and activates a fresh map epoch, then re-injects
    /// `pending` punctuations with brand-new routes. Both the rollback
    /// path and [`restore_latest`](Cluster::restore_latest) end here.
    fn install_state(
        &mut self,
        moved: Vec<(Side, u64, Tuple)>,
        pending: Vec<PendingPunct>,
    ) -> Result<(), ClusterError> {
        let epoch = self.map.epoch + 1;
        let shards = self.map.shards();
        let new_map = ShardMap::round_robin(epoch, shards, self.opts.workers);
        type ShardRecords = HashMap<(u32, u8), Vec<(u64, Tuple)>>;
        let mut per_worker: Vec<ShardRecords> = vec![HashMap::new(); self.links.len()];
        for (side, arrival_us, tuple) in moved {
            let hash = tuple.get(self.opts.spec.join_attr(side)).and_then(Value::join_hash);
            let shard = partition(hash, shards);
            let worker = new_map.worker_of(shard) as usize;
            let side_idx = if side == Side::Left { 0u8 } else { 1u8 };
            per_worker[worker]
                .entry((shard as u32, side_idx))
                .or_default()
                .push((arrival_us, tuple));
        }
        let blob = self.config_blob();
        for (w, groups) in per_worker.into_iter().enumerate() {
            let link = &mut self.links[w];
            link.ctrl.send(&Frame::ShardMapUpdate {
                worker: w as u32,
                map: new_map.clone(),
                config: blob.clone(),
            })?;
            let mut installed: u64 = 0;
            for ((shard, side), records) in groups {
                installed += records.len() as u64;
                for chunk in records.chunks(MIGRATE_CHUNK) {
                    link.ctrl.send(&Frame::MigrateState {
                        shard,
                        side,
                        records: chunk.to_vec(),
                    })?;
                }
            }
            link.ctrl.send(&Frame::MigrateStateDone { records: installed })?;
            link.ctrl.send(&Frame::MigrateCommit { epoch })?;
        }
        self.await_commits(epoch)?;
        self.map = new_map;
        for p in pending {
            let side = if p.side == 0 { Side::Left } else { Side::Right };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.route_punct(side, &p.punct, seq, self.clock)?;
            self.pending_log.insert(seq, (side, p.punct));
        }
        Ok(())
    }

    /// Restores a freshly-assembled cluster from the latest complete
    /// epoch in its checkpoint directory: installs the snapshot state
    /// into the workers, re-injects pending punctuations, and returns
    /// the input cursor the driver must re-feed its sources from.
    /// `Ok(None)` if the directory holds no complete epoch (nothing to
    /// restore — start from the beginning). Call after
    /// [`accept_workers`](Cluster::accept_workers).
    pub fn restore_latest(&mut self) -> Result<Option<u64>, ClusterError> {
        let Some(d) = self.durable.as_mut() else {
            return Err(ClusterError::Protocol(
                "restore_latest() requires durability to be enabled".into(),
            ));
        };
        let Some(snap) = d.store.latest_complete()? else {
            return Ok(None);
        };
        if snap.meta.workers as usize != self.opts.workers {
            return Err(ClusterError::Protocol(format!(
                "checkpoint epoch {} was cut with {} workers, cluster has {}",
                snap.epoch, snap.meta.workers, self.opts.workers
            )));
        }
        d.next_epoch = snap.epoch + 1;
        d.input_cursor = snap.meta.input_cursor;
        let cursor = snap.meta.input_cursor;
        self.pushed = snap.meta.pushed;
        self.aligner = Aligner::new();
        self.pending_log.clear();
        self.install_state(flatten_records(snap.records), snap.pending)?;
        Ok(Some(cursor))
    }

    /// Waits for every worker to echo `MigrateCommit { epoch }`.
    fn await_commits(&mut self, epoch: u64) -> Result<(), ClusterError> {
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        for w in 0..self.links.len() {
            let frame = self.recv_ctrl(w, deadline, "MigrateCommit echo")?;
            match frame {
                Frame::MigrateCommit { epoch: got } if got == epoch => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected MigrateCommit({epoch}) echo from worker {w}, got {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Finishes both streams of every worker, drains every sink to
    /// completion, and returns the merged output with full accounting.
    /// Every ingested punctuation has been emitted exactly once when
    /// this returns.
    pub fn finish(mut self) -> Result<ClusterReport, ClusterError> {
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        let mut sender_reconnects = 0;
        for link in &mut self.links {
            link.left.finish()?;
            link.right.finish()?;
            sender_reconnects += link.left.reconnects() + link.right.reconnects();
        }
        loop {
            self.pass()?;
            for link in &mut self.links {
                link.sink_done = link.sink.finished();
            }
            if self.links.iter().all(|l| l.sink_done) {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout("worker sinks to finish".into()));
            }
            self.wait_for_links(remaining)?;
        }
        if self.aligner.pending_len() != 0 || !self.pending_log.is_empty() {
            return Err(ClusterError::Protocol(format!(
                "{} punctuations never fully propagated",
                self.aligner.pending_len().max(self.pending_log.len())
            )));
        }
        // The streams are complete: release every withheld output. A
        // crash can no longer undo them.
        if let Some(d) = &mut self.durable {
            self.ready.append(&mut d.uncommitted);
            d.input_log.clear();
        }
        // Every worker flushes a final cumulative report after its
        // streams end and before its sink closes; wait for the stragglers
        // so the merged telemetry covers the whole run.
        if self.opts.telemetry.enabled {
            while let Some(&w) = self.telem.finals_pending().first() {
                match self.links[w].ctrl.recv_deadline(deadline, "final telemetry flush")? {
                    Frame::Telemetry { payload } => self.ingest_telemetry(w, &payload)?,
                    Frame::Heartbeat { .. } => {}
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "unexpected control frame from worker {w}: {other:?}"
                        )))
                    }
                }
            }
        }
        let proxy_stats = self
            .links
            .iter()
            .filter_map(|l| l.proxy.as_ref().map(FaultProxy::stats))
            .collect();
        let telemetry = std::mem::replace(
            &mut self.telem,
            ClusterTelemetry::new(0, TelemetrySettings::disabled()),
        );
        let (checkpoints, recoveries) =
            self.durable.as_ref().map_or((0, 0), |d| (d.checkpoints, d.recoveries));
        Ok(ClusterReport {
            outputs: std::mem::take(&mut self.ready),
            pushed: self.pushed,
            migrations: std::mem::take(&mut self.migrations),
            sender_reconnects,
            proxy_stats,
            telemetry,
            checkpoints,
            recoveries,
        })
    }

    /// The live merged telemetry view (grows as reports arrive; complete
    /// once [`finish`](Cluster::finish) returns it in the report).
    pub fn telemetry(&self) -> &ClusterTelemetry {
        &self.telem
    }

    /// Prometheus text exposition of the current merged cluster state.
    pub fn metrics_text(&self) -> String {
        self.telem.metrics_text()
    }

    /// The live ASCII cluster dashboard at `width` columns.
    pub fn dashboard_text(&self, width: usize) -> String {
        self.telem.dashboard_text(width)
    }
}

/// Flattens snapshot record sections into the `(side, arrival, tuple)`
/// shape the install path rehashes.
fn flatten_records(records: Vec<ShardRecords>) -> Vec<(Side, u64, Tuple)> {
    let mut moved = Vec::with_capacity(records.iter().map(|r| r.records.len()).sum());
    for section in records {
        let side = if section.side == 0 { Side::Left } else { Side::Right };
        for (arrival_us, tuple) in section.records {
            moved.push((side, arrival_us, tuple));
        }
    }
    moved
}

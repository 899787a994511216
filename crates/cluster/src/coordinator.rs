//! The cluster coordinator: owner of the shard map, router of the data
//! plane, and conductor of the barrier protocol that repartitions,
//! checkpoints and rolls back the cluster.
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
//! ## The barrier state machine
//!
//! Migration, checkpoint and rollback are built from three protocol
//! steps, each implemented once:
//!
//! 1. **Barrier** (`Cluster::barrier`): an Empty-pattern punctuation
//!    down *both* of a worker's data streams, flushed, stamped with a
//!    nonce whose namespace names the operation — the barrier is ordered
//!    behind all earlier elements and delivered exactly once even through
//!    a faulty link, because it is an ordinary sequenced element, and it
//!    is the whole instruction: no control frame arms it.
//! 2. **Cut** (`Cluster::cut`): each worker publishes its sink
//!    marker — stamped with the operation's nonce, so it names its
//!    barrier — reports `BarrierReached`, and exports its state; the
//!    coordinator drains each sink a run at a time up to the marker
//!    carrying its nonce, so every pre-barrier output (and propagation
//!    observation) lands before the cut, and collects the exported
//!    records.
//! 3. **Install** (`Cluster::install`): records are rehashed
//!    under a shard count and shipped to their new owners
//!    (`ShardMapUpdate`, `MigrateState` chunks, `MigrateStateDone`,
//!    `MigrateCommit`); workers echo the commit and the map is adopted.
//!    Assembly's epoch 1 is an install of no records.
//!
//! [`Cluster::repartition`] is barrier, cut and install under the new
//! shard count, then a re-injection of the punctuations not yet fully
//! propagated. [`Cluster::checkpoint`] is barrier and cut, committed to
//! disk as one epoch while the workers resume. Crash recovery is a
//! barrier on the survivors, whose sinks are drained to the rollback's
//! marker the way a cut drains them — except that what precedes the
//! marker is condemned and dropped, not absorbed — then a replacement
//! handshake, an install of the latest epoch, a re-injection of its
//! pending punctuations and a replay of the input log;
//! [`Cluster::restore_latest`] is that install and re-injection alone.
//! No step waits for a sink to fall quiet: every barrier ends at its own
//! marker.
//!
//! A punctuation keeps the sequence number it was pushed under for life:
//! re-injection routes it under that number, and a replay numbers the
//! logged ones from the counter saved at the last commit.
//!
//! Every operation is synchronous, so no push can interleave with one:
//! one operation in flight at a time is a cluster-v1 constraint,
//! enforced by construction.
//!
//! A worker is lost in one way: every call on its links classifies a
//! transport failure as `ClusterError::WorkerLost`, and one loop,
//! `Cluster::supervised`, recovers it for `push`, `poll_outputs`,
//! `checkpoint` and `finish` alike.
//!
//! ## Output acknowledgements
//!
//! The coordinator is the only subscriber of every worker's sink, and a
//! [`SinkSubscriber`] only ever resumes from what it has received. So
//! once it has absorbed [`ACK_EVERY`] elements from a worker since the
//! last acknowledgement, a pass sends that worker
//! [`Frame::Ack`]`{ up_to }` on its control link with the subscriber's
//! received count, and the worker frees its sink frames below it. A
//! worker's sink therefore holds what is in flight, not the whole run,
//! with durability off as well as on. A checkpoint commit sends every
//! worker the same `Ack`, so what the cut absorbed is freed at once.

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
    error_code, wait_readable, ClientOptions, FaultConfig, FaultProxy, Frame, NetError,
    ProxyStats, SinkSubscriber, StreamSender, WIRE_VERSION,
};
use punct_types::{
    partition, PunctSeq, Punctuation, ShardMap, StreamElement, Timestamp, Timestamped, Tuple,
    Value, MAX_SHARDS,
};
use stream_sim::Side;

use crate::error::{on_link, ClusterError};
use crate::protocol::{
    barrier_nonce, barrier_punct, decode_config, encode_config, is_barrier, side_from_index,
    side_index, CtrlConn, HeartbeatSettings, JoinSpec, Op, TelemetrySettings, CTRL_TIMEOUT,
    MIGRATE_CHUNK,
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

/// Sink elements absorbed from a worker between two [`Frame::Ack`]s to
/// it: each ack lets the worker free the sink frames below it.
const ACK_EVERY: u64 = 4096;

/// [`Cluster::push`] holds the caller back once a sender has this many
/// credit windows of elements pushed but not yet written: enough queued
/// to keep a worker's window full across a drain pass, little enough
/// that a caller outrunning the workers cannot grow the buffers without
/// limit.
const BACKLOG_WINDOWS: u64 = 4;

/// Complete checkpoint epochs kept on disk.
const RETAIN_EPOCHS: usize = 2;

/// The heartbeat policy a recoverable cluster ships to its workers: a
/// beacon every 100 ms, a worker silent for a second is lost.
const HEARTBEAT: HeartbeatSettings = HeartbeatSettings { interval_ms: 100, miss_limit: 10 };

/// Refuses a layout routing cannot serve: the punctuation aligner masks
/// at most 64 workers, every worker owns at least one shard, and shard
/// routing masks at most [`MAX_SHARDS`] shards.
fn check_layout(workers: usize, shards: usize) -> Result<(), ClusterError> {
    if (1..=64).contains(&workers) && (workers..=MAX_SHARDS).contains(&shards) {
        return Ok(());
    }
    Err(ClusterError::Protocol(format!(
        "cannot spread {shards} shards over {workers} workers: a cluster needs 1 to 64 \
         workers, at least one shard per worker and at most {MAX_SHARDS} shards"
    )))
}

/// Join records grouped by `(global shard, side index)`.
type ShardGroups = HashMap<(u32, u8), Vec<(u64, Tuple)>>;

/// What [`Cluster::absorb_run`] reads a worker's sink for.
#[derive(Debug, Clone, Copy)]
enum Drain {
    /// Ordinary output: no barrier is in flight, so a sink marker is a
    /// protocol error.
    Output,
    /// A cut up to the sink marker carrying this nonce: everything ahead
    /// of it is output.
    Cut(u64),
    /// A rollback up to the sink marker carrying this nonce: everything
    /// ahead of it — an aborted operation's marker included — is
    /// condemned and dropped without being aligned.
    Rollback(u64),
}

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
    /// Epochs are cut by [`Cluster::checkpoint`]; the latest two
    /// complete ones are kept.
    pub dir: Option<PathBuf>,
    /// How to relaunch a dead worker. Without it, a lost worker is a
    /// fatal error even with checkpointing on; with it (and a `dir`),
    /// workers beacon heartbeats so a hung one is caught too.
    pub respawn: Option<RespawnFn>,
}

impl std::fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("dir", &self.dir)
            .field("respawn", &self.respawn.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl DurabilityOptions {
    /// Checkpoints to `dir`, with no respawn hook.
    pub fn at(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions { dir: Some(dir.into()), respawn: None }
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
    /// [`HEARTBEAT`] when the cluster can recover, else disabled.
    heartbeat: HeartbeatSettings,
    respawn: Option<RespawnFn>,
    /// Next checkpoint epoch to cut (strictly increasing).
    next_epoch: u64,
    /// Every input pushed since the last committed cut, in push order —
    /// replayed through the routing path after a rollback.
    input_log: Vec<(Side, Timestamped<StreamElement>)>,
    /// The coordinator's next punctuation sequence at the last commit:
    /// a replay of `input_log` numbers its punctuations from here.
    committed_seq: u64,
    /// Outputs absorbed since the last committed cut, withheld from the
    /// caller until a checkpoint (or finish) commits them — a crash
    /// discards them and the replay regenerates them, so the caller
    /// never sees an output twice.
    uncommitted: Vec<Timestamped<StreamElement>>,
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
    /// Data-plane reconnects summed over senders (fault recovery).
    pub sender_reconnects: u32,
    /// Per-worker fault-proxy stats, when proxies were configured.
    pub proxy_stats: Vec<ProxyStats>,
    /// The merged cluster telemetry (final worker flushes and migrations in).
    pub telemetry: ClusterTelemetry,
    /// Checkpoint epochs committed during the run (0 when disabled).
    pub checkpoints: u64,
    /// Worker crash recoveries performed during the run.
    pub recoveries: u64,
}

/// One worker's links. Every call on them goes through the methods
/// below, which classify a transport failure as the loss of this worker
/// ([`on_link`]).
struct WorkerLink {
    worker: usize,
    ctrl: CtrlConn,
    proxy: Option<FaultProxy>,
    left: StreamSender,
    right: StreamSender,
    sink: SinkSubscriber,
    sink_done: bool,
    /// Sink elements absorbed since the last ack to this worker.
    unacked: u64,
}

impl WorkerLink {
    fn send(&mut self, frame: &Frame) -> Result<(), ClusterError> {
        on_link(self.worker, self.ctrl.send(frame))
    }

    fn recv(&mut self, deadline: Instant, what: &str) -> Result<Frame, ClusterError> {
        on_link(self.worker, self.ctrl.recv_deadline(deadline, what))
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, ClusterError> {
        on_link(self.worker, self.ctrl.poll_recv())
    }

    fn push(&mut self, side: Side, el: Timestamped<StreamElement>) -> Result<(), ClusterError> {
        let sender = if side == Side::Left { &mut self.left } else { &mut self.right };
        on_link(self.worker, sender.push(el))
    }

    /// Runs `op` — `service`, `flush` or `finish` — on both senders.
    fn senders(
        &mut self,
        op: impl Fn(&mut StreamSender) -> Result<(), NetError>,
    ) -> Result<(), ClusterError> {
        on_link(self.worker, op(&mut self.left).and_then(|()| op(&mut self.right)))
    }

    fn next_run(
        &mut self,
        wait: Duration,
        out: &mut Vec<Timestamped<StreamElement>>,
    ) -> Result<usize, ClusterError> {
        on_link(self.worker, self.sink.next_run(wait, out))
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
    /// sequence — the coordinator's one record of what is pending, and
    /// what re-injection routes again.
    pending_log: HashMap<u64, (Side, Punctuation)>,
    /// Outputs drained from worker sinks, ready for the caller.
    ready: Vec<Timestamped<StreamElement>>,
    clock: Timestamp,
    pushed: u64,
    telem: ClusterTelemetry,
    durable: Option<DurableState>,
}

impl Cluster {
    /// Binds the control endpoint. Workers can be launched against
    /// [`ctrl_addr`](Cluster::ctrl_addr) as soon as this returns;
    /// [`accept_workers`](Cluster::accept_workers) completes the
    /// assembly. Refuses 0 or more than 64 workers, fewer shards than
    /// workers, and more than [`MAX_SHARDS`] shards, binding nothing.
    pub fn bind(opts: ClusterOptions) -> Result<Cluster, ClusterError> {
        check_layout(opts.workers, opts.shards)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let ctrl_addr = listener.local_addr()?;
        let cfg = opts.spec.pjoin_config();
        let durable = match &opts.durability.dir {
            Some(dir) => {
                let store = CheckpointStore::open(dir, RETAIN_EPOCHS)?;
                let next_epoch = store.latest()?.map_or(1, |e| e + 1);
                let respawn = opts.durability.respawn.clone();
                Some(DurableState {
                    store,
                    heartbeat: if respawn.is_some() { HEARTBEAT } else { Default::default() },
                    respawn,
                    next_epoch,
                    input_log: Vec::new(),
                    committed_seq: 0,
                    uncommitted: Vec::new(),
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
        let heartbeat = self.durable.as_ref().map(|d| d.heartbeat).unwrap_or_default();
        encode_config(&self.opts.spec, &self.opts.telemetry, &heartbeat)
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
        let deadline = Instant::now() + CTRL_TIMEOUT;
        let mut joined: Vec<Option<WorkerLink>> = Vec::new();
        joined.resize_with(self.opts.workers, || None);
        while joined.iter().any(Option::is_none) {
            let (worker, link) = self.handshake(deadline)?;
            if joined[worker].replace(link).is_some() {
                return Err(ClusterError::Protocol(format!("duplicate worker index {worker}")));
            }
        }
        self.links = joined.into_iter().map(|l| l.expect("all slots filled")).collect();
        self.install(self.opts.shards, Vec::new())?;
        self.sync_clocks(0..self.links.len())
    }

    /// Accepts one worker's control connection before `deadline`, checks
    /// its `JoinCluster` handshake (a wire-version mismatch is answered
    /// with a `VERSION_MISMATCH` error frame), and builds its link: a
    /// fault proxy when configured — seeded per worker index and salted
    /// by the recovery count, so a replacement does not replay its
    /// predecessor's fault schedule — fresh zero-sequence senders and a
    /// sink subscription. Returns the worker's index and link.
    fn handshake(&mut self, deadline: Instant) -> Result<(usize, WorkerLink), ClusterError> {
        let sock = loop {
            match self.listener.accept() {
                Ok((sock, _)) => break sock,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        return Err(ClusterError::Timeout("worker handshake".into()));
                    }
                    wait_readable(&[self.listener.as_fd()], wait)?;
                }
                Err(e) => return Err(ClusterError::Io(e)),
            }
        };
        let mut ctrl = CtrlConn::from_stream(sock)?;
        let frame = ctrl.recv_deadline(deadline, "JoinCluster")?;
        let Frame::JoinCluster { wire_version, worker, ingest_addr, sink_addr } = frame else {
            return Err(ClusterError::Protocol(format!("expected JoinCluster, got {frame:?}")));
        };
        if wire_version != WIRE_VERSION {
            ctrl.send(&Frame::Error {
                code: error_code::VERSION_MISMATCH,
                message: format!(
                    "coordinator speaks wire v{WIRE_VERSION}, worker spoke v{wire_version}"
                ),
            })?;
            return Err(ClusterError::Protocol(format!(
                "worker {worker} speaks wire v{wire_version}, expected v{WIRE_VERSION}"
            )));
        }
        let worker = worker as usize;
        if worker >= self.opts.workers {
            return Err(ClusterError::Protocol(format!("unexpected worker index {worker}")));
        }
        let parse = |addr: &str| {
            addr.parse::<SocketAddr>()
                .map_err(|_| ClusterError::Protocol(format!("bad worker address {addr}")))
        };
        let (ingest, sink) = (parse(&ingest_addr)?, parse(&sink_addr)?);
        let recoveries = self.durable.as_ref().map_or(0, |d| d.recoveries);
        let proxy = match &self.opts.fault {
            Some(cfg) => {
                let mut cfg = *cfg;
                cfg.seed = cfg
                    .seed
                    .wrapping_add(0x9E37_79B9 * (worker as u64 + 1))
                    .wrapping_add(0xD1CE_0000 * recoveries);
                Some(FaultProxy::spawn(ingest, cfg)?)
            }
            None => None,
        };
        let data_addr = proxy.as_ref().map_or(ingest, FaultProxy::addr);
        let sender = |stream, side| {
            let schema = self.opts.spec.side_schema(side);
            StreamSender::new(data_addr, stream, side, schema, self.opts.client.clone())
        };
        let (left, right) = (sender(0, Side::Left), sender(1, Side::Right));
        let sink = SinkSubscriber::new(sink);
        let (sink_done, unacked) = (false, 0);
        let link = WorkerLink { worker, ctrl, proxy, left, right, sink, sink_done, unacked };
        Ok((worker, link))
    }

    /// Estimates the clock offset of each of `workers` with a burst of
    /// request-response probes over the control plane (min-RTT sample
    /// wins). Runs after the workers enter their serve loops, where a
    /// control frame wakes the worker at once: for every worker at
    /// assembly, and for a replacement once its recovery installed it.
    fn sync_clocks(
        &mut self,
        workers: impl IntoIterator<Item = usize>,
    ) -> Result<(), ClusterError> {
        if !self.opts.telemetry.enabled {
            return Ok(());
        }
        let deadline = Instant::now() + CTRL_TIMEOUT;
        for w in workers {
            for probe in 0..CLOCK_PROBES {
                let payload =
                    TelemetryMsg::ClockProbe { probe, t0_ns: wall_now_ns() }.encode();
                self.links[w].send(&Frame::Telemetry { payload })?;
                let want = self.telem.clock(w).samples() + 1;
                while self.telem.clock(w).samples() < want {
                    let frame = self.links[w].recv(deadline, "clock ack")?;
                    if let Some(other) = self.fold_async(w, frame)? {
                        return Err(ClusterError::Protocol(format!(
                            "expected a clock ack from worker {w}, got {other:?}"
                        )));
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
    /// An Empty-pattern punctuation on the join attribute is reserved for
    /// barriers: it is refused before it is logged or routed, and still
    /// counted in [`ClusterReport::pushed`], so a checkpoint's input
    /// cursor stays the caller's source position.
    ///
    /// With durability enabled, the element is appended to the input
    /// replay log *before* routing, and a lost worker is recovered in
    /// place: the rolled-back cluster replays the log — including this
    /// element — so the push still succeeds.
    pub fn push(
        &mut self,
        side: Side,
        element: Timestamped<StreamElement>,
    ) -> Result<(), ClusterError> {
        self.pushed += 1;
        if let StreamElement::Punctuation(p) = &element.item {
            let spec = &self.opts.spec;
            if p.width() == spec.side_width(side) && is_barrier(p, spec.join_attr(side)) {
                return Err(ClusterError::Protocol(
                    "Empty-pattern punctuations on the join attribute are reserved \
                     for cluster barriers"
                        .into(),
                ));
            }
        }
        if let Some(d) = &mut self.durable {
            d.input_log.push((side, element.clone()));
        }
        // After a recovery the replay has routed the element: a rerun
        // only relieves the backlog.
        let mut element = Some(element);
        self.supervised(|c| {
            if let Some(element) = element.take() {
                c.route_element(side, element)?;
            }
            c.relieve_backlog()
        })
    }

    /// Runs `op`; when it reports a lost worker and the cluster can
    /// recover (durability on, with a respawn hook), recovers in place and
    /// runs `op` again. The one recovery loop of `push`, `poll_outputs`,
    /// `checkpoint` and `finish`. An error inside the recovery itself — a
    /// second loss among them — ends the call.
    fn supervised<T>(
        &mut self,
        mut op: impl FnMut(&mut Cluster) -> Result<T, ClusterError>,
    ) -> Result<T, ClusterError> {
        // Each rerun can find at most one more dead worker; anything
        // beyond that is a real failure.
        let recoverable = self.durable.as_ref().is_some_and(|d| d.respawn.is_some());
        for _ in 0..=self.opts.workers {
            match op(self) {
                Err(ClusterError::WorkerLost { worker: w, .. }) if recoverable => self.recover(w)?,
                r => return r,
            }
        }
        Err(ClusterError::Protocol("workers kept dying faster than recovery".into()))
    }

    /// Backpressure for [`push`](Cluster::push): while any sender holds
    /// more than [`BACKLOG_WINDOWS`] credit windows of unwritten
    /// elements, run the drain pass [`poll_outputs`](Cluster::poll_outputs)
    /// runs — credits come back, senders write, and the outputs drained
    /// meanwhile wait in `ready` for the caller's next poll.
    fn relieve_backlog(&mut self) -> Result<(), ClusterError> {
        let over = |s: &StreamSender| s.backlog() > BACKLOG_WINDOWS * u64::from(s.window());
        let deadline = Instant::now() + CTRL_TIMEOUT;
        while self.links.iter().any(|l| over(&l.left) || over(&l.right)) {
            self.tick(IDLE_WAIT)?;
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
                self.links[worker].push(side, element)
            }
            StreamElement::Punctuation(ref p) => {
                if p.width() != self.opts.spec.side_width(side) {
                    // Mirror the single-threaded operator: ignore.
                    return Ok(());
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                self.route_punct(side, p.clone(), seq, element.ts)
            }
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
    /// `seq`) under the active map, sends it to every target worker and
    /// logs it as pending.
    fn route_punct(
        &mut self,
        side: Side,
        p: Punctuation,
        seq: u64,
        ts: Timestamp,
    ) -> Result<(), ClusterError> {
        let route = route_punctuation(&p, side, &self.cfg, self.map.shards());
        let workers = self.target_workers(&route);
        debug_assert!(!workers.is_empty(), "every shard has an owner");
        if self.opts.telemetry.enabled {
            self.telem.note_route(seq, side_index(side), wall_now_ns(), &workers);
        }
        let mask = workers.iter().fold(0u64, |m, &w| m | (1 << w));
        let translated = translate_punctuation(
            &p,
            self.opts.spec.side_offset(side),
            self.opts.spec.output_width(),
        );
        self.aligner.expect(translated, PunctSeq(seq), mask);
        for w in workers {
            self.links[w].push(side, Timestamped::new(ts, StreamElement::Punctuation(p.clone())))?;
        }
        self.pending_log.insert(seq, (side, p));
        Ok(())
    }

    /// The pending log as a snapshot records it.
    fn pending_puncts(&self) -> Vec<PendingPunct> {
        self.pending_log
            .iter()
            .map(|(&seq, (s, p))| PendingPunct { seq, side: side_index(*s), punct: p.clone() })
            .collect()
    }

    /// Re-injects `pending` punctuations into a merge state that starts
    /// over: the aligner and the pending log are reset, and each
    /// punctuation is routed through the active map, oldest first, under
    /// its own sequence number and stamped with the current clock. Its
    /// earlier partial propagations were dropped with the old
    /// expectations — absorbed by a cut, or condemned by a rollback — so
    /// each still emits exactly once. Repartition, crash recovery and
    /// restore all end here.
    fn reinject(&mut self, mut pending: Vec<PendingPunct>) -> Result<(), ClusterError> {
        pending.sort_unstable_by_key(|p| p.seq);
        self.aligner = Aligner::new();
        self.pending_log.clear();
        for p in pending {
            self.route_punct(side_from_index(p.side)?, p.punct, p.seq, self.clock)?;
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
    /// heartbeats and dead links trigger crash recovery here. Only
    /// **committed** outputs are returned — outputs produced since the
    /// last cut stay withheld until the next checkpoint (or finish)
    /// commits them.
    pub fn poll_outputs(&mut self) -> Result<Vec<Timestamped<StreamElement>>, ClusterError> {
        self.supervised(Cluster::poll_once)?;
        // The next poll's buffer starts at this one's size, so a like
        // burst fills it without regrowing.
        let next = Vec::with_capacity(self.ready.len());
        Ok(std::mem::replace(&mut self.ready, next))
    }

    /// Passes over the links until one absorbs output or [`IDLE_WAIT`]
    /// has gone by, sleeping on the link sockets in between.
    fn poll_once(&mut self) -> Result<(), ClusterError> {
        let idle_until = Instant::now() + IDLE_WAIT;
        loop {
            let remaining = idle_until.saturating_duration_since(Instant::now());
            if self.tick(remaining)? > 0 || remaining.is_zero() {
                return Ok(());
            }
        }
    }

    /// One [`pass`](Cluster::pass) and a liveness check; a pass that
    /// absorbed nothing then sleeps on the link sockets for up to `idle`.
    /// Returns what the pass absorbed.
    fn tick(&mut self, idle: Duration) -> Result<usize, ClusterError> {
        let absorbed = self.pass()?;
        self.check_liveness()?;
        if absorbed == 0 && !idle.is_zero() {
            self.wait_for_links(idle)?;
        }
        Ok(absorbed)
    }

    /// One non-blocking pass over every link: control frames folded in,
    /// senders serviced, sinks drained a run at a time, and each worker
    /// that has had [`ACK_EVERY`] elements absorbed since its last ack
    /// acknowledged up to what its subscriber received. Returns the sink
    /// elements absorbed.
    fn pass(&mut self) -> Result<usize, ClusterError> {
        self.drain_ctrl()?;
        let mut absorbed = 0;
        for w in 0..self.links.len() {
            self.links[w].senders(StreamSender::service)?;
            while !self.links[w].sink_done {
                match self.absorb_run(w, Duration::ZERO, Drain::Output)? {
                    (0, _) => break,
                    (n, _) => absorbed += n,
                }
            }
        }
        Ok(absorbed)
    }

    /// Moves the next run `worker`'s subscriber has queued — waiting up
    /// to `wait` for one — onto the merged output, acknowledging what the
    /// subscriber has received once [`ACK_EVERY`] elements have piled up.
    /// Tuples stay where they land; only punctuations go through the
    /// aligner, and one stays only if it is the copy the aligner emits.
    /// Returns how many elements the run held and whether it held the
    /// marker `drain` waits for (which never reaches the output).
    fn absorb_run(
        &mut self,
        worker: usize,
        wait: Duration,
        drain: Drain,
    ) -> Result<(usize, bool), ClusterError> {
        let mut merged = std::mem::take(self.merged());
        let run = self.fold_run(worker, wait, drain, &mut merged);
        *self.merged() = merged;
        let (n, reached) = run?;
        let link = &mut self.links[worker];
        link.unacked += n as u64;
        if link.unacked >= ACK_EVERY {
            link.unacked = 0;
            let up_to = link.sink.received();
            link.send(&Frame::Ack { up_to })?;
        }
        Ok((n, reached))
    }

    /// The body of [`absorb_run`](Cluster::absorb_run), on the merged
    /// output taken out of `self`.
    fn fold_run(
        &mut self,
        worker: usize,
        wait: Duration,
        drain: Drain,
        merged: &mut Vec<Timestamped<StreamElement>>,
    ) -> Result<(usize, bool), ClusterError> {
        let start = merged.len();
        let n = self.links[worker].next_run(wait, merged)?;
        let mut reached = false;
        if let Drain::Cut(nonce) | Drain::Rollback(nonce) = drain {
            let attr = self.opts.spec.join_attr_a;
            let marker = merged[start..].iter().position(|e| {
                e.ts == Timestamp(nonce)
                    && matches!(&e.item, StreamElement::Punctuation(p) if is_barrier(p, attr))
            });
            reached = marker.is_some();
            match (drain, marker) {
                (Drain::Rollback(_), Some(i)) => drop(merged.drain(start..=start + i)),
                (Drain::Rollback(_), None) => merged.truncate(start),
                (_, Some(i)) => drop(merged.remove(start + i)),
                (_, None) => {}
            }
        }
        let Some(first) = merged[start..].iter().position(|e| e.item.is_punctuation()) else {
            return Ok((n, reached));
        };
        let mut kept = start + first;
        for i in start + first..merged.len() {
            let keep = match &merged[i].item {
                StreamElement::Tuple(_) => true,
                StreamElement::Punctuation(p) => self.align(worker, p)?,
            };
            if keep {
                merged.swap(kept, i);
                kept += 1;
            }
        }
        merged.truncate(kept);
        Ok((n, reached))
    }

    /// Drains `worker`'s sink a run at a time until the run holding the
    /// marker `drain` waits for, sleeping on the sink's socket in between
    /// and failing at `deadline`. What a run holds past the marker is
    /// ordinary output: a checkpoint's worker has resumed (though nothing
    /// was pushed behind the barrier for it to answer), while a
    /// migration's or rollback's worker publishes nothing until its
    /// install commits.
    fn drain_to_marker(
        &mut self,
        worker: usize,
        drain: Drain,
        deadline: Instant,
    ) -> Result<(), ClusterError> {
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.absorb_run(worker, wait, drain)? {
                (_, true) => return Ok(()),
                (0, false) if wait.is_zero() => {
                    return Err(ClusterError::Timeout(format!(
                        "{drain:?} sink marker from worker {worker}"
                    )))
                }
                _ => {}
            }
        }
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
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let Some(deadline) = d.heartbeat.deadline() else {
            return Ok(());
        };
        let now = Instant::now();
        match d.last_heard.iter().position(|&heard| now.duration_since(heard) > deadline) {
            Some(w) => on_link(w, Err(ClusterError::Timeout(format!("worker {w}'s heartbeat")))),
            None => Ok(()),
        }
    }

    /// Refreshes `worker`'s liveness stamp.
    fn note_heard(&mut self, worker: usize) {
        if let Some(d) = &mut self.durable {
            d.last_heard[worker] = Instant::now();
        }
    }

    /// Where merged outputs go: the caller's next poll, or the buffer
    /// the next checkpoint commit releases.
    fn merged(&mut self) -> &mut Vec<Timestamped<StreamElement>> {
        match &mut self.durable {
            Some(d) => &mut d.uncommitted,
            None => &mut self.ready,
        }
    }

    /// Merges one punctuation propagated by `worker`: whether it is to be
    /// emitted now, i.e. every worker it was routed to has propagated it
    /// (exactly one copy is). A sink marker here is one no drain waits
    /// for — outside a barrier, or carrying another barrier's nonce — and
    /// an error.
    fn align(&mut self, worker: usize, p: &Punctuation) -> Result<bool, ClusterError> {
        if is_barrier(p, self.opts.spec.join_attr_a) {
            return Err(ClusterError::Protocol(format!(
                "worker {worker} published a sink marker no barrier awaits"
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
                Ok(true)
            }
            AlignOutcome::Pending => Ok(false),
            AlignOutcome::Unexpected => Err(ClusterError::Protocol(format!(
                "worker {worker} propagated an unregistered punctuation {p}"
            ))),
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
            let frame = self.links[worker].recv(deadline, what)?;
            if let Some(frame) = self.fold_async(worker, frame)? {
                return Ok(frame);
            }
        }
    }

    /// Folds an asynchronous control frame from `worker` — a telemetry
    /// push or a heartbeat, either of which refreshes its liveness stamp
    /// — and hands back any other frame.
    fn fold_async(&mut self, worker: usize, frame: Frame) -> Result<Option<Frame>, ClusterError> {
        match frame {
            Frame::Telemetry { payload } => self.ingest_telemetry(worker, &payload)?,
            Frame::Heartbeat { .. } => {}
            other => return Ok(Some(other)),
        }
        self.note_heard(worker);
        Ok(None)
    }

    /// Non-blocking drain of pending asynchronous frames (telemetry
    /// pushes and heartbeats) on every control link. Outside a
    /// migration those are the only frames workers originate, so
    /// anything else is a protocol error. Every frame — whatever its
    /// payload — refreshes the sender's liveness stamp, and a link at
    /// end of stream reports its worker gone.
    fn drain_ctrl(&mut self) -> Result<(), ClusterError> {
        for w in 0..self.links.len() {
            while let Some(frame) = self.links[w].poll_recv()? {
                if let Some(other) = self.fold_async(w, frame)? {
                    return Err(ClusterError::Protocol(format!(
                        "unexpected control frame from worker {w}: {other:?}"
                    )));
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

    /// Sends each of `workers` the barrier carrying `nonce` down both of
    /// its data streams, flushed: once flushed, the barrier (and
    /// everything before it) is in the worker's ingest channel exactly
    /// once. The nonce, the barrier's timestamp, names the operation the
    /// worker runs when the barrier has crossed both streams.
    fn barrier(
        &mut self,
        workers: impl IntoIterator<Item = usize>,
        nonce: u64,
    ) -> Result<(), ClusterError> {
        for w in workers {
            let link = &mut self.links[w];
            for side in [Side::Left, Side::Right] {
                let b = StreamElement::Punctuation(barrier_punct(&self.opts.spec, side));
                link.push(side, Timestamped::new(Timestamp(nonce), b))?;
            }
            link.senders(StreamSender::flush)?;
        }
        Ok(())
    }

    /// The cut behind a barrier carrying `nonce`: every worker confirms
    /// `BarrierReached`, each sink is drained to the marker carrying
    /// `nonce` (so every pre-barrier output and propagation observation
    /// is absorbed; a marker carrying another nonce is a protocol error),
    /// and every worker's exported records are collected, grouped by the
    /// global shard and side the worker reports. Returns the records and
    /// the instant the drain ended.
    fn cut(&mut self, nonce: u64) -> Result<(Vec<ShardRecords>, Instant), ClusterError> {
        let deadline = Instant::now() + CTRL_TIMEOUT;
        for w in 0..self.links.len() {
            match self.recv_ctrl(w, deadline, "BarrierReached")? {
                Frame::BarrierReached { nonce: got } if got == nonce => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected BarrierReached({nonce}) from worker {w}, got {other:?}"
                    )))
                }
            }
        }
        for w in 0..self.links.len() {
            self.drain_to_marker(w, Drain::Cut(nonce), deadline)?;
        }
        let drained = Instant::now();
        let mut groups = ShardGroups::new();
        for w in 0..self.links.len() {
            let mut got: u64 = 0;
            loop {
                match self.recv_ctrl(w, deadline, "exported state")? {
                    Frame::MigrateState { shard, side, records } => {
                        got += records.len() as u64;
                        groups.entry((shard, side)).or_default().extend(records);
                    }
                    Frame::MigrateStateDone { records } if records == got => break,
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "expected exported state from worker {w} ({got} records so far), \
                             got {other:?}"
                        )))
                    }
                }
            }
        }
        let records = groups
            .into_iter()
            .map(|((shard, side), records)| ShardRecords { shard, side, records })
            .collect();
        Ok((records, drained))
    }

    /// Installs `records` as the next map epoch over `shards` global
    /// shards: rehashes every `(side, arrival, tuple)` to its owner under
    /// the new map, sends each worker `ShardMapUpdate`, its records as
    /// `MigrateState` chunks, `MigrateStateDone` with their count and
    /// `MigrateCommit`, and adopts the map once every worker echoed the
    /// commit. Re-injecting pending punctuations is the caller's job.
    fn install(&mut self, shards: usize, records: Vec<ShardRecords>) -> Result<(), ClusterError> {
        let epoch = self.map.epoch + 1;
        let map = ShardMap::round_robin(epoch, shards, self.opts.workers);
        let mut per_worker: Vec<ShardGroups> = vec![ShardGroups::new(); self.links.len()];
        for section in records {
            let attr = self.opts.spec.join_attr(side_from_index(section.side)?);
            for (arrival_us, tuple) in section.records {
                let shard = partition(tuple.get(attr).and_then(Value::join_hash), shards);
                per_worker[map.worker_of(shard) as usize]
                    .entry((shard as u32, section.side))
                    .or_default()
                    .push((arrival_us, tuple));
            }
        }
        let config = self.config_blob();
        for (w, groups) in per_worker.into_iter().enumerate() {
            let link = &mut self.links[w];
            link.send(&Frame::ShardMapUpdate {
                worker: w as u32,
                map: map.clone(),
                config: config.clone(),
            })?;
            let mut installed: u64 = 0;
            for ((shard, side), records) in groups {
                installed += records.len() as u64;
                for chunk in records.chunks(MIGRATE_CHUNK) {
                    link.send(&Frame::MigrateState { shard, side, records: chunk.to_vec() })?;
                }
            }
            link.send(&Frame::MigrateStateDone { records: installed })?;
            link.send(&Frame::MigrateCommit { epoch })?;
        }
        let deadline = Instant::now() + CTRL_TIMEOUT;
        for w in 0..self.links.len() {
            match self.recv_ctrl(w, deadline, "MigrateCommit echo")? {
                Frame::MigrateCommit { epoch: got } if got == epoch => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected MigrateCommit({epoch}) echo from worker {w}, got {other:?}"
                    )))
                }
            }
        }
        self.map = map;
        Ok(())
    }

    /// Elastically repartitions the cluster to `new_shards` global
    /// shards: barrier, cut, install, re-inject. Synchronous — when this
    /// returns the new epoch is active everywhere and pushes may resume.
    /// No join output is lost or duplicated across the resize, and no
    /// punctuation is propagated twice. A shard count below the worker
    /// count or above [`MAX_SHARDS`] is refused before any barrier is sent.
    /// A worker lost mid-migration is fatal ([`ClusterError::WorkerLost`]):
    /// a survivor blocked in an install cannot take a rollback.
    pub fn repartition(&mut self, new_shards: usize) -> Result<MigrationStats, ClusterError> {
        check_layout(self.opts.workers, new_shards)?;
        let t0 = Instant::now();
        let epoch = self.map.epoch + 1;
        let nonce = barrier_nonce(Op::Migrate, epoch);
        self.barrier(0..self.links.len(), nonce)?;
        let (records, t_drained) = self.cut(nonce)?;
        let records_moved = records.iter().map(|r| r.records.len() as u64).sum();
        let t_exported = Instant::now();
        self.install(new_shards, records)?;
        let t_installed = Instant::now();

        let puncts_reinjected = self.pending_log.len() as u64;
        self.reinject(self.pending_puncts())?;

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
        self.telem.migrations.push(stats);
        Ok(stats)
    }

    /// Cuts one durable checkpoint epoch, synchronously. The cut is a
    /// barrier punctuation down both streams of every worker — the same
    /// exactly-once mechanism migration uses — so the snapshot is a
    /// consistent prefix of the run:
    ///
    /// 1. **Barrier**: a barrier whose nonce names this checkpoint epoch
    ///    goes down both streams of every worker.
    /// 2. **Cut**: the coordinator confirms `BarrierReached` and drains
    ///    each sink to its marker, so every pre-cut output is absorbed
    ///    (into the uncommitted buffer); workers export their post-purge
    ///    records exactly as migration does, then resume immediately —
    ///    no install wait, so the pause is export-bound, not
    ///    round-trip-bound.
    /// 3. **Commit**: records + pending punctuations + input cursor are
    ///    written as one self-contained epoch (CRC-guarded, atomically
    ///    published). Only then are withheld outputs released, the input
    ///    replay log truncated, and each worker sent an `Ack` of what its
    ///    sink delivered, so it frees that history.
    ///
    /// Returns the committed epoch.
    ///
    /// A worker dying mid-cut aborts the epoch, triggers crash recovery
    /// (with a respawn hook configured), and the cut is retried against
    /// the recovered cluster.
    pub fn checkpoint(&mut self) -> Result<u64, ClusterError> {
        if self.durable.is_none() {
            return Err(ClusterError::Protocol("checkpoint() requires durability".into()));
        }
        self.supervised(|c| {
            let epoch = c.durable.as_ref().expect("checked on entry").next_epoch;
            let nonce = barrier_nonce(Op::Checkpoint, epoch);
            c.barrier(0..c.links.len(), nonce)?;
            let (records, _) = c.cut(nonce)?;
            // Write the epoch, then commit its side effects.
            let meta = SnapshotMeta {
                config_blob: c.config_blob(),
                workers: c.opts.workers as u32,
                shards: c.map.shards() as u32,
                input_cursor: c.pushed,
                pushed: c.pushed,
            };
            let mut snap = Snapshot::of_records(epoch, meta, records);
            snap.pending = c.pending_puncts();
            let d = c.durable.as_mut().expect("checked on entry");
            d.store.commit(&snap)?;
            d.next_epoch = epoch + 1;
            d.input_log.clear();
            d.committed_seq = c.next_seq;
            d.checkpoints += 1;
            c.ready.append(&mut d.uncommitted);
            for link in &mut c.links {
                link.unacked = 0;
                let up_to = link.sink.received();
                link.send(&Frame::Ack { up_to })?;
            }
            Ok(epoch)
        })
    }

    /// Recovers the cluster after losing `dead`: every surviving worker
    /// is rolled back to the latest complete checkpoint (or to empty
    /// state if none exists), a replacement worker is spawned and
    /// adopted under the dead worker's index, and every input since the
    /// checkpoint is replayed through the normal routing path. Withheld
    /// (uncommitted) outputs are discarded first, so the replay cannot
    /// duplicate anything the caller saw.
    fn recover(&mut self, dead: usize) -> Result<(), ClusterError> {
        let d = self.durable.as_mut().expect("only a durable cluster recovers");
        let respawn = d.respawn.clone().expect("only a cluster with a respawn hook recovers");
        d.recoveries += 1;
        let nonce = barrier_nonce(Op::Rollback, d.recoveries);
        let crashed_seq = self.next_seq;
        d.uncommitted.clear();
        let snap = d.store.latest_complete()?;
        let deadline = Instant::now() + CTRL_TIMEOUT;
        let survivors: Vec<usize> = (0..self.links.len()).filter(|&w| w != dead).collect();

        // 1. Roll back the survivors: barrier, then discard everything
        // still in flight — outputs, propagations, and any stale traffic
        // from a checkpoint the crash aborted. A second worker dying
        // during recovery is fatal (cluster v1).
        self.barrier(survivors.iter().copied(), nonce)?;
        for &w in &survivors {
            // The control link is in order, and an aborted checkpoint's
            // frames (its `BarrierReached`, its exported state) were sent
            // when its barrier crossed, before the rollback's: skip them.
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
            // The sink likewise holds the aborted operation's marker ahead
            // of the rollback's: drop everything up to the rollback's.
            self.drain_to_marker(w, Drain::Rollback(nonce), deadline)?;
        }

        // 2. Replace the dead worker and adopt its successor.
        self.telem.reset_worker(dead);
        respawn(dead, self.ctrl_addr).map_err(ClusterError::Io)?;
        let (worker, link) = self.handshake(deadline)?;
        if worker != dead {
            return Err(ClusterError::Protocol(format!(
                "replacement joined as worker {worker}, expected {dead}"
            )));
        }
        self.links[dead] = link;

        // 3. Install the checkpoint into every worker (fresh map epoch;
        // survivors unblock on commit), probe the replacement's clock,
        // then re-inject the checkpoint's pending punctuations.
        let (records, pending) = snap.map_or_else(Default::default, |s| (s.records, s.pending));
        self.install(self.map.shards(), records)?;
        self.sync_clocks([dead])?;
        self.reinject(pending)?;

        // 4. Replay every input since the checkpoint, in push order and
        // numbered from the commit's counter, so each punctuation gets
        // back its pre-crash sequence. The log stays intact: until the
        // next commit, a second crash must replay the same suffix again.
        let d = self.durable.as_mut().expect("durable");
        let log = std::mem::take(&mut d.input_log);
        self.next_seq = d.committed_seq;
        for (side, element) in &log {
            self.route_element(*side, element.clone())?;
        }
        debug_assert_eq!(self.next_seq, crashed_seq, "the replay renumbers as before the crash");
        let d = self.durable.as_mut().expect("durable");
        d.input_log = log;
        d.last_heard.fill(Instant::now());
        Ok(())
    }

    /// Restores a freshly-assembled cluster from the latest complete
    /// epoch in its checkpoint directory: installs the snapshot state
    /// into the workers, re-injects pending punctuations, and returns
    /// the input cursor the driver must re-feed its sources from.
    /// `Ok(None)` if the directory holds no complete epoch (nothing to
    /// restore — start from the beginning). Call after
    /// [`accept_workers`](Cluster::accept_workers). An epoch cut with
    /// another worker count or under another join — other widths or join
    /// attributes, or a config blob that does not decode — is refused
    /// before anything is installed; the bucket count may differ, since
    /// records are re-imported under any.
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
        let join = |s: &JoinSpec| (s.width_a, s.width_b, s.join_attr_a, s.join_attr_b);
        let refused = match decode_config(&snap.meta.config_blob) {
            Ok((cut, ..)) if join(&cut) == join(&self.opts.spec) => None,
            Ok((cut, ..)) => Some(format!("under {cut:?}")),
            Err(e) => Some(format!("under a config that does not decode ({e})")),
        };
        if let Some(cut) = refused {
            return Err(ClusterError::Protocol(format!(
                "checkpoint epoch {} was cut {cut}, cluster runs {:?}",
                snap.epoch, self.opts.spec
            )));
        }
        // Never below the MANIFEST's epoch: when the newest epoch file is
        // lost, the fallback epoch is older than the epoch the store
        // must commit past.
        d.next_epoch = d.next_epoch.max(snap.epoch + 1);
        // Numbering resumes above every re-injected punctuation.
        self.next_seq = snap.pending.iter().map(|p| p.seq + 1).max().unwrap_or(0);
        d.committed_seq = self.next_seq;
        let cursor = snap.meta.input_cursor;
        self.pushed = snap.meta.pushed;
        self.install(self.map.shards(), snap.records)?;
        self.reinject(snap.pending)?;
        Ok(Some(cursor))
    }

    /// Finishes both streams of every worker, drains every sink to
    /// completion, and returns the merged output with full accounting.
    /// Every ingested punctuation has been emitted exactly once when
    /// this returns.
    ///
    /// Until the first `Fin` goes out, a lost worker is recovered as in
    /// [`push`](Cluster::push) while every sender is flushed and every
    /// link passed over and checked for liveness. Once a `Fin` is sent the
    /// survivors end their streams and can take no rollback, so a loss
    /// after that is fatal ([`ClusterError::WorkerLost`]; a cluster-v1
    /// limit).
    pub fn finish(mut self) -> Result<ClusterReport, ClusterError> {
        self.supervised(|c| {
            for link in &mut c.links {
                link.senders(StreamSender::flush)?;
            }
            c.pass()?;
            c.check_liveness()
        })?;
        let deadline = Instant::now() + CTRL_TIMEOUT;
        let mut sender_reconnects = 0;
        for link in &mut self.links {
            link.senders(StreamSender::finish)?;
            sender_reconnects += link.left.reconnects() + link.right.reconnects();
        }
        // Every worker flushes a final cumulative report after its
        // streams end and before its sink closes; wait for the stragglers
        // too, so the merged telemetry covers the whole run.
        loop {
            self.pass()?;
            for link in &mut self.links {
                link.sink_done = link.sink.finished();
            }
            let finals = self.opts.telemetry.enabled && !self.telem.finals_pending().is_empty();
            if self.links.iter().all(|l| l.sink_done) && !finals {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout("worker sinks and final reports".into()));
            }
            self.wait_for_links(remaining)?;
        }
        if !self.pending_log.is_empty() {
            let n = self.pending_log.len();
            return Err(ClusterError::Protocol(format!("{n} punctuations never fully propagated")));
        }
        // The streams are complete: release every withheld output. A
        // crash can no longer undo them.
        if let Some(d) = &mut self.durable {
            self.ready.append(&mut d.uncommitted);
            d.input_log.clear();
        }
        let proxy_stats = self
            .links
            .iter()
            .filter_map(|l| l.proxy.as_ref().map(FaultProxy::stats))
            .collect();
        let (checkpoints, recoveries) =
            self.durable.as_ref().map_or((0, 0), |d| (d.checkpoints, d.recoveries));
        Ok(ClusterReport {
            outputs: self.ready,
            pushed: self.pushed,
            sender_reconnects,
            proxy_stats,
            telemetry: self.telem,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::sink_marker;
    use punct_net::{SinkOptions, SinkServer};

    /// A one-worker cluster whose worker is nothing but `sink`: its
    /// control peer never answers and its senders never write. Returns
    /// the control listener too, to keep that connection open.
    fn cluster_over(sink: &SinkServer) -> (Cluster, TcpListener) {
        let spec = JoinSpec::new(2, 2);
        let mut cluster = Cluster::bind(ClusterOptions::new(spec.clone(), 1, 1)).expect("bind");
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind control peer");
        let addr = peer.local_addr().expect("control peer address");
        let ctrl = CtrlConn::connect(addr).expect("connect control peer");
        let sender = |stream, side| {
            StreamSender::new(addr, stream, side, spec.side_schema(side), ClientOptions::default())
        };
        let (left, right) = (sender(0, Side::Left), sender(1, Side::Right));
        let sink = SinkSubscriber::new(sink.addr());
        let (worker, proxy, sink_done, unacked) = (0, None, false, 0);
        let link = WorkerLink { worker, ctrl, proxy, left, right, sink, sink_done, unacked };
        cluster.links.push(link);
        (cluster, peer)
    }

    #[test]
    fn every_drain_ends_at_the_marker_naming_its_barrier() {
        let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink");
        let (mut cluster, _peer) = cluster_over(&sink);
        let spec = cluster.opts.spec.clone();
        let marker = |nonce| Timestamped::new(Timestamp(nonce), sink_marker(&spec).into());
        let tuple = |k: i64| Timestamped::new(Timestamp(1), Tuple::of((k, 0i64, k, 1i64)).into());
        let deadline = || Instant::now() + Duration::from_secs(10);
        // One frame per publish, so each drain reads it as one run.
        // A rollback drops everything ahead of its own marker, an aborted
        // checkpoint's marker included; what follows it is output.
        sink.publish_batch(&[tuple(1), marker(7), tuple(2), marker(8), tuple(3)]);
        cluster.drain_to_marker(0, Drain::Rollback(8), deadline()).expect("rollback drain");
        assert_eq!(cluster.ready, [tuple(3)]);
        // A cut keeps what precedes its marker…
        sink.publish_batch(&[tuple(4), marker(9)]);
        cluster.drain_to_marker(0, Drain::Cut(9), deadline()).expect("cut drain");
        assert_eq!(cluster.ready, [tuple(3), tuple(4)]);
        // …and refuses a marker carrying another barrier's nonce.
        sink.publish_batch(&[tuple(5), marker(10), marker(11)]);
        let refused = cluster.drain_to_marker(0, Drain::Cut(11), deadline());
        assert!(matches!(refused, Err(ClusterError::Protocol(_))), "{refused:?}");
    }
}

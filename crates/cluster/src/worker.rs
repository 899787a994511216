//! The cluster worker: one process hosting the PJoin shards a
//! [`ShardMap`] assigns to it.
//!
//! A worker is deliberately boring: it owns **no** routing policy. The
//! coordinator routes every tuple to the worker owning its hash and
//! every punctuation to the workers owning the shards it can close; the
//! worker re-derives the same per-shard targets locally (the partition
//! function is shared, [`punct_types::partition`]) and feeds its
//! single-threaded [`PJoin`]s in arrival order. Join outputs stream out
//! through a [`SinkServer`]; punctuation propagations from the shard
//! joins pass through a worker-local [`Aligner`] so the sink carries
//! each punctuation **at most once per worker** — the coordinator's
//! aligner then merges across workers.
//!
//! ## Migration, from the worker's side
//!
//! * [`Frame::MigrateBegin`] arms a migration; the barrier itself rides
//!   the data streams as an Empty-pattern punctuation (exactly-once,
//!   ordered behind all earlier elements, even through a faulty link).
//! * When **both** input streams have delivered the barrier, every
//!   pre-barrier output is already published (the worker is
//!   single-threaded and in-order). It publishes the sink marker, sends
//!   [`Frame::BarrierReached`], and exports every shard's state as
//!   [`Frame::MigrateState`] chunks.
//! * The install path is the same for the initial epoch and for every
//!   repartition: [`Frame::ShardMapUpdate`] stages fresh joins,
//!   [`Frame::MigrateState`] imports records (without probing — the
//!   pre-migration operator already emitted those results), and
//!   [`Frame::MigrateCommit`] activates the staged epoch; the worker
//!   echoes the commit as its acknowledgement.
//! * Local aligner expectations pending at the barrier are dropped, not
//!   migrated: the coordinator re-injects every not-yet-emitted
//!   punctuation through the new topology, so each still propagates
//!   downstream exactly once.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use pjoin::components::propagation::translate_punctuation;
use pjoin::{PJoin, PJoinConfig};
use punct_exec::{route_punctuation, AlignOutcome, Aligner};
use punct_net::{
    Frame, IngestEvent, IngestMsg, IngestOptions, IngestServer, SinkOptions, SinkServer,
    WIRE_VERSION,
};
use punct_trace::{
    wall_now_ns, IngestCounters, JoinLatencies, KindSummary, PunctRecord, ShardSnapshot,
    TelemetryMsg, TraceKind, WorkerTelemetry,
};
use punct_types::{
    partition, PunctSeq, ShardMap, StreamElement, Timestamp, Timestamped, Value,
};
use stream_sim::{BinaryStreamOp, OpOutput, Side};

use crate::error::ClusterError;
use crate::protocol::{
    decode_config, is_barrier, sink_marker, CtrlConn, HeartbeatSettings, JoinSpec,
    TelemetrySettings, MIGRATE_CHUNK,
};

/// How a worker process is wired into the cluster.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// This worker's dense index in the cluster.
    pub worker: u32,
    /// The coordinator's control-plane address.
    pub coordinator: SocketAddr,
    /// Ingest (data-plane in) server options.
    pub ingest: IngestOptions,
    /// Sink (data-plane out) server options.
    pub sink: SinkOptions,
    /// Deadline for any single control-plane exchange.
    pub ctrl_timeout: Duration,
}

impl WorkerOptions {
    /// Default wiring for worker `worker` joining `coordinator`.
    pub fn new(worker: u32, coordinator: SocketAddr) -> WorkerOptions {
        WorkerOptions {
            worker,
            coordinator,
            ingest: IngestOptions::default(),
            sink: SinkOptions::default(),
            ctrl_timeout: crate::protocol::CTRL_TIMEOUT,
        }
    }
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// This worker's index.
    pub worker: u32,
    /// Data elements consumed from the ingest plane.
    pub elements: u64,
    /// Elements published to the sink (tuples + punctuations).
    pub outputs: u64,
    /// Records exported during migrations and checkpoints.
    pub records_exported: u64,
    /// Records imported during installs.
    pub records_imported: u64,
    /// Migrations completed (excluding the initial epoch install).
    pub migrations: u64,
    /// The shard-map epoch active at shutdown.
    pub final_epoch: u64,
}

/// Events one turn of the serve loop handles before it looks at its
/// barriers and beacons again.
const BURST: usize = 64;

/// Everything a worker waits for, on one channel: the ingest handlers
/// and the control-reader thread both feed it, so the worker blocks in
/// exactly one place and neither plane delays the other.
enum Event {
    Data(IngestMsg),
    /// `Side`'s input stream delivered its `Fin`; everything it carried
    /// is ahead of this event in the channel.
    End(Side),
    Ctrl(Frame),
    /// The control reader stopped: the coordinator hung up
    /// ([`ClusterError::Disconnected`]) or the link failed.
    CtrlDown(ClusterError),
}

impl From<IngestMsg> for Event {
    fn from(msg: IngestMsg) -> Event {
        Event::Data(msg)
    }
}

impl IngestEvent for Event {
    fn end(side: Side) -> Option<Event> {
        Some(Event::End(side))
    }
}

/// Body of the control-reader thread: blocks on its own handle to the
/// control socket and forwards each frame as an [`Event::Ctrl`], ending
/// with one [`Event::CtrlDown`]. Exits when the socket closes (the
/// coordinator hung up, or `run_worker` shut it down) or the worker
/// stopped listening.
fn read_ctrl(mut link: CtrlConn, events: Sender<Event>) {
    loop {
        let event = match link.recv() {
            Ok(frame) => Event::Ctrl(frame),
            Err(e) => Event::CtrlDown(e),
        };
        let down = matches!(event, Event::CtrlDown(_));
        if events.send(event).is_err() || down {
            return;
        }
    }
}

/// A staged-but-not-active shard map: fresh joins awaiting state
/// imports and the activating `MigrateCommit`.
struct Staged {
    map: ShardMap,
    joins: Vec<(usize, PJoin)>,
    imported: u64,
}

struct Worker {
    opts: WorkerOptions,
    sink: SinkServer,
    spec: Option<JoinSpec>,
    cfg: Option<PJoinConfig>,
    map: Option<ShardMap>,
    /// `(global shard, join)`, ascending by shard; the vector position
    /// is the local aligner's "shard" index.
    joins: Vec<(usize, PJoin)>,
    aligner: Aligner,
    next_seq: u64,
    clock: Timestamp,
    staged: Option<Staged>,
    /// An armed migration: `(epoch, nonce)` from `MigrateBegin`.
    migrate: Option<(u64, u64)>,
    /// An armed checkpoint: `(epoch, nonce)` from `Checkpoint`. At the
    /// barrier the worker exports and resumes — no install wait.
    checkpoint: Option<(u64, u64)>,
    /// An armed rollback: `(epoch, nonce)` from `Rollback`. At the
    /// barrier the worker discards its live state's claim to the run
    /// and blocks for a staged install, exporting nothing.
    rollback: Option<(u64, u64)>,
    /// Barrier crossings seen on [left, right], keyed by the nonce the
    /// barrier's timestamp carries. The arm frame (ctrl plane) and the
    /// barrier (data plane) travel on separate connections, so either
    /// may arrive first; keying by nonce pairs each crossing with the
    /// right protocol step, and leaves a crossing whose operation was
    /// aborted (checkpoint superseded by a rollback) inert until the
    /// next commit clears it.
    barriers: HashMap<u64, [bool; 2]>,
    /// Which of [left, right] input streams have ended.
    ended: [bool; 2],
    /// The joins' output collector: one for the worker's lifetime, so
    /// the buffers behind it (slots, the joined-tuple value block) stay
    /// warm from element to element.
    out: OpOutput,
    /// Outputs of the ingest message in hand, published as one batch.
    outbox: Vec<Timestamped<StreamElement>>,
    /// Heartbeat policy from the config blob (disabled until it
    /// arrives).
    heartbeat: HeartbeatSettings,
    /// Sequence of the next heartbeat beacon.
    beat_seq: u64,
    /// When the last heartbeat went out.
    last_beat: Instant,
    report: WorkerReport,
    /// Reporting policy, shipped in the config blob (disabled until the
    /// initial shard map arrives).
    telemetry: TelemetrySettings,
    /// Sequence of the next telemetry report.
    report_seq: u64,
    /// When the last periodic report went out.
    last_report: Instant,
    /// Per-punctuation lifecycle records, cumulative in creation order —
    /// the coordinator correlates them back by `(side, key)` occurrence.
    lifecycle: Vec<PunctRecord>,
    /// Local aligner sequence → index into `lifecycle`, for stamping the
    /// align/sink stages when the propagation completes.
    life_by_seq: HashMap<u64, usize>,
    /// Latencies of joins retired by migrations (cumulative reports must
    /// not lose samples when `self.joins` is replaced).
    retired: JoinLatencies,
    /// Per-kind `(count, total span ns)` trace totals, drained from live
    /// tracers at each report and from retiring joins at each commit.
    kind_totals: Vec<(u64, u64)>,
    /// Per-join `(consumed, emitted)` counters for shard snapshots,
    /// parallel to `joins`; reset when a new epoch replaces them.
    shard_counts: Vec<(u64, u64)>,
}

/// Runs a worker to completion: joins the cluster at
/// `opts.coordinator`, serves its assigned shards through any number of
/// repartitions, and returns once both input streams finished and every
/// remaining output (including end-of-stream punctuation flushes) is
/// published to the sink.
pub fn run_worker(opts: WorkerOptions) -> Result<WorkerReport, ClusterError> {
    let (events_tx, events) = bounded(opts.ingest.channel_capacity.max(1));
    let server =
        IngestServer::bind_into(&[Side::Left, Side::Right], opts.ingest, events_tx.clone())?;
    let sink = SinkServer::bind(opts.sink)?;
    let mut ctrl = CtrlConn::connect(opts.coordinator)?;
    ctrl.send(&Frame::JoinCluster {
        wire_version: WIRE_VERSION,
        worker: opts.worker,
        ingest_addr: server.addr().to_string(),
        sink_addr: sink.addr().to_string(),
    })?;
    // From here on the control link is read by a thread of its own; this
    // thread only writes to it.
    let reader = {
        let link = CtrlConn::from_stream(ctrl.socket().try_clone()?)?;
        std::thread::Builder::new()
            .name("cluster-worker-ctrl".into())
            .spawn(move || read_ctrl(link, events_tx))?
    };

    let worker_idx = opts.worker;
    let mut w = Worker {
        opts,
        sink,
        spec: None,
        cfg: None,
        map: None,
        joins: Vec::new(),
        aligner: Aligner::new(),
        next_seq: 0,
        clock: Timestamp(0),
        staged: None,
        migrate: None,
        checkpoint: None,
        rollback: None,
        barriers: HashMap::new(),
        ended: [false, false],
        out: OpOutput::new(),
        outbox: Vec::new(),
        heartbeat: HeartbeatSettings::disabled(),
        beat_seq: 0,
        last_beat: Instant::now(),
        report: WorkerReport { worker: worker_idx, ..WorkerReport::default() },
        telemetry: TelemetrySettings::disabled(),
        report_seq: 0,
        last_report: Instant::now(),
        lifecycle: Vec::new(),
        life_by_seq: HashMap::new(),
        retired: JoinLatencies::new(),
        kind_totals: vec![(0, 0); TraceKind::ALL.len()],
        shard_counts: Vec::new(),
    };
    let served = w.serve(&server, &events, &mut ctrl);
    // Release the reader whatever it is blocked on — a full channel or
    // the socket — before joining it.
    drop(events);
    let _ = ctrl.socket().shutdown(Shutdown::Both);
    reader.join().map_err(|_| ClusterError::Protocol("control reader panicked".into()))?;
    served?;
    Ok(w.report)
}

impl Worker {
    fn serve(
        &mut self,
        server: &IngestServer,
        events: &Receiver<Event>,
        ctrl: &mut CtrlConn,
    ) -> Result<(), ClusterError> {
        // Until both streams ended with no protocol step in flight.
        while !(self.ended == [true, true] && self.unarmed()) {
            // The one wait: woken by an element, a control frame or a
            // stream end; the timeout is the next beacon falling due.
            let event = match self.next_beacon() {
                None => Some(events.recv().map_err(|_| event_channel_closed())?),
                Some(due) => {
                    match events.recv_timeout(due.saturating_duration_since(Instant::now())) {
                        Ok(event) => Some(event),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(event_channel_closed())
                        }
                    }
                }
            };
            if let Some(event) = event {
                self.handle_event(event, ctrl)?;
                // Take what else is queued without going back to sleep —
                // but only so much, so that a stream that never lets up
                // cannot keep the beacons below from going out.
                for _ in 0..BURST {
                    match events.try_recv() {
                        Ok(next) => self.handle_event(next, ctrl)?,
                        Err(_) => break,
                    }
                }
            }
            let crossed = |b: &HashMap<u64, [bool; 2]>, armed: Option<(u64, u64)>| {
                armed.filter(|(_, n)| b.get(n) == Some(&[true, true])).map(|(_, n)| n)
            };
            if let Some(nonce) = crossed(&self.barriers, self.migrate) {
                self.barriers.remove(&nonce);
                self.run_migration(nonce, events, ctrl)?;
            } else if let Some(nonce) = crossed(&self.barriers, self.checkpoint) {
                self.barriers.remove(&nonce);
                self.run_checkpoint(nonce, ctrl)?;
            } else if let Some(nonce) = crossed(&self.barriers, self.rollback) {
                self.barriers.remove(&nonce);
                self.run_rollback(nonce, events, ctrl)?;
            }
            if self.heartbeat_due().is_some_and(|due| Instant::now() >= due) {
                ctrl.send(&Frame::Heartbeat { seq: self.beat_seq })?;
                self.beat_seq += 1;
                self.last_beat = Instant::now();
            }
            if self.report_due().is_some_and(|due| Instant::now() >= due) {
                self.send_report(server, ctrl, false)?;
                self.last_report = Instant::now();
            }
        }
        self.finish(server, events, ctrl)
    }

    /// No migration, checkpoint or rollback is armed.
    fn unarmed(&self) -> bool {
        self.migrate.is_none() && self.checkpoint.is_none() && self.rollback.is_none()
    }

    /// When the next heartbeat is due, if the beacon runs.
    fn heartbeat_due(&self) -> Option<Instant> {
        self.heartbeat
            .enabled()
            .then(|| self.last_beat + Duration::from_millis(self.heartbeat.interval_ms as u64))
    }

    /// When the next periodic telemetry report is due, if any are sent.
    fn report_due(&self) -> Option<Instant> {
        (self.telemetry.enabled && self.telemetry.interval_ms > 0)
            .then(|| self.last_report + Duration::from_millis(self.telemetry.interval_ms as u64))
    }

    /// The earlier of the two beacons: the only deadline the serve
    /// loop's wait carries.
    fn next_beacon(&self) -> Option<Instant> {
        match (self.heartbeat_due(), self.report_due()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn handle_event(&mut self, event: Event, ctrl: &mut CtrlConn) -> Result<(), ClusterError> {
        match event {
            Event::Data(msg) => self.handle_msg(msg),
            Event::End(side) => {
                self.ended[side_index(side)] = true;
                Ok(())
            }
            Event::Ctrl(frame) => self.handle_ctrl(frame, ctrl),
            Event::CtrlDown(e) => Err(e),
        }
    }

    /// The next control frame, for the install waits: the data plane is
    /// quiescent between a barrier and its commit (the coordinator
    /// pushes nothing until every worker acknowledged the new epoch), so
    /// anything else arriving is a protocol violation.
    fn next_ctrl(
        &self,
        events: &Receiver<Event>,
        deadline: Instant,
        what: &str,
    ) -> Result<Frame, ClusterError> {
        match events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Event::Ctrl(frame)) => Ok(frame),
            Ok(Event::CtrlDown(e)) => Err(e),
            Ok(Event::Data(_) | Event::End(_)) => Err(ClusterError::Protocol(format!(
                "worker {}: data arrived during the {what}",
                self.report.worker
            ))),
            Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout(what.into())),
            Err(RecvTimeoutError::Disconnected) => Err(event_channel_closed()),
        }
    }

    /// Both streams finished: flush every shard's end-of-stream work
    /// (remaining punctuation propagations, exactly once each), close
    /// the sink, and linger until the coordinator hangs up — tearing the
    /// sink server down earlier would strand a subscriber that has not
    /// finished draining (or has yet to connect).
    fn finish(
        &mut self,
        server: &IngestServer,
        events: &Receiver<Event>,
        ctrl: &mut CtrlConn,
    ) -> Result<(), ClusterError> {
        for i in 0..self.joins.len() {
            let now = self.clock;
            while self.joins[i].1.on_end(now, &mut self.out) {}
            self.emit(i, now)?;
        }
        self.publish_outbox();
        if self.aligner.pending_len() != 0 {
            return Err(ClusterError::Protocol(format!(
                "worker {}: {} punctuations still pending at end of stream",
                self.report.worker,
                self.aligner.pending_len()
            )));
        }
        self.report.final_epoch = self.map.as_ref().map_or(0, |m| m.epoch);
        // The final cumulative flush covers the end-of-stream
        // propagations above; it must precede the sink close so the
        // coordinator can await it while the control link is still up.
        self.send_report(server, ctrl, true)?;
        self.sink.close();
        // Linger: the coordinator drops the control connection only once
        // every sink subscriber has drained to `Fin`. Exiting before that
        // hang-up would drop the `SinkServer` (stopping its accept loop)
        // under a subscriber that is still draining — or has yet to
        // connect at all.
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        match self.next_ctrl(events, deadline, "coordinator hang-up after stream end") {
            Ok(frame) => Err(ClusterError::Protocol(format!(
                "worker {}: unexpected control frame after close: {frame:?}",
                self.report.worker
            ))),
            Err(ClusterError::Disconnected(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Hands the outputs gathered since the last call to the sink as one
    /// batch: one lock, one subscriber wake-up.
    fn publish_outbox(&mut self) {
        if !self.outbox.is_empty() {
            self.sink.publish_batch(std::mem::take(&mut self.outbox));
        }
    }

    fn handle_msg(&mut self, msg: IngestMsg) -> Result<(), ClusterError> {
        match msg {
            IngestMsg::One(side, element) => self.handle_element(side, element)?,
            IngestMsg::Batch(side, batch) => {
                for element in batch {
                    self.handle_element(side, element)?;
                }
            }
        }
        self.publish_outbox();
        Ok(())
    }

    fn handle_element(
        &mut self,
        side: Side,
        element: Timestamped<StreamElement>,
    ) -> Result<(), ClusterError> {
        // Barriers first: their timestamp carries a protocol nonce, not
        // a stream time, so they must not advance the worker clock.
        let barrier_nonce = match (&element.item, &self.spec) {
            (StreamElement::Punctuation(p), Some(spec))
                if p.width() == spec.side_width(side)
                    && is_barrier(p, spec.join_attr(side)) =>
            {
                Some(element.ts.0)
            }
            _ => None,
        };
        if let Some(nonce) = barrier_nonce {
            self.report.elements += 1;
            self.barriers.entry(nonce).or_insert([false, false])[side_index(side)] = true;
            return Ok(());
        }
        self.clock = self.clock.max(element.ts);
        self.report.elements += 1;
        let (Some(spec), Some(cfg), Some(map)) = (&self.spec, &self.cfg, &self.map) else {
            return Err(ClusterError::Protocol(
                "data arrived before the initial shard map was activated".into(),
            ));
        };
        match element.item {
            StreamElement::Tuple(ref t) => {
                let hash = t.get(spec.join_attr(side)).and_then(Value::join_hash);
                let shard = partition(hash, map.shards());
                let Some(idx) = self.joins.iter().position(|(s, _)| *s == shard) else {
                    return Err(ClusterError::Protocol(format!(
                        "tuple for shard {shard} routed to worker {} (epoch {})",
                        self.report.worker,
                        map.epoch
                    )));
                };
                let ts = element.ts;
                self.joins[idx].1.on_element(side, element.item, ts, &mut self.out);
                if let Some(c) = self.shard_counts.get_mut(idx) {
                    c.0 += 1;
                }
                self.emit(idx, ts)
            }
            StreamElement::Punctuation(ref p) => {
                if p.width() != spec.side_width(side) {
                    // The single-threaded operator ignores malformed
                    // punctuations; so does the cluster.
                    return Ok(());
                }
                let route = route_punctuation(p, side, cfg, map.shards());
                let shard_mask = route.mask(map.shards());
                let mut local_mask = 0u64;
                let mut targets = Vec::new();
                for (idx, (shard, _)) in self.joins.iter().enumerate() {
                    if shard_mask & (1 << *shard) != 0 {
                        local_mask |= 1 << idx;
                        targets.push(idx);
                    }
                }
                if targets.is_empty() {
                    return Err(ClusterError::Protocol(format!(
                        "punctuation routed to worker {} owning none of its target shards",
                        self.report.worker
                    )));
                }
                let translated =
                    translate_punctuation(p, spec.side_offset(side), spec.output_width());
                let seq = self.next_seq;
                self.next_seq += 1;
                if self.track_lifecycle() {
                    // Hash the punctuation as routed (pre-translation) so
                    // the key matches the coordinator's send log.
                    self.life_by_seq.insert(seq, self.lifecycle.len());
                    self.lifecycle.push(PunctRecord {
                        side: side_index(side) as u8,
                        key: p.content_hash(),
                        ingest_ns: wall_now_ns(),
                        purge_ns: 0,
                        align_ns: 0,
                        sink_ns: 0,
                    });
                }
                self.aligner.expect(translated, PunctSeq(seq), local_mask);
                let ts = element.ts;
                for idx in targets {
                    self.joins[idx].1.on_element(side, element.item.clone(), ts, &mut self.out);
                    if let Some(c) = self.shard_counts.get_mut(idx) {
                        c.0 += 1;
                    }
                    if self.track_lifecycle() {
                        // Last target wins: the purge stage ends when the
                        // final shard finished applying the punctuation.
                        if let Some(&ri) = self.life_by_seq.get(&seq) {
                            self.lifecycle[ri].purge_ns = wall_now_ns();
                        }
                    }
                    self.emit(idx, ts)?;
                }
                Ok(())
            }
        }
    }

    /// Queues the output burst shard `idx` left in `self.out` for the
    /// sink: tuples directly, punctuation propagations through the
    /// worker-local aligner so the sink carries each punctuation once no
    /// matter how many local shards it reached.
    /// [`publish_outbox`](Worker::publish_outbox) hands the queue over.
    fn emit(&mut self, idx: usize, ts: Timestamp) -> Result<(), ClusterError> {
        // Draining needs the rest of `self`, so the collector steps out
        // for the duration and goes back with its buffers intact.
        let mut out = std::mem::take(&mut self.out);
        let queued = self.queue_outputs(idx, ts, &mut out);
        self.out = out;
        queued
    }

    fn queue_outputs(
        &mut self,
        idx: usize,
        ts: Timestamp,
        out: &mut OpOutput,
    ) -> Result<(), ClusterError> {
        for element in out.drain() {
            match element {
                StreamElement::Tuple(_) => {
                    self.outbox.push(Timestamped::new(ts, element));
                    self.report.outputs += 1;
                    if let Some(c) = self.shard_counts.get_mut(idx) {
                        c.1 += 1;
                    }
                }
                StreamElement::Punctuation(ref p) => {
                    let (outcome, wseq) = self.aligner.observe_seq(idx, p);
                    if self.track_lifecycle() {
                        if let Some(&ri) =
                            wseq.and_then(|s| self.life_by_seq.get(&s.0))
                        {
                            self.lifecycle[ri].align_ns = wall_now_ns();
                        }
                    }
                    match outcome {
                        AlignOutcome::Emit => {
                            self.outbox.push(Timestamped::new(ts, element));
                            self.report.outputs += 1;
                            if let Some(c) = self.shard_counts.get_mut(idx) {
                                c.1 += 1;
                            }
                            if self.track_lifecycle() {
                                if let Some(&ri) =
                                    wseq.and_then(|s| self.life_by_seq.get(&s.0))
                                {
                                    self.lifecycle[ri].sink_ns = wall_now_ns();
                                }
                            }
                        }
                        AlignOutcome::Pending => {}
                        AlignOutcome::Unexpected => {
                            return Err(ClusterError::Protocol(format!(
                                "shard {} propagated an unregistered punctuation {p}",
                                self.joins[idx].0
                            )))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether per-punctuation lifecycle stamps are recorded: requires
    /// telemetry on, tracing requested, and the trace crate compiled in.
    fn track_lifecycle(&self) -> bool {
        punct_trace::COMPILED && self.telemetry.enabled && self.telemetry.trace
    }

    /// Both barriers are in and a migration is armed: drain-and-export.
    /// Every pre-barrier output is already in the sink (single-threaded,
    /// in-order), so the marker published here cleanly separates the
    /// epochs for the coordinator's drain.
    fn run_migration(
        &mut self,
        nonce: u64,
        events: &Receiver<Event>,
        ctrl: &mut CtrlConn,
    ) -> Result<(), ClusterError> {
        let Some(spec) = self.spec.clone() else {
            return Err(ClusterError::Protocol("migration before initial shard map".into()));
        };
        self.sink.publish(Timestamped::new(self.clock, sink_marker(&spec).into()));
        ctrl.send(&Frame::BarrierReached { nonce })?;
        self.export_state(ctrl)?;

        // Block for the install.
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        while self.migrate.is_some() {
            let frame = self.next_ctrl(events, deadline, "migration install")?;
            self.handle_ctrl(frame, ctrl)?;
        }
        self.report.migrations += 1;
        Ok(())
    }

    /// Ships every shard's state to the coordinator as `MigrateState`
    /// chunks closed by `MigrateStateDone`; returns the record count.
    fn export_state(&mut self, ctrl: &mut CtrlConn) -> Result<u64, ClusterError> {
        let mut exported: u64 = 0;
        for (shard, join) in &self.joins {
            for side in [Side::Left, Side::Right] {
                let records = join.export_records(side)?;
                exported += records.len() as u64;
                for chunk in records.chunks(MIGRATE_CHUNK) {
                    ctrl.send(&Frame::MigrateState {
                        shard: *shard as u32,
                        side: side_index(side) as u8,
                        records: chunk.to_vec(),
                    })?;
                }
            }
        }
        ctrl.send(&Frame::MigrateStateDone { records: exported })?;
        self.report.records_exported += exported;
        Ok(exported)
    }

    /// Both barriers are in and a checkpoint is armed: publish the sink
    /// marker, acknowledge the cut, export every shard's post-purge
    /// state — and resume immediately. Unlike a migration the live
    /// joins keep running; the snapshot is a passive copy, so local
    /// aligner expectations pending at the cut survive untouched (the
    /// coordinator stores its own pending log in the snapshot instead).
    fn run_checkpoint(&mut self, nonce: u64, ctrl: &mut CtrlConn) -> Result<(), ClusterError> {
        let Some(spec) = self.spec.clone() else {
            return Err(ClusterError::Protocol("checkpoint before initial shard map".into()));
        };
        self.sink.publish(Timestamped::new(self.clock, sink_marker(&spec).into()));
        ctrl.send(&Frame::BarrierReached { nonce })?;
        self.export_state(ctrl)?;
        self.checkpoint = None;
        Ok(())
    }

    /// Both barriers are in and a rollback is armed: the live state is
    /// condemned. Publish the marker (so the coordinator can drain the
    /// sink to a known cut), acknowledge, and block for the staged
    /// re-install — exporting nothing, since recovery restores every
    /// worker from the durable store.
    fn run_rollback(
        &mut self,
        nonce: u64,
        events: &Receiver<Event>,
        ctrl: &mut CtrlConn,
    ) -> Result<(), ClusterError> {
        let Some(spec) = self.spec.clone() else {
            return Err(ClusterError::Protocol("rollback before initial shard map".into()));
        };
        self.sink.publish(Timestamped::new(self.clock, sink_marker(&spec).into()));
        ctrl.send(&Frame::BarrierReached { nonce })?;
        let deadline = Instant::now() + self.opts.ctrl_timeout;
        while self.rollback.is_some() {
            let frame = self.next_ctrl(events, deadline, "rollback install")?;
            self.handle_ctrl(frame, ctrl)?;
        }
        Ok(())
    }

    /// Ships one cumulative telemetry snapshot to the coordinator:
    /// lifetime counters, merged latency histograms (live joins plus
    /// migration-retired ones), per-shard occupancy, per-kind trace
    /// totals, the full lifecycle log, and the ingest transport counters.
    fn send_report(
        &mut self,
        server: &IngestServer,
        ctrl: &mut CtrlConn,
        final_flush: bool,
    ) -> Result<(), ClusterError> {
        if !self.telemetry.enabled {
            return Ok(());
        }
        let seq = self.report_seq;
        self.report_seq += 1;
        let trace_on = punct_trace::COMPILED && self.telemetry.trace;
        let mut latencies = self.retired;
        let mut shards = Vec::with_capacity(self.joins.len());
        for (i, (shard, join)) in self.joins.iter().enumerate() {
            latencies.merge(join.latencies());
            let (consumed, emitted) = self.shard_counts.get(i).copied().unwrap_or((0, 0));
            let state_tuples =
                (join.state_a().total_tuples() + join.state_b().total_tuples()) as u64;
            shards.push(ShardSnapshot {
                shard: *shard as u32,
                consumed,
                state_tuples,
                emitted,
            });
        }
        if trace_on {
            for (_, join) in &mut self.joins {
                for e in join.take_trace().events {
                    let t = &mut self.kind_totals[e.kind.index() as usize];
                    t.0 += 1;
                    t.1 += e.dur_ns;
                }
            }
            for e in server.take_trace().events {
                let t = &mut self.kind_totals[e.kind.index() as usize];
                t.0 += 1;
                t.1 += e.dur_ns;
            }
        }
        let summaries: Vec<KindSummary> = self
            .kind_totals
            .iter()
            .enumerate()
            .filter(|(_, (count, _))| *count > 0)
            .map(|(kind, &(count, total_dur_ns))| KindSummary {
                kind: kind as u8,
                count,
                total_dur_ns,
            })
            .collect();
        let stats = server.stats();
        let report = WorkerTelemetry {
            worker: self.report.worker,
            seq,
            final_flush,
            trace_compiled: trace_on,
            elements: self.report.elements,
            outputs: self.report.outputs,
            latencies,
            shards,
            summaries,
            lifecycle: self.lifecycle.clone(),
            ingest: IngestCounters {
                connections: stats.connections,
                frames_received: stats.frames_received,
                bytes_received: stats.bytes_received,
                duplicates_suppressed: stats.duplicates_suppressed,
                stalls: stats.stalls,
            },
        };
        ctrl.send(&Frame::Telemetry { payload: TelemetryMsg::Report(Box::new(report)).encode() })
    }

    fn handle_ctrl(&mut self, frame: Frame, ctrl: &mut CtrlConn) -> Result<(), ClusterError> {
        match frame {
            Frame::ShardMapUpdate { worker, map, config } => {
                if worker != self.report.worker {
                    return Err(ClusterError::Protocol(format!(
                        "shard map for worker {worker} delivered to worker {}",
                        self.report.worker
                    )));
                }
                if self.spec.is_none() {
                    let (spec, telemetry, heartbeat) = decode_config(&config)?;
                    self.telemetry = telemetry;
                    self.heartbeat = heartbeat;
                    let mut cfg = spec.pjoin_config();
                    if punct_trace::COMPILED && telemetry.enabled && telemetry.trace {
                        cfg = cfg.with_tracing();
                    }
                    self.cfg = Some(cfg);
                    self.spec = Some(spec);
                }
                let cfg = self.cfg.as_ref().expect("spec decoded above");
                let joins = map
                    .shards_of(self.report.worker)
                    .into_iter()
                    .map(|s| (s, PJoin::new(cfg.clone())))
                    .collect();
                self.staged = Some(Staged { map, joins, imported: 0 });
                Ok(())
            }
            Frame::MigrateState { shard, side, records } => {
                let Some(staged) = self.staged.as_mut() else {
                    return Err(ClusterError::Protocol(
                        "migration state outside an install".into(),
                    ));
                };
                let side = side_from_index(side)?;
                let Some((_, join)) =
                    staged.joins.iter_mut().find(|(s, _)| *s == shard as usize)
                else {
                    return Err(ClusterError::Protocol(format!(
                        "migration state for unowned shard {shard}"
                    )));
                };
                staged.imported += records.len() as u64;
                for (arrival_us, tuple) in records {
                    join.import_record(side, tuple, arrival_us);
                }
                Ok(())
            }
            Frame::MigrateStateDone { records } => {
                let Some(staged) = self.staged.as_ref() else {
                    return Err(ClusterError::Protocol(
                        "migration state checksum outside an install".into(),
                    ));
                };
                if staged.imported != records {
                    return Err(ClusterError::Protocol(format!(
                        "migration state checksum mismatch: imported {} of {records}",
                        staged.imported
                    )));
                }
                Ok(())
            }
            Frame::MigrateCommit { epoch } => {
                let Some(staged) = self.staged.take() else {
                    return Err(ClusterError::Protocol("commit without a staged map".into()));
                };
                if staged.map.epoch != epoch {
                    return Err(ClusterError::Protocol(format!(
                        "commit for epoch {epoch} but epoch {} is staged",
                        staged.map.epoch
                    )));
                }
                self.report.records_imported += staged.imported;
                // Retire the outgoing joins' telemetry before they drop:
                // cumulative reports must keep their samples.
                if self.telemetry.enabled {
                    for (_, join) in &mut self.joins {
                        self.retired.merge(join.latencies());
                        for e in join.take_trace().events {
                            let t = &mut self.kind_totals[e.kind.index() as usize];
                            t.0 += 1;
                            t.1 += e.dur_ns;
                        }
                    }
                }
                self.map = Some(staged.map);
                self.joins = staged.joins;
                self.shard_counts = vec![(0, 0); self.joins.len()];
                // Expectations pending at the barrier die with the old
                // joins; the coordinator re-injects those punctuations.
                self.aligner = Aligner::new();
                // Crossings recorded for superseded operations (e.g. a
                // checkpoint aborted by the rollback this commit
                // completes) are pre-commit history: clear them.
                self.barriers.clear();
                self.migrate = None;
                // A commit also completes a rollback install, and any
                // checkpoint armed when the worker was condemned is moot.
                self.rollback = None;
                self.checkpoint = None;
                ctrl.send(&Frame::MigrateCommit { epoch })?;
                Ok(())
            }
            Frame::MigrateBegin { epoch, nonce } => {
                if self.migrate.is_some() {
                    return Err(ClusterError::Protocol(
                        "overlapping migrations are not supported".into(),
                    ));
                }
                self.migrate = Some((epoch, nonce));
                Ok(())
            }
            Frame::Checkpoint { epoch, nonce } => {
                if self.migrate.is_some() {
                    return Err(ClusterError::Protocol(
                        "checkpoint during a migration is not supported".into(),
                    ));
                }
                self.checkpoint = Some((epoch, nonce));
                Ok(())
            }
            Frame::Rollback { epoch, nonce } => {
                // A rollback condemns the live state: any checkpoint
                // still armed ahead of it is aborted (its barrier, if
                // already in flight, is swallowed unarmed).
                self.checkpoint = None;
                self.rollback = Some((epoch, nonce));
                Ok(())
            }
            Frame::CheckpointDone { epoch: _, sink_watermark } => {
                // The epoch is durable: outputs below the coordinator's
                // acknowledged watermark can never be re-requested.
                self.sink.truncate_below(sink_watermark);
                Ok(())
            }
            Frame::Telemetry { payload } => {
                let msg = TelemetryMsg::decode(&payload).map_err(|e| {
                    ClusterError::Protocol(format!(
                        "worker {}: bad telemetry payload: {e}",
                        self.report.worker
                    ))
                })?;
                let TelemetryMsg::ClockProbe { probe, t0_ns } = msg else {
                    return Err(ClusterError::Protocol(format!(
                        "worker {}: unexpected telemetry message from coordinator",
                        self.report.worker
                    )));
                };
                let ack = TelemetryMsg::ClockAck { probe, t0_ns, worker_ns: wall_now_ns() };
                ctrl.send(&Frame::Telemetry { payload: ack.encode() })
            }
            Frame::Error { code, message } => Err(ClusterError::Protocol(format!(
                "coordinator rejected worker {}: error {code} ({message})",
                self.report.worker
            ))),
            other => Err(ClusterError::Protocol(format!(
                "unexpected control frame: {other:?}"
            ))),
        }
    }
}

fn event_channel_closed() -> ClusterError {
    ClusterError::Disconnected("worker event channel".into())
}

fn side_index(side: Side) -> usize {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

fn side_from_index(idx: u8) -> Result<Side, ClusterError> {
    match idx {
        0 => Ok(Side::Left),
        1 => Ok(Side::Right),
        other => Err(ClusterError::Protocol(format!("invalid side index {other}"))),
    }
}

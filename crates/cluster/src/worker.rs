//! The cluster worker: one process hosting one [`PJoin`] over every
//! global shard a [`ShardMap`] assigns to it.
//!
//! A worker owns **no** routing policy. The coordinator routes every
//! tuple to the worker owning its hash and every punctuation to the
//! workers owning the shards it can close; the worker checks that it
//! owns what it was sent ([`punct_types::partition`] is shared) and
//! feeds its join in arrival order, a tuple with the hash that check
//! computed. The join propagates each punctuation once, after its state
//! holds no tuple the punctuation covers, so the worker aligns nothing:
//! the coordinator's aligner is the only one. The shard stays the unit
//! of routing, migration and checkpoint sections at the coordinator;
//! here it only labels exported records.
//!
//! ## The output path
//!
//! A join result is written once, by the operator into its output
//! buffer, and encoded once, from there into the sink's frames
//! ([`OpOutput::drain_with`] into a [`BatchEncoder`]); one ingest
//! message's outputs reach the sink as one append. The sink keeps those
//! frames only until the coordinator has them: the coordinator, its only
//! subscriber, sends [`Frame::Ack`]`{ up_to }` with its received count
//! every few thousand elements and at every checkpoint commit, and the
//! control reader answers at once with [`SinkServer::truncate_below`]. A
//! subscriber only resumes from what it has received and a replacement
//! worker starts with a fresh sink, so a worker's sink holds what is in
//! flight, with or without durability
//! ([`WorkerReport::sink_peak_retained`] records the peak).
//!
//! ## Barriers, from the worker's side
//!
//! * A barrier rides the data streams as an Empty-pattern punctuation
//!   (exactly-once, ordered behind all earlier elements, even through a
//!   faulty link), and its timestamp is a nonce whose namespace names
//!   the operation: a migration, a checkpoint or a rollback. No control
//!   frame announces it.
//! * The worker acts on a barrier when its second side arrives, right
//!   after the message that carried it, and on several in the order they
//!   crossed. Every pre-barrier output is already published by then. The
//!   worker publishes the sink marker stamped with the barrier's nonce —
//!   the coordinator drains the sink up to the marker naming the barrier
//!   it awaits — sends [`Frame::BarrierReached`] and, for a migration or
//!   checkpoint, exports the join's state as [`Frame::MigrateState`]
//!   chunks, one section per owned global shard and side. A checkpoint
//!   resumes at once; a migration or rollback blocks until the
//!   [`Frame::MigrateCommit`] that activates its install.
//! * Every install, the initial epoch's included, is
//!   [`Frame::ShardMapUpdate`] (stage a fresh join),
//!   [`Frame::MigrateState`] (import records without probing — their
//!   results were already emitted) and [`Frame::MigrateCommit`]
//!   (activate; echoed as the acknowledgement). Punctuations the
//!   outgoing join had not propagated die with it: the coordinator
//!   re-injects them through the new topology.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::net::{Shutdown, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use pjoin::components::propagation::translate_punctuation;
use pjoin::{PJoin, PJoinConfig};
use punct_exec::route_punctuation;
use punct_net::{
    BatchEncoder, Frame, IngestEvent, IngestMsg, IngestOptions, IngestServer, SinkOptions,
    SinkServer, WIRE_VERSION,
};
use punct_trace::{
    wall_now_ns, IngestCounters, JoinLatencies, KindSummary, PunctRecord, ShardSnapshot,
    TelemetryMsg, TraceKind, TraceLog, WorkerTelemetry,
};
use punct_types::{
    partition, Punctuation, ShardMap, StreamElement, Timestamp, Timestamped, Tuple, Value,
};
use stream_sim::{BinaryStreamOp, Drained, OpOutput, Side};

use crate::error::ClusterError;
use crate::protocol::{
    barrier_op, decode_config, is_barrier, side_from_index, side_index, sink_marker, CtrlConn,
    HeartbeatSettings, JoinSpec, Op, TelemetrySettings, CTRL_TIMEOUT, MIGRATE_CHUNK,
};

/// How a worker process is wired into the cluster.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// This worker's dense index in the cluster.
    pub worker: u32,
    /// The coordinator's control-plane address.
    pub coordinator: SocketAddr,
}

impl WorkerOptions {
    /// Worker `worker` joining `coordinator`.
    pub fn new(worker: u32, coordinator: SocketAddr) -> WorkerOptions {
        WorkerOptions { worker, coordinator }
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
    /// The most sink elements retained for replay at once, sampled after
    /// every publish (a trim only ever lowers the count).
    pub sink_peak_retained: u64,
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
/// stopped listening. An [`Frame::Ack`] is applied here, to the sink,
/// rather than forwarded: queued behind the data in the channel it would
/// free nothing until the worker had caught up, publishing all the while.
fn read_ctrl(mut link: CtrlConn, events: Sender<Event>, sink: Arc<SinkServer>) {
    loop {
        let event = match link.recv() {
            Ok(Frame::Ack { up_to }) => {
                // The coordinator has received everything below `up_to`
                // and never resumes below what it has received. Handled
                // here, a commit's ack cannot queue behind the stream
                // ends and reach the worker after its close.
                sink.truncate_below(up_to);
                continue;
            }
            Ok(frame) => Event::Ctrl(frame),
            Err(e) => Event::CtrlDown(e),
        };
        let down = matches!(event, Event::CtrlDown(_));
        if events.send(event).is_err() || down {
            return;
        }
    }
}

/// A shard-map epoch as this worker hosts it: the map and one join over
/// every global shard the map gives this worker. Staged by
/// `ShardMapUpdate`, filled by `MigrateState`, activated by
/// `MigrateCommit`.
struct Epoch {
    map: ShardMap,
    /// Bitmask of the global shards `map` gives this worker; never zero.
    owned: u64,
    join: PJoin,
    /// Records imported into `join` while it was staged.
    imported: u64,
}

struct Worker {
    /// Shared with the control reader, which applies acks to it.
    sink: Arc<SinkServer>,
    spec: Option<JoinSpec>,
    cfg: Option<PJoinConfig>,
    active: Option<Epoch>,
    /// `(elements, outputs)` of the report when `active` was installed:
    /// the join's own counts are the report's minus these.
    epoch_start: (u64, u64),
    clock: Timestamp,
    staged: Option<Epoch>,
    /// Barriers seen on one input stream only, by nonce: which of [left,
    /// right] delivered them.
    barriers: HashMap<u64, [bool; 2]>,
    /// Nonces of the barriers that crossed both input streams and await
    /// their step, in the order they crossed.
    crossed: VecDeque<u64>,
    /// Which of [left, right] input streams have ended.
    ended: [bool; 2],
    /// The join's output collector: one for the worker's lifetime, so
    /// the buffers behind it (slots, the joined-tuple values) stay warm
    /// from element to element.
    out: OpOutput,
    /// Outputs of the ingest message in hand, encoded, appended to the
    /// sink as one batch.
    frames: BatchEncoder,
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
    /// Per-punctuation lifecycle records per input side, cumulative in
    /// arrival order — the coordinator correlates the i-th record on a
    /// side with the i-th punctuation it sent this worker there.
    lifecycle: [Vec<PunctRecord>; 2],
    /// Translated punctuation → `(side, index into lifecycle[side])` of
    /// its copies the active join has not propagated yet, oldest first.
    /// Filled only while lifecycle tracking is on.
    unpropagated: HashMap<Punctuation, VecDeque<(usize, usize)>>,
    /// Latencies of joins retired by migrations (cumulative reports must
    /// not lose samples when the active join is replaced).
    retired: JoinLatencies,
    /// Per-kind `(count, total span ns)` trace totals, drained from live
    /// tracers at each report and from retiring joins at each commit.
    kind_totals: Vec<(u64, u64)>,
}

/// Runs a worker to completion: joins the cluster at
/// `opts.coordinator`, serves its assigned shards through any number of
/// repartitions, and returns once both input streams finished and every
/// remaining output (including end-of-stream punctuation flushes) is
/// published to the sink.
pub fn run_worker(opts: WorkerOptions) -> Result<WorkerReport, ClusterError> {
    let ingest = IngestOptions::default();
    let (events_tx, events) = bounded(ingest.channel_capacity);
    let server = IngestServer::bind_into(&[Side::Left, Side::Right], ingest, events_tx.clone())?;
    let sink = Arc::new(SinkServer::bind(SinkOptions::default())?);
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
        let sink = Arc::clone(&sink);
        std::thread::Builder::new()
            .name("cluster-worker-ctrl".into())
            .spawn(move || read_ctrl(link, events_tx, sink))?
    };

    let mut w = Worker {
        frames: sink.encoder(),
        sink,
        spec: None,
        cfg: None,
        active: None,
        epoch_start: (0, 0),
        clock: Timestamp(0),
        staged: None,
        barriers: HashMap::new(),
        crossed: VecDeque::new(),
        ended: [false, false],
        out: OpOutput::new(),
        heartbeat: HeartbeatSettings::disabled(),
        beat_seq: 0,
        last_beat: Instant::now(),
        report: WorkerReport { worker: opts.worker, ..WorkerReport::default() },
        telemetry: TelemetrySettings::disabled(),
        report_seq: 0,
        last_report: Instant::now(),
        lifecycle: Default::default(),
        unpropagated: HashMap::new(),
        retired: JoinLatencies::new(),
        kind_totals: vec![(0, 0); TraceKind::ALL.len()],
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
        // Until both streams ended; a barrier's step runs within the turn
        // its crossing completes, so none is left queued when they have.
        while self.ended != [true, true] {
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
                self.handle_event(event, events, ctrl)?;
                // Take what else is queued without going back to sleep —
                // but only so much, so that a stream that never lets up
                // cannot keep the beacons below from going out.
                for _ in 0..BURST {
                    match events.try_recv() {
                        Ok(next) => self.handle_event(next, events, ctrl)?,
                        Err(_) => break,
                    }
                }
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

    /// Handles one event; a data message that completes barrier
    /// crossings is followed by their steps, in crossing order.
    fn handle_event(
        &mut self,
        event: Event,
        events: &Receiver<Event>,
        ctrl: &mut CtrlConn,
    ) -> Result<(), ClusterError> {
        match event {
            Event::Data(msg) => {
                self.handle_msg(msg)?;
                while let Some(nonce) = self.crossed.pop_front() {
                    self.on_barrier(nonce, events, ctrl)?;
                }
                Ok(())
            }
            Event::End(side) => {
                self.ended[usize::from(side_index(side))] = true;
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

    /// Both streams finished: flush the join's end-of-stream work
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
        let now = self.clock;
        if let Some(active) = &mut self.active {
            while active.join.on_end(now, &mut self.out) {}
        }
        self.drain(now);
        self.publish_frames();
        self.report.final_epoch = self.active.as_ref().map_or(0, |a| a.map.epoch);
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
        let deadline = Instant::now() + CTRL_TIMEOUT;
        match self.next_ctrl(events, deadline, "coordinator hang-up after stream end") {
            Ok(frame) => Err(ClusterError::Protocol(format!(
                "worker {}: unexpected control frame after close: {frame:?}",
                self.report.worker
            ))),
            Err(ClusterError::Disconnected(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Hands the outputs encoded since the last call to the sink as one
    /// batch: one lock, one subscriber wake-up.
    fn publish_frames(&mut self) {
        if !self.frames.is_empty() {
            self.sink.append(&mut self.frames);
            self.note_retained();
        }
    }

    /// Samples the sink's retained history after a publish (a trim only
    /// ever lowers it).
    fn note_retained(&mut self) {
        let retained = self.sink.retained() as u64;
        self.report.sink_peak_retained = self.report.sink_peak_retained.max(retained);
    }

    fn handle_msg(&mut self, msg: IngestMsg) -> Result<(), ClusterError> {
        let IngestMsg::Batch(side, batch) = msg;
        for element in batch {
            self.handle_element(side, element)?;
        }
        self.publish_frames();
        Ok(())
    }

    fn handle_element(
        &mut self,
        side: Side,
        element: Timestamped<StreamElement>,
    ) -> Result<(), ClusterError> {
        self.report.elements += 1;
        // Barriers first: their timestamp carries a protocol nonce, not
        // a stream time, so they must not advance the worker clock.
        if let (StreamElement::Punctuation(p), Some(spec)) = (&element.item, &self.spec) {
            if p.width() == spec.side_width(side) && is_barrier(p, spec.join_attr(side)) {
                let nonce = element.ts.0;
                let seen = self.barriers.entry(nonce).or_insert([false, false]);
                seen[usize::from(side_index(side))] = true;
                if *seen == [true, true] {
                    self.barriers.remove(&nonce);
                    self.crossed.push_back(nonce);
                }
                return Ok(());
            }
        }
        self.clock = self.clock.max(element.ts);
        let track = self.track_lifecycle();
        let (Some(spec), Some(cfg), Some(active)) = (&self.spec, &self.cfg, &mut self.active)
        else {
            return Err(ClusterError::Protocol(
                "data arrived before the initial shard map was activated".into(),
            ));
        };
        let ts = element.ts;
        match element.item {
            StreamElement::Tuple(t) => {
                let hash = t.get(spec.join_attr(side)).and_then(Value::join_hash);
                if active.map.worker_of_hash(hash) != self.report.worker {
                    return Err(ClusterError::Protocol(format!(
                        "tuple for shard {} routed to worker {} (epoch {})",
                        partition(hash, active.map.shards()),
                        self.report.worker,
                        active.map.epoch
                    )));
                }
                active.join.on_element_prehashed(side, t.into(), ts, hash, &mut self.out);
            }
            StreamElement::Punctuation(p) => {
                if p.width() != spec.side_width(side) {
                    // The single-threaded operator ignores malformed
                    // punctuations; so does the cluster.
                    return Ok(());
                }
                let shards = active.map.shards();
                if route_punctuation(&p, side, cfg, shards).mask(shards) & active.owned == 0 {
                    return Err(ClusterError::Protocol(format!(
                        "punctuation routed to worker {} owning none of its target shards",
                        self.report.worker
                    )));
                }
                let record = track.then(|| {
                    let s = usize::from(side_index(side));
                    let at = (s, self.lifecycle[s].len());
                    self.lifecycle[s]
                        .push(PunctRecord { ingest_ns: wall_now_ns(), ..PunctRecord::default() });
                    let translated =
                        translate_punctuation(&p, spec.side_offset(side), spec.output_width());
                    self.unpropagated.entry(translated).or_default().push_back(at);
                    at
                });
                active.join.on_element(side, p.into(), ts, &mut self.out);
                if let Some((s, i)) = record {
                    self.lifecycle[s][i].purge_ns = wall_now_ns();
                }
            }
        }
        self.drain(ts);
        Ok(())
    }

    /// Encodes the output burst the join left in `self.out` for the
    /// sink, straight from the collector's values, stamped `ts`; a
    /// propagation stamps the oldest open lifecycle record of its
    /// punctuation (the join emits each once: nothing to align).
    /// [`publish_frames`](Worker::publish_frames) hands the frames over.
    fn drain(&mut self, ts: Timestamp) {
        let Worker { out, frames, report, lifecycle, unpropagated, .. } = self;
        let Ok(()) = out.drain_with(|item| {
            report.outputs += 1;
            let element = match item {
                Drained::Joined(values) => {
                    frames.push_tuple(ts, values);
                    return Ok::<(), Infallible>(());
                }
                Drained::Element(element) => element,
            };
            let record = match &element {
                StreamElement::Punctuation(p) if !unpropagated.is_empty() => {
                    unpropagated.get_mut(p).and_then(VecDeque::pop_front)
                }
                _ => None,
            };
            frames.push(&Timestamped::new(ts, element));
            if let Some((s, i)) = record {
                lifecycle[s][i].sink_ns = wall_now_ns();
            }
            Ok(())
        });
    }

    /// Whether per-punctuation lifecycle stamps are recorded: requires
    /// telemetry on and tracing requested.
    fn track_lifecycle(&self) -> bool {
        self.telemetry.enabled && self.telemetry.trace
    }

    /// The barrier carrying `nonce` crossed both input streams: the step
    /// its nonce names runs. Every pre-barrier output is already in the
    /// sink (single-threaded, in-order), so the marker published here —
    /// at `Timestamp(nonce)`, as the barrier itself was — cleanly
    /// separates the cut for the coordinator's drain, which stops at the
    /// marker naming its own barrier. A migration or checkpoint exports
    /// the join's post-purge state; a checkpoint then resumes at once
    /// (the snapshot is a passive copy: the join keeps running), while a
    /// migration or rollback blocks until the commit that activates its
    /// install. A rollback exports nothing: its live state is condemned,
    /// and the coordinator restores every worker from the durable store.
    /// A checkpoint whose cut a crash aborted still exports; the
    /// coordinator skips that export on its way to the rollback's
    /// `BarrierReached`.
    fn on_barrier(
        &mut self,
        nonce: u64,
        events: &Receiver<Event>,
        ctrl: &mut CtrlConn,
    ) -> Result<(), ClusterError> {
        let op = barrier_op(nonce)?;
        let spec = self.spec.as_ref().expect("barriers are recognised under a spec only");
        self.sink.publish(Timestamped::new(Timestamp(nonce), sink_marker(spec).into()));
        self.note_retained();
        ctrl.send(&Frame::BarrierReached { nonce })?;
        if op != Op::Rollback {
            self.export_state(ctrl)?;
        }
        if op == Op::Checkpoint {
            return Ok(());
        }
        let deadline = Instant::now() + CTRL_TIMEOUT;
        loop {
            let frame = self.next_ctrl(events, deadline, "install")?;
            let commit = matches!(frame, Frame::MigrateCommit { .. });
            self.handle_ctrl(frame, ctrl)?;
            if commit {
                break;
            }
        }
        if op == Op::Migrate {
            self.report.migrations += 1;
        }
        Ok(())
    }

    /// Ships the join's state to the coordinator as `MigrateState`
    /// chunks closed by `MigrateStateDone`: per side, one section per
    /// owned global shard, holding the records that partition to it.
    fn export_state(&mut self, ctrl: &mut CtrlConn) -> Result<(), ClusterError> {
        let mut exported: u64 = 0;
        if let (Some(spec), Some(active)) = (&self.spec, &self.active) {
            let shards = active.map.shards();
            for side in [Side::Left, Side::Right] {
                let attr = spec.join_attr(side);
                let mut sections: Vec<Vec<(u64, Tuple)>> = vec![Vec::new(); shards];
                for (arrival_us, tuple) in active.join.export_records(side)? {
                    let shard = partition(tuple.get(attr).and_then(Value::join_hash), shards);
                    sections[shard].push((arrival_us, tuple));
                }
                for (shard, records) in sections.iter().enumerate() {
                    exported += records.len() as u64;
                    for chunk in records.chunks(MIGRATE_CHUNK) {
                        ctrl.send(&Frame::MigrateState {
                            shard: shard as u32,
                            side: side_index(side),
                            records: chunk.to_vec(),
                        })?;
                    }
                }
            }
        }
        ctrl.send(&Frame::MigrateStateDone { records: exported })?;
        self.report.records_exported += exported;
        Ok(())
    }

    /// Ships one cumulative telemetry snapshot to the coordinator:
    /// lifetime counters, merged latency histograms (the live join plus
    /// migration-retired ones), the join's occupancy, per-kind trace
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
        let trace_on = self.telemetry.trace;
        let mut latencies = self.retired;
        let mut shards = Vec::with_capacity(1);
        if let Some(active) = &mut self.active {
            latencies.merge(active.join.latencies());
            shards.push(ShardSnapshot {
                shard: active.owned.trailing_zeros(),
                consumed: self.report.elements - self.epoch_start.0,
                state_tuples: active.join.state_tuples() as u64,
                emitted: self.report.outputs - self.epoch_start.1,
            });
            if trace_on {
                add_trace(&mut self.kind_totals, active.join.take_trace());
            }
        }
        if trace_on {
            add_trace(&mut self.kind_totals, server.take_trace());
        }
        let summaries = (self.kind_totals.iter().enumerate())
            .filter(|&(_, &(count, _))| count > 0)
            .map(|(kind, &(count, dur))| KindSummary { kind: kind as u8, count, total_dur_ns: dur })
            .collect();
        let stats = server.stats();
        let report = WorkerTelemetry {
            worker: self.report.worker,
            seq,
            final_flush,
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
                    if telemetry.enabled && telemetry.trace {
                        cfg = cfg.with_tracing();
                    }
                    self.cfg = Some(cfg);
                    self.spec = Some(spec);
                }
                let owned = (map.assignment.iter().enumerate())
                    .filter(|&(_, &w)| w == worker)
                    .fold(0u64, |mask, (shard, _)| mask | 1 << shard);
                if owned == 0 {
                    let e = format!("shard map epoch {} gives worker {worker} no shard", map.epoch);
                    return Err(ClusterError::Protocol(e));
                }
                let join = PJoin::new(self.cfg.clone().expect("spec decoded above"));
                self.staged = Some(Epoch { map, owned, join, imported: 0 });
                Ok(())
            }
            Frame::MigrateState { shard, side, records } => {
                let Some(staged) = self.staged.as_mut() else {
                    return Err(ClusterError::Protocol(
                        "migration state outside an install".into(),
                    ));
                };
                let side = side_from_index(side)?;
                // Bounds-checked: the shard number comes off the wire.
                if staged.map.assignment.get(shard as usize) != Some(&self.report.worker) {
                    return Err(ClusterError::Protocol(format!(
                        "migration state for shard {shard}, which staged epoch {} does not give \
                         worker {}",
                        staged.map.epoch, self.report.worker
                    )));
                }
                staged.imported += records.len() as u64;
                for (arrival_us, tuple) in records {
                    staged.join.import_record(side, tuple, arrival_us);
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
                // Retire the outgoing join's telemetry before it drops:
                // cumulative reports must keep its samples.
                if let Some(active) = self.active.as_mut().filter(|_| self.telemetry.enabled) {
                    self.retired.merge(active.join.latencies());
                    add_trace(&mut self.kind_totals, active.join.take_trace());
                }
                self.active = Some(staged);
                self.epoch_start = (self.report.elements, self.report.outputs);
                // Punctuations the outgoing join had not propagated die
                // with it; the coordinator re-injects them, and their new
                // copies open new lifecycle records.
                self.unpropagated.clear();
                ctrl.send(&Frame::MigrateCommit { epoch })?;
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

/// Adds a drained trace log to the per-kind `(count, total span ns)`
/// totals.
fn add_trace(totals: &mut [(u64, u64)], log: TraceLog) {
    for e in log.events {
        let t = &mut totals[e.kind.index() as usize];
        t.0 += 1;
        t.1 += e.dur_ns;
    }
}

fn event_channel_closed() -> ClusterError {
    ClusterError::Disconnected("worker event channel".into())
}

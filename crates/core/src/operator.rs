//! The PJoin operator: wiring of the memory join, the event-driven
//! framework, and the purge / relocation / disk-join / index-build /
//! propagation components.

use punct_trace::{JoinLatencies, SpanStart, TraceKind, TraceLog, Tracer};
use punct_types::{Pattern, PunctId, StreamElement, Timestamp, Tuple};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::components::disk_join::{resolve_bucket, ResolutionMark};
use crate::components::propagation::propagate_side;
use crate::components::purge::purge_state;
use crate::config::{PJoinConfig, PropagationTrigger};
use crate::dedup::DiskDiskMark;
use crate::framework::{
    Component, EventKind, FrameworkProfile, Monitor, MonitorSnapshot, Registry,
};
use crate::record::{Instant, PRecord};
use crate::state::JoinState;

/// Operational statistics of a PJoin run (complements the cost-model
/// [`Work`] counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PJoinStats {
    /// State purge invocations.
    pub purge_runs: u64,
    /// Tuples removed by purges (memory scans and disk rewrites).
    pub tuples_purged: u64,
    /// Tuples parked in a purge buffer.
    pub tuples_buffered: u64,
    /// Arriving tuples dropped on the fly (never stored).
    pub dropped_on_fly: u64,
    /// Tuples invalidated by the sliding window (§6 extension).
    pub tuples_expired: u64,
    /// Punctuation index build invocations.
    pub index_builds: u64,
    /// Propagation invocations.
    pub propagation_runs: u64,
    /// Punctuations released to the output.
    pub puncts_propagated: u64,
    /// Disk-join bucket resolutions.
    pub disk_join_runs: u64,
    /// State relocations (bucket spills).
    pub relocations: u64,
    /// Malformed elements dropped at ingest: tuples too short to carry
    /// the join attribute and punctuations of the wrong width.
    pub malformed_dropped: u64,
}

impl std::ops::Add for PJoinStats {
    type Output = PJoinStats;
    fn add(self, rhs: PJoinStats) -> PJoinStats {
        PJoinStats {
            purge_runs: self.purge_runs + rhs.purge_runs,
            tuples_purged: self.tuples_purged + rhs.tuples_purged,
            tuples_buffered: self.tuples_buffered + rhs.tuples_buffered,
            dropped_on_fly: self.dropped_on_fly + rhs.dropped_on_fly,
            tuples_expired: self.tuples_expired + rhs.tuples_expired,
            index_builds: self.index_builds + rhs.index_builds,
            propagation_runs: self.propagation_runs + rhs.propagation_runs,
            puncts_propagated: self.puncts_propagated + rhs.puncts_propagated,
            disk_join_runs: self.disk_join_runs + rhs.disk_join_runs,
            relocations: self.relocations + rhs.relocations,
            malformed_dropped: self.malformed_dropped + rhs.malformed_dropped,
        }
    }
}

impl std::ops::AddAssign for PJoinStats {
    fn add_assign(&mut self, rhs: PJoinStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for PJoinStats {
    fn sum<I: Iterator<Item = PJoinStats>>(iter: I) -> PJoinStats {
        iter.fold(PJoinStats::default(), |acc, s| acc + s)
    }
}

/// End-of-stream processing phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndPhase {
    NotStarted,
    DiskJoins,
    Final,
    Done,
}

/// The operator's observability state: the trace sink, the three
/// end-to-end latency histograms, the framework profile, and the
/// bookkeeping ledgers that turn punctuation ids into latencies. All
/// recording is gated on the tracer, so a non-traced operator pays one
/// predictable branch per hook and allocates none of this beyond the
/// struct itself.
#[derive(Debug)]
struct OpTrace {
    tracer: Tracer,
    latencies: JoinLatencies,
    profile: FrameworkProfile,
    /// Virtual arrival time (µs) of each punctuation, dense by
    /// [`PunctId`], one ledger per side.
    punct_arrivals: [Vec<u64>; 2],
    /// Arrival times of punctuations no purge run has applied yet.
    pending_purge: Vec<u64>,
    /// The open memory-join burst, if any: arriving tuples accumulate
    /// here and one span is emitted when the burst closes (next
    /// punctuation, component run, or trace drain). One wall-clock read
    /// pair per burst keeps the per-tuple cost at counter increments.
    mj_burst: Option<MjBurst>,
}

#[derive(Debug, Clone, Copy)]
struct MjBurst {
    start: SpanStart,
    tuples: u64,
    matches: u64,
}

impl OpTrace {
    fn new(config: &PJoinConfig) -> OpTrace {
        OpTrace {
            tracer: Tracer::new(config.trace),
            latencies: JoinLatencies::new(),
            profile: FrameworkProfile::new(),
            punct_arrivals: [Vec::new(), Vec::new()],
            pending_purge: Vec::new(),
            mj_burst: None,
        }
    }

    /// Folds one arriving tuple into the open memory-join burst,
    /// opening one if needed.
    #[inline]
    fn note_memory_join(&mut self, matches: u64) {
        if self.mj_burst.is_none() {
            self.mj_burst = Some(MjBurst {
                start: self.tracer.span_start(),
                tuples: 0,
                matches: 0,
            });
        }
        let b = self.mj_burst.as_mut().expect("burst just ensured");
        b.tuples += 1;
        b.matches += matches;
    }

    /// Closes the open memory-join burst, emitting its span.
    fn flush_memory_join(&mut self, now_us: u64) {
        if let Some(b) = self.mj_burst.take() {
            self.tracer
                .span_end(b.start, TraceKind::MemoryJoin, now_us, b.tuples, b.matches);
        }
    }

    /// Records a punctuation arrival in both latency ledgers.
    fn note_punct_arrival(&mut self, side_idx: usize, id: PunctId, now_us: u64) {
        let ledger = &mut self.punct_arrivals[side_idx];
        let slot = id.0 as usize;
        if ledger.len() <= slot {
            ledger.resize(slot + 1, now_us);
        }
        ledger[slot] = now_us;
        self.pending_purge.push(now_us);
    }

    /// Records one punctuation's downstream release: its
    /// arrival→propagation latency and a `PunctEmit` instant.
    fn note_punct_emitted(&mut self, side_idx: usize, id: PunctId, now_us: u64) {
        let arrival = self.punct_arrivals[side_idx]
            .get(id.0 as usize)
            .copied()
            .unwrap_or(now_us);
        let lat = now_us.saturating_sub(arrival);
        self.latencies.punct_propagate.record(lat);
        self.tracer.instant(TraceKind::PunctEmit, now_us, id.0, lat);
    }
}

/// The PJoin operator. See the crate docs for the high-level design and
/// [`PJoinBuilder`](crate::PJoinBuilder) for ergonomic construction.
pub struct PJoin {
    config: PJoinConfig,
    a: JoinState,
    b: JoinState,
    /// Per-bucket disk×disk resolution watermarks.
    dd_marks: Vec<Option<DiskDiskMark>>,
    /// Per-bucket snapshot of the last disk-join resolution.
    resolution_marks: Vec<Option<ResolutionMark>>,
    monitor: Monitor,
    registry: Registry,
    work: Work,
    stats: PJoinStats,
    /// Logical event clock (see `crate::dedup`).
    instant: Instant,
    /// Latest virtual time seen (for the monitor's time thresholds).
    now: Timestamp,
    end_phase: EndPhase,
    /// Tracing, latency histograms and framework profiling.
    obs: OpTrace,
}

impl PJoin {
    /// Creates a PJoin from a configuration, with the registry derived
    /// from it.
    pub fn new(config: PJoinConfig) -> PJoin {
        let registry = Registry::from_config(&config);
        PJoin::with_registry(config, registry)
    }

    /// Creates a PJoin whose spill states live on explicit disk backends
    /// (e.g. real [`spillstore::FileDisk`]s).
    pub fn with_backends(
        config: PJoinConfig,
        backend_a: Box<dyn spillstore::DiskBackend>,
        backend_b: Box<dyn spillstore::DiskBackend>,
    ) -> PJoin {
        let registry = Registry::from_config(&config);
        let mut op = PJoin::with_registry(config, registry);
        op.a = JoinState::with_backend(
            op.config.width_a,
            op.config.join_attr_a,
            op.config.buckets,
            op.config.page_tuples,
            backend_a,
        );
        op.b = JoinState::with_backend(
            op.config.width_b,
            op.config.join_attr_b,
            op.config.buckets,
            op.config.page_tuples,
            backend_b,
        );
        op
    }

    /// Creates a PJoin with an explicit event-listener registry (runtime
    /// reconfiguration experiments).
    pub fn with_registry(config: PJoinConfig, registry: Registry) -> PJoin {
        PJoin {
            a: JoinState::new(
                config.width_a,
                config.join_attr_a,
                config.buckets,
                config.page_tuples,
            ),
            b: JoinState::new(
                config.width_b,
                config.join_attr_b,
                config.buckets,
                config.page_tuples,
            ),
            dd_marks: vec![None; config.buckets],
            resolution_marks: vec![None; config.buckets],
            monitor: Monitor::from_config(&config),
            registry,
            work: Work::ZERO,
            stats: PJoinStats::default(),
            instant: 0,
            now: Timestamp::ZERO,
            end_phase: EndPhase::NotStarted,
            obs: OpTrace::new(&config),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PJoinConfig {
        &self.config
    }

    /// Operational statistics.
    pub fn stats(&self) -> &PJoinStats {
        &self.stats
    }

    /// Side A's state (tests, metrics).
    pub fn state_a(&self) -> &JoinState {
        &self.a
    }

    /// Side B's state (tests, metrics).
    pub fn state_b(&self) -> &JoinState {
        &self.b
    }

    /// The event-listener registry (runtime-tunable).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The monitor (runtime-tunable thresholds).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Pull-mode propagation request from a downstream operator; handled
    /// at the next processing step.
    pub fn request_propagation(&mut self) {
        self.monitor.request_propagation();
    }

    /// Whether tracing is recording (false when disabled or compiled
    /// out).
    pub fn tracing_enabled(&self) -> bool {
        self.obs.tracer.enabled()
    }

    /// The end-to-end latency histograms recorded so far (all empty
    /// unless tracing is enabled).
    pub fn latencies(&self) -> &JoinLatencies {
        &self.obs.latencies
    }

    /// The framework profile: per-component virtual + wall cost and
    /// scheduling-decision counts (all zero unless tracing is enabled).
    pub fn profile(&self) -> &FrameworkProfile {
        &self.obs.profile
    }

    /// The operator's tracer (read access: ring contents, drop counts).
    pub fn tracer(&self) -> &Tracer {
        &self.obs.tracer
    }

    /// The operator's tracer, e.g. to assign a shard lane.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.obs.tracer
    }

    /// Drains the recorded trace events, closing any open memory-join
    /// burst first.
    pub fn take_trace(&mut self) -> TraceLog {
        self.obs.flush_memory_join(self.now.as_micros());
        self.obs.tracer.take()
    }

    /// Starts a profiled component run: captures wall time and a work
    /// snapshot, closing any open memory-join burst so foreground and
    /// component spans never overlap. `None` (free) when tracing is off.
    fn prof_begin(&mut self) -> Option<(SpanStart, Work)> {
        if self.obs.tracer.enabled() {
            self.obs.flush_memory_join(self.now.as_micros());
            Some((self.obs.tracer.span_start(), self.work))
        } else {
            None
        }
    }

    /// Finishes a profiled component run: attributes wall time and the
    /// work delta to `comp`, and (optionally) records a span event.
    fn prof_end(
        &mut self,
        comp: Component,
        token: Option<(SpanStart, Work)>,
        span: Option<(TraceKind, u64, u64)>,
    ) {
        let Some((start, w0)) = token else { return };
        let wall = punct_trace::wall_now_ns().saturating_sub(start.wall_ns());
        self.obs.profile.note_run(comp, wall, self.work - w0);
        if let Some((kind, a, b)) = span {
            self.obs
                .tracer
                .span_end(start, kind, self.now.as_micros(), a, b);
        }
    }

    fn next_instant(&mut self) -> Instant {
        let i = self.instant;
        self.instant += 1;
        i
    }

    /// Splits the two side states by arrival side: `(own, opposite)`.
    fn split(&mut self, side: Side) -> (&mut JoinState, &mut JoinState) {
        match side {
            Side::Left => (&mut self.a, &mut self.b),
            Side::Right => (&mut self.b, &mut self.a),
        }
    }

    /// The memory join (paper §3.2): probe the opposite memory portion,
    /// emit matches, then store the tuple — or drop/buffer it on the fly
    /// when the opposite punctuation set already covers it (§4.3). With
    /// the sliding-window extension (§6), tuple invalidation by window is
    /// "performed in combination with the state probing": the expired
    /// prefix of the probed (and insertion) bucket is dropped first.
    ///
    /// `hash` is the join hash ([`punct_types::Value::join_hash`] of the
    /// join attribute; `None` for unjoinable keys), computed once by the
    /// caller — every bucket decision below reuses it via
    /// `bucket_of_hash`, so no hashing happens here.
    fn handle_tuple(&mut self, side: Side, tuple: Tuple, hash: Option<u64>, out: &mut OpOutput) {
        let t = self.next_instant();
        let now_us = self.now.as_micros();
        let on_the_fly = self.config.on_the_fly_drop;
        let window_cutoff = self.config.window_us.map(|w| now_us.saturating_sub(w));
        let work = &mut self.work;
        let stats = &mut self.stats;
        let obs = &mut self.obs;
        let trace_on = obs.tracer.enabled();
        let mut matches = 0u64;
        let (own, opp) = match side {
            Side::Left => (&mut self.a, &mut self.b),
            Side::Right => (&mut self.b, &mut self.a),
        };
        let Some(key) = tuple.get(own.join_attr) else {
            stats.malformed_dropped += 1;
            return;
        };
        own.newest_ats = t;
        work.hashes += 1;
        // Both stores share the bucket count, so the carried hash maps to
        // the same bucket on either side.
        let bucket = own.store.bucket_of_hash(hash);

        // Window expiry in the buckets this element touches.
        if let Some(cutoff) = window_cutoff {
            stats.tuples_expired += opp.expire_bucket(bucket, cutoff, work) as u64;
            stats.tuples_expired += own.expire_bucket(bucket, cutoff, work) as u64;
        }

        // Probe by the carried hash: the slab's packed tag scan narrows
        // to hash-equal candidates without constructing a canonical key
        // (zero allocation). `join_eq` arbitrates each candidate — the
        // hash is a superset filter (collisions, and e.g. `-0.0` and
        // `0.0` share a hash but are not join-equal under `total_cmp`).
        let opp_attr = opp.join_attr;
        work.key_lookups += 1;
        for rec in opp.store.probe_bucket_hashed(bucket, hash) {
            work.probe_cmps += 1;
            if rec.tuple.get(opp_attr).is_some_and(|v| v.join_eq(key)) {
                work.outputs += 1;
                if trace_on {
                    // The result's end-to-end latency is the age of its
                    // *stored* partner (the arriving tuple's own latency
                    // is zero in a symmetric hash join).
                    matches += 1;
                    obs.latencies
                        .tuple_emit
                        .record(now_us.saturating_sub(rec.arrival_us));
                }
                match side {
                    Side::Left => out.push_joined(&tuple, &rec.tuple),
                    Side::Right => out.push_joined(&rec.tuple, &tuple),
                }
            }
        }

        // Store, unless covered by the opposite punctuation set.
        if on_the_fly {
            work.index_evals += 1;
            if opp.index.covers_join_value(key) {
                if opp.store.bucket(bucket).has_disk_portion() {
                    // May still join the opposite disk portion: park it.
                    let rec = PRecord {
                        tuple,
                        ats: t,
                        dts: t + 1,
                        pid: None,
                        arrival_us: now_us,
                    };
                    own.buffer_record(bucket, rec, work);
                    stats.tuples_buffered += 1;
                } else {
                    stats.dropped_on_fly += 1;
                }
                if trace_on {
                    obs.note_memory_join(matches);
                }
                return;
            }
        }
        own.insert_hashed(PRecord::arriving_at(tuple, t, now_us), hash);
        work.inserts += 1;
        if trace_on {
            obs.note_memory_join(matches);
        }
    }

    /// Punctuation ingest: register in the owning side's index, run the
    /// eager index build if so registered, and update the monitor.
    fn handle_punctuation(&mut self, side: Side, p: punct_types::Punctuation, out: &mut OpOutput) {
        let _ = self.next_instant();
        self.work.puncts_processed += 1;
        let matched_pair_mode = self.config.propagation == PropagationTrigger::MatchedPair;
        let (own, opp) = self.split(side);
        if p.width() != own.width {
            self.stats.malformed_dropped += 1;
            return;
        }
        let matched = matched_pair_mode
            && p.pattern(own.join_attr)
                .is_some_and(|pat| opp.index.contains_join_pattern(pat));
        let pid = own.index.insert(p);
        if self.obs.tracer.enabled() {
            let side_idx = usize::from(side == Side::Right);
            let now_us = self.now.as_micros();
            self.obs.flush_memory_join(now_us);
            self.obs.note_punct_arrival(side_idx, pid, now_us);
            self.obs
                .tracer
                .instant(TraceKind::PunctArrive, now_us, pid.0, side_idx as u64);
        }
        self.monitor.punctuation_arrived(matched);

        if self.obs.tracer.enabled() {
            self.obs.profile.note_event(EventKind::PunctuationArrive);
        }
        for comp in self.registry.listeners(EventKind::PunctuationArrive) {
            self.run_component(comp, out);
        }
    }

    fn snapshot(&self, disk_join_ready: bool) -> MonitorSnapshot {
        MonitorSnapshot {
            memory_tuples: self.a.memory_tuples() + self.b.memory_tuples(),
            disk_join_ready,
            now: self.now,
        }
    }

    fn dispatch(&mut self, disk_join_ready: bool, out: &mut OpOutput) -> bool {
        let snapshot = self.snapshot(disk_join_ready);
        let matched_mode = self.config.propagation == PropagationTrigger::MatchedPair;
        let events = self.monitor.poll(&snapshot, matched_mode);
        let profiling = self.obs.tracer.enabled();
        if profiling {
            self.obs.profile.note_poll();
        }
        let mut ran = false;
        for event in events {
            if profiling {
                self.obs.profile.note_event(event.kind);
            }
            for comp in self.registry.listeners(event.kind) {
                self.run_component(comp, out);
                ran = true;
            }
        }
        ran
    }

    fn run_component(&mut self, comp: Component, out: &mut OpOutput) {
        match comp {
            Component::StatePurge => self.component_purge(),
            Component::StateRelocation => self.component_relocate(),
            Component::DiskJoin => {
                if let Some(bucket) = self.disk_join_candidate(false) {
                    self.resolve(bucket, out);
                }
            }
            Component::IndexBuild => self.component_index_build(),
            Component::Propagation => self.component_propagate(out),
        }
    }

    /// State purge (§3.4): apply each side's new punctuations to the
    /// opposite state.
    fn component_purge(&mut self) {
        let prof = self.prof_begin();
        let mut removed = 0u64;
        self.stats.purge_runs += 1;
        let departure = self.instant;

        // A's new punctuations purge B.
        let report = purge_state(
            &mut self.b,
            self.a.index.join_patterns_since(self.a.applied_up_to),
            |bucket| self.a.store.bucket(bucket).has_disk_portion(),
            departure,
            &mut self.work,
        );
        self.a.applied_up_to = self.a.index.next_id();
        self.stats.tuples_purged += report.removed as u64;
        self.stats.tuples_buffered += report.buffered as u64;
        removed += report.removed as u64;

        // B's new punctuations purge A.
        let report = purge_state(
            &mut self.a,
            self.b.index.join_patterns_since(self.b.applied_up_to),
            |bucket| self.b.store.bucket(bucket).has_disk_portion(),
            departure,
            &mut self.work,
        );
        self.b.applied_up_to = self.b.index.next_id();
        self.stats.tuples_purged += report.removed as u64;
        self.stats.tuples_buffered += report.buffered as u64;
        removed += report.removed as u64;

        // Every punctuation that arrived since the last purge run is now
        // applied: settle its arrival→purge-complete latency.
        if self.obs.tracer.enabled() {
            let now_us = self.now.as_micros();
            let applied = self.obs.pending_purge.len() as u64;
            for vt in std::mem::take(&mut self.obs.pending_purge) {
                self.obs
                    .latencies
                    .punct_purge
                    .record(now_us.saturating_sub(vt));
            }
            self.prof_end(
                Component::StatePurge,
                prof,
                Some((TraceKind::Purge, removed, applied)),
            );
        }
    }

    /// State relocation (§3.3): spill the largest bucket of the larger
    /// store until under the memory threshold.
    fn component_relocate(&mut self) {
        if self.config.memory_max_tuples == 0 {
            return;
        }
        let prof = self.prof_begin();
        let now_us = self.now.as_micros();
        let departure = self.instant;
        while self.a.memory_tuples() + self.b.memory_tuples() > self.config.memory_max_tuples {
            let own = if self.a.store.memory_tuples() >= self.b.store.memory_tuples() {
                &mut self.a
            } else {
                &mut self.b
            };
            let Some(victim) = own.store.peek_spill_victim() else {
                break;
            };
            if own.store.bucket(victim).memory_len() == 0 {
                break;
            }
            let spill = self.obs.tracer.span_start();
            let pages = own.spill_bucket(victim, departure, &mut self.work);
            self.obs
                .tracer
                .span_end(spill, TraceKind::Relocation, now_us, victim as u64, pages);
            self.stats.relocations += 1;
        }
        // The per-spill spans carry the detail; the profile row carries
        // the aggregate attribution.
        self.prof_end(Component::StateRelocation, prof, None);
    }

    /// Index build (§3.5): incremental build on both sides.
    fn component_index_build(&mut self) {
        let prof = self.prof_begin();
        let evals0 = self.work.index_evals;
        self.stats.index_builds += 1;
        self.a.index_build(&mut self.work);
        self.b.index_build(&mut self.work);
        let evals = self.work.index_evals - evals0;
        self.prof_end(
            Component::IndexBuild,
            prof,
            Some((TraceKind::IndexBuild, evals, 0)),
        );
    }

    /// Propagation (§3.5): release propagable punctuations of both sides
    /// in output-schema form.
    fn component_propagate(&mut self, out: &mut OpOutput) {
        let prof = self.prof_begin();
        self.stats.propagation_runs += 1;
        let out_width = self.config.output_width();
        let ids_a = propagate_side(&mut self.a, 0, out_width, out, &mut self.work);
        let ids_b = propagate_side(
            &mut self.b,
            self.config.width_a,
            out_width,
            out,
            &mut self.work,
        );
        let n = (ids_a.len() + ids_b.len()) as u64;
        self.stats.puncts_propagated += n;
        if self.obs.tracer.enabled() {
            let now_us = self.now.as_micros();
            for id in ids_a {
                self.obs.note_punct_emitted(0, id, now_us);
            }
            for id in ids_b {
                self.obs.note_punct_emitted(1, id, now_us);
            }
            self.prof_end(
                Component::Propagation,
                prof,
                Some((TraceKind::Propagation, n, 0)),
            );
        }
    }

    /// Picks the next bucket worth resolving. With `force`, activation
    /// thresholds are ignored (end-of-stream cleanup).
    fn disk_join_candidate(&self, force: bool) -> Option<usize> {
        for bucket in 0..self.config.buckets {
            let ab = self.a.store.bucket(bucket);
            let bb = self.b.store.bucket(bucket);
            let buffers =
                !self.a.purge_buffer[bucket].is_empty() || !self.b.purge_buffer[bucket].is_empty();
            let has_disk = ab.has_disk_portion() || bb.has_disk_portion();
            if !has_disk && !buffers {
                continue;
            }
            let pages = ab.disk_pages().len().max(bb.disk_pages().len()) as u64;
            if !buffers && !force && pages < self.config.activation_pages {
                continue;
            }
            match self.resolution_marks[bucket] {
                Some(m)
                    if !buffers
                        && m.a_disk_len == ab.disk_len()
                        && m.b_disk_len == bb.disk_len()
                        && m.newest_ats_a == self.a.newest_ats
                        && m.newest_ats_b == self.b.newest_ats =>
                {
                    continue
                }
                _ => return Some(bucket),
            }
        }
        None
    }

    fn resolve(&mut self, bucket: usize, out: &mut OpOutput) {
        let prof = self.prof_begin();
        let outputs0 = self.work.outputs;
        let probe_instant = self.next_instant();
        self.stats.disk_join_runs += 1;
        let mark = resolve_bucket(
            bucket,
            &mut self.a,
            &mut self.b,
            &mut self.dd_marks[bucket],
            probe_instant,
            out,
            &mut self.work,
        );
        self.resolution_marks[bucket] = Some(mark);
        let emitted = self.work.outputs - outputs0;
        self.prof_end(
            Component::DiskJoin,
            prof,
            Some((TraceKind::DiskJoin, bucket as u64, emitted)),
        );
    }

    /// The join hash of `tuple`'s join attribute on `side` — the one
    /// hashing site for callers that did not route by it.
    fn join_hash(&self, side: Side, tuple: &Tuple) -> Option<u64> {
        let attr = match side {
            Side::Left => self.a.join_attr,
            Side::Right => self.b.join_attr,
        };
        tuple.get(attr).and_then(punct_types::Value::join_hash)
    }

    /// [`BinaryStreamOp::on_element`] with the join hash already computed
    /// upstream (`None` for punctuations and unjoinable keys). This is
    /// the carried-hash entry point of the sharded executor: the router
    /// hashed each tuple once for shard selection and the store reuses
    /// the same hash for bucketing.
    pub fn on_element_prehashed(
        &mut self,
        side: Side,
        element: StreamElement,
        ts: Timestamp,
        hash: Option<u64>,
        out: &mut OpOutput,
    ) {
        self.now = self.now.max(ts);
        match element {
            StreamElement::Tuple(t) => {
                debug_assert_eq!(hash, self.join_hash(side, &t), "carried hash is stale");
                self.handle_tuple(side, t, hash, out);
            }
            StreamElement::Punctuation(p) => self.handle_punctuation(side, p, out),
        }
        // Disk joins are not scheduled inline with arrivals — they run in
        // idle slots (§3.2) or at stream end.
        self.dispatch(false, out);
    }
}

impl BinaryStreamOp for PJoin {
    fn on_element(
        &mut self,
        side: Side,
        element: StreamElement,
        ts: Timestamp,
        out: &mut OpOutput,
    ) {
        let hash = match &element {
            StreamElement::Tuple(t) => self.join_hash(side, t),
            StreamElement::Punctuation(_) => None,
        };
        self.on_element_prehashed(side, element, ts, hash, out);
    }

    fn on_idle(&mut self, now: Timestamp, out: &mut OpOutput) -> bool {
        self.now = self.now.max(now);
        let ready = self.disk_join_candidate(false).is_some();
        self.dispatch(ready, out)
    }

    fn on_end(&mut self, now: Timestamp, out: &mut OpOutput) -> bool {
        self.now = self.now.max(now);
        loop {
            match self.end_phase {
                EndPhase::NotStarted => {
                    if self.obs.tracer.enabled() {
                        self.obs.profile.note_event(EventKind::StreamEmpty);
                    }
                    self.end_phase = EndPhase::DiskJoins;
                }
                EndPhase::DiskJoins => {
                    // The StreamEmpty handling honours the registry: skip
                    // phases whose component is not registered.
                    let listeners = self.registry.listeners(EventKind::StreamEmpty);
                    if listeners.contains(&Component::DiskJoin) {
                        if let Some(bucket) = self.disk_join_candidate(true) {
                            self.resolve(bucket, out);
                            return true;
                        }
                    }
                    self.end_phase = EndPhase::Final;
                }
                EndPhase::Final => {
                    let listeners = self.registry.listeners(EventKind::StreamEmpty);
                    if listeners.contains(&Component::StatePurge) {
                        self.component_purge();
                    }
                    if listeners.contains(&Component::IndexBuild) {
                        self.component_index_build();
                    }
                    if listeners.contains(&Component::Propagation) {
                        self.component_propagate(out);
                        // Final flush: the streams ended, so no further
                        // result can match *any* punctuation — release
                        // the remainder in arrival order.
                        self.flush_all_punctuations(out);
                    }
                    self.end_phase = EndPhase::Done;
                    return true;
                }
                EndPhase::Done => return false,
            }
        }
    }

    fn take_work(&mut self) -> Work {
        std::mem::take(&mut self.work)
    }

    fn state_tuples(&self) -> usize {
        self.a.total_tuples() + self.b.total_tuples()
    }

    fn state_memory_tuples(&self) -> usize {
        self.a.memory_tuples() + self.b.memory_tuples()
    }

    fn state_tuples_per_side(&self) -> (usize, usize) {
        (self.a.total_tuples(), self.b.total_tuples())
    }
}

impl PJoin {
    /// Releases every remaining live punctuation (end-of-stream flush —
    /// valid because no further result will be produced).
    fn flush_all_punctuations(&mut self, out: &mut OpOutput) {
        let out_width = self.config.output_width();
        let now_us = self.now.as_micros();
        let trace_on = self.obs.tracer.enabled();
        for (state, offset, side_idx) in [
            (&mut self.a, 0usize, 0usize),
            (&mut self.b, self.config.width_a, 1usize),
        ] {
            for id in (0..state.index.next_id()).map(PunctId) {
                if state.index.is_retired(id) {
                    continue;
                }
                let p = state.index.get(id).expect("unretired ids resolve");
                out.push(crate::components::propagation::translate_punctuation(
                    p, offset, out_width,
                ));
                state.index.retire(id);
                self.work.puncts_propagated += 1;
                self.stats.puncts_propagated += 1;
                if trace_on {
                    self.obs.note_punct_emitted(side_idx, id, now_us);
                }
            }
        }
    }

    /// True if `pattern` occurs as a live join-attribute pattern in the
    /// given side's punctuation set — exposed for tests of the
    /// matched-pair trigger.
    pub fn side_has_join_pattern(&self, side: Side, pattern: &Pattern) -> bool {
        let state = match side {
            Side::Left => &self.a,
            Side::Right => &self.b,
        };
        state.index.contains_join_pattern(pattern)
    }

    /// Exports one side's stored records for cluster state migration:
    /// `(arrival_us, tuple)` pairs in bucket/slot order. The join hash
    /// is *not* shipped — [`import_record`](Self::import_record)
    /// recomputes it, so source and destination can never disagree
    /// about bucketing.
    ///
    /// Fails if the side's state cannot be reproduced by re-insertion:
    /// a disk-resident bucket portion (page ids are meaningless to
    /// another process) or parked purge-buffer records (their fate
    /// depends on this process's pending disk joins). Cluster v1
    /// restricts migratable configurations to memory-only state, and
    /// this check is what enforces it.
    pub fn export_records(&self, side: Side) -> Result<Vec<(u64, Tuple)>, StateExportError> {
        let state = match side {
            Side::Left => &self.a,
            Side::Right => &self.b,
        };
        if state.purge_buffer_len > 0 {
            return Err(StateExportError::PurgeBuffered {
                side,
                records: state.purge_buffer_len,
            });
        }
        let mut out = Vec::with_capacity(state.store.memory_tuples());
        for (bucket, b) in state.store.buckets().enumerate() {
            if b.has_disk_portion() {
                return Err(StateExportError::DiskResident { side, bucket });
            }
            for rec in b.iter() {
                out.push((rec.arrival_us, rec.tuple.clone()));
            }
        }
        Ok(out)
    }

    /// Installs one migrated record into `side`'s state: computes the
    /// join hash, advances the logical clock, and inserts **without
    /// probing** — migration replays *state*, not *stream*. Every
    /// output this record could produce with pre-migration partners was
    /// already emitted at the source shard; probing here would
    /// duplicate those results.
    pub fn import_record(&mut self, side: Side, tuple: Tuple, arrival_us: u64) {
        let t = self.next_instant();
        let hash = self.join_hash(side, &tuple);
        let (own, _) = self.split(side);
        own.newest_ats = t;
        own.insert_hashed(PRecord::arriving_at(tuple, t, arrival_us), hash);
        self.work.inserts += 1;
    }
}

/// Why one side's state could not be exported for migration (see
/// [`PJoin::export_records`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateExportError {
    /// A bucket has a disk-resident portion; its page ids cannot be
    /// shipped to another process.
    DiskResident {
        /// The side whose state is disk-resident.
        side: Side,
        /// The offending bucket.
        bucket: usize,
    },
    /// The purge buffer holds records awaiting a local disk join.
    PurgeBuffered {
        /// The side whose purge buffer is non-empty.
        side: Side,
        /// Number of parked records.
        records: usize,
    },
}

impl std::fmt::Display for StateExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateExportError::DiskResident { side, bucket } => {
                write!(
                    f,
                    "side {side:?} bucket {bucket} has a disk-resident portion"
                )
            }
            StateExportError::PurgeBuffered { side, records } => {
                write!(f, "side {side:?} has {records} purge-buffered records")
            }
        }
    }
}

impl std::error::Error for StateExportError {}

//! The PJoin operator: wiring of the memory join, the event-driven
//! framework, and the purge / relocation / disk-join / propagation
//! components.

use punct_trace::{JoinLatencies, SpanStart, TraceKind, TraceLog, Tracer};
use punct_types::{PunctId, StreamElement, Timestamp, Tuple};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::components::disk_join::{resolve_bucket, ResolutionMark};
use crate::components::propagation::propagate_side;
use crate::components::purge::purge_state;
use crate::config::{PJoinConfig, PropagationTrigger};
use crate::dedup::DiskDiskMark;
use crate::framework::{
    Component, EventKind, FrameworkProfile, Monitor, MonitorSnapshot, Registry,
};
use crate::punctuation_index::PunctuationIndex;
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
    /// Propagation invocations.
    pub propagation_runs: u64,
    /// Punctuations released to the output.
    pub puncts_propagated: u64,
    /// Propagated constants forgotten because both inputs closed the
    /// value (two per closed pair; see `PunctuationIndex::closer_of`).
    pub puncts_forgotten: u64,
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
            propagation_runs: self.propagation_runs + rhs.propagation_runs,
            puncts_propagated: self.puncts_propagated + rhs.puncts_propagated,
            puncts_forgotten: self.puncts_forgotten + rhs.puncts_forgotten,
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
/// end-to-end latency histograms and the framework profile. A
/// punctuation's latencies start from the arrival time its index entry
/// carries. All recording is gated on the tracer, so a non-traced
/// operator pays one predictable branch per hook and allocates none of
/// this beyond the struct itself.
#[derive(Debug)]
struct OpTrace {
    tracer: Tracer,
    latencies: JoinLatencies,
    profile: FrameworkProfile,
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

    /// Records the downstream release of punctuation `id` of `index`:
    /// its arrival→propagation latency and a `PunctEmit` instant.
    fn note_punct_emitted(&mut self, index: &PunctuationIndex, id: PunctId, now_us: u64) {
        let arrival = index.arrival_us(id).unwrap_or(now_us);
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
    /// The ids one propagation run released, left side first: a buffer
    /// kept across runs.
    propagated: Vec<PunctId>,
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
            propagated: Vec::new(),
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

    /// Punctuations both sides' indexes hold: the values still open
    /// plus whatever an unforgotten punctuation pins behind it.
    pub fn punctuations_held(&self) -> usize {
        self.a.index.held() + self.b.index.held()
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
            if opp.index.covers_value(key) {
                if opp.store.bucket(bucket).has_disk_portion() {
                    // May still join the opposite disk portion: park it.
                    let rec = PRecord {
                        tuple,
                        ats: t,
                        dts: t + 1,
                        arrival_us: now_us,
                    };
                    own.park_record(bucket, rec);
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

    /// Punctuation ingest: register in the owning side's index, update
    /// the monitor and run the components registered for the arrival.
    fn handle_punctuation(&mut self, side: Side, p: punct_types::Punctuation, out: &mut OpOutput) {
        let _ = self.next_instant();
        self.work.puncts_processed += 1;
        let matched_pair_mode = self.config.propagation == PropagationTrigger::MatchedPair;
        let now_us = self.now.as_micros();
        let (own, opp) = self.split(side);
        if p.width() != own.width {
            self.stats.malformed_dropped += 1;
            return;
        }
        let matched = matched_pair_mode
            && p.pattern(own.join_attr)
                .is_some_and(|pat| opp.index.contains_join_pattern(pat));
        let pid = own.index.insert(p, now_us);
        if self.obs.tracer.enabled() {
            let side_idx = usize::from(side == Side::Right);
            self.obs.flush_memory_join(now_us);
            self.obs
                .tracer
                .instant(TraceKind::PunctArrive, now_us, pid.0, side_idx as u64);
        }
        self.monitor.punctuation_arrived(matched);

        if self.obs.tracer.enabled() {
            self.obs.profile.note_event(EventKind::PunctuationArrive);
        }
        self.run_listeners(EventKind::PunctuationArrive, out);
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
        for event in events.into_iter().flatten() {
            if profiling {
                self.obs.profile.note_event(event.kind);
            }
            ran |= self.run_listeners(event.kind, out);
        }
        ran
    }

    /// Runs the components registered for `event`, in order; true if
    /// any ran. The registry is lent out for the walk (no component
    /// touches it), so the listeners are not copied.
    fn run_listeners(&mut self, event: EventKind, out: &mut OpOutput) -> bool {
        let registry = std::mem::take(&mut self.registry);
        let mut ran = false;
        for comp in registry.listeners(event) {
            self.run_component(comp, out);
            ran = true;
        }
        self.registry = registry;
        ran
    }

    /// True if `comp` is registered for the end of both inputs.
    fn listens_at_end(&self, comp: Component) -> bool {
        self.registry.listeners(EventKind::StreamEmpty).any(|c| c == comp)
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
            // Nothing left to build: the index counts stored tuples as
            // they enter and leave. Kept as a variant for its profile row.
            Component::IndexBuild => {}
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
        // Every punctuation that arrived since the last purge run is
        // applied by this one: settle its arrival→purge-complete latency.
        if self.obs.tracer.enabled() {
            let now_us = self.now.as_micros();
            for side in [&self.a, &self.b] {
                for arrival in side.index.arrivals_since(side.applied_up_to) {
                    self.obs.latencies.punct_purge.record(now_us.saturating_sub(arrival));
                }
            }
        }
        let applied = (self.a.index.next_id() - self.a.applied_up_to)
            + (self.b.index.next_id() - self.b.applied_up_to);

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
        self.prof_end(
            Component::StatePurge,
            prof,
            Some((TraceKind::Purge, removed, applied)),
        );
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

    /// Propagation (§3.5): release propagable punctuations of both sides
    /// in output-schema form.
    fn component_propagate(&mut self, out: &mut OpOutput) {
        let prof = self.prof_begin();
        self.stats.propagation_runs += 1;
        let out_width = self.config.output_width();
        let mut ids = std::mem::take(&mut self.propagated);
        ids.clear();
        propagate_side(&mut self.a, 0, out_width, out, &mut self.work, &mut ids);
        let split = ids.len();
        let offset_b = self.config.width_a;
        propagate_side(&mut self.b, offset_b, out_width, out, &mut self.work, &mut ids);
        let n = ids.len() as u64;
        self.stats.puncts_propagated += n;
        let (ids_a, ids_b) = ids.split_at(split);
        // Before the pairs are forgotten: a trim takes the arrival times.
        if self.obs.tracer.enabled() {
            let now_us = self.now.as_micros();
            for &id in ids_a {
                self.obs.note_punct_emitted(&self.a.index, id, now_us);
            }
            for &id in ids_b {
                self.obs.note_punct_emitted(&self.b.index, id, now_us);
            }
        }
        self.forget_closed_pairs(ids_a, ids_b);
        self.prof_end(
            Component::Propagation,
            prof,
            Some((TraceKind::Propagation, n, 0)),
        );
        self.propagated = ids;
    }

    /// Forgets every just-propagated constant whose value the other side
    /// has closed and propagated too, on both sides, then pops what the
    /// windows can release. Either punctuation of a pair may be the one
    /// propagated last, so both sides' ids are checked.
    fn forget_closed_pairs(&mut self, ids_a: &[PunctId], ids_b: &[PunctId]) {
        for (ids, a_first) in [(ids_a, true), (ids_b, false)] {
            let (own, opp) = if a_first {
                (&mut self.a.index, &mut self.b.index)
            } else {
                (&mut self.b.index, &mut self.a.index)
            };
            for &id in ids {
                if let Some(other) = own.closes(id).and_then(|v| opp.closer_of(v)) {
                    own.forget(id);
                    opp.forget(other);
                    self.stats.puncts_forgotten += 2;
                }
            }
        }
        self.a.index.trim(self.a.applied_up_to);
        self.b.index.trim(self.b.applied_up_to);
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
                    if self.listens_at_end(Component::DiskJoin) {
                        if let Some(bucket) = self.disk_join_candidate(true) {
                            self.resolve(bucket, out);
                            return true;
                        }
                    }
                    self.end_phase = EndPhase::Final;
                }
                EndPhase::Final => {
                    if self.listens_at_end(Component::StatePurge) {
                        self.component_purge();
                    }
                    if self.listens_at_end(Component::Propagation) {
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
        for (state, offset) in [(&mut self.a, 0usize), (&mut self.b, self.config.width_a)] {
            for id in state.index.live_ids() {
                let p = state.index.get(id).expect("unretired ids resolve");
                out.push(crate::components::propagation::translate_punctuation(
                    p, offset, out_width,
                ));
                state.index.retire(id);
                self.work.puncts_propagated += 1;
                self.stats.puncts_propagated += 1;
                if trace_on {
                    self.obs.note_punct_emitted(&state.index, id, now_us);
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PurgeStrategy;
    use punct_types::{Pattern, Punctuation};

    /// Eager purge, propagation on every punctuation.
    fn eager(config: PJoinConfig) -> PJoin {
        PJoin::new(PJoinConfig {
            purge: PurgeStrategy::Eager,
            propagation: PropagationTrigger::PushCount { count: 1 },
            ..config
        })
    }

    fn joined(out: &mut OpOutput) -> usize {
        out.drain().filter(|e| !e.is_punctuation()).count()
    }

    /// A tuple sent after its own input closed its value breaks the
    /// punctuation contract. Once the other input closed the value too
    /// and both punctuations were propagated, the pair is forgotten: the
    /// late tuple is no longer dropped on the fly but stored, joins
    /// nothing (the other input closed the value) and, with no
    /// punctuation left to purge it, stays until the end of the stream.
    #[test]
    fn a_late_tuple_after_both_inputs_closed_its_value_is_stored_and_kept() {
        let mut op = eager(PJoinConfig::new(2, 2));
        let mut out = OpOutput::new();
        let push = |op: &mut PJoin, side, e: StreamElement, out: &mut OpOutput| {
            op.on_element(side, e, Timestamp(0), out);
        };
        push(
            &mut op,
            Side::Left,
            StreamElement::Tuple(Tuple::of((5i64, 0i64))),
            &mut out,
        );
        push(
            &mut op,
            Side::Right,
            StreamElement::Tuple(Tuple::of((5i64, 1i64))),
            &mut out,
        );
        assert_eq!(joined(&mut out), 1);
        for side in [Side::Left, Side::Right] {
            let close = Punctuation::close_value(2, 0, 5i64);
            push(&mut op, side, StreamElement::Punctuation(close), &mut out);
        }
        // A later value keeps the operator moving so both windows trim.
        for side in [Side::Left, Side::Right] {
            let close = Punctuation::close_value(2, 0, 6i64);
            push(&mut op, side, StreamElement::Punctuation(close), &mut out);
        }
        assert_eq!(op.stats().puncts_propagated, 4);
        assert_eq!(op.stats().puncts_forgotten, 4);
        assert_eq!(op.punctuations_held(), 0);
        assert_eq!(op.state_tuples(), 0);
        out.drain().for_each(drop);

        let dropped = op.stats().dropped_on_fly;
        push(
            &mut op,
            Side::Left,
            StreamElement::Tuple(Tuple::of((5i64, 9i64))),
            &mut out,
        );
        assert_eq!(
            op.stats().dropped_on_fly,
            dropped,
            "no longer dropped on the fly"
        );
        assert_eq!(op.state_tuples_per_side(), (1, 0), "stored");
        assert_eq!(joined(&mut out), 0);
        while op.on_end(Timestamp(1), &mut out) {}
        assert_eq!(joined(&mut out), 0);
        assert_eq!(
            op.state_tuples_per_side(),
            (1, 0),
            "kept until the end of the stream"
        );
    }

    /// A range punctuation over a value an earlier punctuation closed
    /// waits like it: the stored `(5, 0)` holds both the left close of 5
    /// and the later left range `[0, 9]` while it can still join.
    /// Released at once, the range would precede the result
    /// `(5, 0, 5, 1)` it covers.
    #[test]
    fn a_range_behind_an_earlier_count_waits_for_it() {
        let mut op = eager(PJoinConfig::new(2, 2));
        let mut out = OpOutput::new();
        let input = [
            (Side::Left, StreamElement::Tuple(Tuple::of((5i64, 0i64)))),
            (
                Side::Left,
                StreamElement::Punctuation(Punctuation::close_value(2, 0, 5i64)),
            ),
            (
                Side::Left,
                StreamElement::Punctuation(Punctuation::on_attr(2, 0, Pattern::int_range(0, 9))),
            ),
            (Side::Right, StreamElement::Tuple(Tuple::of((5i64, 1i64)))),
        ];
        for (side, e) in input {
            op.on_element(side, e, Timestamp(0), &mut out);
        }
        while op.on_end(Timestamp(1), &mut out) {}
        let mut emitted: Vec<Punctuation> = Vec::new();
        let mut results = 0;
        for e in out.drain() {
            match e {
                StreamElement::Punctuation(p) => emitted.push(p),
                StreamElement::Tuple(t) => {
                    results += 1;
                    let covering = emitted.iter().find(|p| p.matches(&t));
                    assert!(covering.is_none(), "{t:?} after {covering:?}");
                }
            }
        }
        assert_eq!((results, emitted.len()), (1, 2));
    }

    /// A range is held only by stored tuples inside it: an earlier left
    /// punctuation that constrains the payload alone waits for the
    /// stored `(50, 7)`, but the later left range `[0, 9]` propagates
    /// at once.
    #[test]
    fn a_range_is_not_held_by_an_earlier_wildcard_join_punctuation() {
        let mut op = eager(PJoinConfig::new(2, 2));
        let mut out = OpOutput::new();
        let payload_seven = Punctuation::on_attr(2, 1, Pattern::Constant(7i64.into()));
        let range = Punctuation::on_attr(2, 0, Pattern::int_range(0, 9));
        let input = [
            StreamElement::Tuple(Tuple::of((50i64, 7i64))),
            StreamElement::Punctuation(payload_seven),
            StreamElement::Punctuation(range.clone()),
        ];
        for e in input {
            op.on_element(Side::Left, e, Timestamp(0), &mut out);
        }
        let emitted: Vec<Punctuation> = out
            .drain()
            .filter_map(|e| match e {
                StreamElement::Punctuation(p) => Some(p),
                StreamElement::Tuple(_) => None,
            })
            .collect();
        let translate = crate::components::propagation::translate_punctuation;
        assert_eq!(emitted, vec![translate(&range, 0, 4)]);
    }

    /// The traced operator's arrival stamps follow the punctuation
    /// windows: on a long constant-per-key stream each side stores a few
    /// punctuations, not one per punctuation received, and every
    /// propagation found the arrival time of what it released.
    #[test]
    fn arrival_ledgers_stay_within_the_punctuation_windows() {
        let mut op = eager(PJoinConfig::new(2, 2).with_tracing());
        let mut out = OpOutput::new();
        let keys = 2_000i64;
        for k in 0..keys {
            for (side, tag) in [(Side::Left, 0i64), (Side::Right, 1)] {
                let t = StreamElement::Tuple(Tuple::of((k, tag)));
                op.on_element(side, t, Timestamp(k as u64), &mut out);
            }
            for side in [Side::Left, Side::Right] {
                let close = StreamElement::Punctuation(Punctuation::close_value(2, 0, k));
                op.on_element(side, close, Timestamp(k as u64), &mut out);
            }
            out.drain().for_each(drop);
        }
        assert_eq!(op.stats().puncts_propagated, 2 * keys as u64);
        for index in [&op.a.index, &op.b.index] {
            assert!(index.held() < 8, "the windows trim: {} held", index.held());
        }
        let latencies = op.latencies();
        assert_eq!(latencies.punct_propagate.count(), 2 * keys as u64);
        assert_eq!(latencies.punct_purge.count(), 2 * keys as u64);
    }

    /// Runs `input` through a `PJoinConfig::new(2, 2)` join with `purge`
    /// to the end of the stream. Returns the joined tuples, having
    /// checked that none follows a propagated punctuation it matches.
    fn run_to_end(purge: PurgeStrategy, input: &[(Side, StreamElement)]) -> Vec<Tuple> {
        let mut op = PJoin::new(PJoinConfig { purge, ..PJoinConfig::new(2, 2) });
        let mut out = OpOutput::new();
        for (side, e) in input {
            op.on_element(*side, e.clone(), Timestamp(0), &mut out);
        }
        while op.on_end(Timestamp(1), &mut out) {}
        let (mut emitted, mut results) = (Vec::<Punctuation>::new(), Vec::new());
        for e in out.drain() {
            match e {
                StreamElement::Punctuation(p) => emitted.push(p),
                StreamElement::Tuple(t) => {
                    let covering = emitted.iter().find(|p| p.matches(&t));
                    assert!(covering.is_none(), "{t:?} after {covering:?}");
                    results.push(t);
                }
            }
        }
        results
    }

    /// Eager, and the default `PJoinConfig::new` lazy threshold.
    const PURGES: [PurgeStrategy; 2] =
        [PurgeStrategy::Eager, PurgeStrategy::Lazy { threshold: 10 }];

    fn tuple(k: i64, x: i64) -> StreamElement {
        StreamElement::Tuple(Tuple::of((k, x)))
    }

    /// `<*, 7>` from the left says only that no left tuple with payload
    /// 7 follows: it closes no join value. The right `(6, 2)` is neither
    /// dropped on arrival nor purged, and both later left tuples join.
    #[test]
    fn a_wildcard_join_punctuation_on_another_attribute_neither_drops_nor_purges() {
        let payload_seven = Punctuation::on_attr(2, 1, Pattern::Constant(7i64.into()));
        let input = [
            (Side::Right, tuple(5, 1)),
            (Side::Left, StreamElement::Punctuation(payload_seven)),
            (Side::Right, tuple(6, 2)),
            (Side::Left, tuple(5, 0)),
            (Side::Left, tuple(6, 0)),
        ];
        for purge in PURGES {
            assert_eq!(run_to_end(purge, &input).len(), 2, "{purge:?}");
        }
    }

    /// `<5, 7>` closes the pair `(5, 7)`, not join value 5: the left
    /// `(5, 8)` may still arrive and joins both stored right tuples.
    #[test]
    fn a_punctuation_narrower_than_its_join_value_neither_drops_nor_purges() {
        let five_seven = Punctuation::new(vec![
            Pattern::Constant(5i64.into()),
            Pattern::Constant(7i64.into()),
        ]);
        let input = [
            (Side::Right, tuple(5, 1)),
            (Side::Left, StreamElement::Punctuation(five_seven)),
            (Side::Right, tuple(5, 2)),
            (Side::Left, tuple(5, 8)),
        ];
        for purge in PURGES {
            assert_eq!(run_to_end(purge, &input).len(), 2, "{purge:?}");
        }
    }
}

//! The XJoin operator.

use punct_types::{StreamElement, Timestamp, Tuple};
use spillstore::{PartitionedStore, SimDisk, SpillPolicy, StoreConfig};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::history::ProbeHistory;
use crate::record::{Instant, XRecord};

/// XJoin configuration.
#[derive(Debug, Clone)]
pub struct XJoinConfig {
    /// Number of hash buckets per input state.
    pub buckets: usize,
    /// Join attribute index in stream A tuples.
    pub join_attr_a: usize,
    /// Join attribute index in stream B tuples.
    pub join_attr_b: usize,
    /// Records per disk page.
    pub page_tuples: usize,
    /// Combined in-memory tuple budget across both states; exceeding it
    /// triggers state relocation. `0` disables spilling (unbounded memory,
    /// the configuration used when the paper's testbed never overflowed).
    pub memory_max_tuples: usize,
    /// Minimum disk pages in a bucket before the reactive stage 2
    /// considers it — XJoin's *activation threshold*.
    pub activation_pages: u64,
}

impl Default for XJoinConfig {
    fn default() -> XJoinConfig {
        XJoinConfig {
            buckets: 64,
            join_attr_a: 0,
            join_attr_b: 0,
            page_tuples: 64,
            memory_max_tuples: 0,
            activation_pages: 1,
        }
    }
}

/// Bookkeeping of the most recent stage-2 run over a bucket, used to skip
/// runs that cannot produce anything new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LastRun {
    disk_len: usize,
    newest_opposite_ats: Instant,
}

/// The XJoin operator (see crate docs).
pub struct XJoin {
    config: XJoinConfig,
    store_a: PartitionedStore<XRecord>,
    store_b: PartitionedStore<XRecord>,
    history_a: ProbeHistory,
    history_b: ProbeHistory,
    last_run_a: Vec<Option<LastRun>>,
    last_run_b: Vec<Option<LastRun>>,
    /// The logical event clock: bumped once per processed element and per
    /// reactive disk-join run. ATS/DTS and probe instants come from here,
    /// so residency-interval comparisons are never ambiguous even when
    /// several events share a virtual timestamp.
    instant: Instant,
    /// Newest arrival instant per side (eligibility checks for stage 2).
    newest_ats_a: Instant,
    newest_ats_b: Instant,
    work: Work,
    cleanup_cursor: usize,
    cleanup_started: bool,
}

impl XJoin {
    /// Creates an XJoin over in-memory simulated disks.
    pub fn new(config: XJoinConfig) -> XJoin {
        XJoin::with_backends(config, Box::new(SimDisk::new()), Box::new(SimDisk::new()))
    }

    /// Creates an XJoin whose spill states live on explicit disk backends
    /// (e.g. real [`spillstore::FileDisk`]s).
    pub fn with_backends(
        config: XJoinConfig,
        backend_a: Box<dyn spillstore::DiskBackend>,
        backend_b: Box<dyn spillstore::DiskBackend>,
    ) -> XJoin {
        let store = |attr: usize, backend: Box<dyn spillstore::DiskBackend>| {
            PartitionedStore::new(
                StoreConfig {
                    buckets: config.buckets,
                    join_attr: attr,
                    page_tuples: config.page_tuples,
                    spill_policy: SpillPolicy::LargestMemory,
                },
                backend,
            )
        };
        XJoin {
            store_a: store(config.join_attr_a, backend_a),
            store_b: store(config.join_attr_b, backend_b),
            history_a: ProbeHistory::new(config.buckets),
            history_b: ProbeHistory::new(config.buckets),
            last_run_a: vec![None; config.buckets],
            last_run_b: vec![None; config.buckets],
            instant: 0,
            newest_ats_a: 0,
            newest_ats_b: 0,
            work: Work::ZERO,
            cleanup_cursor: 0,
            cleanup_started: false,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &XJoinConfig {
        &self.config
    }

    fn join_attr(&self, side: Side) -> usize {
        match side {
            Side::Left => self.config.join_attr_a,
            Side::Right => self.config.join_attr_b,
        }
    }

    fn emit(out: &mut OpOutput, side: Side, arriving: &Tuple, stored: &Tuple) {
        // Result schema is always A ⧺ B.
        match side {
            Side::Left => out.push_joined(arriving, stored),
            Side::Right => out.push_joined(stored, arriving),
        }
    }

    /// Stage 1: memory-to-memory probe + insert.
    fn memory_join(&mut self, side: Side, tuple: Tuple, out: &mut OpOutput) {
        let now = self.instant;
        let attr = self.join_attr(side);
        let Some(key) = tuple.get(attr).cloned() else { return };
        self.work.hashes += 1;

        {
            let opposite = match side {
                Side::Left => &self.store_b,
                Side::Right => &self.store_a,
            };
            let opp_attr = self.join_attr(side.opposite());
            for rec in opposite.probe_memory(&key) {
                self.work.probe_cmps += 1;
                if rec.tuple.get(opp_attr).is_some_and(|v| v.join_eq(&key)) {
                    self.work.outputs += 1;
                    Self::emit(out, side, &tuple, &rec.tuple);
                }
            }
        }

        let own = match side {
            Side::Left => {
                self.newest_ats_a = now;
                &mut self.store_a
            }
            Side::Right => {
                self.newest_ats_b = now;
                &mut self.store_b
            }
        };
        // Detached: a resident must not pin a block of join outputs.
        own.insert(XRecord::arriving(tuple.detached(), now));
        self.work.inserts += 1;

        self.enforce_memory_threshold(now);
    }

    /// State relocation: spill largest buckets until under the threshold.
    /// Departure instants are `now + 1`: relocated records were still
    /// probe-able at instant `now`.
    fn enforce_memory_threshold(&mut self, now: Instant) {
        if self.config.memory_max_tuples == 0 {
            return;
        }
        while self.store_a.memory_tuples() + self.store_b.memory_tuples()
            > self.config.memory_max_tuples
        {
            let store = if self.store_a.memory_tuples() >= self.store_b.memory_tuples() {
                &mut self.store_a
            } else {
                &mut self.store_b
            };
            let Some(victim) = store.peek_spill_victim() else { break };
            // Stamp departure instants, then relocate.
            store.for_each_memory_bucket_mut(victim, |r| r.dts = now + 1);
            let report = store.spill_bucket(victim);
            self.work.pages_written += report.pages_written;
            if report.tuples_moved == 0 {
                break;
            }
        }
    }

    /// Picks the stage-2 candidate: the eligible bucket with the most disk
    /// pages across both sides.
    fn stage2_candidate(&self) -> Option<(Side, usize)> {
        let mut best: Option<(Side, usize, usize)> = None;
        for (side, store, last_run, newest_opp) in [
            (Side::Left, &self.store_a, &self.last_run_a, self.newest_ats_b),
            (Side::Right, &self.store_b, &self.last_run_b, self.newest_ats_a),
        ] {
            for idx in store.buckets_with_disk() {
                let bucket = store.bucket(idx);
                let pages = bucket.disk_pages().len() as u64;
                if pages < self.config.activation_pages {
                    continue;
                }
                // Skip runs that cannot produce anything new: the disk
                // portion is unchanged and no opposite tuple arrived since.
                if let Some(run) = last_run[idx] {
                    if run.disk_len == bucket.disk_len()
                        && newest_opp <= run.newest_opposite_ats
                    {
                        continue;
                    }
                }
                if best.is_none_or(|(_, _, p)| pages as usize > p) {
                    best = Some((side, idx, pages as usize));
                }
            }
        }
        best.map(|(s, i, _)| (s, i))
    }

    /// Stage 2: read one spilled bucket, probe the opposite memory.
    fn disk_join(&mut self, side: Side, idx: usize, now: Instant, out: &mut OpOutput) {
        let (store, opposite, history, last_run, opp_attr, newest_opp) = match side {
            Side::Left => (
                &mut self.store_a,
                &self.store_b,
                &mut self.history_a,
                &mut self.last_run_a,
                self.config.join_attr_b,
                self.newest_ats_b,
            ),
            Side::Right => (
                &mut self.store_b,
                &self.store_a,
                &mut self.history_b,
                &mut self.last_run_b,
                self.config.join_attr_a,
                self.newest_ats_a,
            ),
        };
        let attr = store.config().join_attr;
        let (disk_records, pages_read) = store.read_disk(idx);
        self.work.pages_read += pages_read;
        if disk_records.is_empty() {
            return;
        }
        let mut dts_last = 0;
        for a in &disk_records {
            dts_last = dts_last.max(a.dts);
            let Some(key) = a.tuple.get(attr) else { continue };
            for b in opposite.bucket(idx).iter() {
                self.work.probe_cmps += 1;
                if !b.tuple.get(opp_attr).is_some_and(|v| v.join_eq(key)) {
                    continue;
                }
                if a.residency_overlaps(b) {
                    continue; // already produced by stage 1
                }
                if history.covers(idx, a, b) {
                    continue; // already produced by an earlier stage-2 run
                }
                self.work.outputs += 1;
                match side {
                    Side::Left => out.push_joined(&a.tuple, &b.tuple),
                    Side::Right => out.push_joined(&b.tuple, &a.tuple),
                }
            }
        }
        history.log(idx, dts_last, now);
        last_run[idx] = Some(LastRun {
            disk_len: disk_records.len(),
            newest_opposite_ats: newest_opp,
        });
    }

    /// Stage 3: cleanup of one bucket index (all remaining A×B combos).
    /// A bucket neither of whose sides ever spilled needs no cleanup:
    /// all of its pairs met in stage 1.
    fn cleanup_bucket(&mut self, idx: usize, out: &mut OpOutput) {
        if !self.store_a.bucket(idx).has_disk_portion()
            && !self.store_b.bucket(idx).has_disk_portion()
        {
            return;
        }
        let gather = |store: &mut PartitionedStore<XRecord>,
                      work: &mut Work|
         -> Vec<XRecord> {
            let mut all: Vec<XRecord> = store.bucket(idx).iter().cloned().collect();
            if store.bucket(idx).has_disk_portion() {
                let (disk, pages) = store.read_disk(idx);
                work.pages_read += pages;
                all.extend(disk);
            }
            all
        };
        let a_all = gather(&mut self.store_a, &mut self.work);
        if a_all.is_empty() {
            return;
        }
        let b_all = gather(&mut self.store_b, &mut self.work);
        if b_all.is_empty() {
            return;
        }
        let (attr_a, attr_b) = (self.config.join_attr_a, self.config.join_attr_b);
        for a in &a_all {
            let Some(key) = a.tuple.get(attr_a) else { continue };
            for b in &b_all {
                self.work.probe_cmps += 1;
                if !b.tuple.get(attr_b).is_some_and(|v| v.join_eq(key)) {
                    continue;
                }
                if a.residency_overlaps(b) {
                    continue; // stage 1
                }
                if self.history_a.covers(idx, a, b) || self.history_b.covers(idx, b, a) {
                    continue; // stage 2
                }
                self.work.outputs += 1;
                out.push_joined(&a.tuple, &b.tuple);
            }
        }
    }

    /// Immutable view of the A state (tests, metrics).
    pub fn store_a(&self) -> &PartitionedStore<XRecord> {
        &self.store_a
    }

    /// Immutable view of the B state (tests, metrics).
    pub fn store_b(&self) -> &PartitionedStore<XRecord> {
        &self.store_b
    }
}

impl BinaryStreamOp for XJoin {
    fn on_element(
        &mut self,
        side: Side,
        element: StreamElement,
        ts: Timestamp,
        out: &mut OpOutput,
    ) {
        let _ = ts; // virtual arrival time is irrelevant to join logic
        match element {
            StreamElement::Tuple(t) => self.memory_join(side, t, out),
            StreamElement::Punctuation(_) => {
                // XJoin has no constraint-exploiting mechanism: ingesting a
                // punctuation costs its bookkeeping overhead and nothing else.
                self.work.puncts_processed += 1;
            }
        }
        self.instant += 1;
    }

    fn on_idle(&mut self, _now: Timestamp, out: &mut OpOutput) -> bool {
        match self.stage2_candidate() {
            Some((side, idx)) => {
                let probe_instant = self.instant;
                self.instant += 1;
                self.disk_join(side, idx, probe_instant, out);
                true
            }
            None => false,
        }
    }

    fn on_end(&mut self, _now: Timestamp, out: &mut OpOutput) -> bool {
        if !self.cleanup_started {
            self.cleanup_started = true;
            self.cleanup_cursor = 0;
        }
        if self.cleanup_cursor >= self.config.buckets {
            return false;
        }
        let idx = self.cleanup_cursor;
        self.cleanup_cursor += 1;
        self.cleanup_bucket(idx, out);
        true
    }

    fn take_work(&mut self) -> Work {
        std::mem::take(&mut self.work)
    }

    fn state_tuples(&self) -> usize {
        self.store_a.total_tuples() + self.store_b.total_tuples()
    }

    fn state_memory_tuples(&self) -> usize {
        self.store_a.memory_tuples() + self.store_b.memory_tuples()
    }

    fn state_tuples_per_side(&self) -> (usize, usize) {
        (self.store_a.total_tuples(), self.store_b.total_tuples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::{Timestamped, Value};
    use stream_sim::{CostModel, Driver, DriverConfig};

    fn tup_at(us: u64, k: i64, payload: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(us), StreamElement::Tuple(Tuple::of((k, payload))))
    }

    fn run(
        config: XJoinConfig,
        left: &[Timestamped<StreamElement>],
        right: &[Timestamped<StreamElement>],
    ) -> (Vec<Tuple>, XJoin) {
        let mut op = XJoin::new(config);
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 1_000_000,
            collect_outputs: true,
            ..DriverConfig::default()
        });
        let stats = driver.run(&mut op, left, right);
        let mut outs: Vec<Tuple> = stats
            .outputs
            .into_iter()
            .filter_map(|o| match o.item {
                StreamElement::Tuple(t) => Some(t),
                StreamElement::Punctuation(_) => None,
            })
            .collect();
        outs.sort();
        (outs, op)
    }

    /// Reference: nested-loop join of all tuple pairs.
    fn reference_join(
        left: &[Timestamped<StreamElement>],
        right: &[Timestamped<StreamElement>],
        attr_a: usize,
        attr_b: usize,
    ) -> Vec<Tuple> {
        let mut out = Vec::new();
        for l in left.iter().filter_map(|e| e.item.as_tuple()) {
            for r in right.iter().filter_map(|e| e.item.as_tuple()) {
                if l.get(attr_a)
                    .zip(r.get(attr_b))
                    .is_some_and(|(a, b)| a.join_eq(b))
                {
                    out.push(Tuple::concat(l, r));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn joins_matching_keys_in_memory() {
        let left = vec![tup_at(1, 10, 100), tup_at(3, 20, 101)];
        let right = vec![tup_at(2, 10, 200), tup_at(4, 30, 201)];
        let (outs, _) = run(XJoinConfig::default(), &left, &right);
        assert_eq!(outs, vec![Tuple::of((10i64, 100i64, 10i64, 200i64))]);
    }

    #[test]
    fn many_to_many_multiplicity() {
        let left: Vec<_> = (0..3).map(|i| tup_at(i * 2 + 1, 7, i as i64)).collect();
        let right: Vec<_> = (0..4).map(|i| tup_at(i * 2 + 2, 7, 100 + i as i64)).collect();
        let (outs, _) = run(XJoinConfig::default(), &left, &right);
        assert_eq!(outs.len(), 12);
        assert_eq!(outs, reference_join(&left, &right, 0, 0));
    }

    #[test]
    fn matches_reference_without_spilling() {
        let left: Vec<_> = (0..60).map(|i| tup_at(i * 3 + 1, (i % 7) as i64, i as i64)).collect();
        let right: Vec<_> =
            (0..60).map(|i| tup_at(i * 3 + 2, (i % 5) as i64, 1000 + i as i64)).collect();
        let (outs, op) = run(XJoinConfig::default(), &left, &right);
        assert_eq!(outs, reference_join(&left, &right, 0, 0));
        assert_eq!(op.state_tuples(), 120);
        assert_eq!(op.state_memory_tuples(), 120); // nothing spilled
    }

    #[test]
    fn matches_reference_with_heavy_spilling() {
        // Tiny memory budget: nearly everything relocates to disk; stage 2
        // and 3 must complete the join without duplicates or losses.
        let cfg = XJoinConfig {
            buckets: 4,
            page_tuples: 4,
            memory_max_tuples: 8,
            ..XJoinConfig::default()
        };
        let left: Vec<_> =
            (0..80).map(|i| tup_at(i * 5 + 1, (i % 9) as i64, i as i64)).collect();
        let right: Vec<_> =
            (0..80).map(|i| tup_at(i * 5 + 3, (i % 6) as i64, 1000 + i as i64)).collect();
        let (outs, op) = run(cfg, &left, &right);
        assert_eq!(outs, reference_join(&left, &right, 0, 0));
        assert!(op.store_a().io_stats().pages_written > 0, "spilling must have happened");
    }

    #[test]
    fn stage2_runs_during_idle_gaps() {
        // Arrivals with large gaps so the driver offers idle slots, small
        // memory so buckets spill early.
        let cfg = XJoinConfig {
            buckets: 2,
            page_tuples: 2,
            memory_max_tuples: 4,
            activation_pages: 1,
            ..XJoinConfig::default()
        };
        let left: Vec<_> = (0..30).map(|i| tup_at(i * 10_000 + 1, (i % 3) as i64, i as i64)).collect();
        let right: Vec<_> =
            (0..30).map(|i| tup_at(i * 10_000 + 5_000, (i % 3) as i64, 50 + i as i64)).collect();
        let (outs, op) = run(cfg, &left, &right);
        assert_eq!(outs, reference_join(&left, &right, 0, 0));
        assert!(op.store_a().io_stats().pages_read > 0, "stage 2/3 must have read pages");
    }

    #[test]
    fn duplicate_free_under_repeated_spill_and_probe() {
        // Same key everywhere: maximal overlap between stages.
        let cfg = XJoinConfig {
            buckets: 1,
            page_tuples: 2,
            memory_max_tuples: 3,
            activation_pages: 1,
            ..XJoinConfig::default()
        };
        let left: Vec<_> = (0..20).map(|i| tup_at(i * 7_000 + 1, 1, i as i64)).collect();
        let right: Vec<_> = (0..20).map(|i| tup_at(i * 7_000 + 3_500, 1, 100 + i as i64)).collect();
        let (outs, _) = run(cfg, &left, &right);
        // 20 x 20 cross product on the single key.
        assert_eq!(outs.len(), 400);
        assert_eq!(outs, reference_join(&left, &right, 0, 0));
    }

    #[test]
    fn punctuations_are_ignored() {
        let punct = Timestamped::new(
            Timestamp(2),
            StreamElement::Punctuation(punct_types::Punctuation::close_value(2, 0, 10i64)),
        );
        let left = vec![tup_at(1, 10, 0), punct, tup_at(5, 11, 0)];
        let right = vec![tup_at(3, 10, 1)];
        let (outs, op) = run(XJoinConfig::default(), &left, &right);
        assert_eq!(outs.len(), 1);
        // State never shrinks on punctuations.
        assert_eq!(op.state_tuples(), 3);
    }

    #[test]
    fn state_grows_monotonically() {
        let cfg = XJoinConfig::default();
        let left: Vec<_> = (0..50).map(|i| tup_at(i * 2 + 1, i as i64, 0)).collect();
        let right: Vec<_> = (0..50).map(|i| tup_at(i * 2 + 2, i as i64, 1)).collect();
        let mut op = XJoin::new(cfg);
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 10,
            collect_outputs: false,
            ..DriverConfig::default()
        });
        let stats = driver.run(&mut op, &left, &right);
        for w in stats.samples.windows(2) {
            assert!(w[0].state_total <= w[1].state_total);
        }
        assert_eq!(op.state_tuples(), 100);
    }

    #[test]
    fn null_join_keys_never_match() {
        let left = vec![Timestamped::new(
            Timestamp(1),
            StreamElement::Tuple(Tuple::new(vec![Value::Null, Value::Int(1)])),
        )];
        let right = vec![Timestamped::new(
            Timestamp(2),
            StreamElement::Tuple(Tuple::new(vec![Value::Null, Value::Int(2)])),
        )];
        let (outs, _) = run(XJoinConfig::default(), &left, &right);
        assert!(outs.is_empty());
    }

    #[test]
    fn different_join_attrs_per_side() {
        let cfg = XJoinConfig { join_attr_a: 1, join_attr_b: 0, ..XJoinConfig::default() };
        let left = vec![tup_at(1, 99, 5)]; // joins on attr 1 = 5
        let right = vec![tup_at(2, 5, 42)]; // joins on attr 0 = 5
        let (outs, _) = run(cfg, &left, &right);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0], Tuple::of((99i64, 5i64, 5i64, 42i64)));
    }

    #[test]
    fn work_counters_accumulate() {
        let mut op = XJoin::new(XJoinConfig::default());
        let mut out = OpOutput::new();
        op.on_element(Side::Left, StreamElement::Tuple(Tuple::of((1i64, 0i64))), Timestamp(1), &mut out);
        op.on_element(Side::Right, StreamElement::Tuple(Tuple::of((1i64, 1i64))), Timestamp(2), &mut out);
        let w = op.take_work();
        assert_eq!(w.inserts, 2);
        assert_eq!(w.outputs, 1);
        assert!(w.probe_cmps >= 1);
        assert!(op.take_work().is_zero());
    }
}

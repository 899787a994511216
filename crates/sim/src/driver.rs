//! The simulation driver: merges two timestamped input streams, feeds a
//! binary stream operator, and advances a virtual busy clock by the cost
//! of the work the operator reports.
//!
//! The driver models a single-threaded operator (the paper's *memory join
//! main thread*): an element arriving while the operator is busy waits;
//! idle gaps between arrivals are offered to the operator for background
//! work (the paper's reactive *disk join*, scheduled "when the memory join
//! cannot proceed due to the slow delivery of the data").

use std::sync::Arc;

use punct_trace::{TraceKind, TraceLog, TraceSettings, Tracer, LANE_DRIVER};
use punct_types::{StreamElement, Timestamp, Timestamped, Tuple, Value};

use crate::clock::VirtualClock;
use crate::cost::{CostModel, Work};

/// Which input stream an element arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Stream A (left).
    Left,
    /// Stream B (right).
    Right,
}

impl Side {
    /// The other side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Most values one shared block of joined tuples holds (24 KiB of
/// `Value`s). Throughput is flat from 256 to 16 384 on the match-heavy
/// benchmark workload; the small end bounds what a consumer that keeps a
/// single output alive can pin.
const BLOCK_VALUES: usize = 1024;

/// One collected output: an element, or a joined tuple whose values sit
/// at `start..start + len` of [`OpOutput::pending`] or, once that was
/// sealed, of the block in [`OpOutput::sealed`] that covers this slot.
#[derive(Debug)]
enum Slot {
    Ready(StreamElement),
    Joined { start: usize, len: usize },
}

/// Output collector handed to operators.
///
/// Operators push produced elements; the driver stamps them with the
/// completion time of the step that produced them.
///
/// Join results go through [`push_joined`](OpOutput::push_joined), which
/// gives consecutive results one shared allocation instead of one each:
/// the longer a caller lets outputs accumulate before it
/// [`drain`](OpOutput::drain)s, the fuller the blocks. A result's values
/// are written once, into the pending buffer, and moved once, by the bulk
/// copy that seals the buffer into a block; its slot is written by
/// `push_joined` and read by `drain`, which makes the [`Tuple::view`] as
/// it yields the slot.
#[derive(Debug, Default)]
pub struct OpOutput {
    slots: Vec<Slot>,
    /// Values of the `Joined` slots pushed since the last seal, in push
    /// order: the next block.
    pending: Vec<Value>,
    /// Sealed blocks in push order, each with the slot index it ends
    /// before: the `Joined` slots from the previous block's end up to
    /// there index into it.
    sealed: Vec<(usize, Arc<[Value]>)>,
}

impl OpOutput {
    /// Creates an empty collector.
    pub fn new() -> OpOutput {
        OpOutput::default()
    }

    /// Emits one element.
    pub fn push(&mut self, e: impl Into<StreamElement>) {
        self.slots.push(Slot::Ready(e.into()));
    }

    /// Emits the join result `left ⧺ right` as a view into a block of
    /// values it shares with the results pushed around it (see
    /// [`Tuple::detached`] for consumers that retain outputs).
    pub fn push_joined(&mut self, left: &Tuple, right: &Tuple) {
        let len = left.width() + right.width();
        if len == 0 {
            // No values to put in a block.
            return self.push(left.concat(right));
        }
        if !self.pending.is_empty() && self.pending.len() + len > BLOCK_VALUES {
            self.seal();
        }
        let start = self.pending.len();
        self.pending.extend_from_slice(left.values());
        self.pending.extend_from_slice(right.values());
        self.slots.push(Slot::Joined { start, len });
    }

    /// Freezes the pending values into one block that ends at the current
    /// slot: `Arc::from(Vec)` is one allocation and one `memcpy` (an
    /// iterator `collect` moves the values one by one). The conversion
    /// frees the buffer, so `pending` gets a fresh one of the same
    /// capacity, up to one block: a result wider than a block regrows it
    /// once rather than sizing every later seal.
    fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let next = Vec::with_capacity(self.pending.capacity().min(BLOCK_VALUES));
        let block = Arc::from(std::mem::replace(&mut self.pending, next));
        self.sealed.push((self.slots.len(), block));
    }

    /// Number of pending elements.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drains pending elements. The collector is empty once the iterator
    /// is dropped, however far it was advanced.
    pub fn drain(&mut self) -> impl Iterator<Item = StreamElement> + '_ {
        self.seal();
        let mut blocks = self.sealed.drain(..);
        let mut current = blocks.next();
        self.slots.drain(..).enumerate().map(move |(i, slot)| match slot {
            Slot::Ready(e) => e,
            Slot::Joined { start, len } => {
                while current.as_ref().is_some_and(|(end, _)| i >= *end) {
                    current = blocks.next();
                }
                let (_, block) = current.as_ref().expect("a sealed block covers every joined slot");
                Tuple::view(Arc::clone(block), start..start + len).into()
            }
        })
    }
}

/// A binary stream operator drivable by the simulator.
///
/// Implementations count their primitive operations in an internal
/// [`Work`] accumulator and surrender it via [`take_work`].
///
/// [`take_work`]: BinaryStreamOp::take_work
pub trait BinaryStreamOp {
    /// Processes one input element from `side`, arriving at `ts`.
    fn on_element(&mut self, side: Side, element: StreamElement, ts: Timestamp, out: &mut OpOutput);

    /// Offers the operator an idle slot at time `now`. Returns `true` if
    /// the operator performed background work (e.g. a disk-join pass);
    /// `false` lets the driver skip ahead to the next arrival.
    fn on_idle(&mut self, _now: Timestamp, _out: &mut OpOutput) -> bool {
        false
    }

    /// Both inputs are exhausted: flush any remaining results. Called
    /// repeatedly until it returns `false` (no more work).
    fn on_end(&mut self, _now: Timestamp, _out: &mut OpOutput) -> bool {
        false
    }

    /// Drains the work counters accumulated since the previous call.
    fn take_work(&mut self) -> Work;

    /// Total tuples currently held in the join state (memory + disk).
    fn state_tuples(&self) -> usize;

    /// Tuples currently in the in-memory portion of the state.
    fn state_memory_tuples(&self) -> usize {
        self.state_tuples()
    }

    /// State tuples split by input side `(left, right)`.
    fn state_tuples_per_side(&self) -> (usize, usize) {
        (self.state_tuples(), 0)
    }
}

/// One metrics sample taken by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Virtual time of the sample.
    pub ts: Timestamp,
    /// Tuples in state (memory + disk).
    pub state_total: usize,
    /// Tuples in the memory portion.
    pub state_memory: usize,
    /// Left-side state tuples.
    pub state_left: usize,
    /// Right-side state tuples.
    pub state_right: usize,
    /// Cumulative result tuples emitted.
    pub out_tuples: u64,
    /// Cumulative punctuations emitted.
    pub out_puncts: u64,
    /// Cumulative input elements consumed.
    pub consumed: u64,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// The cost model pricing operator work.
    pub cost: CostModel,
    /// Virtual sampling interval for metrics, in microseconds.
    pub sample_every_micros: u64,
    /// Whether to retain every output element in [`RunStats::outputs`]
    /// (memory-hungry; enable only for functional tests).
    pub collect_outputs: bool,
    /// Tracing for the driver's own ingress stamps (one event per
    /// consumed element, on the reserved driver lane). Off by default.
    pub trace: TraceSettings,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            cost: CostModel::default(),
            sample_every_micros: 500_000, // 0.5 virtual seconds
            collect_outputs: false,
            trace: TraceSettings::default(),
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Periodic samples in time order.
    pub samples: Vec<Sample>,
    /// All outputs, if `collect_outputs` was set.
    pub outputs: Vec<Timestamped<StreamElement>>,
    /// Total result tuples emitted.
    pub total_out_tuples: u64,
    /// Total punctuations emitted.
    pub total_out_puncts: u64,
    /// Virtual time when the run finished.
    pub end_time: Timestamp,
    /// Total priced work of the run.
    pub total_work: Work,
    /// The driver's ingress trace (empty unless tracing was enabled).
    pub trace: TraceLog,
}

impl RunStats {
    /// Mean output rate over the whole run, in tuples per virtual second.
    pub fn mean_output_rate(&self) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_out_tuples as f64 / secs
        }
    }

    /// Peak total state size across samples.
    pub fn peak_state(&self) -> usize {
        self.samples.iter().map(|s| s.state_total).max().unwrap_or(0)
    }

    /// Mean total state size across samples.
    pub fn mean_state(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|s| s.state_total as f64).sum::<f64>()
                / self.samples.len() as f64
        }
    }
}

/// The discrete-event simulation driver.
pub struct Driver {
    config: DriverConfig,
}

impl Driver {
    /// Creates a driver with the given configuration.
    pub fn new(config: DriverConfig) -> Driver {
        Driver { config }
    }

    /// Creates a driver with the default configuration.
    pub fn with_defaults() -> Driver {
        Driver::new(DriverConfig::default())
    }

    /// Runs `op` over the two timestamped input streams (each must be in
    /// non-decreasing timestamp order) until both are exhausted and the
    /// operator reports no further work.
    pub fn run(
        &self,
        op: &mut dyn BinaryStreamOp,
        left: &[Timestamped<StreamElement>],
        right: &[Timestamped<StreamElement>],
    ) -> RunStats {
        debug_assert!(is_sorted(left), "left input must be time-ordered");
        debug_assert!(is_sorted(right), "right input must be time-ordered");

        let mut clock = VirtualClock::new();
        let mut stats = RunStats::default();
        let mut out = OpOutput::new();
        let mut next_sample = Timestamp(0);
        let (mut li, mut ri) = (0usize, 0usize);
        let mut consumed = 0u64;
        let mut tracer = Tracer::new(self.config.trace);
        tracer.set_lane(LANE_DRIVER);

        loop {
            // Choose the next arrival (earlier timestamp wins; ties go left).
            let next = match (left.get(li), right.get(ri)) {
                (Some(l), Some(r)) => {
                    if l.ts <= r.ts {
                        li += 1;
                        Some((Side::Left, l))
                    } else {
                        ri += 1;
                        Some((Side::Right, r))
                    }
                }
                (Some(l), None) => {
                    li += 1;
                    Some((Side::Left, l))
                }
                (None, Some(r)) => {
                    ri += 1;
                    Some((Side::Right, r))
                }
                (None, None) => None,
            };

            let Some((side, elem)) = next else { break };

            // Idle time before this arrival: offer background slots.
            while clock.now() < elem.ts {
                if !op.on_idle(clock.now(), &mut out) {
                    clock.advance_to(elem.ts);
                    break;
                }
                self.charge(op, &mut clock, &mut stats);
                self.flush(&mut out, clock.now(), &mut stats);
                self.sample(op, clock.now(), consumed, &mut next_sample, &mut stats);
            }

            // The element waits if the operator is still busy.
            clock.advance_to(elem.ts);
            if tracer.enabled() {
                let side_idx = if side == Side::Left { 0 } else { 1 };
                tracer.instant(
                    TraceKind::Ingress,
                    elem.ts.as_micros(),
                    side_idx,
                    u64::from(elem.item.is_punctuation()),
                );
            }
            op.on_element(side, elem.item.clone(), elem.ts, &mut out);
            consumed += 1;
            self.charge(op, &mut clock, &mut stats);
            self.flush(&mut out, clock.now(), &mut stats);
            self.sample(op, clock.now(), consumed, &mut next_sample, &mut stats);
        }

        // End of both inputs: let the operator finish up (final disk joins,
        // final propagation — the paper's StreamEmptyEvent).
        while op.on_end(clock.now(), &mut out) {
            self.charge(op, &mut clock, &mut stats);
            self.flush(&mut out, clock.now(), &mut stats);
            self.sample(op, clock.now(), consumed, &mut next_sample, &mut stats);
        }
        // Charge any work reported by the final (false-returning) call.
        self.charge(op, &mut clock, &mut stats);
        self.flush(&mut out, clock.now(), &mut stats);

        stats.end_time = clock.now();
        stats.trace = tracer.take();
        // Always leave a final sample at the end time.
        stats.samples.push(Sample {
            ts: clock.now(),
            state_total: op.state_tuples(),
            state_memory: op.state_memory_tuples(),
            state_left: op.state_tuples_per_side().0,
            state_right: op.state_tuples_per_side().1,
            out_tuples: stats.total_out_tuples,
            out_puncts: stats.total_out_puncts,
            consumed,
        });
        stats
    }

    fn charge(&self, op: &mut dyn BinaryStreamOp, clock: &mut VirtualClock, stats: &mut RunStats) {
        let work = op.take_work();
        if work.is_zero() {
            return;
        }
        let nanos = self.config.cost.nanos(&work);
        clock.advance(nanos.div_ceil(1_000));
        stats.total_work += work;
    }

    fn flush(&self, out: &mut OpOutput, now: Timestamp, stats: &mut RunStats) {
        for e in out.drain() {
            match &e {
                StreamElement::Tuple(_) => stats.total_out_tuples += 1,
                StreamElement::Punctuation(_) => stats.total_out_puncts += 1,
            }
            if self.config.collect_outputs {
                stats.outputs.push(Timestamped::new(now, e));
            }
        }
    }

    fn sample(
        &self,
        op: &dyn BinaryStreamOp,
        now: Timestamp,
        consumed: u64,
        next_sample: &mut Timestamp,
        stats: &mut RunStats,
    ) {
        while now >= *next_sample {
            let (l, r) = op.state_tuples_per_side();
            stats.samples.push(Sample {
                ts: *next_sample,
                state_total: op.state_tuples(),
                state_memory: op.state_memory_tuples(),
                state_left: l,
                state_right: r,
                out_tuples: stats.total_out_tuples,
                out_puncts: stats.total_out_puncts,
                consumed,
            });
            *next_sample = next_sample.advance(self.config.sample_every_micros);
        }
    }
}

fn is_sorted(xs: &[Timestamped<StreamElement>]) -> bool {
    xs.windows(2).all(|w| w[0].ts <= w[1].ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::Tuple;

    /// A toy operator: echoes tuples, counting one probe comparison per
    /// element, and reports a fixed state size.
    struct Echo {
        work: Work,
        state: usize,
        idle_calls: u32,
        end_flushes: u32,
    }

    impl Echo {
        fn new() -> Echo {
            Echo { work: Work::ZERO, state: 0, idle_calls: 0, end_flushes: 2 }
        }
    }

    impl BinaryStreamOp for Echo {
        fn on_element(
            &mut self,
            _side: Side,
            element: StreamElement,
            _ts: Timestamp,
            out: &mut OpOutput,
        ) {
            self.work.probe_cmps += 1;
            self.state += 1;
            if element.is_tuple() {
                self.work.outputs += 1;
                out.push(element);
            }
        }

        fn on_idle(&mut self, _now: Timestamp, _out: &mut OpOutput) -> bool {
            self.idle_calls += 1;
            false
        }

        fn on_end(&mut self, _now: Timestamp, out: &mut OpOutput) -> bool {
            if self.end_flushes > 0 {
                self.end_flushes -= 1;
                self.work.outputs += 1;
                out.push(Tuple::of((99i64,)));
                true
            } else {
                false
            }
        }

        fn take_work(&mut self) -> Work {
            std::mem::take(&mut self.work)
        }

        fn state_tuples(&self) -> usize {
            self.state
        }
    }

    fn tup_at(us: u64, k: i64) -> Timestamped<StreamElement> {
        Timestamped::new(Timestamp(us), StreamElement::Tuple(Tuple::of((k,))))
    }

    #[test]
    fn processes_in_time_order_and_counts() {
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 10,
            collect_outputs: true,
            ..DriverConfig::default()
        });
        let left = vec![tup_at(5, 1), tup_at(20, 2)];
        let right = vec![tup_at(10, 3)];
        let mut op = Echo::new();
        let stats = driver.run(&mut op, &left, &right);
        // 3 echoed inputs + 2 end flushes.
        assert_eq!(stats.total_out_tuples, 5);
        assert_eq!(stats.total_work.probe_cmps, 3);
        assert_eq!(stats.outputs.len(), 5);
        // Echo order: k=1 (t=5), k=3 (t=10), k=2 (t=20).
        let keys: Vec<i64> = stats
            .outputs
            .iter()
            .filter_map(|o| o.item.as_tuple().and_then(|t| t.get(0)).and_then(|v| v.as_int()))
            .collect();
        assert_eq!(keys, vec![1, 3, 2, 99, 99]);
    }

    #[test]
    fn busy_clock_delays_outputs() {
        // Each element costs 1000 probe_cmp ns * 1000 = 1ms; arrivals are
        // 1 µs apart so the operator falls behind.
        let driver = Driver::new(DriverConfig {
            cost: CostModel { probe_cmp_ns: 1_000_000, ..CostModel::free() },
            sample_every_micros: 1_000_000,
            collect_outputs: true,
            ..DriverConfig::default()
        });
        let left = vec![tup_at(1, 1), tup_at(2, 2), tup_at(3, 3)];
        let mut op = Echo::new();
        op.end_flushes = 0;
        let stats = driver.run(&mut op, &left, &[]);
        // Completion times: 1+1000, then +1000, then +1000 µs.
        let times: Vec<u64> = stats.outputs.iter().map(|o| o.ts.as_micros()).collect();
        assert_eq!(times, vec![1001, 2001, 3001]);
        assert_eq!(stats.end_time, Timestamp(3001));
    }

    #[test]
    fn idle_gaps_invoke_on_idle() {
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 1_000_000,
            collect_outputs: false,
            ..DriverConfig::default()
        });
        let left = vec![tup_at(0, 1), tup_at(1000, 2)];
        let mut op = Echo::new();
        op.end_flushes = 0;
        driver.run(&mut op, &left, &[]);
        // There is a gap before t=1000 (and possibly before t=0): at least
        // one idle offer must have happened.
        assert!(op.idle_calls >= 1);
    }

    #[test]
    fn sampling_produces_monotone_series() {
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 100,
            collect_outputs: false,
            ..DriverConfig::default()
        });
        let left: Vec<_> = (0..50).map(|i| tup_at(i * 37, i as i64)).collect();
        let mut op = Echo::new();
        op.end_flushes = 0;
        let stats = driver.run(&mut op, &left, &[]);
        assert!(!stats.samples.is_empty());
        for w in stats.samples.windows(2) {
            assert!(w[0].ts <= w[1].ts);
            assert!(w[0].out_tuples <= w[1].out_tuples);
            assert!(w[0].consumed <= w[1].consumed);
        }
        let last = stats.samples.last().unwrap();
        assert_eq!(last.out_tuples, 50);
        assert_eq!(last.consumed, 50);
    }

    #[test]
    fn ingress_stamps_when_tracing_enabled() {
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 1_000_000,
            collect_outputs: false,
            trace: TraceSettings::enabled(),
        });
        let left = vec![tup_at(5, 1), tup_at(20, 2)];
        let right = vec![tup_at(10, 3)];
        let mut op = Echo::new();
        op.end_flushes = 0;
        let stats = driver.run(&mut op, &left, &right);
        let ingress: Vec<_> = stats.trace.of_kind(TraceKind::Ingress).collect();
        assert_eq!(ingress.len(), 3);
        assert!(ingress.iter().all(|e| e.lane == LANE_DRIVER));
        assert_eq!(
            ingress.iter().map(|e| (e.vt_us, e.a)).collect::<Vec<_>>(),
            vec![(5, 0), (10, 1), (20, 0)],
            "vt is the arrival ts; a is the side index"
        );
        // Off by default: no events recorded.
        let silent = Driver::with_defaults().run(&mut Echo::new(), &left, &right);
        assert!(silent.trace.events.is_empty());
    }

    #[test]
    fn run_stats_helpers() {
        let stats = RunStats {
            samples: vec![
                Sample {
                    ts: Timestamp(0),
                    state_total: 5,
                    state_memory: 5,
                    state_left: 3,
                    state_right: 2,
                    out_tuples: 0,
                    out_puncts: 0,
                    consumed: 0,
                },
                Sample {
                    ts: Timestamp(1_000_000),
                    state_total: 15,
                    state_memory: 10,
                    state_left: 9,
                    state_right: 6,
                    out_tuples: 100,
                    out_puncts: 2,
                    consumed: 50,
                },
            ],
            total_out_tuples: 100,
            end_time: Timestamp(2_000_000),
            ..RunStats::default()
        };
        assert_eq!(stats.peak_state(), 15);
        assert!((stats.mean_state() - 10.0).abs() < 1e-9);
        assert!((stats.mean_output_rate() - 50.0).abs() < 1e-9);
    }

    /// Joined pushes interleaved with plain ones come out in push order
    /// with the values `concat` would give, whether a block filled up in
    /// between or not (700 × 5 values span four), and the collector is
    /// reusable after a drain.
    #[test]
    fn joined_tuples_share_blocks_in_push_order() {
        let mut out = OpOutput::new();
        for round in 0..2 {
            let mut expected = Vec::new();
            for i in 0..700i64 {
                let (l, r) = (Tuple::of((round, i)), Tuple::of((i, "r", -i)));
                out.push_joined(&l, &r);
                expected.push(l.concat(&r));
                if i % 100 == 0 {
                    out.push(Tuple::of((i,)));
                    expected.push(Tuple::of((i,)));
                }
            }
            assert_eq!(out.len(), expected.len());
            let got: Vec<Tuple> = out.drain().filter_map(|e| e.as_tuple().cloned()).collect();
            assert_eq!(got, expected);
            assert!(out.is_empty());
            assert!(got.iter().all(|t| t.is_detached() == (t.width() == 1)));
        }
    }

    fn ints(from: i64, width: usize) -> Tuple {
        Tuple::new((from..from + width as i64).map(Value::Int).collect())
    }

    fn drained_tuples(out: &mut OpOutput) -> Vec<Tuple> {
        out.drain().filter_map(|e| e.as_tuple().cloned()).collect()
    }

    /// The states a drain walks through: a block that fills to exactly
    /// `BLOCK_VALUES` with a plain push sitting on the boundary, a result
    /// wider than a block (a block of its own), a zero-width result, and
    /// five blocks in one drain.
    #[test]
    fn drain_follows_block_boundaries() {
        let mut out = OpOutput::new();
        let mut expected = Vec::new();
        let mut joined = |out: &mut OpOutput, l: Tuple, r: Tuple| {
            out.push_joined(&l, &r);
            expected.push(l.concat(&r));
        };
        for i in 0..(BLOCK_VALUES / 4) as i64 {
            joined(&mut out, ints(i, 2), ints(-i, 2));
        }
        assert_eq!(out.pending.len(), BLOCK_VALUES, "the first block is exactly full");
        out.push(Tuple::of((7i64,)));
        joined(&mut out, ints(1, 1), ints(2, 2));
        assert_eq!(out.sealed.len(), 1, "the next result sealed it");
        joined(&mut out, ints(0, BLOCK_VALUES), ints(5, 3));
        joined(&mut out, Tuple::new(Vec::new()), Tuple::new(Vec::new()));
        for i in 0..(BLOCK_VALUES / 2) as i64 {
            joined(&mut out, ints(i, 3), ints(i, 1));
        }
        expected.insert(BLOCK_VALUES / 4, Tuple::of((7i64,)));
        assert_eq!(out.sealed.len() + 1, 5, "four sealed blocks and a pending one");
        let got = drained_tuples(&mut out);
        assert_eq!(got, expected);
        let wide = &got[BLOCK_VALUES / 4 + 2];
        assert!(wide.width() > BLOCK_VALUES && wide.is_detached(), "alone in its block");
    }

    /// Drained after every push, each result is alone in its block and
    /// still reads as `concat`.
    #[test]
    fn per_element_drains_give_one_result_per_block() {
        let mut out = OpOutput::new();
        for i in 0..50i64 {
            let (l, r) = (Tuple::of((i, "l")), ints(i, 1 + i as usize % 3));
            out.push_joined(&l, &r);
            let got = drained_tuples(&mut out);
            assert_eq!(got, vec![l.concat(&r)]);
            assert!(got[0].is_detached() && out.is_empty());
        }
    }

    /// A drain dropped after `k` items leaves nothing behind: no slot, no
    /// block (the payload's only other owners are the items taken), and
    /// the next round is unaffected.
    #[test]
    fn a_dropped_drain_leaves_the_collector_empty() {
        let payload: Arc<str> = Arc::from("payload");
        let mut out = OpOutput::new();
        for k in [0, 1, 300, 699] {
            let l = Tuple::new(vec![Value::Int(0), Value::Str(Arc::clone(&payload))]);
            for i in 0..700i64 {
                out.push_joined(&l, &ints(i, 3));
            }
            drop(l);
            assert_eq!(Arc::strong_count(&payload), 1 + 700);
            let taken: Vec<StreamElement> = out.drain().take(k).collect();
            assert!(out.is_empty() && out.pending.is_empty() && out.sealed.is_empty());
            // The taken views keep their blocks (700 × 5 values span
            // four); every other block died with the iterator.
            let blocks_alive = if k == 0 { 0 } else { (k - 1) / 204 + 1 };
            let values_alive = (blocks_alive * 204).min(700);
            assert_eq!(Arc::strong_count(&payload), 1 + values_alive, "after taking {k}");
            drop(taken);
            assert_eq!(Arc::strong_count(&payload), 1, "after taking {k}");

            let (l, r) = (ints(k as i64, 2), ints(9, 2));
            out.push_joined(&l, &r);
            assert_eq!(drained_tuples(&mut out), vec![l.concat(&r)]);
        }
    }
}

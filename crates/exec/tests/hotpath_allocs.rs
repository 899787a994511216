//! Counting-allocator gates for the tuple hot path.
//!
//! This test binary runs under a counting wrapper around the system
//! allocator (which is why it lives alone in its own integration-test
//! binary; its two tests share the counter and take turns on `SERIAL`).
//!
//! The first test drives a steady-state, tuple-only workload
//! through the sharded executor with inputs built *before* counting
//! starts, and asserts that the measured region performs far less than
//! one heap allocation per element: tuples move — caller → router
//! staging → shard slab — without per-element clones, drained batch
//! buffers cycle back to the router through the recycle pool, metrics
//! are published through per-shard atomics, and the aligner mutex is
//! never touched (no punctuations are fed).
//!
//! The budget is deliberately loose (one allocation per four elements)
//! to absorb the real, amortized allocations that remain: slab and
//! tag-array doubling as shard state grows, channel block allocation
//! inside the bounded channels, an occasional non-recycled router
//! buffer when shards run behind, and the metrics snapshots the test
//! itself takes while waiting. The regressions this gate exists to
//! catch — a per-element clone, a per-element channel send, a
//! per-element lock that allocates — each cost one or more allocations
//! *per element* and overshoot the budget several times over.
//!
//! The second test is its match-heavy twin: every probe matches ten
//! residents and the test thread polls and drops the outputs. Joined
//! tuples share blocks (`OpOutput::push_joined`) and a shard drains once
//! per batch, so the budget is one allocation per ten *joined tuples*; a
//! private allocation per match reads 1.0.
//!
//! The third puts a price on punctuations: both inputs close their join
//! value every two tuples under the default configuration (lazy purge
//! every ten punctuations, propagation every ten), and after warm-up a
//! punctuation may cost at most 1.5 allocations through push → route →
//! shard → caller, one of which is its propagation's translation into
//! the output schema. Purging, dispatching events and propagating
//! allocate nothing per punctuation.
//!
//! The last two count aligner-mutex acquisitions on punctuated streams:
//! a punctuation with a constant on the join attribute goes to one shard
//! and has nothing to align, so a stream of them takes none, while a
//! range reaches every shard and still takes the aligner at least once
//! per punctuation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pjoin::{PJoinConfig, PropagationTrigger, PurgeStrategy};
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::Side;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One counter, one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const SHARDS: usize = 2;
const BATCH: usize = 256;
const WARMUP_BATCHES: usize = 32;
const MEASURED_BATCHES: usize = 64;

/// `n` batches of `BATCH` left-side tuples `row(i)`, timestamped `i`,
/// for `i` counting up from `first + 1`.
fn build_batches(
    n: usize,
    first: i64,
    row: impl Fn(i64) -> Tuple,
) -> Vec<Vec<(Side, Timestamped<StreamElement>)>> {
    let mut i = first;
    (0..n)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    i += 1;
                    (Side::Left, Timestamped::new(Timestamp(i as u64), row(i).into()))
                })
                .collect()
        })
        .collect()
}

/// Distinct keys: every tuple is stored (state grows) and probes an
/// empty right partition (no matches, no outputs), so the measured
/// region exercises exactly the route → stage → probe → insert path and
/// nothing downstream.
fn distinct_key(i: i64) -> Tuple {
    Tuple::of((i, i))
}

fn wait_consumed(exec: &ShardedPJoin, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while exec.metrics().consumed < target {
        assert!(
            Instant::now() < deadline,
            "executor did not consume {target} elements in time"
        );
        std::thread::sleep(Duration::from_micros(500));
    }
}

#[test]
fn steady_state_hot_path_is_allocation_free_per_element() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2));
    config.router_batch = BATCH;
    let exec = ShardedPJoin::spawn(config);

    // Warm up: grow channel blocks, router staging buffers, the recycle
    // pool and the first slab doublings outside the measured region.
    let warmup = build_batches(WARMUP_BATCHES, 0, distinct_key);
    let warmed = (WARMUP_BATCHES * BATCH) as u64;
    for batch in warmup {
        exec.push_batch(batch);
    }
    wait_consumed(&exec, warmed);
    assert!(
        exec.poll_outputs().is_empty(),
        "no-match workload must produce no outputs"
    );

    // Build the measured inputs *before* counting starts.
    let measured = build_batches(MEASURED_BATCHES, (warmed + 1) as i64, distinct_key);
    let elements = (MEASURED_BATCHES * BATCH) as u64;

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for batch in measured {
        exec.push_batch(batch);
    }
    wait_consumed(&exec, warmed + elements);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    // Tuple-only traffic must never touch the aligner mutex; the single
    // lock of the pipeline is punctuation-granular.
    assert_eq!(
        exec.aligner_acquisitions(),
        0,
        "aligner mutex acquired on a punctuation-free workload"
    );

    let per_element = allocs as f64 / elements as f64;
    eprintln!(
        "hot path: {allocs} allocs / {elements} elements = {per_element:.4} per element"
    );
    assert!(
        allocs <= elements / 4,
        "hot path allocated {allocs} times for {elements} elements \
         ({per_element:.3} allocs/element; budget is 0.25)"
    );

    let (rest, stats) = exec.finish();
    assert!(
        rest.iter().all(|e| !e.item.is_tuple()),
        "no-match workload must emit no tuples"
    );
    assert_eq!(stats.total_metrics().consumed, warmed + elements);
}

const MATCH_KEYS: i64 = 64;
const MATCHES_PER_PROBE: u64 = 10;

/// Keys cycle over `MATCH_KEYS`, each of which has `MATCHES_PER_PROBE`
/// right-side residents.
fn matching_key(i: i64) -> Tuple {
    Tuple::of((i % MATCH_KEYS, i))
}

/// Polls and drops outputs until `target` joined tuples have come out.
fn drain_joined(exec: &ShardedPJoin, seen: &mut u64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while *seen < target {
        assert!(Instant::now() < deadline, "only {seen} of {target} joined tuples came out");
        *seen += exec.recv_outputs(Duration::from_millis(1)).len() as u64;
    }
}

#[test]
fn match_heavy_outputs_cost_a_block_not_a_malloc_each() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2));
    config.router_batch = BATCH;
    let exec = ShardedPJoin::spawn(config);

    let residents: Vec<_> = (0..MATCH_KEYS * MATCHES_PER_PROBE as i64)
        .map(|i| {
            let t = Tuple::of((i % MATCH_KEYS, -i));
            (Side::Right, Timestamped::new(Timestamp(0), t.into()))
        })
        .collect();
    let resident_count = residents.len() as u64;
    exec.push_batch(residents);

    let mut joined = 0u64;
    let warmed = (WARMUP_BATCHES * BATCH) as u64;
    for batch in build_batches(WARMUP_BATCHES, 0, matching_key) {
        exec.push_batch(batch);
    }
    drain_joined(&exec, &mut joined, warmed * MATCHES_PER_PROBE);

    let measured = build_batches(MEASURED_BATCHES, warmed as i64, matching_key);
    let elements = (MEASURED_BATCHES * BATCH) as u64;
    let outputs = elements * MATCHES_PER_PROBE;

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for batch in measured {
        exec.push_batch(batch);
        joined += exec.poll_outputs().len() as u64;
    }
    drain_joined(&exec, &mut joined, (warmed + elements) * MATCHES_PER_PROBE);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    let per_output = allocs as f64 / outputs as f64;
    eprintln!("match heavy: {allocs} allocs / {outputs} joined tuples = {per_output:.4} each");
    assert!(
        allocs <= outputs / 10,
        "{allocs} allocations for {outputs} joined tuples \
         ({per_output:.3} each; budget is 0.1)"
    );

    let (rest, stats) = exec.finish();
    assert!(rest.is_empty(), "every joined tuple was already polled");
    assert_eq!(stats.total_metrics().consumed, resident_count + warmed + elements);
}

/// One batch pushed into the executor.
type Batch = Vec<(Side, Timestamped<StreamElement>)>;

/// `batches` batches of `BATCH` elements from key `first_key` on: per
/// key, two tuples on each side and then a constant close of the key on
/// each side. Returns the batches and the punctuations in them.
fn closing_batches(batches: usize, first_key: i64) -> (Vec<Batch>, u64) {
    let mut feed = Vec::new();
    let mut key = first_key;
    let mut ts = first_key as u64 * 6;
    let mut at = |side, item: StreamElement| {
        ts += 1;
        (side, Timestamped::new(Timestamp(ts), item))
    };
    while feed.len() < batches * BATCH {
        for side in [Side::Left, Side::Right] {
            for j in 0..2 {
                feed.push(at(side, Tuple::of((key, j)).into()));
            }
        }
        for side in [Side::Left, Side::Right] {
            feed.push(at(side, Punctuation::close_value(2, 0, key).into()));
        }
        key += 1;
    }
    feed.truncate(batches * BATCH);
    let puncts = feed.iter().filter(|(_, e)| e.item.is_punctuation()).count() as u64;
    let mut feed = feed.into_iter();
    let batches = (0..batches).map(|_| feed.by_ref().take(BATCH).collect()).collect();
    (batches, puncts)
}

/// Polls and drops outputs until `target` punctuations have come out.
fn drain_puncts(exec: &ShardedPJoin, seen: &mut u64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while *seen < target {
        assert!(Instant::now() < deadline, "only {seen} of {target} punctuations came out");
        let outputs = exec.recv_outputs(Duration::from_millis(1));
        *seen += outputs.iter().filter(|e| e.item.is_punctuation()).count() as u64;
    }
}

#[test]
fn constant_punctuations_cost_their_propagation_and_little_else() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2));
    config.router_batch = BATCH;
    let exec = ShardedPJoin::spawn(config);

    let (warmup, warm_puncts) = closing_batches(WARMUP_BATCHES, 0);
    let keys_warmed = warm_puncts as i64 / 2 + 1;
    for batch in warmup {
        exec.push_batch(batch);
    }
    // Propagation runs every tenth punctuation per shard, so the last
    // few wait: warm-up ends at the state the measured region starts in.
    let mut seen = 0u64;
    drain_puncts(&exec, &mut seen, warm_puncts - 20 * SHARDS as u64);

    let (measured, puncts) = closing_batches(MEASURED_BATCHES, keys_warmed);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for batch in measured {
        exec.push_batch(batch);
    }
    drain_puncts(&exec, &mut seen, warm_puncts + puncts - 20 * SHARDS as u64);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    let per_punct = allocs as f64 / puncts as f64;
    eprintln!("constant closes: {allocs} allocs / {puncts} punctuations = {per_punct:.3} each");
    assert!(
        allocs * 2 <= puncts * 3,
        "{allocs} allocations for {puncts} punctuations ({per_punct:.3} each; budget is 1.5)"
    );

    let (rest, stats) = exec.finish();
    seen += rest.iter().filter(|e| e.item.is_punctuation()).count() as u64;
    assert_eq!(seen, warm_puncts + puncts, "every punctuation propagates by the end");
    assert_eq!((stats.align.puncts_unexpected, stats.align.puncts_unaligned), (0, 0));
}

const PUNCT_KEYS: i64 = 512;

/// Per key `k`: a tuple on each side, then a punctuation on each side
/// whose join-attribute pattern is `pattern(k)`.
fn punctuated_stream(pattern: impl Fn(i64) -> Pattern) -> Vec<(Side, Timestamped<StreamElement>)> {
    let mut ts = 0u64;
    let mut at = |side, item: StreamElement| {
        ts += 1;
        (side, Timestamped::new(Timestamp(ts), item))
    };
    let mut feed = Vec::new();
    for k in 0..PUNCT_KEYS {
        feed.push(at(Side::Left, Tuple::of((k, k)).into()));
        feed.push(at(Side::Right, Tuple::of((k, -k)).into()));
        for side in [Side::Left, Side::Right] {
            feed.push(at(side, Punctuation::on_attr(2, 0, pattern(k)).into()));
        }
    }
    feed
}

/// Feeds `feed` and polls until its `puncts` punctuations have come out
/// of the executor, then returns the aligner acquisitions so far (before
/// `finish`, whose shutdown audit takes the lock once). Shards purge and
/// propagate on every punctuation, so none waits for end of stream.
fn acquisitions_for(feed: Vec<(Side, Timestamped<StreamElement>)>, puncts: usize) -> u64 {
    let mut join = PJoinConfig::new(2, 2);
    join.purge = PurgeStrategy::Eager;
    join.propagation = PropagationTrigger::PushCount { count: 1 };
    let mut config = ExecConfig::new(SHARDS, join);
    config.router_batch = BATCH;
    let exec = ShardedPJoin::spawn(config);
    exec.push_batch(feed);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen = 0;
    while seen < puncts {
        assert!(Instant::now() < deadline, "only {seen} of {puncts} punctuations came out");
        let outputs = exec.recv_outputs(Duration::from_millis(1));
        seen += outputs.iter().filter(|e| e.item.is_punctuation()).count();
    }
    let acquisitions = exec.aligner_acquisitions();
    let (_, stats) = exec.finish();
    assert_eq!((stats.align.puncts_unexpected, stats.align.puncts_unaligned), (0, 0));
    assert_eq!(stats.align.puncts, puncts as u64);
    acquisitions
}

#[test]
fn constant_join_attribute_punctuations_never_take_the_aligner() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let puncts = 2 * PUNCT_KEYS as usize;
    let acquisitions = acquisitions_for(punctuated_stream(|k| Pattern::Constant(k.into())), puncts);
    eprintln!("constant punctuations: {acquisitions} aligner acquisitions for {puncts}");
    assert_eq!(acquisitions, 0, "a single-target punctuation took the aligner mutex");
}

#[test]
fn range_punctuations_still_take_the_aligner() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let puncts = 2 * PUNCT_KEYS as usize;
    let acquisitions = acquisitions_for(punctuated_stream(|k| Pattern::int_range(k, k + 1)), puncts);
    eprintln!("range punctuations: {acquisitions} aligner acquisitions for {puncts}");
    assert!(
        acquisitions >= puncts as u64,
        "{acquisitions} aligner acquisitions for {puncts} range punctuations"
    );
}

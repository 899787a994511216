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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pjoin::PJoinConfig;
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_types::{BatchConfig, StreamElement, Timestamp, Timestamped, Tuple};
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
    let config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2))
        .with_batch(BatchConfig::with_elems(BATCH));
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
    let config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2))
        .with_batch(BatchConfig::with_elems(BATCH));
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

//! Counting-allocator gate for the tuple hot path.
//!
//! This test binary runs under a counting wrapper around the system
//! allocator (which is why it lives alone in its own integration-test
//! binary). The single test drives a steady-state, tuple-only workload
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

const SHARDS: usize = 2;
const BATCH: usize = 256;
const WARMUP_BATCHES: usize = 32;
const MEASURED_BATCHES: usize = 64;

/// `n` batches of `BATCH` distinct-key left-side tuples: every tuple is
/// stored (state grows) and probes an empty right partition (no
/// matches, no outputs), so the measured region exercises exactly the
/// route → stage → probe → insert path and nothing downstream.
fn build_batches(n: usize, first_key: i64) -> Vec<Vec<(Side, Timestamped<StreamElement>)>> {
    let mut key = first_key;
    (0..n)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    key += 1;
                    let e = Timestamped::new(Timestamp(key as u64), Tuple::of((key, key)).into());
                    (Side::Left, e)
                })
                .collect()
        })
        .collect()
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
    let config = ExecConfig::new(SHARDS, PJoinConfig::new(2, 2))
        .with_batch(BatchConfig::with_elems(BATCH));
    let exec = ShardedPJoin::spawn(config);

    // Warm up: grow channel blocks, router staging buffers, the recycle
    // pool and the first slab doublings outside the measured region.
    let warmup = build_batches(WARMUP_BATCHES, 0);
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
    let measured = build_batches(MEASURED_BATCHES, (warmed + 1) as i64);
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

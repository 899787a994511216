//! Regression test for the caller-side pending bound.
//!
//! `push` drains merged outputs into the caller-side `pending` buffer
//! while the input channel is full — historically without limit, so a
//! caller that pushed faster than it polled could grow `pending` to the
//! size of the whole output stream. The bound
//! ([`ExecConfig::pending_capacity`]) turns that into backpressure:
//! once `pending` is at capacity, `push` stops absorbing output and
//! waits for a concurrent consumer to drain.
//!
//! The test saturates a deliberately tiny pipeline (capacity-2
//! channels, 16-element batches) with a 1:1 matching workload while a
//! slow concurrent drainer polls, and asserts that (a) the run
//! completes with every output delivered — backpressure, not deadlock —
//! and (b) the pending buffer never grows past the configured bound
//! plus one merged batch, even though the drainer lags far behind the
//! pipeline's output rate.
//!
//! The second test is the other half of "one thread pushes while another
//! drains": a consumer blocked in `recv_outputs` must not make the
//! non-blocking `poll_outputs` of another thread wait out its timeout.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pjoin::PJoinConfig;
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_types::{BatchConfig, Timestamp, Timestamped, Tuple};
use stream_sim::Side;

const PAIRS: i64 = 20_000;
const CAP: usize = 256;
const BATCH: usize = 16;

#[test]
fn pending_buffer_stays_bounded_under_slow_drain() {
    let mut config = ExecConfig::new(1, PJoinConfig::new(2, 2))
        .with_batch(BatchConfig::with_elems(BATCH))
        .with_pending_capacity(CAP);
    // Tiny channels so the input fills (and `push` starts absorbing
    // output) almost immediately.
    config.input_capacity = 2;
    config.output_capacity = 2;
    config.event_capacity = 2;
    config.shard_capacity = 2;

    let exec = ShardedPJoin::spawn(config);
    let stop = AtomicBool::new(false);
    let drained_tuples = AtomicU64::new(0);
    let mut max_pending = 0usize;

    std::thread::scope(|s| {
        s.spawn(|| {
            // Deliberately slow consumer: the pipeline produces outputs
            // far faster than this drains them, so without the bound
            // `pending` would balloon toward the full output stream.
            while !stop.load(Ordering::Relaxed) {
                let got = exec.poll_outputs();
                let tuples = got.iter().filter(|e| e.item.is_tuple()).count();
                drained_tuples.fetch_add(tuples as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        // 1:1 matching workload: left k stores, right k probes it — one
        // output per pair.
        for k in 0..PAIRS {
            let ts = Timestamp(k as u64);
            exec.push(Side::Left, Timestamped::new(ts, Tuple::of((k, k)).into()));
            exec.push(Side::Right, Timestamped::new(ts, Tuple::of((k, -k)).into()));
            max_pending = max_pending.max(exec.pending_len());
        }
        stop.store(true, Ordering::Relaxed);
    });

    // (b) The bound held: `pending` can overshoot the capacity by at
    // most the one merged batch a single absorb step appends.
    assert!(
        max_pending <= CAP + 4 * BATCH,
        "pending grew to {max_pending} elements (bound {CAP} + one merged batch)"
    );

    // (a) Backpressure, not loss or deadlock: every joined pair comes
    // out once the run finishes.
    let (rest, stats) = exec.finish();
    let total =
        drained_tuples.load(Ordering::Relaxed) + rest.iter().filter(|e| e.item.is_tuple()).count() as u64;
    assert_eq!(total, PAIRS as u64, "every matched pair must be delivered exactly once");
    assert_eq!(stats.total_metrics().consumed, 2 * PAIRS as u64);
}

/// `recv_outputs` waits for its first batch holding the output receiver;
/// a `poll_outputs` beside it returns at once (the waiting consumer is
/// the one draining) instead of queueing behind the whole timeout.
#[test]
fn poll_outputs_does_not_wait_behind_a_blocked_recv_outputs() {
    const TIMEOUT: Duration = Duration::from_millis(500);
    let exec = ShardedPJoin::spawn(ExecConfig::new(1, PJoinConfig::new(2, 2)));
    let entering = Barrier::new(2);
    let returned = AtomicBool::new(false);

    let (polls, slowest) = std::thread::scope(|s| {
        s.spawn(|| {
            entering.wait();
            let got = exec.recv_outputs(TIMEOUT);
            returned.store(true, Ordering::Release);
            assert!(got.is_empty(), "an idle executor produces nothing");
        });
        // Poll back to back for as long as the consumer is inside its
        // call, so some poll is certain to find it holding the receiver.
        entering.wait();
        let (mut polls, mut slowest) = (0u32, Duration::ZERO);
        while !returned.load(Ordering::Acquire) {
            let start = Instant::now();
            assert!(exec.poll_outputs().is_empty());
            slowest = slowest.max(start.elapsed());
            polls += 1;
        }
        (polls, slowest)
    });

    assert!(polls > 1, "the consumer's {TIMEOUT:?} wait overlapped only {polls} poll");
    // Queued behind the consumer a poll takes the rest of its timeout;
    // half of it leaves room for a descheduled test thread.
    assert!(
        slowest < TIMEOUT / 2,
        "a poll_outputs() took {slowest:?} beside a consumer blocked for {TIMEOUT:?}"
    );
    exec.finish();
}

//! Counting-allocator gate for the send side of the wire.
//!
//! A sink encodes what it publishes once, into the frames it retains,
//! and a subscriber handler writes those frames' bytes as they are; a
//! cluster worker encodes its join results into those frames straight
//! from the operator's output buffer. So getting a batch of results from
//! the operator to a subscriber's socket costs the same few allocations
//! however many results the batch holds. This binary runs under a
//! counting wrapper around the system allocator, which is why it holds
//! this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use punct_net::{encode_frame, Frame, SinkOptions, SinkServer, WIRE_VERSION};
use punct_types::{StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::{Drained, OpOutput};

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

/// One ingest message's worth of joined tuples, as a worker publishes
/// them: one `DataBatch` frame at the default sink batch.
const TUPLES: i64 = 128;

/// Allocations made while `f` runs, on any thread.
fn count(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn a_batch_reaches_the_subscriber_in_a_few_allocations() {
    let (left, rights): (Tuple, Vec<Tuple>) =
        (Tuple::of((3i64, 7i64)), (0..TUPLES).map(|i| Tuple::of((3i64, -i))).collect());
    let batch: Vec<_> = rights
        .iter()
        .enumerate()
        .map(|(i, r)| Timestamped::new(Timestamp(i as u64), StreamElement::Tuple(left.concat(r))))
        .collect();
    let frame_at = |first_seq: u64| {
        encode_frame(&Frame::DataBatch { first_seq, elements: batch.clone() })
    };
    let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink");
    let mut sock = TcpStream::connect(sink.addr()).expect("connect");
    sock.write_all(&encode_frame(&Frame::Subscribe { resume_from: 0, wire_version: WIRE_VERSION }))
        .expect("subscribe");
    let mut received = vec![0u8; frame_at(0).len()];

    // `publish_batch`: encode once into the retained frame, which the
    // subscriber's handler writes as it is.
    let publish = |sock: &mut TcpStream, received: &mut Vec<u8>| {
        sink.publish_batch(&batch);
        sock.read_exact(received).expect("the published frame");
    };
    // A worker: one result per input element, each drained on its own
    // from the operator's collector into the worker's encoder, then one
    // append for the message.
    let mut out = OpOutput::new();
    let mut encoder = sink.encoder();
    let mut worker = |sock: &mut TcpStream, received: &mut Vec<u8>| {
        for (i, right) in rights.iter().enumerate() {
            out.push_joined(&left, right);
            let drained = out.drain_with(|item| match item {
                Drained::Joined(values) => {
                    encoder.push_tuple(Timestamp(i as u64), values);
                    Ok(())
                }
                Drained::Element(e) => Err(e),
            });
            drained.expect("only joined results");
        }
        sink.append(&mut encoder);
        sock.read_exact(received).expect("the appended frame");
    };

    // Warm every buffer on the way, freeing what was sent each time.
    for _ in 0..3 {
        publish(&mut sock, &mut received);
        worker(&mut sock, &mut received);
        sink.truncate_below(sink.len() as u64);
    }
    let published = count(|| publish(&mut sock, &mut received));
    assert_eq!(received, frame_at(6 * TUPLES as u64), "the batch arrives as one frame");
    let worked = count(|| worker(&mut sock, &mut received));
    assert_eq!(received, frame_at(7 * TUPLES as u64), "the results arrive as one frame");

    eprintln!(
        "{TUPLES}-tuple batch to a subscriber: {published} allocations published, \
         {worked} from the operator's collector"
    );
    // The frame's shared buffer; the rest is slack for the condvar and
    // socket paths.
    for (path, allocs) in [("publish_batch", published), ("worker", worked)] {
        assert!(
            allocs <= 3,
            "{path}: {TUPLES} tuples took {allocs} allocations (budget 3; one per tuple is \
             {TUPLES})"
        );
    }
}

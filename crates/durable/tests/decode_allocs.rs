//! Counting-allocator gate for snapshot decoding.
//!
//! A section's collection count is checked against the bytes that could
//! hold it (the `WireReader` count rule) before anything is sized from
//! it, so a corrupt count fails instead of reserving room for entries
//! that are not there. A RECORDS entry is at least 12 bytes but a
//! `(u64, Tuple)` is 32, so a check of `count <= payload bytes` alone
//! would still let a 1 MiB payload reserve about 32 MiB. This binary
//! runs under a counting wrapper around the system allocator, which is
//! why it holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use punct_durable::format::RawSection;
use punct_durable::snapshot::kind;
use punct_durable::Snapshot;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const PAYLOAD: usize = 1 << 20;

#[test]
fn a_corrupt_record_count_is_rejected_before_allocating() {
    // A RECORDS payload whose count equals its own length.
    let mut payload = vec![0u8; PAYLOAD];
    payload[..4].copy_from_slice(&(PAYLOAD as u32).to_le_bytes());
    let sections = [RawSection { kind: kind::RECORDS, key: 0, bytes: payload }];

    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let decoded = Snapshot::from_sections(1, &sections);
    COUNTING.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);

    assert!(decoded.is_err(), "a count no payload could hold must not decode");
    eprintln!("decode: {bytes} bytes allocated for a {PAYLOAD}-byte RECORDS payload");
    assert!(
        bytes < PAYLOAD as u64,
        "rejecting a corrupt count allocated {bytes} bytes (budget: under the {PAYLOAD}-byte payload)"
    );
}

//! Measuring tools that belong to the benchmark itself: process CPU
//! time, order statistics, the span recorder and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// User + system CPU seconds of this process, all threads, live and
/// exited, at nanosecond resolution (`/proc/self/stat` counts 10 ms
/// ticks, which is 4 % of a cluster repetition). Cluster workers run in
/// threads of this process so that this covers the whole system.
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points to a live, properly laid out `Timespec`, and keeps
    // nothing; the symbol comes from the libc that `std` already links.
    let status = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted samples.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

/// The benchmark's own spans: wall time and call count around calls into
/// a layer's public functions, kept in memory and printed at the end.
/// Off in untraced runs, where `time` only calls through.
#[derive(Default)]
pub struct Spans {
    on: bool,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            totals: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let entry = self.totals.entry(name).or_default();
        entry.0 += 1;
        entry.1 += start.elapsed().as_nanos() as u64;
        value
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e9)
    }
}

/// Counts allocations and tracks the heap high-water mark while
/// switched on (traced runs only); otherwise one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed)
                + layout.size() as u64;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            // Memory allocated before counting began may be freed now.
            let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(layout.size() as u64))
            });
        }
        System.dealloc(ptr, layout)
    }
}

/// What the allocator saw between [`AllocWindow::begin`] and `end`.
pub struct AllocWindow;

impl AllocWindow {
    pub fn begin() -> AllocWindow {
        ALLOCS.store(0, Ordering::Relaxed);
        LIVE_BYTES.store(0, Ordering::Relaxed);
        PEAK_BYTES.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        AllocWindow
    }

    /// `(allocations, peak bytes allocated above the starting level)`.
    pub fn end(self) -> (u64, u64) {
        COUNTING.store(false, Ordering::Relaxed);
        (
            ALLOCS.load(Ordering::Relaxed),
            PEAK_BYTES.load(Ordering::Relaxed),
        )
    }
}

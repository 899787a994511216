//! The per-component tracer: an owned, lock-free handle that records
//! typed events into a [`RingBuffer`].
//!
//! Each shard / router / operator owns its own `Tracer`, so the
//! hot path never touches shared state; logs are merged after the fact
//! (see [`TraceLog`]). A disabled tracer holds no buffer and every
//! recording method is a single-branch no-op.

use std::sync::OnceLock;
use std::time::Instant;

use crate::event::{Lane, TraceEvent, TraceKind};
use crate::ring::RingBuffer;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide wall-clock epoch all tracers stamp against, fixed at
/// first use. Executors call this once at spawn so every lane shares a
/// base that predates their first event.
pub fn wall_epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds of wall time since [`wall_epoch`].
///
/// On x86_64 this reads the invariant TSC (calibrated against the
/// monotone clock once, at first use) — roughly half the cost of a
/// `clock_gettime`, which matters because the hot path stamps an event
/// per tuple. Elsewhere it falls back to [`Instant::elapsed`].
#[inline]
pub fn wall_now_ns() -> u64 {
    fast_clock::now_ns()
}

#[cfg(target_arch = "x86_64")]
mod fast_clock {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    /// Fixed-point ns-per-tick scale: `ns = ticks * mult >> SHIFT`.
    const SHIFT: u32 = 20;

    struct Calibration {
        tsc0: u64,
        mult: u64,
    }

    static CAL: OnceLock<Calibration> = OnceLock::new();

    #[inline]
    fn rdtsc() -> u64 {
        // Safe on every x86_64; the kernel exposes TSC invariance via
        // `constant_tsc`/`nonstop_tsc`, standard on anything recent.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    fn calibrate() -> Calibration {
        let epoch = super::wall_epoch();
        let tsc0 = rdtsc();
        let ns0 = epoch.elapsed().as_nanos() as u64;
        // A short busy window is enough: at ~GHz tick rates a 2 ms
        // sample pins the scale to ~0.1 %.
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let ticks = (rdtsc() - tsc0).max(1);
        let ns = (epoch.elapsed().as_nanos() as u64 - ns0).max(1);
        let mult = ((ns as u128) << SHIFT) / ticks as u128;
        // tsc0 back-dated so ns line up with the epoch, not calibration
        // time: now_ns(tsc0) == ns0.
        let back = ((ns0 as u128) << SHIFT) / mult.max(1);
        Calibration { tsc0: tsc0.saturating_sub(back as u64), mult: mult as u64 }
    }

    #[inline]
    pub fn now_ns() -> u64 {
        let cal = CAL.get_or_init(calibrate);
        let ticks = rdtsc().saturating_sub(cal.tsc0);
        ((ticks as u128 * cal.mult as u128) >> SHIFT) as u64
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod fast_clock {
    #[inline]
    pub fn now_ns() -> u64 {
        super::wall_epoch().elapsed().as_nanos() as u64
    }
}

/// Tracing configuration, carried inside the operator config so it
/// reaches every shard of a sharded executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSettings {
    /// Whether events are recorded. Off by default: construction then
    /// allocates nothing and every hook is a single-branch no-op.
    pub enabled: bool,
    /// Ring-buffer capacity in events, per tracer.
    pub ring_capacity: usize,
}

/// Default ring capacity (events per lane).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Default for TraceSettings {
    fn default() -> TraceSettings {
        TraceSettings { enabled: false, ring_capacity: DEFAULT_RING_CAPACITY }
    }
}

impl TraceSettings {
    /// Tracing on, default capacity.
    pub fn enabled() -> TraceSettings {
        TraceSettings { enabled: true, ..TraceSettings::default() }
    }

    /// Tracing on with an explicit ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> TraceSettings {
        TraceSettings { enabled: true, ring_capacity }
    }
}

/// An opaque span-start token: captures the start wall time. Zero-cost
/// when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    wall_ns: u64,
}

impl SpanStart {
    /// The captured start time (ns since [`wall_epoch`]; 0 when the
    /// tracer was disabled).
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }
}

/// A finished tracer's events plus its drop accounting — the unit logs
/// are merged and exported in.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The recorded events, oldest → newest per lane.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites.
    pub dropped: u64,
}

impl TraceLog {
    /// Appends another log's events and drop count.
    pub fn merge(&mut self, other: TraceLog) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
    }

    /// Sorts events by wall time (then lane, then sequence) — the order
    /// exporters want.
    pub fn sort_by_wall(&mut self) {
        self.events.sort_by_key(|e| (e.wall_ns, e.lane, e.seq));
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// An owned event recorder for one lane.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    lane: Lane,
    ring: RingBuffer,
}

impl Tracer {
    /// Creates a tracer on lane 0 from settings. When disabled, no
    /// buffer is allocated.
    pub fn new(settings: TraceSettings) -> Tracer {
        Tracer {
            enabled: settings.enabled,
            lane: 0,
            ring: RingBuffer::new(if settings.enabled { settings.ring_capacity.max(1) } else { 0 }),
        }
    }

    /// A permanently disabled tracer (no allocation).
    pub fn disabled() -> Tracer {
        Tracer::new(TraceSettings::default())
    }

    /// Whether events are being recorded. Callers gate any non-trivial
    /// argument computation on this.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the lane stamped on subsequent events.
    pub fn set_lane(&mut self, lane: Lane) {
        self.lane = lane;
    }

    /// The lane stamped on events.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Records an instant event at the current wall time.
    #[inline]
    pub fn instant(&mut self, kind: TraceKind, vt_us: u64, a: u64, b: u64) {
        if self.enabled() {
            self.ring.push(TraceEvent::instant(kind, self.lane, vt_us, wall_now_ns(), a, b));
        }
    }

    /// Starts a wall-clock span. Free when disabled.
    #[inline]
    pub fn span_start(&self) -> SpanStart {
        SpanStart { wall_ns: if self.enabled() { wall_now_ns() } else { 0 } }
    }

    /// Ends a span, recording it with its start time and duration.
    #[inline]
    pub fn span_end(&mut self, start: SpanStart, kind: TraceKind, vt_us: u64, a: u64, b: u64) {
        if self.enabled() {
            let now = wall_now_ns();
            self.ring.push(TraceEvent {
                kind,
                lane: self.lane,
                seq: 0,
                vt_us,
                wall_ns: start.wall_ns,
                dur_ns: now.saturating_sub(start.wall_ns),
                a,
                b,
            });
        }
    }

    /// The underlying ring (read-only).
    pub fn events(&self) -> &RingBuffer {
        &self.ring
    }

    /// Events lost to ring overwrites so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Drains the recorded events into a [`TraceLog`]; the tracer keeps
    /// recording afterwards with a running sequence.
    pub fn take(&mut self) -> TraceLog {
        let dropped = self.ring.dropped();
        TraceLog { events: self.ring.drain(), dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.events().capacity(), 0);
        t.instant(TraceKind::Purge, 1, 2, 3);
        let s = t.span_start();
        t.span_end(s, TraceKind::Purge, 1, 2, 3);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0, "disabled recording is a no-op, not a drop");
    }

    #[test]
    fn enabled_tracer_records_instants_and_spans() {
        let mut t = Tracer::new(TraceSettings::with_capacity(16));
        t.set_lane(3);
        t.instant(TraceKind::PunctArrive, 100, 7, 0);
        let s = t.span_start();
        t.span_end(s, TraceKind::Purge, 200, 5, 2);
        let log = t.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].kind, TraceKind::PunctArrive);
        assert_eq!(log.events[0].lane, 3);
        assert_eq!(log.events[0].vt_us, 100);
        assert_eq!(log.events[1].kind, TraceKind::Purge);
        assert!(log.events[1].wall_ns >= log.events[0].wall_ns);
    }

    #[test]
    fn log_merge_and_sort() {
        let mut a = Tracer::new(TraceSettings::with_capacity(8));
        a.instant(TraceKind::Route, 1, 0, 0);
        let mut b = Tracer::new(TraceSettings::with_capacity(8));
        b.set_lane(1);
        b.instant(TraceKind::Align, 2, 0, 0);
        let mut log = a.take();
        log.merge(b.take());
        log.sort_by_wall();
        assert_eq!(log.events.len(), 2);
        assert!(log.events.windows(2).all(|w| w[0].wall_ns <= w[1].wall_ns));
        assert_eq!(log.of_kind(TraceKind::Align).count(), 1);
    }

    #[test]
    fn wall_clock_is_monotone_from_epoch() {
        let a = wall_now_ns();
        let b = wall_now_ns();
        assert!(b >= a);
    }
}

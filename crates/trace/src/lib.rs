//! # punct-trace
//!
//! End-to-end observability for the PJoin stack: typed trace events with
//! virtual **and** wall timestamps, fixed-capacity ring-buffer sinks,
//! streaming log-bucketed latency histograms, and exporters (JSONL,
//! Chrome `trace_event`, live ASCII dashboard).
//!
//! Design constraints, in order:
//!
//! 1. **Never allocate on the hot path.** Ring buffers preallocate their
//!    full capacity; events are `Copy` and at most one cache line.
//! 2. **Free when off.** Every hook gates on [`Tracer::enabled`], a
//!    single branch at runtime; a disabled tracer allocates nothing.
//! 3. **Deterministic latencies.** The three end-to-end histograms
//!    ([`JoinLatencies`]) measure *virtual* time, so they are exact,
//!    reproducible, and identical across shard counts (per-shard
//!    histograms merge by element-wise bucket addition).

pub mod dashboard;
pub mod event;
pub mod export;
pub mod hist;
pub mod latency;
pub mod ring;
pub mod telemetry;
pub mod tracer;

pub use dashboard::{histogram_chart, latency_report, meter, Dashboard};
pub use event::{
    lane_name, Lane, TraceEvent, TraceKind, LANE_DRIVER, LANE_NET_CLIENT,
    LANE_NET_INGEST, LANE_NET_SINK, LANE_ROUTER,
};
pub use export::{
    chrome_trace, jsonl, jsonl_line, parse_flat_object, validate_jsonl, JsonValue, ParsedEvent,
};
pub use hist::{LatencyHistogram, BUCKETS};
pub use latency::JoinLatencies;
pub use ring::RingBuffer;
pub use telemetry::{
    ClockSync, IngestCounters, KindSummary, PunctRecord, ShardSnapshot, TelemetryMsg,
    WorkerTelemetry,
};
pub use tracer::{
    wall_epoch, wall_now_ns, SpanStart, TraceLog, TraceSettings, Tracer, DEFAULT_RING_CAPACITY,
};


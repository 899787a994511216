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
//! 2. **Free when off.** Every hook gates on [`Tracer::enabled`], which
//!    is a single branch at runtime — and a constant `false` when the
//!    crate is compiled out, so the instrumentation folds away entirely.
//! 3. **Deterministic latencies.** The three end-to-end histograms
//!    ([`JoinLatencies`]) measure *virtual* time, so they are exact,
//!    reproducible, and identical across shard counts (per-shard
//!    histograms merge by element-wise bucket addition).
//!
//! ## Compiling the instrumentation out
//!
//! Set `PJOIN_TRACE_DISABLE=1` in the environment **at build time** to
//! compile every hook out:
//!
//! ```sh
//! PJOIN_TRACE_DISABLE=1 cargo test -q -p punct-trace
//! ```
//!
//! An environment-variable constant is used instead of a cargo feature
//! so flipping it cannot change feature unification for the rest of the
//! workspace; cargo tracks `option_env!` and rebuilds this crate (and
//! its dependents) when the variable changes.

/// False when the crate was built with `PJOIN_TRACE_DISABLE=1`; every
/// recording path is gated on this constant and folds away entirely in
/// that configuration.
pub const COMPILED: bool = option_env!("PJOIN_TRACE_DISABLE").is_none();

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
    lane_name, Lane, TraceEvent, TraceKind, LANE_DRIVER, LANE_MERGE, LANE_NET_CLIENT,
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

#[cfg(test)]
mod tests {
    #[test]
    fn compiled_flag_reflects_env() {
        // The test binary itself is built under the same setting.
        assert_eq!(
            crate::COMPILED,
            option_env!("PJOIN_TRACE_DISABLE").is_none()
        );
    }
}

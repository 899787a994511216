//! The cluster-layer protocol: the join specification blob carried in
//! `ShardMapUpdate`, the in-band barrier punctuations that coordinate
//! repartitioning, and a small blocking control-plane connection over
//! the shared [`Frame`] codec.
//!
//! ## Barriers are punctuations
//!
//! A repartition barrier is an ordinary punctuation with
//! [`Pattern::Empty`] on the **join attribute** — a pattern that matches
//! no value, so it closes nothing and would be inert through PJoin. It
//! rides the data streams like any element: it is ordered behind every
//! tuple and punctuation pushed before it, it is sequence-numbered by the
//! transport, and it is therefore delivered **exactly once** even
//! through a faulty link. Workers recognise it by shape and never feed
//! it to their joins; the cluster layer reserves Empty-at-join-attr
//! punctuations for itself.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::time::{Duration, Instant};

use pjoin::{IndexBuildStrategy, PJoinConfig, PropagationTrigger, PurgeStrategy};
use punct_net::{encode_frame, read_available, wait_readable, Frame, FrameBuffer};
use punct_types::{Pattern, Punctuation, Schema, ValueType, WireReader};
use stream_sim::Side;

use crate::error::ClusterError;

/// Records per `MigrateState` frame on the wire.
pub const MIGRATE_CHUNK: usize = 4096;

/// Default deadline for any single control-plane exchange.
pub const CTRL_TIMEOUT: Duration = Duration::from_secs(30);

/// The cluster-wide join specification: everything a worker needs to
/// build a PJoin identical to every other shard's.
///
/// Cluster v1 pins the operational strategies — **eager purge, eager
/// index build, per-punctuation propagation, memory-only state** — so
/// that a drained shard's state is exactly its stored tuples
/// ([`PJoin::export_records`](pjoin::PJoin::export_records) enforces
/// this) and every received punctuation is propagated by stream end.
/// Only the schema-shaped knobs travel in the blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Width (attribute count) of stream A tuples.
    pub width_a: usize,
    /// Width of stream B tuples.
    pub width_b: usize,
    /// Join attribute index in stream A tuples.
    pub join_attr_a: usize,
    /// Join attribute index in stream B tuples.
    pub join_attr_b: usize,
    /// Hash buckets per input state, per shard.
    pub buckets: usize,
}

impl JoinSpec {
    /// A spec for `(key, payload…)` streams of the given widths, joining
    /// on attribute 0 with the default bucket count.
    pub fn new(width_a: usize, width_b: usize) -> JoinSpec {
        JoinSpec { width_a, width_b, join_attr_a: 0, join_attr_b: 0, buckets: 64 }
    }

    /// Width of output (joined) tuples.
    pub fn output_width(&self) -> usize {
        self.width_a + self.width_b
    }

    /// Tuple width of `side`'s input.
    pub fn side_width(&self, side: Side) -> usize {
        match side {
            Side::Left => self.width_a,
            Side::Right => self.width_b,
        }
    }

    /// Join attribute index of `side`'s input.
    pub fn join_attr(&self, side: Side) -> usize {
        match side {
            Side::Left => self.join_attr_a,
            Side::Right => self.join_attr_b,
        }
    }

    /// Attribute offset of `side`'s input within output tuples.
    pub fn side_offset(&self, side: Side) -> usize {
        match side {
            Side::Left => 0,
            Side::Right => self.width_a,
        }
    }

    /// The PJoin configuration every shard runs: the spec's schema knobs
    /// with the cluster-v1 strategy pins (eager purge, eager index,
    /// propagate on every punctuation, no spilling, no window).
    pub fn pjoin_config(&self) -> PJoinConfig {
        let mut cfg = PJoinConfig::new(self.width_a, self.width_b);
        cfg.join_attr_a = self.join_attr_a;
        cfg.join_attr_b = self.join_attr_b;
        cfg.buckets = self.buckets.max(1);
        cfg.purge = PurgeStrategy::Eager;
        cfg.index_build = IndexBuildStrategy::Eager;
        cfg.propagation = PropagationTrigger::PushCount { count: 1 };
        cfg.memory_max_tuples = 0;
        cfg.window_us = None;
        cfg
    }

    /// A placeholder transport schema of `side`'s width. The ingest
    /// handshake carries a schema for forward compatibility but does not
    /// validate values against it, so the column types are nominal.
    pub fn side_schema(&self, side: Side) -> Schema {
        let fields: Vec<(String, ValueType)> =
            (0..self.side_width(side)).map(|i| (format!("c{i}"), ValueType::Int)).collect();
        let refs: Vec<(&str, ValueType)> =
            fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Schema::of(&refs)
    }

    /// The bare join-spec blob (no telemetry settings); the full
    /// `ShardMapUpdate` payload is built by [`encode_config`].
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        for v in [self.width_a, self.width_b, self.join_attr_a, self.join_attr_b, self.buckets] {
            buf.extend_from_slice(&(v as u32).to_le_bytes());
        }
        buf
    }

    /// Decodes the spec fields from `r` without demanding the reader be
    /// fully consumed — the config blob may carry trailing sections.
    fn decode_from(r: &mut WireReader<'_>) -> Result<JoinSpec, ClusterError> {
        let spec = JoinSpec {
            width_a: r.u32("spec width_a")? as usize,
            width_b: r.u32("spec width_b")? as usize,
            join_attr_a: r.u32("spec join_attr_a")? as usize,
            join_attr_b: r.u32("spec join_attr_b")? as usize,
            buckets: r.u32("spec buckets")? as usize,
        };
        if spec.join_attr_a >= spec.width_a || spec.join_attr_b >= spec.width_b {
            return Err(ClusterError::Protocol(format!(
                "join spec attributes out of range: {spec:?}"
            )));
        }
        Ok(spec)
    }

    /// Decodes a blob written by [`encode`](JoinSpec::encode).
    pub fn decode(bytes: &[u8]) -> Result<JoinSpec, ClusterError> {
        let mut r = WireReader::new(bytes);
        let spec = JoinSpec::decode_from(&mut r)?;
        r.finish()?;
        Ok(spec)
    }
}

/// How the telemetry plane runs, as shipped to every worker inside the
/// `ShardMapUpdate` config blob — workers stay boring: they receive
/// their reporting policy with their join configuration and never make
/// a telemetry decision of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySettings {
    /// Whether workers send telemetry reports at all. When false, not a
    /// single `Telemetry` frame flows and the data path is exactly the
    /// pre-telemetry one.
    pub enabled: bool,
    /// Periodic report interval in milliseconds (the final flush at
    /// stream end is unconditional when enabled).
    pub interval_ms: u32,
    /// Whether shard joins run with tracing on (latency histograms,
    /// per-kind summaries, punctuation lifecycle records). With tracing
    /// off — or compiled out via `PJOIN_TRACE_DISABLE=1` — reports still
    /// flow, carrying the metrics-only payload.
    pub trace: bool,
}

impl Default for TelemetrySettings {
    fn default() -> TelemetrySettings {
        TelemetrySettings { enabled: true, interval_ms: 1_000, trace: true }
    }
}

impl TelemetrySettings {
    /// Telemetry fully off: no frames, no tracing.
    pub fn disabled() -> TelemetrySettings {
        TelemetrySettings { enabled: false, interval_ms: 0, trace: false }
    }
}

/// Heartbeat liveness policy, shipped to workers inside the
/// `ShardMapUpdate` config blob next to [`TelemetrySettings`]. When
/// enabled, each worker sends a `Heartbeat` frame on its control
/// connection every `interval_ms`; the coordinator declares a worker
/// dead — and starts recovery — once `miss_limit` intervals pass with
/// no frame of any kind from it, catching hung workers that a
/// connection-EOF check would miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatSettings {
    /// Beacon interval in milliseconds; 0 disables heartbeats entirely
    /// (no frames flow, no liveness deadline is armed).
    pub interval_ms: u32,
    /// Consecutive silent intervals before a worker is declared dead.
    pub miss_limit: u32,
}

impl Default for HeartbeatSettings {
    fn default() -> HeartbeatSettings {
        HeartbeatSettings::disabled()
    }
}

impl HeartbeatSettings {
    /// Heartbeats fully off: zero frames on the wire.
    pub fn disabled() -> HeartbeatSettings {
        HeartbeatSettings { interval_ms: 0, miss_limit: 0 }
    }

    /// Whether the beacon runs.
    pub fn enabled(&self) -> bool {
        self.interval_ms > 0
    }

    /// The silence window after which a worker counts as dead, if the
    /// beacon runs.
    pub fn deadline(&self) -> Option<Duration> {
        self.enabled().then(|| {
            Duration::from_millis(self.interval_ms as u64 * self.miss_limit.max(1) as u64)
        })
    }
}

/// Encodes the full `ShardMapUpdate` config blob: the join spec followed
/// by the telemetry settings and the heartbeat policy.
pub fn encode_config(
    spec: &JoinSpec,
    telemetry: &TelemetrySettings,
    heartbeat: &HeartbeatSettings,
) -> Vec<u8> {
    let mut buf = spec.encode();
    buf.extend_from_slice(&telemetry.interval_ms.to_le_bytes());
    buf.push((telemetry.enabled as u8) | ((telemetry.trace as u8) << 1));
    buf.extend_from_slice(&heartbeat.interval_ms.to_le_bytes());
    buf.extend_from_slice(&heartbeat.miss_limit.to_le_bytes());
    buf
}

/// Decodes a config blob written by [`encode_config`]. A bare join-spec
/// blob (no telemetry section) decodes with telemetry disabled, so the
/// two encodings cannot be confused; a blob ending at the telemetry
/// flags (the pre-durability encoding) decodes with heartbeats disabled.
pub fn decode_config(
    bytes: &[u8],
) -> Result<(JoinSpec, TelemetrySettings, HeartbeatSettings), ClusterError> {
    let mut r = WireReader::new(bytes);
    let spec = JoinSpec::decode_from(&mut r)?;
    if r.remaining() == 0 {
        return Ok((spec, TelemetrySettings::disabled(), HeartbeatSettings::disabled()));
    }
    let interval_ms = r.u32("telemetry interval")?;
    let flags = r.u8("telemetry flags")?;
    let telemetry = TelemetrySettings {
        enabled: flags & 1 != 0,
        interval_ms,
        trace: flags & 2 != 0,
    };
    if r.remaining() == 0 {
        return Ok((spec, telemetry, HeartbeatSettings::disabled()));
    }
    let heartbeat = HeartbeatSettings {
        interval_ms: r.u32("heartbeat interval")?,
        miss_limit: r.u32("heartbeat miss limit")?,
    };
    r.finish()?;
    Ok((spec, telemetry, heartbeat))
}

/// The barrier punctuation for `side`'s input stream: Empty on the join
/// attribute, wildcard elsewhere.
pub fn barrier_punct(spec: &JoinSpec, side: Side) -> Punctuation {
    Punctuation::on_attr(spec.side_width(side), spec.join_attr(side), Pattern::Empty)
}

/// Whether `p` is a cluster barrier (or sink marker): Empty on `attr`.
pub fn is_barrier(p: &Punctuation, attr: usize) -> bool {
    matches!(p.pattern(attr), Some(Pattern::Empty))
}

/// The sink-side barrier marker a worker publishes once both of its
/// input streams reached the barrier: an output-schema punctuation with
/// Empty on stream A's join attribute. Ordinary output punctuations can
/// never collide with it — input barriers are filtered before the joins,
/// and stream B translations fill stream A's columns with wildcards.
pub fn sink_marker(spec: &JoinSpec) -> Punctuation {
    Punctuation::on_attr(spec.output_width(), spec.join_attr_a, Pattern::Empty)
}

/// A control-plane connection: length-delimited [`Frame`]s over plain
/// TCP. The control plane carries only low-rate cluster frames
/// (handshakes, shard maps, migration state, telemetry), so simplicity
/// beats throughput here — writes are synchronous, and reads either only
/// ask what is queued ([`poll_recv`](CtrlConn::poll_recv)) or block on
/// the socket until a frame or a deadline
/// ([`recv_deadline`](CtrlConn::recv_deadline)); no socket read timeout
/// is involved in either.
#[derive(Debug)]
pub struct CtrlConn {
    sock: TcpStream,
    fb: FrameBuffer,
    peer: String,
}

impl CtrlConn {
    /// Connects to a listening control endpoint.
    pub fn connect(addr: SocketAddr) -> Result<CtrlConn, ClusterError> {
        let sock = TcpStream::connect(addr)?;
        CtrlConn::from_stream(sock)
    }

    /// Wraps an accepted control socket.
    pub fn from_stream(sock: TcpStream) -> Result<CtrlConn, ClusterError> {
        sock.set_nodelay(true)?;
        let peer =
            sock.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".into());
        Ok(CtrlConn { sock, fb: FrameBuffer::new(), peer })
    }

    /// The peer's address, for diagnostics.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// The underlying socket, for a caller that waits on several links
    /// at once or reads this one from a thread of its own.
    pub fn socket(&self) -> &TcpStream {
        &self.sock
    }

    /// Writes one frame synchronously.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClusterError> {
        self.sock.write_all(&encode_frame(frame))?;
        Ok(())
    }

    /// Returns a buffered frame, or picks up whatever the socket has
    /// queued — **without blocking**. `Ok(None)` means no complete frame
    /// yet.
    pub fn poll_recv(&mut self) -> Result<Option<Frame>, ClusterError> {
        if let Some(frame) = self.fb.next_frame()? {
            return Ok(Some(frame));
        }
        match read_available(&mut self.sock, &mut self.fb) {
            Ok(_) => Ok(self.fb.next_frame()?),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                Err(ClusterError::Disconnected(self.peer.clone()))
            }
            Err(e) => Err(ClusterError::Io(e)),
        }
    }

    /// Blocks (woken by the socket) until a frame arrives: for a thread
    /// that does nothing but read this link.
    pub fn recv(&mut self) -> Result<Frame, ClusterError> {
        loop {
            if let Some(frame) = self.poll_recv()? {
                return Ok(frame);
            }
            wait_readable(&[self.sock.as_fd()], Duration::MAX)?;
        }
    }

    /// Blocks (woken by the socket) until a frame arrives or `deadline`
    /// passes.
    pub fn recv_deadline(&mut self, deadline: Instant, what: &str) -> Result<Frame, ClusterError> {
        loop {
            if let Some(frame) = self.poll_recv()? {
                return Ok(frame);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout(format!("{what} from {}", self.peer)));
            }
            wait_readable(&[self.sock.as_fd()], remaining)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_blob_round_trip() {
        let mut spec = JoinSpec::new(3, 2);
        spec.join_attr_a = 1;
        spec.buckets = 16;
        let blob = spec.encode();
        assert_eq!(JoinSpec::decode(&blob).expect("decode"), spec);
        // Out-of-range attributes are rejected.
        let mut bad = JoinSpec::new(2, 2);
        bad.join_attr_b = 5;
        assert!(JoinSpec::decode(&bad.encode()).is_err());
        assert!(JoinSpec::decode(&blob[..10]).is_err());
    }

    #[test]
    fn config_blob_carries_telemetry_settings() {
        let spec = JoinSpec::new(3, 2);
        let telemetry =
            TelemetrySettings { enabled: true, interval_ms: 250, trace: false };
        let heartbeat = HeartbeatSettings { interval_ms: 40, miss_limit: 5 };
        let blob = encode_config(&spec, &telemetry, &heartbeat);
        let (spec2, telemetry2, heartbeat2) = decode_config(&blob).expect("decode");
        assert_eq!(spec2, spec);
        assert_eq!(telemetry2, telemetry);
        assert_eq!(heartbeat2, heartbeat);
        // A bare spec blob decodes with telemetry and heartbeats off.
        let (spec3, telemetry3, heartbeat3) = decode_config(&spec.encode()).expect("bare");
        assert_eq!(spec3, spec);
        assert_eq!(telemetry3, TelemetrySettings::disabled());
        assert_eq!(heartbeat3, HeartbeatSettings::disabled());
        // The pre-durability encoding (spec + telemetry, no heartbeat
        // section) still decodes, with heartbeats off.
        let (_, telemetry4, heartbeat4) =
            decode_config(&blob[..blob.len() - 8]).expect("pre-durability blob");
        assert_eq!(telemetry4, telemetry);
        assert_eq!(heartbeat4, HeartbeatSettings::disabled());
        // Truncated sections are rejected.
        assert!(decode_config(&blob[..blob.len() - 1]).is_err());
        assert!(decode_config(&blob[..blob.len() - 9]).is_err());
    }

    #[test]
    fn heartbeat_deadline_math() {
        assert_eq!(HeartbeatSettings::disabled().deadline(), None);
        let hb = HeartbeatSettings { interval_ms: 50, miss_limit: 4 };
        assert!(hb.enabled());
        assert_eq!(hb.deadline(), Some(Duration::from_millis(200)));
        // A zero miss limit still yields one interval of grace.
        let hb = HeartbeatSettings { interval_ms: 50, miss_limit: 0 };
        assert_eq!(hb.deadline(), Some(Duration::from_millis(50)));
    }

    #[test]
    fn spec_pins_cluster_strategies() {
        let cfg = JoinSpec::new(2, 4).pjoin_config();
        assert_eq!(cfg.purge, PurgeStrategy::Eager);
        assert_eq!(cfg.index_build, IndexBuildStrategy::Eager);
        assert_eq!(cfg.propagation, PropagationTrigger::PushCount { count: 1 });
        assert_eq!(cfg.memory_max_tuples, 0);
        assert_eq!(cfg.output_width(), 6);
    }

    #[test]
    fn barriers_are_empty_on_the_join_attr() {
        let mut spec = JoinSpec::new(2, 3);
        spec.join_attr_b = 2;
        let left = barrier_punct(&spec, Side::Left);
        let right = barrier_punct(&spec, Side::Right);
        assert!(is_barrier(&left, 0));
        assert!(is_barrier(&right, 2));
        assert!(!is_barrier(&right, 0));
        assert_eq!(left.width(), 2);
        assert_eq!(right.width(), 3);
        let marker = sink_marker(&spec);
        assert_eq!(marker.width(), 5);
        assert!(is_barrier(&marker, 0));
        // An ordinary closing punctuation is not a barrier.
        assert!(!is_barrier(&Punctuation::close_value(2, 0, 7i64), 0));
    }
}

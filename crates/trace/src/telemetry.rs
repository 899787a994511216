//! Wire-serializable telemetry: the payload model of the cluster's
//! `Telemetry` control frame, plus the clock-offset estimation that
//! makes wall timestamps from different processes comparable.
//!
//! ## Why this lives in `punct-trace`
//!
//! The histograms and trace-kind taxonomy being shipped are defined
//! here, and the transport crate treats the payload as an opaque blob
//! (exactly like the cluster's operator-configuration blob), so the
//! codec sits next to the types it serializes. The encoding is
//! deliberately self-contained — little-endian fixed-width integers with
//! an internal bounds-checked reader — so this crate gains no new
//! dependencies.
//!
//! ## Exactness
//!
//! Histogram encoding is lossless: every bucket count, the saturating
//! sum and the observed max round-trip bit-exactly, so a coordinator
//! merging decoded worker histograms produces the *same* histogram as
//! merging the originals in one process (`decode(encode(a)) ⊕
//! decode(encode(b)) == a ⊕ b`). Reports are **cumulative** snapshots:
//! the aggregator keeps the latest per worker and merges those, never
//! sums deltas, so totals stay exact under any report interval.
//!
//! ## Clocks
//!
//! Workers stamp lifecycle stages with [`crate::wall_now_ns`], which
//! counts nanoseconds from each process's *own* trace epoch — two
//! processes' stamps are not comparable. [`ClockSync`] estimates the
//! per-worker offset NTP-style at handshake time (the minimum-RTT probe
//! wins), and [`clamp_span`] pins a normalized remote stamp into the
//! causal window the coordinator observed locally, so merged spans stay
//! monotone even when the offset estimate is off by a network round
//! trip.

use crate::event::TraceKind;
use crate::hist::{LatencyHistogram, BUCKETS};
use crate::latency::JoinLatencies;

/// A decode failure: what was being read when the bytes ran out or made
/// no sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryCodecError {
    /// The field being decoded.
    pub what: &'static str,
}

impl std::fmt::Display for TelemetryCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry payload truncated or malformed at {}", self.what)
    }
}

impl std::error::Error for TelemetryCodecError {}

/// A bounds-checked little-endian reader over a telemetry payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], TelemetryCodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(TelemetryCodecError { what });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, TelemetryCodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, TelemetryCodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, TelemetryCodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn finish(&self) -> Result<(), TelemetryCodecError> {
        if self.pos != self.bytes.len() {
            return Err(TelemetryCodecError { what: "trailing bytes" });
        }
        Ok(())
    }
}

fn put_hist(buf: &mut Vec<u8>, h: &LatencyHistogram) {
    let nonzero = h.nonzero_buckets();
    buf.push(nonzero.len() as u8);
    for (i, c) in nonzero {
        buf.push(i as u8);
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf.extend_from_slice(&h.sum().to_le_bytes());
    buf.extend_from_slice(&h.max().to_le_bytes());
}

fn get_hist(r: &mut Reader<'_>) -> Result<LatencyHistogram, TelemetryCodecError> {
    let n = r.u8("hist bucket count")? as usize;
    if n > BUCKETS {
        return Err(TelemetryCodecError { what: "hist bucket count" });
    }
    let mut buckets = [0u64; BUCKETS];
    for _ in 0..n {
        let i = r.u8("hist bucket index")? as usize;
        if i >= BUCKETS {
            return Err(TelemetryCodecError { what: "hist bucket index" });
        }
        buckets[i] = r.u64("hist bucket value")?;
    }
    let sum = r.u64("hist sum")?;
    let max = r.u64("hist max")?;
    Ok(LatencyHistogram::from_raw(buckets, sum, max))
}

/// Encodes a [`LatencyHistogram`] into `buf` (sparse non-zero buckets +
/// sum + max; lossless).
pub fn encode_histogram_into(h: &LatencyHistogram, buf: &mut Vec<u8>) {
    put_hist(buf, h);
}

/// Decodes a histogram written by [`encode_histogram_into`]. The whole
/// input must be consumed.
pub fn decode_histogram(bytes: &[u8]) -> Result<LatencyHistogram, TelemetryCodecError> {
    let mut r = Reader::new(bytes);
    let h = get_hist(&mut r)?;
    r.finish()?;
    Ok(h)
}

fn put_latencies(buf: &mut Vec<u8>, l: &JoinLatencies) {
    put_hist(buf, &l.tuple_emit);
    put_hist(buf, &l.punct_purge);
    put_hist(buf, &l.punct_propagate);
}

fn get_latencies(r: &mut Reader<'_>) -> Result<JoinLatencies, TelemetryCodecError> {
    Ok(JoinLatencies {
        tuple_emit: get_hist(r)?,
        punct_purge: get_hist(r)?,
        punct_propagate: get_hist(r)?,
    })
}

/// One shard's occupancy and progress counters at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Global shard index.
    pub shard: u32,
    /// Elements consumed by the shard's operator.
    pub consumed: u64,
    /// Tuples resident in the shard's join state (both sides).
    pub state_tuples: u64,
    /// Joined tuples emitted by the shard.
    pub emitted: u64,
}

/// Cumulative count / wall-duration totals for one [`TraceKind`] — the
/// compressed form trace events ship in (full rings stay local).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSummary {
    /// Index of the kind in [`TraceKind::ALL`].
    pub kind: u8,
    /// Events recorded.
    pub count: u64,
    /// Summed span durations in ns (0 for instant kinds).
    pub total_dur_ns: u64,
}

impl KindSummary {
    /// The summarized kind, if the index is valid.
    pub fn trace_kind(&self) -> Option<TraceKind> {
        TraceKind::ALL.get(self.kind as usize).copied()
    }
}

/// One punctuation's worker-side lifecycle stamps, in the **worker's**
/// clock domain (ns since that process's trace epoch). A zero stage has
/// not happened yet. Records are reported cumulatively in creation
/// order, so the i-th record for a given `(side, key)` on a worker
/// always describes the i-th copy of that punctuation the coordinator
/// sent there — the coordinator resolves records to its own `PunctSeq`
/// by that occurrence index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PunctRecord {
    /// Input side: 0 = left, 1 = right.
    pub side: u8,
    /// Content hash of the punctuation as it crossed the wire.
    pub key: u64,
    /// Arrival at the worker's element handler.
    pub ingest_ns: u64,
    /// Last target shard finished applying it (purge complete).
    pub purge_ns: u64,
    /// The worker-local aligner observed the final shard propagation.
    pub align_ns: u64,
    /// Published to the worker's sink.
    pub sink_ns: u64,
}

/// Worker ingest-server transport counters (backpressure visibility).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Connections accepted (including fault-recovery reconnects).
    pub connections: u64,
    /// Stream elements received.
    pub frames_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Duplicate frames suppressed by resume dedup.
    pub duplicates_suppressed: u64,
    /// Times a handler blocked on the full downstream channel — the
    /// backpressure stall count.
    pub stalls: u64,
}

/// One worker's cumulative telemetry snapshot: the payload of a
/// periodic or final `Telemetry` report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// The reporting worker's index.
    pub worker: u32,
    /// Report sequence per worker (monotone; the aggregator keeps the
    /// highest).
    pub seq: u64,
    /// True for the final flush sent at stream end.
    pub final_flush: bool,
    /// Whether the worker was built with tracing compiled in. When
    /// false, the latency / summary / lifecycle sections are empty and
    /// the report is metrics-only.
    pub trace_compiled: bool,
    /// Elements consumed from the ingest plane (worker lifetime).
    pub elements: u64,
    /// Elements published to the sink (worker lifetime).
    pub outputs: u64,
    /// Merged latency histograms over every shard the worker has hosted
    /// (retired epochs included — cumulative, virtual-time µs).
    pub latencies: JoinLatencies,
    /// Live shard occupancy under the active epoch.
    pub shards: Vec<ShardSnapshot>,
    /// Cumulative per-kind trace totals.
    pub summaries: Vec<KindSummary>,
    /// Cumulative punctuation lifecycle records, creation order.
    pub lifecycle: Vec<PunctRecord>,
    /// Ingest transport counters.
    pub ingest: IngestCounters,
}

/// A message inside the cluster's `Telemetry` control frame.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryMsg {
    /// Coordinator → worker clock probe: `t0_ns` is the coordinator's
    /// clock at send. Echoed verbatim in the ack so the coordinator
    /// needs no in-flight state.
    ClockProbe {
        /// Probe number within the handshake burst.
        probe: u32,
        /// Coordinator clock at send, ns.
        t0_ns: u64,
    },
    /// Worker → coordinator probe response, carrying the worker's clock
    /// at receipt.
    ClockAck {
        /// Echoed probe number.
        probe: u32,
        /// Echoed coordinator send stamp.
        t0_ns: u64,
        /// Worker clock when the probe was handled, ns.
        worker_ns: u64,
    },
    /// Worker → coordinator cumulative snapshot (boxed: the report
    /// dwarfs the probe variants and only exists transiently around the
    /// codec).
    Report(Box<WorkerTelemetry>),
}

const MSG_CLOCK_PROBE: u8 = 0;
const MSG_CLOCK_ACK: u8 = 1;
const MSG_REPORT: u8 = 2;

impl TelemetryMsg {
    /// Encodes the message as a self-contained payload blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            TelemetryMsg::ClockProbe { probe, t0_ns } => {
                buf.push(MSG_CLOCK_PROBE);
                buf.extend_from_slice(&probe.to_le_bytes());
                buf.extend_from_slice(&t0_ns.to_le_bytes());
            }
            TelemetryMsg::ClockAck { probe, t0_ns, worker_ns } => {
                buf.push(MSG_CLOCK_ACK);
                buf.extend_from_slice(&probe.to_le_bytes());
                buf.extend_from_slice(&t0_ns.to_le_bytes());
                buf.extend_from_slice(&worker_ns.to_le_bytes());
            }
            TelemetryMsg::Report(t) => {
                buf.push(MSG_REPORT);
                buf.extend_from_slice(&t.worker.to_le_bytes());
                buf.extend_from_slice(&t.seq.to_le_bytes());
                let flags =
                    (t.final_flush as u8) | ((t.trace_compiled as u8) << 1);
                buf.push(flags);
                buf.extend_from_slice(&t.elements.to_le_bytes());
                buf.extend_from_slice(&t.outputs.to_le_bytes());
                put_latencies(&mut buf, &t.latencies);
                buf.extend_from_slice(&(t.shards.len() as u32).to_le_bytes());
                for s in &t.shards {
                    buf.extend_from_slice(&s.shard.to_le_bytes());
                    buf.extend_from_slice(&s.consumed.to_le_bytes());
                    buf.extend_from_slice(&s.state_tuples.to_le_bytes());
                    buf.extend_from_slice(&s.emitted.to_le_bytes());
                }
                buf.push(t.summaries.len() as u8);
                for s in &t.summaries {
                    buf.push(s.kind);
                    buf.extend_from_slice(&s.count.to_le_bytes());
                    buf.extend_from_slice(&s.total_dur_ns.to_le_bytes());
                }
                buf.extend_from_slice(&(t.lifecycle.len() as u32).to_le_bytes());
                for p in &t.lifecycle {
                    buf.push(p.side);
                    buf.extend_from_slice(&p.key.to_le_bytes());
                    buf.extend_from_slice(&p.ingest_ns.to_le_bytes());
                    buf.extend_from_slice(&p.purge_ns.to_le_bytes());
                    buf.extend_from_slice(&p.align_ns.to_le_bytes());
                    buf.extend_from_slice(&p.sink_ns.to_le_bytes());
                }
                for v in [
                    t.ingest.connections,
                    t.ingest.frames_received,
                    t.ingest.bytes_received,
                    t.ingest.duplicates_suppressed,
                    t.ingest.stalls,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        buf
    }

    /// Decodes a payload written by [`encode`](TelemetryMsg::encode).
    pub fn decode(bytes: &[u8]) -> Result<TelemetryMsg, TelemetryCodecError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8("telemetry tag")? {
            MSG_CLOCK_PROBE => TelemetryMsg::ClockProbe {
                probe: r.u32("probe number")?,
                t0_ns: r.u64("probe t0")?,
            },
            MSG_CLOCK_ACK => TelemetryMsg::ClockAck {
                probe: r.u32("ack number")?,
                t0_ns: r.u64("ack t0")?,
                worker_ns: r.u64("ack worker clock")?,
            },
            MSG_REPORT => {
                let worker = r.u32("report worker")?;
                let seq = r.u64("report seq")?;
                let flags = r.u8("report flags")?;
                let elements = r.u64("report elements")?;
                let outputs = r.u64("report outputs")?;
                let latencies = get_latencies(&mut r)?;
                let n = r.u32("shard count")? as usize;
                if n > 64 {
                    return Err(TelemetryCodecError { what: "shard count" });
                }
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(ShardSnapshot {
                        shard: r.u32("shard index")?,
                        consumed: r.u64("shard consumed")?,
                        state_tuples: r.u64("shard state")?,
                        emitted: r.u64("shard emitted")?,
                    });
                }
                let n = r.u8("summary count")? as usize;
                let mut summaries = Vec::with_capacity(n);
                for _ in 0..n {
                    summaries.push(KindSummary {
                        kind: r.u8("summary kind")?,
                        count: r.u64("summary count")?,
                        total_dur_ns: r.u64("summary duration")?,
                    });
                }
                let n = r.u32("lifecycle count")? as usize;
                // ≥ 41 bytes per record; a corrupted count cannot force a
                // huge allocation.
                let mut lifecycle =
                    Vec::with_capacity(n.min((bytes.len() - r.pos) / 41 + 1));
                for _ in 0..n {
                    lifecycle.push(PunctRecord {
                        side: r.u8("lifecycle side")?,
                        key: r.u64("lifecycle key")?,
                        ingest_ns: r.u64("lifecycle ingest")?,
                        purge_ns: r.u64("lifecycle purge")?,
                        align_ns: r.u64("lifecycle align")?,
                        sink_ns: r.u64("lifecycle sink")?,
                    });
                }
                let ingest = IngestCounters {
                    connections: r.u64("ingest connections")?,
                    frames_received: r.u64("ingest frames")?,
                    bytes_received: r.u64("ingest bytes")?,
                    duplicates_suppressed: r.u64("ingest duplicates")?,
                    stalls: r.u64("ingest stalls")?,
                };
                TelemetryMsg::Report(Box::new(WorkerTelemetry {
                    worker,
                    seq,
                    final_flush: flags & 1 != 0,
                    trace_compiled: flags & 2 != 0,
                    elements,
                    outputs,
                    latencies,
                    shards,
                    summaries,
                    lifecycle,
                    ingest,
                }))
            }
            _ => return Err(TelemetryCodecError { what: "telemetry tag" }),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Per-peer clock-offset estimation from handshake probes.
///
/// Each probe gives `t0` (local clock at send), `peer_ns` (the peer's
/// clock mid-flight) and `t1` (local clock at the ack). Assuming the
/// request and response legs are symmetric, the peer's clock read
/// happened at local time `t0 + rtt/2`, so `offset = peer_ns − (t0 +
/// rtt/2)`. The sample with the smallest RTT bounds the asymmetry error
/// tightest, so it wins — the standard NTP discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockSync {
    offset_ns: i64,
    best_rtt_ns: u64,
    samples: u32,
}

impl ClockSync {
    /// No samples yet: the offset estimate is 0.
    pub fn new() -> ClockSync {
        ClockSync { offset_ns: 0, best_rtt_ns: u64::MAX, samples: 0 }
    }

    /// Folds in one probe. Keeps the minimum-RTT sample.
    pub fn observe(&mut self, t0_ns: u64, peer_ns: u64, t1_ns: u64) {
        let rtt = t1_ns.saturating_sub(t0_ns);
        if rtt <= self.best_rtt_ns {
            self.best_rtt_ns = rtt;
            self.offset_ns = peer_ns as i64 - (t0_ns + rtt / 2) as i64;
        }
        self.samples += 1;
    }

    /// Estimated `peer_clock − local_clock`, ns.
    pub fn offset_ns(&self) -> i64 {
        self.offset_ns
    }

    /// RTT of the winning probe (`u64::MAX` before any sample).
    pub fn rtt_ns(&self) -> u64 {
        self.best_rtt_ns
    }

    /// Probes folded in so far.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Translates a peer-domain stamp into the local clock domain
    /// (saturating at 0).
    pub fn to_local(&self, peer_ns: u64) -> u64 {
        (peer_ns as i64).saturating_sub(self.offset_ns).max(0) as u64
    }
}

/// Pins a normalized remote stamp into the causal window `[lo, hi]` the
/// local process observed around it. Offset estimation error is bounded
/// by the probe RTT; causality is exact — a worker stage cannot precede
/// the send that triggered it or follow the observation it caused — so
/// the clamp guarantees monotone merged spans. Zero (stage never
/// happened) passes through untouched.
pub fn clamp_span(ns: u64, lo: u64, hi: u64) -> u64 {
    if ns == 0 {
        0
    } else {
        ns.clamp(lo, hi.max(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> WorkerTelemetry {
        let mut latencies = JoinLatencies::new();
        for v in [0u64, 1, 7, 900, u64::MAX] {
            latencies.tuple_emit.record(v);
        }
        latencies.punct_purge.record(40);
        WorkerTelemetry {
            worker: 3,
            seq: 17,
            final_flush: true,
            trace_compiled: true,
            elements: 1000,
            outputs: 950,
            latencies,
            shards: vec![
                ShardSnapshot { shard: 0, consumed: 500, state_tuples: 12, emitted: 480 },
                ShardSnapshot { shard: 2, consumed: 500, state_tuples: 0, emitted: 470 },
            ],
            summaries: vec![
                KindSummary { kind: 3, count: 9, total_dur_ns: 12345 },
                KindSummary { kind: 6, count: 4, total_dur_ns: 0 },
            ],
            lifecycle: vec![PunctRecord {
                side: 1,
                key: 0xFEED_BEEF,
                ingest_ns: 10,
                purge_ns: 20,
                align_ns: 30,
                sink_ns: 40,
            }],
            ingest: IngestCounters {
                connections: 2,
                frames_received: 1000,
                bytes_received: 65536,
                duplicates_suppressed: 3,
                stalls: 5,
            },
        }
    }

    #[test]
    fn messages_round_trip() {
        for msg in [
            TelemetryMsg::ClockProbe { probe: 0, t0_ns: 123 },
            TelemetryMsg::ClockAck { probe: 7, t0_ns: 123, worker_ns: 456 },
            TelemetryMsg::Report(Box::new(sample_report())),
            TelemetryMsg::Report(Box::default()),
        ] {
            let bytes = msg.encode();
            assert_eq!(TelemetryMsg::decode(&bytes).expect("decode"), msg);
        }
    }

    #[test]
    fn histogram_codec_is_lossless_and_merge_commutes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            a.record(v);
        }
        for v in [5u64, 5, 1 << 40] {
            b.record(v);
        }
        let mut ab = Vec::new();
        encode_histogram_into(&a, &mut ab);
        let mut bb = Vec::new();
        encode_histogram_into(&b, &mut bb);
        let mut decoded = decode_histogram(&ab).expect("decode a");
        assert_eq!(decoded, a);
        decoded.merge(&decode_histogram(&bb).expect("decode b"));
        let mut local = a;
        local.merge(&b);
        assert_eq!(decoded, local, "wire merge must equal local merge bit-exactly");
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let bytes = TelemetryMsg::Report(Box::new(sample_report())).encode();
        for cut in 0..bytes.len() {
            assert!(
                TelemetryMsg::decode(&bytes[..cut]).is_err(),
                "prefix of length {cut} decoded"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(TelemetryMsg::decode(&long).is_err());
        assert!(TelemetryMsg::decode(&[99]).is_err());
    }

    #[test]
    fn clock_sync_prefers_min_rtt() {
        let mut c = ClockSync::new();
        // A slow, asymmetric probe first: rtt 1000, peer ahead by ~500.
        c.observe(1000, 2000, 2000);
        assert_eq!(c.offset_ns(), 500);
        // Then a tight probe revealing the true offset of 100.
        c.observe(3000, 3150, 3100);
        assert_eq!(c.rtt_ns(), 100);
        assert_eq!(c.offset_ns(), 100);
        // A later slow probe does not displace the tight one.
        c.observe(5000, 9000, 7000);
        assert_eq!(c.offset_ns(), 100);
        assert_eq!(c.samples(), 3);
        assert_eq!(c.to_local(3150), 3050);
    }

    /// Satellite: two skewed simulated clocks must still yield monotone
    /// merged spans after normalization + causal clamping.
    #[test]
    fn skewed_clocks_produce_monotone_merged_spans() {
        // Worker clock runs 5 ms ahead of the coordinator's; probes see
        // an asymmetric network (request leg 40 µs, response leg 10 µs),
        // so the estimate is off by (40-10)/2 = 15 µs — a realistic
        // worst case the clamp has to absorb.
        let skew: i64 = 5_000_000;
        let w = |coord_ns: u64| (coord_ns as i64 + skew) as u64;
        let mut sync = ClockSync::new();
        for t0 in [1_000u64, 2_000, 3_000] {
            sync.observe(t0, w(t0 + 40_000), t0 + 50_000);
        }
        let err = sync.offset_ns() - skew;
        assert!(err.abs() <= 25_000, "estimate within the probe RTT: {err}");

        // True (coordinator-domain) stage times of one punctuation.
        let route = 10_000_000u64;
        let stages_true = [10_000_040u64, 10_000_110, 10_000_160, 10_000_200];
        let observe = 10_000_260u64;
        let merge = 10_000_300u64;

        // The worker stamped them on its own skewed clock; normalize and
        // clamp into the coordinator-observed causal window.
        let mut prev = route;
        for &t in &stages_true {
            let normalized = sync.to_local(w(t));
            let clamped = clamp_span(normalized, route, observe);
            assert!(
                clamped >= prev && clamped <= observe,
                "stage {t}: normalized {normalized} clamped {clamped} prev {prev}"
            );
            prev = clamped.max(prev);
        }
        assert!(observe <= merge);
    }

    #[test]
    fn clamp_span_pins_into_window_and_keeps_zero() {
        assert_eq!(clamp_span(0, 10, 20), 0);
        assert_eq!(clamp_span(5, 10, 20), 10);
        assert_eq!(clamp_span(15, 10, 20), 15);
        assert_eq!(clamp_span(25, 10, 20), 20);
        // Degenerate window (hi < lo) collapses to lo.
        assert_eq!(clamp_span(25, 30, 20), 30);
    }

    #[test]
    fn kind_summary_resolves_trace_kinds() {
        let s = KindSummary { kind: 3, count: 1, total_dur_ns: 0 };
        assert_eq!(s.trace_kind(), Some(TraceKind::ALL[3]));
        let bad = KindSummary { kind: 200, count: 1, total_dur_ns: 0 };
        assert_eq!(bad.trace_kind(), None);
    }
}

//! The length-prefixed frame layer of the transport protocol.
//!
//! Every message on a transport socket is one *frame*:
//!
//! ```text
//! ┌──────────────┬─────────┬──────────────────┐
//! │ len: u32 le  │ tag: u8 │ payload (len-1)  │
//! └──────────────┴─────────┴──────────────────┘
//! ```
//!
//! `len` counts the tag byte plus the payload, so an empty-payload frame
//! has `len == 1`. Payload contents use the wire-stable encodings of
//! `punct_types::wire`. Decoding is fail-safe: malformed bytes produce a
//! [`WireError`], never a panic, and announced lengths are validated
//! before any allocation. Stream elements travel only in `DataBatch`
//! frames (a single element is a batch of one) and have one decode path,
//! `wire::get_timestamped_run`: the tuples of one frame are views into
//! one shared value block.

use punct_types::wire::{
    get_records, get_schema, get_timestamped_run, put_bytes, put_records, put_schema, put_str,
    put_timestamped, put_timestamped_tuple, put_u16, put_u32, put_u32_at, put_u64, put_u64_at,
    WireError, WireReader,
};
use punct_types::{Schema, ShardMap, StreamElement, Timestamp, Timestamped, Tuple, Value};

/// Protocol version carried in every handshake frame (`Hello`,
/// `HelloAck`, `Subscribe`, `JoinCluster`). Bumped on any frame or
/// payload encoding change. Version 2 added the `DataBatch` frame (many
/// elements with consecutive sequence numbers in one frame/syscall);
/// version 3 added the cluster control frames (`JoinCluster`,
/// `ShardMapUpdate`, a migration's begin, state, state-done and commit
/// frames, `BarrierReached`) and made the version check symmetric: both
/// directions of every handshake carry the speaker's version, and a
/// mismatch is answered with a clean `VERSION_MISMATCH` error instead
/// of a decode failure; version 4 added the `Telemetry` control frame
/// (clock probes/acks and cumulative worker telemetry reports, payload
/// encoded by `punct-trace` and opaque at this layer); version 5 added
/// the durability control frames (checkpoint, `Heartbeat`, rollback,
/// checkpoint-done) for barrier-punctuation checkpointing, liveness,
/// and crash recovery; version 6 retired the per-element `Data` frame
/// (tag 2, never reused): every element travels in a `DataBatch`;
/// version 7 stamps a worker's sink marker with its barrier's nonce
/// (the frames are unchanged, their meaning is not: a version-6 worker's
/// markers carry its clock, so no coordinator drain would find them);
/// version 8 reshaped the `Telemetry` report: lifecycle records come in
/// one list per input side, matched by arrival order, and carry three
/// stamps (ingest, purge, sink) instead of a side, a content hash and
/// four stamps; version 9 retired the frames that armed a migration, a
/// checkpoint and a rollback (tags 12, 18, 20: a barrier's nonce names
/// its operation) and the checkpoint-done frame (tag 21: a commit sends
/// `Ack`); version 10 changed `Value::join_hash` from SipHash to a fixed
/// mixer (the frames are unchanged, their meaning is not: shard maps and
/// migrated state place keys by that hash, so a version-9 worker would
/// own other keys than its coordinator routes to it).
pub const WIRE_VERSION: u32 = 10;

/// Hard cap on a frame's announced length (tag + payload). A corrupted
/// length prefix can therefore never request more than this in one
/// allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Protocol error codes carried by [`Frame::Error`].
pub mod error_code {
    /// The receiver saw a sequence number beyond the next expected one
    /// (frames were lost in transit); the sender must reconnect and
    /// resume from the acknowledged sequence.
    pub const SEQUENCE_GAP: u16 = 1;
    /// The `Hello` named a stream the server does not serve.
    pub const UNKNOWN_STREAM: u16 = 2;
    /// Wire version mismatch or malformed handshake.
    pub const BAD_HELLO: u16 = 3;
    /// The peer is shutting down.
    pub const SHUTDOWN: u16 = 4;
    /// A newer connection handshook for the same stream; this (older)
    /// connection no longer owns it and must not send.
    pub const SUPERSEDED: u16 = 5;
    /// The sink truncated its history below the requested resume point;
    /// an exact replay is impossible.
    pub const TRUNCATED: u16 = 6;
    /// The peers speak different wire protocol versions. Unlike
    /// `BAD_HELLO` (a malformed or misdirected handshake), this names
    /// the one condition an operator fixes by upgrading a binary, so it
    /// gets its own code. Never retried.
    pub const VERSION_MISMATCH: u16 = 7;
}

/// One protocol message.
///
/// Direction conventions: `Hello`/`DataBatch`/`Fin` flow from a source
/// client to the ingest server; `HelloAck`/`Ack`/`Credit`/`FinAck` flow
/// back; `Subscribe` opens a sink subscription (then `DataBatch`/`Fin`
/// flow from the sink server to the consumer). `Error` may flow either
/// way.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Opens (or re-opens) a source stream: which stream, which join
    /// side, the sender's schema, and the sender's protocol version.
    Hello {
        /// Stream id on the server (dense from 0).
        stream: u32,
        /// Join side: 0 = left, 1 = right.
        side: u8,
        /// Protocol version of the sender.
        wire_version: u32,
        /// Schema of the tuples the sender will push.
        schema: Schema,
    },
    /// Handshake response: where to resume and the initial credit grant.
    HelloAck {
        /// The next element sequence number the server expects. The
        /// client resumes sending from exactly here; everything before
        /// it is acknowledged.
        resume_from: u64,
        /// Initial credits: how many elements may be sent before
        /// waiting for a `Credit` grant.
        credits: u32,
        /// Protocol version of the server, so the client can also
        /// detect a mismatch (the check is symmetric).
        wire_version: u32,
    },
    /// Cumulative acknowledgement: every `seq < up_to` was received and
    /// handed downstream. On the cluster control link the coordinator
    /// sends it to a worker about that worker's sink — every few thousand
    /// elements and at every checkpoint commit — and the worker frees its
    /// sink history below `up_to`.
    Ack {
        /// One past the highest contiguously received sequence.
        up_to: u64,
    },
    /// Backpressure credit grant: the sender may transmit `n` more
    /// elements. The server only grants credits as it drains
    /// elements into its (bounded) downstream channel, so a slow
    /// consumer stalls the sender instead of growing a queue.
    Credit {
        /// Number of additional elements allowed.
        n: u32,
    },
    /// The sender has transmitted its whole stream: `count` elements,
    /// sequences `0..count`.
    Fin {
        /// Total number of elements in the stream.
        count: u64,
    },
    /// The receiver confirms the stream is complete.
    FinAck,
    /// A protocol failure; the connection closes after this frame.
    Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// Opens a sink subscription, asking for elements from sequence
    /// `resume_from` onward (0 for a fresh consumer; the next unseen
    /// sequence when reconnecting after a disconnect).
    Subscribe {
        /// First sequence number to deliver.
        resume_from: u64,
        /// Protocol version of the subscriber; mismatches are refused
        /// with a `VERSION_MISMATCH` error.
        wire_version: u32,
    },
    /// Consecutive stream elements — the only frame that carries them;
    /// a single element is a batch of one. Sequence numbers count
    /// elements densely from 0 per stream (tuples and punctuations share
    /// the sequence), and element `i` carries `first_seq + i`. Credit
    /// accounting and resume dedup are per element: the receiver
    /// discards any sequence below its next expected one, which is what
    /// makes resume idempotent.
    DataBatch {
        /// Sequence number of the first element.
        first_seq: u64,
        /// The elements, in sequence order.
        elements: Vec<Timestamped<StreamElement>>,
    },
    /// A worker announcing itself to the coordinator on the control
    /// connection: its index, protocol version, and the loopback/LAN
    /// addresses of its ingest and sink servers.
    JoinCluster {
        /// Protocol version of the worker.
        wire_version: u32,
        /// The worker's index in the cluster (dense from 0).
        worker: u32,
        /// Address of the worker's ingest server (data plane in).
        ingest_addr: String,
        /// Address of the worker's sink server (data plane out).
        sink_addr: String,
    },
    /// Coordinator → worker: a new shard-map epoch. The worker named by
    /// `worker` builds a join over its owned shards from the map and the
    /// opaque operator configuration blob, then applies any
    /// `MigrateState` that follows before `MigrateCommit` activates the
    /// epoch. A map holds `1..=MAX_SHARDS` shards.
    ShardMapUpdate {
        /// Which worker this update addresses (workers validate it).
        worker: u32,
        /// The new versioned shard→worker assignment.
        map: ShardMap,
        /// Cluster-layer operator configuration, encoded by
        /// `punct-cluster` (opaque at this layer).
        config: Vec<u8>,
    },
    /// One chunk of migrating join state: records of one side of one
    /// global shard, each with the arrival clock that orders purge
    /// decisions. Flows worker → coordinator (export) and coordinator →
    /// worker (install) with the same encoding.
    MigrateState {
        /// Global shard the records belong to (the *new* shard id on
        /// the install path).
        shard: u32,
        /// Join side: 0 = left, 1 = right.
        side: u8,
        /// `(arrival_us, tuple)` pairs in arrival order.
        records: Vec<(u64, Tuple)>,
    },
    /// Terminates a sequence of `MigrateState` chunks; `records` is the
    /// total record count across the chunks, as a checksum.
    MigrateStateDone {
        /// Total records exported/installed before this frame.
        records: u64,
    },
    /// Coordinator → worker: all state for `epoch` is installed; switch
    /// to the new shard map. The worker echoes the frame back as its
    /// acknowledgement.
    MigrateCommit {
        /// The epoch now active.
        epoch: u64,
    },
    /// Worker → coordinator: both input streams reached the barrier
    /// punctuation identified by `nonce`, and every pre-barrier output
    /// is published to the worker's sink.
    BarrierReached {
        /// The barrier's nonce (its timestamp on the data streams).
        nonce: u64,
    },
    /// Bidirectional telemetry-plane message on the control connection:
    /// coordinator → worker clock probes, worker → coordinator clock
    /// acks and cumulative telemetry reports. The payload is a
    /// `punct_trace::telemetry::TelemetryMsg` encoding, opaque at this
    /// layer (like `ShardMapUpdate::config`) so the transport does not
    /// depend on the telemetry schema.
    Telemetry {
        /// Encoded `TelemetryMsg`.
        payload: Vec<u8>,
    },
    /// Worker → coordinator liveness beacon, sent on the control
    /// connection at the configured interval. A coordinator that misses
    /// `miss_limit` consecutive intervals declares the worker dead and
    /// starts recovery — catching hung (not just crashed) workers.
    Heartbeat {
        /// Monotone per-worker beacon counter.
        seq: u64,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
// Retired tags, never reused and decoded as `BadTag`: 2, the per-element
// `Data` frame (wire versions 1–5); 12, 18 and 20, the migration,
// checkpoint and rollback arms, and 21, checkpoint-done (versions 3–8).
const TAG_ACK: u8 = 3;
const TAG_CREDIT: u8 = 4;
const TAG_FIN: u8 = 5;
const TAG_FIN_ACK: u8 = 6;
const TAG_ERROR: u8 = 7;
const TAG_SUBSCRIBE: u8 = 8;
const TAG_DATA_BATCH: u8 = 9;
const TAG_JOIN_CLUSTER: u8 = 10;
const TAG_SHARD_MAP_UPDATE: u8 = 11;
const TAG_MIGRATE_STATE: u8 = 13;
const TAG_MIGRATE_STATE_DONE: u8 = 14;
const TAG_MIGRATE_COMMIT: u8 = 15;
const TAG_BARRIER_REACHED: u8 = 16;
const TAG_TELEMETRY: u8 = 17;
const TAG_HEARTBEAT: u8 = 19;

impl Frame {
    /// The frame's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::HelloAck { .. } => TAG_HELLO_ACK,
            Frame::Ack { .. } => TAG_ACK,
            Frame::Credit { .. } => TAG_CREDIT,
            Frame::Fin { .. } => TAG_FIN,
            Frame::FinAck => TAG_FIN_ACK,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Subscribe { .. } => TAG_SUBSCRIBE,
            Frame::DataBatch { .. } => TAG_DATA_BATCH,
            Frame::JoinCluster { .. } => TAG_JOIN_CLUSTER,
            Frame::ShardMapUpdate { .. } => TAG_SHARD_MAP_UPDATE,
            Frame::MigrateState { .. } => TAG_MIGRATE_STATE,
            Frame::MigrateStateDone { .. } => TAG_MIGRATE_STATE_DONE,
            Frame::MigrateCommit { .. } => TAG_MIGRATE_COMMIT,
            Frame::BarrierReached { .. } => TAG_BARRIER_REACHED,
            Frame::Telemetry { .. } => TAG_TELEMETRY,
            Frame::Heartbeat { .. } => TAG_HEARTBEAT,
        }
    }
}

/// Appends the full length-prefixed encoding of `frame` to `buf`.
pub fn encode_frame_into(frame: &Frame, buf: &mut Vec<u8>) {
    let len_pos = buf.len();
    put_u32(buf, 0); // patched below
    buf.push(frame.tag());
    match frame {
        Frame::Hello { stream, side, wire_version, schema } => {
            put_u32(buf, *stream);
            buf.push(*side);
            put_u32(buf, *wire_version);
            put_schema(buf, schema);
        }
        Frame::HelloAck { resume_from, credits, wire_version } => {
            put_u64(buf, *resume_from);
            put_u32(buf, *credits);
            put_u32(buf, *wire_version);
        }
        Frame::Ack { up_to: v }
        | Frame::Fin { count: v }
        | Frame::MigrateStateDone { records: v }
        | Frame::MigrateCommit { epoch: v }
        | Frame::BarrierReached { nonce: v }
        | Frame::Heartbeat { seq: v } => put_u64(buf, *v),
        Frame::Credit { n } => put_u32(buf, *n),
        Frame::FinAck => {}
        Frame::Error { code, message } => {
            put_u16(buf, *code);
            put_str(buf, message);
        }
        Frame::Subscribe { resume_from, wire_version } => {
            put_u64(buf, *resume_from);
            put_u32(buf, *wire_version);
        }
        Frame::DataBatch { first_seq, elements } => {
            put_u64(buf, *first_seq);
            put_u32(buf, elements.len() as u32);
            for element in elements {
                put_timestamped(buf, element);
            }
        }
        Frame::JoinCluster { wire_version, worker, ingest_addr, sink_addr } => {
            put_u32(buf, *wire_version);
            put_u32(buf, *worker);
            put_str(buf, ingest_addr);
            put_str(buf, sink_addr);
        }
        Frame::ShardMapUpdate { worker, map, config } => {
            put_u32(buf, *worker);
            map.encode_into(buf);
            put_bytes(buf, config);
        }
        Frame::MigrateState { shard, side, records } => {
            put_u32(buf, *shard);
            buf.push(*side);
            put_records(buf, records);
        }
        Frame::Telemetry { payload } => put_bytes(buf, payload),
    }
    let frame_len = (buf.len() - len_pos - 4) as u32;
    put_u32_at(buf, len_pos, frame_len);
}

/// The full length-prefixed encoding of `frame`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_frame_into(frame, &mut buf);
    buf
}

/// Most payload bytes in one `DataBatch` frame: an element that would
/// take a non-empty frame past it starts the next one, so a frame never
/// asks its peer for a large allocation and never approaches
/// [`MAX_FRAME_LEN`], whatever the tuple width.
pub const MAX_BATCH_BYTES: usize = 64 * 1024;

/// Encodes stream elements into `DataBatch` frames, the one encoder of
/// both data-plane directions: a [`StreamSender`](crate::StreamSender)
/// encodes what its credit window lets it write, a sink what it
/// publishes. A frame holds up to `batch` elements and closes once its
/// payload reaches [`MAX_BATCH_BYTES`]. Frames are numbered when they
/// are handed over — by the sender from its next unwritten sequence, by
/// [`SinkServer::append`](crate::SinkServer::append) from the sink's —
/// and the encoder keeps its buffers from one hand-over to the next.
/// The default encoder frames every element on its own.
#[derive(Debug, Default)]
pub struct BatchEncoder {
    batch: u32,
    buf: Vec<u8>,
    /// Frames in `buf`, each `(start, elements)`; a frame ends where the
    /// next starts, the last at the end of `buf`.
    frames: Vec<(usize, u32)>,
    /// Whether the last frame still takes elements.
    open: bool,
}

impl BatchEncoder {
    /// An encoder closing each frame at `batch` elements (at least one).
    pub(crate) fn new(batch: usize) -> BatchEncoder {
        BatchEncoder { batch: batch.clamp(1, u32::MAX as usize) as u32, ..BatchEncoder::default() }
    }

    /// Encodes one element.
    pub fn push(&mut self, element: &Timestamped<StreamElement>) {
        self.encode(|buf| put_timestamped(buf, element));
    }

    /// Encodes the tuple of exactly `values` arriving at `ts`: the bytes
    /// [`push`](BatchEncoder::push) writes for that tuple.
    pub fn push_tuple(&mut self, ts: Timestamp, values: &[Value]) {
        self.encode(|buf| put_timestamped_tuple(buf, ts, values));
    }

    /// True if nothing was encoded since the last hand-over.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn encode(&mut self, put: impl Fn(&mut Vec<u8>)) {
        if !self.open {
            self.open_frame();
        }
        let (mut start, count) = *self.frames.last().expect("a frame is open");
        let at = self.buf.len();
        put(&mut self.buf);
        if count > 0 && self.buf.len() - start - 4 > MAX_BATCH_BYTES {
            // Over the byte cap: the element starts the next frame.
            self.buf.truncate(at);
            self.close_frame();
            start = self.open_frame();
            put(&mut self.buf);
        }
        let last = self.frames.last_mut().expect("a frame is open");
        last.1 += 1;
        if last.1 >= self.batch || self.buf.len() - start - 4 >= MAX_BATCH_BYTES {
            self.close_frame();
        }
    }

    fn open_frame(&mut self) -> usize {
        let start = self.buf.len();
        put_u32(&mut self.buf, 0); // the length, filled in on close
        self.buf.push(TAG_DATA_BATCH);
        put_u64(&mut self.buf, 0); // the first sequence, filled in on seal
        put_u32(&mut self.buf, 0); // the count, filled in on close
        self.frames.push((start, 0));
        self.open = true;
        start
    }

    fn close_frame(&mut self) {
        if let Some(&(start, count)) = self.frames.last().filter(|_| self.open) {
            let len = self.buf.len() - start - 4;
            put_u32_at(&mut self.buf, start, len as u32);
            put_u32_at(&mut self.buf, start + 13, count);
            self.open = false;
        }
    }

    /// Closes the open frame and numbers the frames consecutively from
    /// `first_seq`.
    pub(crate) fn seal(&mut self, first_seq: u64) {
        self.close_frame();
        let mut seq = first_seq;
        for &(start, count) in &self.frames {
            put_u64_at(&mut self.buf, start + 5, seq);
            seq += u64::from(count);
        }
    }

    /// The sealed frames, in order, as `(elements, bytes)`.
    pub(crate) fn frames(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let ends = self.frames.iter().skip(1).map(|f| f.0).chain([self.buf.len()]);
        self.frames.iter().zip(ends).map(|(&(start, count), end)| (count, &self.buf[start..end]))
    }

    /// Every sealed frame, back to back.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets the frames, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.frames.clear();
        self.open = false;
    }
}

/// Decodes one frame *payload* (tag + body, without the length prefix).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = WireReader::new(payload);
    let frame = match r.u8("frame tag")? {
        TAG_HELLO => {
            let stream = r.u32("hello stream")?;
            let side = r.u8("hello side")?;
            if side > 1 {
                return Err(WireError::BadTag { what: "hello side", tag: side });
            }
            let wire_version = r.u32("hello version")?;
            let schema = get_schema(&mut r)?;
            Frame::Hello { stream, side, wire_version, schema }
        }
        TAG_HELLO_ACK => Frame::HelloAck {
            resume_from: r.u64("helloack resume")?,
            credits: r.u32("helloack credits")?,
            wire_version: r.u32("helloack version")?,
        },
        TAG_ACK => Frame::Ack { up_to: r.u64("ack up_to")? },
        TAG_CREDIT => Frame::Credit { n: r.u32("credit n")? },
        TAG_FIN => Frame::Fin { count: r.u64("fin count")? },
        TAG_FIN_ACK => Frame::FinAck,
        TAG_ERROR => {
            let code = r.u16("error code")?;
            let message = r.str("error message")?.to_string();
            Frame::Error { code, message }
        }
        TAG_SUBSCRIBE => Frame::Subscribe {
            resume_from: r.u64("subscribe resume")?,
            wire_version: r.u32("subscribe version")?,
        },
        TAG_DATA_BATCH => {
            let first_seq = r.u64("batch first_seq")?;
            let count = r.u32("batch count")? as usize;
            // One value block for the whole frame; the run holds the
            // count to the count rule before sizing anything from it.
            let elements = get_timestamped_run(&mut r, count)?;
            Frame::DataBatch { first_seq, elements }
        }
        TAG_JOIN_CLUSTER => {
            let wire_version = r.u32("join version")?;
            let worker = r.u32("join worker")?;
            let ingest_addr = r.str("join ingest addr")?.to_string();
            let sink_addr = r.str("join sink addr")?.to_string();
            Frame::JoinCluster { wire_version, worker, ingest_addr, sink_addr }
        }
        TAG_SHARD_MAP_UPDATE => {
            let worker = r.u32("map worker")?;
            let map = ShardMap::decode(&mut r)?;
            let config = r.blob("map config")?.to_vec();
            Frame::ShardMapUpdate { worker, map, config }
        }
        TAG_MIGRATE_STATE => {
            let shard = r.u32("state shard")?;
            let side = r.u8("state side")?;
            if side > 1 {
                return Err(WireError::BadTag { what: "state side", tag: side });
            }
            Frame::MigrateState { shard, side, records: get_records(&mut r)? }
        }
        TAG_MIGRATE_STATE_DONE => {
            Frame::MigrateStateDone { records: r.u64("state done count")? }
        }
        TAG_MIGRATE_COMMIT => Frame::MigrateCommit { epoch: r.u64("commit epoch")? },
        TAG_BARRIER_REACHED => Frame::BarrierReached { nonce: r.u64("barrier nonce")? },
        TAG_TELEMETRY => Frame::Telemetry { payload: r.blob("telemetry payload")?.to_vec() },
        TAG_HEARTBEAT => Frame::Heartbeat { seq: r.u64("heartbeat seq")? },
        tag => return Err(WireError::BadTag { what: "frame", tag }),
    };
    r.finish()?;
    Ok(frame)
}

/// An incremental frame reassembler over a byte stream.
///
/// Feed it whatever the socket produced; it yields complete frames
/// (decoded, or raw for the fault proxy) and buffers partial ones.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete + partial frames).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        // Reclaim consumed prefix once it dominates the buffer.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Length of the next complete raw frame (prefix + payload), if one
    /// is fully buffered. Errors on an oversized announced length.
    fn next_len(&self) -> Result<Option<usize>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = WireReader::new(avail).u32("frame length")? as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(WireError::TooLarge { what: "frame", len, max: MAX_FRAME_LEN });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        Ok(Some(4 + len))
    }

    /// Pops the next complete frame, decoded.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match self.next_len()? {
            None => Ok(None),
            Some(total) => {
                let payload = &self.buf[self.start + 4..self.start + total];
                let frame = decode_frame(payload)?;
                self.start += total;
                Ok(Some(frame))
            }
        }
    }

    /// Pops the next complete frame as raw bytes (length prefix
    /// included), without decoding the payload — the fault proxy's view.
    /// Also returns the payload tag byte so the proxy can target only
    /// `DataBatch` frames.
    pub fn next_raw(&mut self) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        match self.next_len()? {
            None => Ok(None),
            Some(total) => {
                let raw = self.buf[self.start..self.start + total].to_vec();
                let tag = raw[4];
                self.start += total;
                Ok(Some((tag, raw)))
            }
        }
    }
}

/// True if a raw frame (as returned by [`FrameBuffer::next_raw`]) is a
/// `DataBatch` frame — the kind the fault proxy drops, so transfers
/// exercise loss and resume.
pub fn raw_is_data(tag: u8) -> bool {
    tag == TAG_DATA_BATCH
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::ValueType;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                stream: 3,
                side: 1,
                wire_version: WIRE_VERSION,
                schema: Schema::of(&[("k", ValueType::Int), ("v", ValueType::Str)]),
            },
            Frame::HelloAck { resume_from: 42, credits: 128, wire_version: WIRE_VERSION },
            Frame::DataBatch {
                first_seq: 7,
                elements: vec![Timestamped::new(
                    Timestamp::from_micros(99),
                    StreamElement::Tuple(Tuple::of((1i64, "x"))),
                )],
            },
            Frame::Ack { up_to: 8 },
            Frame::Credit { n: 64 },
            Frame::Fin { count: 100 },
            Frame::FinAck,
            Frame::Error { code: error_code::SEQUENCE_GAP, message: "gap at 9".into() },
            Frame::Subscribe { resume_from: 5, wire_version: WIRE_VERSION },
            Frame::DataBatch {
                first_seq: 10,
                elements: vec![
                    Timestamped::new(
                        Timestamp::from_micros(100),
                        StreamElement::Tuple(Tuple::of((2i64, "y"))),
                    ),
                    Timestamped::new(
                        Timestamp::from_micros(101),
                        StreamElement::Tuple(Tuple::of((3i64, "z"))),
                    ),
                ],
            },
            Frame::DataBatch { first_seq: 0, elements: Vec::new() },
            Frame::JoinCluster {
                wire_version: WIRE_VERSION,
                worker: 1,
                ingest_addr: "127.0.0.1:4100".into(),
                sink_addr: "127.0.0.1:4101".into(),
            },
            Frame::ShardMapUpdate {
                worker: 1,
                map: ShardMap { epoch: 3, assignment: vec![0, 1, 0, 1] },
                config: vec![1, 2, 3, 4, 5],
            },
            Frame::ShardMapUpdate {
                worker: 0,
                map: ShardMap { epoch: 0, assignment: vec![0] },
                config: Vec::new(),
            },
            Frame::MigrateState {
                shard: 2,
                side: 1,
                records: vec![
                    (17, Tuple::of((1i64, "a"))),
                    (18, Tuple::of((2i64, "b"))),
                ],
            },
            Frame::MigrateState { shard: 0, side: 0, records: Vec::new() },
            Frame::MigrateStateDone { records: 2 },
            Frame::MigrateCommit { epoch: 4 },
            Frame::BarrierReached { nonce: 0xDEAD_BEEF },
            Frame::Telemetry { payload: vec![2, 0, 0, 0, 7, 7, 7] },
            Frame::Telemetry { payload: Vec::new() },
            Frame::Heartbeat { seq: 12 },
        ]
    }

    #[test]
    fn batch_encoder_matches_whole_frames_and_splits_at_the_byte_cap() {
        let tuple = |i: u64, len: usize| {
            let payload = "x".repeat(len);
            let t = Tuple::of((i as i64, payload.as_str()));
            Timestamped::new(Timestamp::from_micros(i), StreamElement::Tuple(t))
        };
        // Under the cap: one frame, byte-identical to encode_frame_into.
        let small: Vec<_> = (0..6).map(|i| tuple(i, 7)).collect();
        let mut enc = BatchEncoder::new(usize::MAX);
        small.iter().for_each(|e| enc.push(e));
        enc.seal(7);
        let mut whole = Vec::new();
        encode_frame_into(&Frame::DataBatch { first_seq: 7, elements: small.clone() }, &mut whole);
        assert_eq!(enc.bytes(), &whole[..]);
        // Across the cap, with one element over it on its own: several
        // frames, each byte-identical to encode_frame_into on its slice,
        // covering every element once, in order, with consecutive
        // first_seqs.
        let sizes = [20_000, 20_000, 20_000, 20_000, MAX_BATCH_BYTES + 1, 20_000, 20_000];
        let big: Vec<_> = sizes.iter().enumerate().map(|(i, &n)| tuple(i as u64, n)).collect();
        let mut enc = BatchEncoder::new(usize::MAX);
        big.iter().for_each(|e| enc.push(e));
        enc.seal(0);
        let mut next = 0usize;
        for (count, bytes) in enc.frames() {
            let count = count as usize;
            assert!(count >= 1, "progress even when one element exceeds the cap");
            let elements = big[next..next + count].to_vec();
            assert!(count == 1 || bytes.len() - 4 <= MAX_BATCH_BYTES, "frame over the cap");
            let mut want = Vec::new();
            encode_frame_into(&Frame::DataBatch { first_seq: next as u64, elements }, &mut want);
            assert_eq!(bytes, &want[..], "frame at {next}");
            next += count;
        }
        assert_eq!(next, big.len());
        assert!(enc.frames().count() >= 3, "20 kB elements split at the 64 KiB cap");
        assert!(enc.frames().any(|(n, b)| n == 1 && b.len() > MAX_BATCH_BYTES));
        let mut fb = FrameBuffer::new();
        fb.extend(enc.bytes());
        let mut decoded = Vec::new();
        while let Some(f) = fb.next_frame().expect("valid frames") {
            match f {
                Frame::DataBatch { first_seq, elements } => {
                    assert_eq!(first_seq, decoded.len() as u64);
                    decoded.extend(elements);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(decoded, big);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let decoded = decode_frame(&bytes[4..]).expect("decode");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn frame_buffer_reassembles_fragmented_input() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut wire);
        }
        // Feed one byte at a time: every frame must still come out.
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().expect("well-formed stream") {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn raw_framing_preserves_bytes_and_tags() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut wire);
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        let mut rebuilt = Vec::new();
        let mut data_frames = 0;
        while let Some((tag, raw)) = fb.next_raw().expect("well-formed") {
            if raw_is_data(tag) {
                data_frames += 1;
            }
            rebuilt.extend_from_slice(&raw);
        }
        assert_eq!(rebuilt, wire);
        let expected =
            sample_frames().iter().filter(|f| matches!(f, Frame::DataBatch { .. })).count();
        assert_eq!(data_frames, expected);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut fb = FrameBuffer::new();
        fb.extend(&[0xFF; 4]);
        assert!(matches!(fb.next_frame(), Err(WireError::TooLarge { .. })));
        let mut fb = FrameBuffer::new();
        fb.extend(&[0; 4]);
        assert!(matches!(fb.next_frame(), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let payload = &bytes[4..];
            for cut in 0..payload.len() {
                // Either a clean decode error or (for prefixes that form
                // a shorter valid frame) trailing-byte detection at the
                // framing layer — never a panic.
                let _ = decode_frame(&payload[..cut]);
            }
        }
    }

    #[test]
    fn bad_side_and_bad_tag_rejected() {
        let mut bytes = encode_frame(&Frame::Hello {
            stream: 0,
            side: 0,
            wire_version: WIRE_VERSION,
            schema: Schema::of(&[]),
        });
        bytes[9] = 7; // side byte (4 len + 1 tag + 4 stream)
        assert!(decode_frame(&bytes[4..]).is_err());
        assert!(matches!(
            decode_frame(&[99u8]),
            Err(WireError::BadTag { what: "frame", tag: 99 })
        ));
    }
}

//! The source client. [`StreamSender`] pushes one punctuated stream to
//! an ingest server, surviving disconnects by reconnecting with
//! deterministic backoff and resuming from the sequence the server
//! acknowledged in its handshake. [`send_stream`] and [`spawn_source`]
//! drive it over a whole stream known up front.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::time::{Duration, Instant};

use punct_trace::event::TraceKind;
use punct_trace::{SpanStart, TraceLog, TraceSettings, Tracer, LANE_NET_CLIENT};
use punct_types::{Schema, StreamElement, Timestamped};
use stream_sim::Side;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::error::NetError;
use crate::frame::{
    encode_frame, encode_frame_into, BatchEncoder, Frame, FrameBuffer, WIRE_VERSION,
};
use crate::wait::{read_available, wait_readable};

/// How long [`StreamSender::flush`] waits, holding credit with nothing
/// left to write, for an ack before it suspects a dropped tail and
/// re-handshakes.
const LOST_TAIL_PROBE: Duration = Duration::from_millis(250);

/// How a source client connects and paces itself.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Reconnect schedule.
    pub policy: BackoffPolicy,
    /// Seed for the backoff jitter (decorrelates concurrent clients).
    pub seed: u64,
    /// Elements per `DataBatch` frame (bounded above by available
    /// credits); `batch == 1` sends every element in a frame of its own.
    /// A frame also closes at [`MAX_BATCH_BYTES`](crate::frame::MAX_BATCH_BYTES)
    /// of payload.
    pub batch: usize,
    /// How long to wait for `HelloAck` / `FinAck` before treating the
    /// connection as dead.
    pub handshake_timeout: Duration,
    /// Tracing for this client.
    pub trace: TraceSettings,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            policy: BackoffPolicy::default(),
            seed: 0,
            batch: 64,
            handshake_timeout: Duration::from_secs(5),
            trace: TraceSettings::default(),
        }
    }
}

/// What a completed transfer looked like.
#[derive(Debug)]
pub struct SendReport {
    /// Elements the server confirmed (always the full stream length on
    /// success).
    pub acked: u64,
    /// Successful reconnects after the initial connection.
    pub reconnects: u32,
    /// Stream elements written inside `DataBatch` frames (repeats after
    /// a resume count again).
    pub elements_sent: u64,
    /// Bytes written to sockets.
    pub bytes_sent: u64,
    /// Times the credit window closed with elements still unsent.
    pub credit_stalls: u64,
    /// The client's trace events.
    pub trace: TraceLog,
}

/// Sends `elements` as stream `stream` to the ingest server at `addr`:
/// a [`StreamSender`] is pushed every element and then finished, so the
/// stream is delivered exactly once (or the retry budget is spent) when
/// this returns.
pub fn send_stream(
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: &Schema,
    elements: &[Timestamped<StreamElement>],
    opts: &ClientOptions,
) -> Result<SendReport, NetError> {
    let sender = StreamSender::new(addr, stream, side, schema.clone(), opts.clone());
    sender.send_all(elements.iter().cloned())
}

/// Spawns a thread that sends `elements` the way [`send_stream`] does,
/// moving them into the sender rather than cloning them; join the
/// handle for the report. Used by examples and tests that drive several
/// source clients concurrently.
pub fn spawn_source(
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: Schema,
    elements: Vec<Timestamped<StreamElement>>,
    opts: ClientOptions,
) -> std::thread::JoinHandle<Result<SendReport, NetError>> {
    std::thread::Builder::new()
        .name(format!("net-source-{stream}"))
        .spawn(move || StreamSender::new(addr, stream, side, schema, opts).send_all(elements))
        .expect("spawn source client thread")
}

/// The one source client: a persistent sender that accepts elements one
/// at a time over its whole lifetime — the shape the cluster coordinator
/// needs to feed workers while routing decisions happen element by
/// element, and what [`send_stream`] drives over a whole stream.
///
/// Pushed elements are **coalesced**: the sender writes when a full
/// [`ClientOptions::batch`] is unsent and whenever the owner calls
/// [`service`](StreamSender::service), [`flush`](StreamSender::flush) or
/// [`finish`](StreamSender::finish) — never per element, and not for a
/// punctuation either: it rides in the same `DataBatch` as the tuples
/// around it. An owner whose downstream waits on punctuations services
/// its senders often, as the cluster coordinator does on every pass.
/// Nothing in `push` or `service` blocks on the peer.
///
/// Delivery keeps the transport's exactly-once discipline: elements are
/// numbered densely from 0, unacknowledged elements stay buffered, and
/// any disconnect is absorbed by re-handshaking and resuming from the
/// server's acknowledged sequence. [`flush`](StreamSender::flush) blocks
/// until everything pushed so far is *acknowledged* (not merely
/// written), which is what makes it a real barrier: after a successful
/// flush the receiver has forwarded every element downstream. The
/// blocking calls space failed attempts by the backoff schedule; its
/// budget counts consecutive failures that acknowledged nothing new.
///
/// If acks stop while the sender holds credit and has nothing left to
/// write, the tail may have been dropped in transit: after 250 ms the
/// flush re-handshakes, the handshake's `resume_from` reveals exactly
/// what the server is missing, and the sender retransmits it. With zero
/// credit the server owes the next frame, so silence is backpressure
/// and the sender keeps waiting.
pub struct StreamSender {
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: Schema,
    opts: ClientOptions,
    /// Unacknowledged elements; `buffer[i]` carries sequence `base + i`.
    buffer: VecDeque<Timestamped<StreamElement>>,
    /// Sequence of `buffer[0]` == elements already acknowledged.
    base: u64,
    /// Next sequence to write on the current connection.
    sent: u64,
    /// Total elements pushed over the sender's lifetime.
    pushed: u64,
    credits: u32,
    /// The credit window the latest handshake granted.
    window: u32,
    conn: Option<(TcpStream, FrameBuffer)>,
    connected_once: bool,
    reconnects: u32,
    finished: bool,
    /// Spaces failed attempts in `flush` / `finish`; reset whenever the
    /// ack mark advances.
    backoff: Backoff,
    /// Encodes each write's frames, keeping its buffers across writes.
    out: BatchEncoder,
    elements_sent: u64,
    bytes_sent: u64,
    credit_stalls: u64,
    /// The open credit stall, if the window closed with elements unsent.
    stall: Option<SpanStart>,
    tracer: Tracer,
}

impl StreamSender {
    /// A sender for stream `stream` on the ingest server at `addr`. No
    /// I/O happens until the first write falls due.
    pub fn new(
        addr: SocketAddr,
        stream: u32,
        side: Side,
        schema: Schema,
        opts: ClientOptions,
    ) -> StreamSender {
        let backoff = Backoff::new(opts.policy.clone(), opts.seed);
        let out = BatchEncoder::new(opts.batch);
        let mut tracer = Tracer::new(opts.trace);
        tracer.set_lane(LANE_NET_CLIENT);
        StreamSender {
            addr,
            stream,
            side,
            schema,
            opts,
            buffer: VecDeque::new(),
            base: 0,
            sent: 0,
            pushed: 0,
            credits: 0,
            window: 0,
            conn: None,
            connected_once: false,
            reconnects: 0,
            finished: false,
            backoff,
            out,
            elements_sent: 0,
            bytes_sent: 0,
            credit_stalls: 0,
            stall: None,
            tracer,
        }
    }

    /// Total elements pushed so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Elements the server has acknowledged (forwarded downstream).
    pub fn acked(&self) -> u64 {
        self.base
    }

    /// Elements pushed but not yet written on the current connection:
    /// what the credit window (or coalescing) is holding back.
    pub fn backlog(&self) -> u64 {
        self.pushed - self.sent
    }

    /// The credit window the server granted in the latest handshake
    /// (0 before the first connection).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Successful reconnects after the initial connection.
    pub fn reconnects(&self) -> u32 {
        self.reconnects
    }

    /// The socket the sender is waiting on, for an owner that sleeps on
    /// several links at once: it turns readable when acks or credits
    /// arrive. `None` while nothing is unacknowledged (or while
    /// disconnected) — nothing is coming, and [`service`] would not
    /// read it.
    ///
    /// [`service`]: StreamSender::service
    pub fn awaited_socket(&self) -> Option<&TcpStream> {
        let (sock, _) = self.conn.as_ref()?;
        (self.base < self.pushed).then_some(sock)
    }

    /// Appends one element to the stream. Tuples and punctuations alike
    /// coalesce: the sender writes only once a full batch is unsent, and
    /// a punctuation rides in the next batch or the next
    /// [`service`](StreamSender::service) / [`flush`](StreamSender::flush).
    pub fn push(&mut self, element: Timestamped<StreamElement>) -> Result<(), NetError> {
        assert!(!self.finished, "push after finish");
        self.buffer.push_back(element);
        self.pushed += 1;
        // While credits are short the backlog passes many multiples of a
        // batch; asking the socket once per batch keeps that cheap.
        if self.backlog().is_multiple_of(self.opts.batch.max(1) as u64) {
            self.service()
        } else {
            Ok(())
        }
    }

    /// Picks up acks and credits and writes everything the credit window
    /// allows, without blocking. Transient connection failures are
    /// absorbed (unacknowledged elements stay buffered and the next call
    /// reconnects); only non-retryable protocol errors surface.
    pub fn service(&mut self) -> Result<(), NetError> {
        if self.base == self.pushed {
            return Ok(()); // nothing to write, nothing to hear back
        }
        match self.pump(false) {
            Ok(()) => Ok(()),
            Err(e) if e.is_retryable() => {
                self.drop_conn();
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Blocks until every element pushed so far is acknowledged by the
    /// server, reconnecting as needed and re-handshaking when a tail
    /// looks lost (see the type's docs).
    pub fn flush(&mut self) -> Result<(), NetError> {
        let mut last_progress = Instant::now();
        while self.base < self.pushed {
            let before = (self.base, self.sent, self.credits);
            if let Err(e) = self.pump(true) {
                self.retry_after(e)?;
            }
            if (self.base, self.sent, self.credits) != before {
                last_progress = Instant::now();
            } else if self.credits > 0 && last_progress.elapsed() > LOST_TAIL_PROBE {
                // Credit in hand, nothing left to write, no acks: the
                // tail may have been dropped in transit. Re-handshake;
                // the server's resume_from tells us where to resend.
                self.drop_conn();
                last_progress = Instant::now();
            }
        }
        Ok(())
    }

    /// Flushes, then completes the stream with the `Fin`/`FinAck`
    /// exchange; afterwards the server marks the stream finished and the
    /// sender accepts no more pushes.
    pub fn finish(&mut self) -> Result<(), NetError> {
        self.flush()?;
        while let Err(e) = self.try_finish() {
            self.retry_after(e)?;
        }
        self.finished = true;
        Ok(())
    }

    /// Pushes every element, finishes, and reports the transfer.
    fn send_all(
        mut self,
        elements: impl IntoIterator<Item = Timestamped<StreamElement>>,
    ) -> Result<SendReport, NetError> {
        for element in elements {
            self.push(element)?;
        }
        self.finish()?;
        Ok(SendReport {
            acked: self.base,
            reconnects: self.reconnects,
            elements_sent: self.elements_sent,
            bytes_sent: self.bytes_sent,
            credit_stalls: self.credit_stalls,
            trace: self.tracer.take(),
        })
    }

    /// Absorbs a retryable failure: drops the connection and sleeps out
    /// the next backoff delay, or gives up once the budget is spent.
    fn retry_after(&mut self, e: NetError) -> Result<(), NetError> {
        if !e.is_retryable() {
            return Err(e);
        }
        self.drop_conn();
        match self.backoff.next_delay() {
            Some(delay) => {
                std::thread::sleep(delay);
                Ok(())
            }
            None => Err(NetError::RetriesExhausted {
                attempts: self.backoff.attempts(),
                last: e.to_string(),
            }),
        }
    }

    fn try_finish(&mut self) -> Result<(), NetError> {
        self.ensure_conn()?;
        self.write(&encode_frame(&Frame::Fin { count: self.pushed }))?;
        let deadline = Instant::now() + self.opts.handshake_timeout;
        loop {
            let (sock, fb) = self.conn.as_mut().expect("live connection");
            let frame = read_frame(sock, fb, deadline)?;
            if self.on_frame(frame)? {
                return Ok(());
            }
        }
    }

    /// Folds one server frame into the sender's state; true for `FinAck`.
    fn on_frame(&mut self, frame: Frame) -> Result<bool, NetError> {
        match frame {
            Frame::Credit { n } => self.add_credits(n),
            Frame::Ack { up_to } => self.note_acked(up_to),
            Frame::FinAck => return Ok(true),
            Frame::Error { code, message } => return Err(NetError::Protocol { code, message }),
            other => {
                return Err(NetError::Handshake(format!("unexpected server frame: {other:?}")))
            }
        }
        Ok(false)
    }

    /// Drops the acknowledged prefix of the buffer; any advance renews
    /// the retry budget.
    fn note_acked(&mut self, up_to: u64) {
        if up_to > self.base {
            let drop_count = (up_to - self.base).min(self.buffer.len() as u64) as usize;
            self.buffer.drain(..drop_count);
            self.base = up_to;
            self.sent = self.sent.max(up_to);
            self.backoff.reset();
        }
    }

    /// Adds granted credit, ending an open credit stall.
    fn add_credits(&mut self, n: u32) {
        self.credits += n;
        if n > 0 {
            if let Some(span) = self.stall.take() {
                self.tracer.span_end(span, TraceKind::NetStall, 0, u64::from(self.stream), 0);
            }
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.credits = 0;
        // Whatever was written on the dead connection may be lost; the
        // next handshake says where to resume.
        self.sent = self.base;
    }

    /// Writes `bytes` on the live connection, counting them.
    fn write(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let (sock, _) = self.conn.as_mut().expect("live connection");
        sock.write_all(bytes)?;
        self.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    /// (Re)establishes the connection, resuming from the server's
    /// acknowledged sequence.
    fn ensure_conn(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        let mut hello = Vec::with_capacity(128);
        encode_frame_into(
            &Frame::Hello {
                stream: self.stream,
                side: u8::from(self.side == Side::Right),
                wire_version: WIRE_VERSION,
                schema: self.schema.clone(),
            },
            &mut hello,
        );
        sock.write_all(&hello)?;
        self.bytes_sent += hello.len() as u64;
        let mut fb = FrameBuffer::new();
        let deadline = Instant::now() + self.opts.handshake_timeout;
        let (resume_from, credits) = match read_frame(&mut sock, &mut fb, deadline)? {
            Frame::HelloAck { resume_from, credits, wire_version } => {
                if wire_version != WIRE_VERSION {
                    return Err(NetError::Protocol {
                        code: crate::frame::error_code::VERSION_MISMATCH,
                        message: format!(
                            "server speaks wire version {wire_version}, client speaks {WIRE_VERSION}"
                        ),
                    });
                }
                (resume_from, credits)
            }
            Frame::Error { code, message } => return Err(NetError::Protocol { code, message }),
            other => return Err(NetError::Handshake(format!("expected HelloAck, got {other:?}"))),
        };
        if resume_from < self.base || resume_from > self.pushed {
            return Err(NetError::Handshake(format!(
                "server resume point {resume_from} outside [{}, {}]",
                self.base, self.pushed
            )));
        }
        if self.connected_once {
            self.reconnects += 1;
            let attempt = u64::from(self.backoff.attempts());
            self.tracer.instant(TraceKind::NetReconnect, 0, attempt, resume_from);
        }
        self.connected_once = true;
        // Everything below resume_from is implicitly acknowledged.
        self.note_acked(resume_from);
        self.sent = resume_from;
        self.window = credits;
        self.add_credits(credits);
        self.conn = Some((sock, fb));
        Ok(())
    }

    /// Writes the unsent suffix as far as credits allow — `batch`
    /// elements per `DataBatch` frame, all frames in one socket write.
    fn write_allowed(&mut self) -> Result<(), NetError> {
        let unsent_start = (self.sent - self.base) as usize;
        let n = (self.buffer.len() - unsent_start).min(self.credits as usize);
        if n == 0 {
            return Ok(());
        }
        let mut out = std::mem::take(&mut self.out);
        let span = self.tracer.span_start();
        let elements = &self.buffer.make_contiguous()[unsent_start..unsent_start + n];
        elements.iter().for_each(|e| out.push(e));
        out.seal(self.sent);
        for (count, _) in out.frames() {
            self.tracer.instant(TraceKind::NetBatch, 0, u64::from(self.stream), u64::from(count));
        }
        let vt = elements[0].ts.as_micros();
        let bytes = out.bytes();
        self.tracer.span_end(span, TraceKind::NetEncode, vt, bytes.len() as u64, n as u64);
        let written = self.write(bytes);
        out.clear();
        self.out = out;
        written?;
        self.elements_sent += n as u64;
        self.credits -= n as u32;
        self.sent += n as u64;
        if self.credits == 0 && self.backlog() > 0 {
            self.credit_stalls += 1;
            self.stall = Some(self.tracer.span_start());
        }
        Ok(())
    }

    /// Writes what the credit window allows and folds in server frames,
    /// until neither side has anything more for the other. With `wait`,
    /// blocks (woken by the socket, at most 20 ms) for acks/credits when
    /// there is nothing writable; without it, only picks up what is
    /// already readable.
    fn pump(&mut self, wait: bool) -> Result<(), NetError> {
        self.ensure_conn()?;
        loop {
            self.write_allowed()?;
            let (sock, fb) = self.conn.as_mut().expect("live connection");
            if wait {
                wait_readable(&[sock.as_fd()], Duration::from_millis(20))?;
            }
            read_available(sock, fb)?;
            while let Some(frame) = self.conn.as_mut().expect("live connection").1.next_frame()? {
                self.on_frame(frame)?;
            }
            if self.backlog() == 0 || self.credits == 0 {
                return Ok(());
            }
        }
    }
}

/// Blocks until one frame arrives on `sock`, or fails at `deadline`.
fn read_frame(
    sock: &mut TcpStream,
    fb: &mut FrameBuffer,
    deadline: Instant,
) -> Result<Frame, NetError> {
    loop {
        if let Some(f) = fb.next_frame()? {
            return Ok(f);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::TimedOut,
                "timed out waiting for a frame",
            )));
        }
        wait_readable(&[sock.as_fd()], left)?;
        read_available(sock, fb)?;
    }
}

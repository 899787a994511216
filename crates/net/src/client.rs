//! The source client: pushes one punctuated stream to an ingest server,
//! surviving disconnects by reconnecting with deterministic backoff and
//! resuming from the sequence the server acknowledged in its handshake.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use punct_trace::event::TraceKind;
use punct_trace::{TraceLog, TraceSettings, Tracer, LANE_NET_CLIENT};
use punct_types::{Schema, StreamElement, Timestamped};
use stream_sim::Side;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::error::NetError;
use crate::frame::{encode_data_batch_into, encode_frame_into, Frame, FrameBuffer, WIRE_VERSION};
use crate::wait::{read_available, wait_readable};

/// How a source client connects and paces itself.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Reconnect schedule.
    pub policy: BackoffPolicy,
    /// Seed for the backoff jitter (decorrelates concurrent clients).
    pub seed: u64,
    /// Elements encoded per socket write (bounded above by available
    /// credits). With `batch > 1` each write carries one `DataBatch`
    /// frame; `batch == 1` sends plain `Data` frames, reproducing the
    /// per-element wire behavior exactly.
    pub batch: usize,
    /// Payload-byte cap per `DataBatch` frame: a batch whose encoding
    /// would exceed this is split across frames (each still one write),
    /// so frames stay well under [`crate::MAX_FRAME_LEN`] regardless of
    /// tuple width.
    pub max_batch_bytes: usize,
    /// How long to wait for `HelloAck` / `FinAck` before treating the
    /// connection as dead.
    pub handshake_timeout: Duration,
    /// How long to wait for a credit grant while stalled before treating
    /// the connection as dead. `None` (the default) waits indefinitely:
    /// a stall is backpressure — the server grants credit only as the
    /// executor drains — and backpressure is supposed to propagate to
    /// the source, not kill the connection. A genuinely dead peer still
    /// surfaces as a socket error (close/reset) from the drain reads;
    /// set a timeout only if half-open connections (no FIN, no RST)
    /// must also be bounded.
    pub credit_stall_timeout: Option<Duration>,
    /// Tracing for this client.
    pub trace: TraceSettings,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            policy: BackoffPolicy::default(),
            seed: 0,
            batch: 64,
            max_batch_bytes: punct_types::BatchConfig::default().max_bytes,
            handshake_timeout: Duration::from_secs(5),
            credit_stall_timeout: None,
            trace: TraceSettings::default(),
        }
    }
}

impl ClientOptions {
    /// Applies a [`punct_types::BatchConfig`] to the wire batching
    /// knobs: `max_elems` elements per write, `max_bytes` per `DataBatch`
    /// frame. `BatchConfig::per_element()` therefore yields per-element
    /// `Data` frames.
    pub fn with_batch(mut self, batch: punct_types::BatchConfig) -> ClientOptions {
        self.batch = batch.max_elems.max(1);
        self.max_batch_bytes = batch.max_bytes;
        self
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
    /// Stream elements written inside `Data`/`DataBatch` frames (repeats
    /// after a resume count again).
    pub frames_sent: u64,
    /// Bytes written to sockets.
    pub bytes_sent: u64,
    /// Times the client stalled waiting for credit.
    pub credit_stalls: u64,
    /// The client's trace events.
    pub trace: TraceLog,
}

/// Sends `elements` as stream `stream` to the ingest server at `addr`,
/// reconnecting (and resuming from the server's acknowledged sequence)
/// until the whole stream is delivered or the retry budget is spent.
///
/// Delivery is exactly-once from the receiver's point of view: the
/// server's `HelloAck` names the first unreceived sequence, the client
/// resumes precisely there, and the server suppresses anything below it.
pub fn send_stream(
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: &Schema,
    elements: &[Timestamped<StreamElement>],
    opts: &ClientOptions,
) -> Result<SendReport, NetError> {
    send_stream_cancellable(addr, stream, side, schema, elements, opts, &AtomicBool::new(false))
}

/// [`send_stream`] with a cancellation flag (used by tests that kill a
/// client mid-stream to exercise resume).
pub fn send_stream_cancellable(
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: &Schema,
    elements: &[Timestamped<StreamElement>],
    opts: &ClientOptions,
    cancel: &AtomicBool,
) -> Result<SendReport, NetError> {
    let mut tracer = Tracer::new(opts.trace);
    tracer.set_lane(LANE_NET_CLIENT);
    let mut backoff = Backoff::new(opts.policy.clone(), opts.seed);
    let mut report = SendReport {
        acked: 0,
        reconnects: 0,
        frames_sent: 0,
        bytes_sent: 0,
        credit_stalls: 0,
        trace: TraceLog::default(),
    };
    let mut attempt: u32 = 0;
    loop {
        if cancel.load(Ordering::SeqCst) {
            report.trace = tracer.take();
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::Interrupted,
                "cancelled",
            )));
        }
        // The retry budget counts *consecutive non-progressing*
        // failures, not lifetime disconnects: a session that advanced
        // the ack mark (including via the resume point its handshake
        // learned from the previous session's delivery) earns a fresh
        // budget. A long lossy transfer that keeps moving therefore
        // completes, while a peer that accepts connections without ever
        // making progress still exhausts the budget.
        let acked_before = report.acked;
        match session(
            addr, stream, side, schema, elements, opts, attempt, cancel, &mut tracer, &mut report,
        ) {
            Ok(()) => {
                report.trace = tracer.take();
                return Ok(report);
            }
            Err(e) if e.is_retryable() => {
                if report.acked > acked_before {
                    backoff.reset();
                }
                match backoff.next_delay() {
                    Some(delay) => {
                        attempt += 1;
                        std::thread::sleep(delay);
                    }
                    None => {
                        report.trace = tracer.take();
                        return Err(NetError::RetriesExhausted {
                            attempts: backoff.attempts(),
                            last: e.to_string(),
                        });
                    }
                }
            }
            Err(e) => {
                report.trace = tracer.take();
                return Err(e);
            }
        }
    }
}

/// One connection's lifetime: handshake, credit-paced send, Fin/FinAck.
#[allow(clippy::too_many_arguments)]
fn session(
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: &Schema,
    elements: &[Timestamped<StreamElement>],
    opts: &ClientOptions,
    attempt: u32,
    cancel: &AtomicBool,
    tracer: &mut Tracer,
    report: &mut SendReport,
) -> Result<(), NetError> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    let mut fb = FrameBuffer::new();
    let mut conn = Conn { sock: &mut sock, fb: &mut fb };

    // Handshake.
    let mut hello_buf = Vec::with_capacity(128);
    encode_frame_into(
        &Frame::Hello {
            stream,
            side: u8::from(side == Side::Right),
            wire_version: WIRE_VERSION,
            schema: schema.clone(),
        },
        &mut hello_buf,
    );
    conn.sock.write_all(&hello_buf)?;
    report.bytes_sent += hello_buf.len() as u64;
    let (resume_from, mut credits) =
        match conn.read_frame_deadline(opts.handshake_timeout)? {
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
    if resume_from > elements.len() as u64 {
        return Err(NetError::Handshake(format!(
            "server asks to resume from {resume_from} of a {}-element stream",
            elements.len()
        )));
    }
    if attempt > 0 {
        report.reconnects += 1;
        tracer.instant(TraceKind::NetReconnect, 0, attempt as u64, resume_from);
    }
    report.acked = report.acked.max(resume_from);

    // Credit-paced send loop.
    let mut next = resume_from as usize;
    let mut buf = Vec::with_capacity(32 * 1024);
    let mut progress = SessionProgress::default();
    while next < elements.len() {
        if credits == 0 {
            report.credit_stalls += 1;
            let span = tracer.span_start();
            // A stall is backpressure, not failure: wait for credit as
            // long as the socket stays healthy (a dead peer surfaces as
            // an error from the drain reads), bounded only by the
            // optional credit-stall timeout — NOT the handshake timeout,
            // which is far too short for a slow consumer.
            let deadline = opts.credit_stall_timeout.map(|t| Instant::now() + t);
            while credits == 0 {
                if cancel.load(Ordering::SeqCst) {
                    return Err(NetError::Io(std::io::Error::new(
                        ErrorKind::Interrupted,
                        "cancelled",
                    )));
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(NetError::Io(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "no credit grant within the stall timeout",
                    )));
                }
                conn.drain(Some(Duration::from_millis(20)), &mut credits, &mut progress)?;
                progress.check()?;
            }
            tracer.span_end(span, TraceKind::NetStall, 0, stream as u64, 0);
        }
        let n = (elements.len() - next).min(opts.batch).min(credits as usize);
        buf.clear();
        let span = tracer.span_start();
        if opts.batch <= 1 {
            // Per-element mode: plain `Data` frames, byte-identical to
            // the unbatched protocol.
            for (i, el) in elements[next..next + n].iter().enumerate() {
                encode_frame_into(
                    &Frame::Data { seq: (next + i) as u64, element: el.clone() },
                    &mut buf,
                );
            }
        } else {
            // One `DataBatch` frame per `max_batch_bytes` of payload —
            // usually exactly one — all flushed in a single write below.
            let mut off = 0usize;
            while off < n {
                let taken = encode_data_batch_into(
                    (next + off) as u64,
                    &elements[next + off..next + n],
                    opts.max_batch_bytes,
                    &mut buf,
                );
                tracer.instant(TraceKind::NetBatch, 0, stream as u64, taken as u64);
                off += taken;
            }
        }
        tracer.span_end(span, TraceKind::NetEncode, elements[next].ts.as_micros(), buf.len() as u64, n as u64);
        conn.sock.write_all(&buf)?;
        report.frames_sent += n as u64;
        report.bytes_sent += buf.len() as u64;
        credits -= n as u32;
        next += n;
        // Opportunistically pick up credit and ack frames so the
        // server's write side never backs up.
        conn.drain(None, &mut credits, &mut progress)?;
        progress.check()?;
        report.acked = report.acked.max(progress.acked);
    }

    // Fin / FinAck. Sent once everything is *written*; the server's Fin
    // handling acknowledges the tail, so waiting for full acks first
    // would deadlock against its ack batching.
    let mut fin_buf = Vec::with_capacity(16);
    encode_frame_into(&Frame::Fin { count: elements.len() as u64 }, &mut fin_buf);
    conn.sock.write_all(&fin_buf)?;
    report.bytes_sent += fin_buf.len() as u64;
    let deadline = Instant::now() + opts.handshake_timeout;
    while !progress.fin_acked {
        if Instant::now() >= deadline {
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::TimedOut,
                "no FinAck within the timeout",
            )));
        }
        conn.drain(Some(Duration::from_millis(20)), &mut credits, &mut progress)?;
        progress.check()?;
        report.acked = report.acked.max(progress.acked);
    }
    report.acked = report.acked.max(progress.acked);
    Ok(())
}

/// Feedback collected from server→client frames during a session.
#[derive(Debug, Default)]
struct SessionProgress {
    acked: u64,
    fin_acked: bool,
    error: Option<(u16, String)>,
}

impl SessionProgress {
    /// Surfaces a server-reported error as the session's failure.
    fn check(&mut self) -> Result<(), NetError> {
        match self.error.take() {
            Some((code, message)) => Err(NetError::Protocol { code, message }),
            None => Ok(()),
        }
    }
}

struct Conn<'a> {
    sock: &'a mut TcpStream,
    fb: &'a mut FrameBuffer,
}

impl Conn<'_> {
    /// Blocks until one frame arrives, bounded by `deadline`.
    fn read_frame_deadline(&mut self, deadline: Duration) -> Result<Frame, NetError> {
        let end = Instant::now() + deadline;
        loop {
            if let Some(f) = self.fb.next_frame()? {
                return Ok(f);
            }
            let now = Instant::now();
            if now >= end {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "timed out waiting for a frame",
                )));
            }
            wait_readable(&[self.sock.as_fd()], end - now)?;
            read_available(self.sock, self.fb)?;
        }
    }

    /// Reads whatever the server has sent and folds it into the session
    /// state. `wait: None` only picks up what is already queued;
    /// `Some(d)` first blocks up to `d` for the socket to become
    /// readable.
    fn drain(
        &mut self,
        wait: Option<Duration>,
        credits: &mut u32,
        progress: &mut SessionProgress,
    ) -> Result<(), NetError> {
        if let Some(d) = wait {
            wait_readable(&[self.sock.as_fd()], d)?;
        }
        read_available(self.sock, self.fb)?;
        while let Some(frame) = self.fb.next_frame()? {
            match frame {
                Frame::Credit { n } => *credits += n,
                Frame::Ack { up_to } => progress.acked = progress.acked.max(up_to),
                Frame::FinAck => progress.fin_acked = true,
                Frame::Error { code, message } => {
                    progress.error = Some((code, message));
                    return Ok(()); // surfaced by the next check()
                }
                other => {
                    return Err(NetError::Handshake(format!(
                        "unexpected server frame: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// A *persistent incremental* source client: unlike [`send_stream`]
/// (which delivers a complete, known-up-front stream), a `StreamSender`
/// accepts elements one at a time over its whole lifetime — the shape
/// the cluster coordinator needs to feed workers while routing decisions
/// happen element by element.
///
/// Pushed tuples are **coalesced**: the sender writes when a full
/// [`ClientOptions::batch`] is unsent, when a punctuation is pushed
/// (punctuations are what downstream progress waits on), and whenever
/// the owner calls [`service`](StreamSender::service) or
/// [`flush`](StreamSender::flush) — never per element. Nothing in
/// `push` or `service` blocks on the peer.
///
/// Delivery keeps the transport's exactly-once discipline: elements are
/// numbered densely from 0, unacknowledged elements stay buffered, and
/// any disconnect is absorbed by re-handshaking and resuming from the
/// server's acknowledged sequence. [`flush`](StreamSender::flush) blocks
/// until everything pushed so far is *acknowledged* (not merely
/// written), which is what makes it a real barrier: after a successful
/// flush the receiver has forwarded every element downstream. If acks
/// stall (e.g. a fault dropped the tail), the flush forces a reconnect —
/// the handshake's `resume_from` reveals exactly what the server is
/// missing and the sender retransmits it.
pub struct StreamSender {
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: Schema,
    opts: ClientOptions,
    /// Unacknowledged elements; `buffer[i]` carries sequence `base + i`.
    buffer: std::collections::VecDeque<Timestamped<StreamElement>>,
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
    /// Encode buffer, reused across writes.
    out: Vec<u8>,
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
        StreamSender {
            addr,
            stream,
            side,
            schema,
            opts,
            buffer: std::collections::VecDeque::new(),
            base: 0,
            sent: 0,
            pushed: 0,
            credits: 0,
            window: 0,
            conn: None,
            connected_once: false,
            reconnects: 0,
            finished: false,
            out: Vec::with_capacity(4 * 1024),
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

    /// Appends one element to the stream. Tuples coalesce until a full
    /// batch is unsent; a punctuation is written at once, with every
    /// tuple ahead of it.
    pub fn push(&mut self, element: Timestamped<StreamElement>) -> Result<(), NetError> {
        assert!(!self.finished, "push after finish");
        let due = element.item.is_punctuation();
        self.buffer.push_back(element);
        self.pushed += 1;
        // While credits are short the backlog passes many multiples of a
        // batch; asking the socket once per batch keeps that cheap.
        let into_batch = self.backlog() % self.opts.batch.max(1) as u64;
        if due || into_batch == 0 {
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
    /// server. Reconnects (with the configured backoff budget) as needed;
    /// forces a re-handshake when acks stall, so a dropped tail is
    /// detected and retransmitted rather than waited on forever.
    pub fn flush(&mut self) -> Result<(), NetError> {
        let mut backoff = Backoff::new(self.opts.policy.clone(), self.opts.seed);
        // How long to wait for ack progress before suspecting a dropped
        // tail and re-syncing via the handshake. Generous against slow
        // consumers (backpressure stalls release credits eventually and
        // count as progress).
        let ack_probe = Duration::from_millis(250);
        let mut last_progress = Instant::now();
        while self.base < self.pushed {
            let before = (self.base, self.sent, self.credits);
            match self.pump(true) {
                Ok(()) => {}
                Err(e) if e.is_retryable() => {
                    self.drop_conn();
                    match backoff.next_delay() {
                        Some(delay) => std::thread::sleep(delay),
                        None => {
                            return Err(NetError::RetriesExhausted {
                                attempts: backoff.attempts(),
                                last: e.to_string(),
                            })
                        }
                    }
                }
                Err(e) => return Err(e),
            }
            if (self.base, self.sent, self.credits) != before {
                last_progress = Instant::now();
                backoff.reset();
            } else if Instant::now().duration_since(last_progress) > ack_probe {
                // No acks, no credits, nothing left to write: the tail
                // may have been dropped in transit. Re-handshake; the
                // server's resume_from tells us exactly where to resend.
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
        let mut backoff = Backoff::new(self.opts.policy.clone(), self.opts.seed);
        loop {
            match self.try_finish() {
                Ok(()) => {
                    self.finished = true;
                    return Ok(());
                }
                Err(e) if e.is_retryable() => {
                    self.drop_conn();
                    match backoff.next_delay() {
                        Some(delay) => std::thread::sleep(delay),
                        None => {
                            return Err(NetError::RetriesExhausted {
                                attempts: backoff.attempts(),
                                last: e.to_string(),
                            })
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_finish(&mut self) -> Result<(), NetError> {
        self.ensure_conn()?;
        let (sock, _) = self.conn.as_mut().expect("connection just ensured");
        let mut fin_buf = Vec::with_capacity(16);
        encode_frame_into(&Frame::Fin { count: self.pushed }, &mut fin_buf);
        sock.write_all(&fin_buf)?;
        let deadline = Instant::now() + self.opts.handshake_timeout;
        loop {
            let (sock, fb) = self.conn.as_mut().expect("live connection");
            let mut conn = Conn { sock, fb };
            match conn.read_frame_deadline(deadline.saturating_duration_since(Instant::now()))? {
                Frame::FinAck => return Ok(()),
                Frame::Ack { up_to } => self.note_acked(up_to),
                Frame::Credit { n } => self.credits += n,
                Frame::Error { code, message } => {
                    return Err(NetError::Protocol { code, message })
                }
                other => {
                    return Err(NetError::Handshake(format!(
                        "expected FinAck, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Drops the acknowledged prefix of the buffer.
    fn note_acked(&mut self, up_to: u64) {
        if up_to > self.base {
            let drop_count = (up_to - self.base).min(self.buffer.len() as u64) as usize;
            self.buffer.drain(..drop_count);
            self.base = up_to;
            self.sent = self.sent.max(up_to);
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.credits = 0;
        // Whatever was written on the dead connection may be lost; the
        // next handshake says where to resume.
        self.sent = self.base;
    }

    /// (Re)establishes the connection, resuming from the server's
    /// acknowledged sequence.
    fn ensure_conn(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        let mut hello_buf = Vec::with_capacity(128);
        encode_frame_into(
            &Frame::Hello {
                stream: self.stream,
                side: u8::from(self.side == Side::Right),
                wire_version: WIRE_VERSION,
                schema: self.schema.clone(),
            },
            &mut hello_buf,
        );
        sock.write_all(&hello_buf)?;
        let mut fb = FrameBuffer::new();
        let mut conn = Conn { sock: &mut sock, fb: &mut fb };
        let (resume_from, credits) =
            match conn.read_frame_deadline(self.opts.handshake_timeout)? {
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
                Frame::Error { code, message } => {
                    return Err(NetError::Protocol { code, message })
                }
                other => {
                    return Err(NetError::Handshake(format!(
                        "expected HelloAck, got {other:?}"
                    )))
                }
            };
        if resume_from < self.base || resume_from > self.pushed {
            return Err(NetError::Handshake(format!(
                "server resume point {resume_from} outside [{}, {}]",
                self.base, self.pushed
            )));
        }
        // Everything below resume_from is implicitly acknowledged.
        self.note_acked(resume_from);
        self.sent = resume_from;
        self.credits = credits;
        self.window = credits;
        if self.connected_once {
            self.reconnects += 1;
        }
        self.connected_once = true;
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
        self.out.clear();
        let elements = &self.buffer.make_contiguous()[unsent_start..unsent_start + n];
        if self.opts.batch <= 1 {
            for (i, el) in elements.iter().enumerate() {
                encode_frame_into(
                    &Frame::Data { seq: self.sent + i as u64, element: el.clone() },
                    &mut self.out,
                );
            }
        } else {
            let mut off = 0usize;
            while off < n {
                let frame_end = n.min(off + self.opts.batch);
                off += encode_data_batch_into(
                    self.sent + off as u64,
                    &elements[off..frame_end],
                    self.opts.max_batch_bytes,
                    &mut self.out,
                );
            }
        }
        let (sock, _) = self.conn.as_mut().expect("live connection");
        sock.write_all(&self.out)?;
        self.credits -= n as u32;
        self.sent += n as u64;
        Ok(())
    }

    /// Writes what the credit window allows and folds in server frames,
    /// until neither side has anything more for the other. With `wait`,
    /// blocks (woken by the socket, at most 20 ms) for acks/credits when
    /// there is nothing writable; without it, only picks up what is
    /// already readable.
    fn pump(&mut self, wait: bool) -> Result<(), NetError> {
        self.ensure_conn()?;
        let mut progress = SessionProgress::default();
        loop {
            self.write_allowed()?;
            let (sock, fb) = self.conn.as_mut().expect("live connection");
            let mut conn = Conn { sock, fb };
            conn.drain(
                wait.then_some(Duration::from_millis(20)),
                &mut self.credits,
                &mut progress,
            )?;
            progress.check()?;
            self.note_acked(progress.acked);
            if self.backlog() == 0 || self.credits == 0 {
                return Ok(());
            }
        }
    }
}

/// Spawns a thread sending `elements` via [`send_stream`]; join the
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
        .spawn(move || send_stream(addr, stream, side, &schema, &elements, &opts))
        .expect("spawn source client thread")
}

/// Like [`spawn_source`] with a shared cancellation flag.
pub fn spawn_source_cancellable(
    addr: SocketAddr,
    stream: u32,
    side: Side,
    schema: Schema,
    elements: Vec<Timestamped<StreamElement>>,
    opts: ClientOptions,
    cancel: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Result<SendReport, NetError>> {
    std::thread::Builder::new()
        .name(format!("net-source-{stream}"))
        .spawn(move || {
            send_stream_cancellable(addr, stream, side, &schema, &elements, &opts, &cancel)
        })
        .expect("spawn source client thread")
}

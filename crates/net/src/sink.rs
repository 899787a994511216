//! The sink side: a server publishing the join's output stream to TCP
//! subscribers, and a consumer client that collects it fault-tolerantly.
//!
//! The sink retains published history so a subscriber that reconnects
//! asks for `Subscribe { resume_from: <next unseen seq> }` and gets an
//! exact replay of what it missed — the same sequence-number discipline
//! as the ingest side, pointed the other way.
//!
//! By default the *entire* history is retained, which is the right
//! trade for test harnesses, benchmarks, and bounded runs (replay is
//! always possible, memory is bounded by the run). A long-running or
//! continuous deployment must instead call
//! [`SinkServer::truncate_below`] once it knows every consumer has
//! passed a watermark (this protocol has no consumer acks, so the
//! watermark is the caller's knowledge); sequence numbering is
//! unaffected, and a subscriber asking to resume below the truncation
//! point is refused with a `TRUNCATED` error rather than silently
//! handed a gap.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use punct_trace::event::TraceKind;
use punct_trace::{TraceLog, TraceSettings, Tracer, LANE_NET_CLIENT, LANE_NET_SINK};
use punct_types::{StreamElement, Timestamped};

use crate::backoff::{Backoff, BackoffPolicy};
use crate::error::NetError;
use crate::frame::{
    encode_data_batch_into, encode_frame, encode_frame_into, error_code, Frame, FrameBuffer,
    WIRE_VERSION,
};
use crate::wait::{read_available, wait_readable};

/// Sink server configuration.
#[derive(Debug, Clone, Copy)]
pub struct SinkOptions {
    /// Elements per burst written to a subscriber. With `batch > 1`
    /// each burst is sent as `DataBatch` frames; `batch == 1` sends
    /// per-element `Data` frames (the unbatched wire behavior).
    pub batch: usize,
    /// Payload-byte cap per `DataBatch` frame (bursts whose encoding
    /// exceeds it are split across frames).
    pub max_batch_bytes: usize,
    /// Tracing for subscriber handler threads.
    pub trace: TraceSettings,
}

impl Default for SinkOptions {
    fn default() -> SinkOptions {
        SinkOptions {
            batch: 128,
            max_batch_bytes: punct_types::BatchConfig::default().max_bytes,
            trace: TraceSettings::default(),
        }
    }
}

impl SinkOptions {
    /// Applies a [`punct_types::BatchConfig`] to the wire batching knobs.
    pub fn with_batch(mut self, batch: punct_types::BatchConfig) -> SinkOptions {
        self.batch = batch.max_elems.max(1);
        self.max_batch_bytes = batch.max_bytes;
        self
    }
}

/// The retained replay window: `items[i]` holds publish sequence
/// `base + i`. Truncation advances `base` and drops the prefix; total
/// published count (`base + items.len()`) only ever grows.
#[derive(Default)]
struct History {
    base: u64,
    items: Vec<Timestamped<StreamElement>>,
}

impl History {
    fn total(&self) -> u64 {
        self.base + self.items.len() as u64
    }
}

struct SinkShared {
    history: Mutex<History>,
    /// Signalled (with `history` held, so a subscriber between its check
    /// and its wait cannot miss it) on every publish, close and
    /// shutdown: what an idle subscriber handler sleeps on.
    wake: Condvar,
    closed: AtomicBool,
    shutdown: AtomicBool,
    opts: SinkOptions,
    bytes_sent: AtomicU64,
    subscribers: AtomicU64,
    trace: Mutex<TraceLog>,
}

/// A TCP server that publishes the joined output stream (tuples and
/// punctuations, in emission order) to any number of subscribers.
pub struct SinkServer {
    addr: SocketAddr,
    shared: Arc<SinkShared>,
    accept: Option<JoinHandle<()>>,
}

impl SinkServer {
    /// Binds on `127.0.0.1` (ephemeral port).
    pub fn bind(opts: SinkOptions) -> std::io::Result<SinkServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(SinkShared {
            history: Mutex::new(History::default()),
            wake: Condvar::new(),
            closed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            opts,
            bytes_sent: AtomicU64::new(0),
            subscribers: AtomicU64::new(0),
            trace: Mutex::new(TraceLog::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("net-sink-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn sink accept thread");
        Ok(SinkServer { addr, shared, accept: Some(accept) })
    }

    /// The address subscribers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publishes one output element (sequence = publish order).
    pub fn publish(&self, element: Timestamped<StreamElement>) {
        self.shared.history.lock().expect("sink history lock").items.push(element);
        self.shared.wake.notify_all();
    }

    /// Publishes a batch (one wake-up for all of it).
    pub fn publish_batch(&self, batch: Vec<Timestamped<StreamElement>>) {
        self.shared.history.lock().expect("sink history lock").items.extend(batch);
        self.shared.wake.notify_all();
    }

    /// Elements published so far (truncation does not shrink this —
    /// publish sequence numbers are permanent).
    pub fn len(&self) -> usize {
        self.shared.history.lock().expect("sink history lock").total() as usize
    }

    /// True if nothing was published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements currently retained for replay (published minus
    /// truncated).
    pub fn retained(&self) -> usize {
        self.shared.history.lock().expect("sink history lock").items.len()
    }

    /// Frees replay history below `watermark` (clamped to what was
    /// published). Call once every consumer is known to have received
    /// everything below it; a later `Subscribe { resume_from }` below
    /// the watermark is refused with a `TRUNCATED` error, because an
    /// exact replay is no longer possible. Never moves backwards.
    pub fn truncate_below(&self, watermark: u64) {
        let mut h = self.shared.history.lock().expect("sink history lock");
        let new_base = watermark.min(h.total());
        if new_base > h.base {
            let drop_count = (new_base - h.base) as usize;
            h.items.drain(..drop_count);
            h.base = new_base;
        }
    }

    /// Marks the stream complete: subscribers that drain the history get
    /// a `Fin` and their connection closes.
    pub fn close(&self) {
        self.shared.raise(&self.shared.closed);
    }

    /// Bytes written to subscribers so far.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes_sent.load(Ordering::Relaxed)
    }

    /// Subscriber connections accepted so far.
    pub fn subscribers(&self) -> u64 {
        self.shared.subscribers.load(Ordering::Relaxed)
    }

    /// Drains trace events recorded by finished subscriber handlers.
    pub fn take_trace(&self) -> TraceLog {
        std::mem::take(&mut *self.shared.trace.lock().expect("trace lock"))
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(&mut self) {
        self.shared.raise(&self.shared.shutdown);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl SinkShared {
    /// Sets `flag` and wakes every idle subscriber handler. The store
    /// happens under the history lock: a handler checks the flags and
    /// starts waiting under that same lock, so it sees either the flag
    /// or the wake-up.
    fn raise(&self, flag: &AtomicBool) {
        let guard = self.history.lock().expect("sink history lock");
        flag.store(true, Ordering::SeqCst);
        drop(guard);
        self.wake.notify_all();
    }
}

impl Drop for SinkServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<SinkShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, _peer)) => {
                shared.subscribers.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                handlers.push(
                    std::thread::Builder::new()
                        .name("net-sink-conn".into())
                        .spawn(move || {
                            let mut tracer = Tracer::new(conn_shared.opts.trace);
                            tracer.set_lane(LANE_NET_SINK);
                            let _ = serve_subscriber(sock, &conn_shared, &mut tracer);
                            conn_shared
                                .trace
                                .lock()
                                .expect("trace lock")
                                .merge(tracer.take());
                        })
                        .expect("spawn sink handler"),
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn serve_subscriber(
    mut sock: TcpStream,
    shared: &SinkShared,
    tracer: &mut Tracer,
) -> Result<(), NetError> {
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;

    // Wait for the Subscribe frame.
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    let mut cursor: u64 = loop {
        if let Some(frame) = fb.next_frame()? {
            match frame {
                Frame::Subscribe { resume_from, wire_version } => {
                    if wire_version != WIRE_VERSION {
                        let message = format!(
                            "wire version {wire_version}, sink speaks {WIRE_VERSION}"
                        );
                        let err = encode_frame(&Frame::Error {
                            code: error_code::VERSION_MISMATCH,
                            message: message.clone(),
                        });
                        let _ = sock.write_all(&err);
                        return Err(NetError::Protocol {
                            code: error_code::VERSION_MISMATCH,
                            message,
                        });
                    }
                    break resume_from;
                }
                other => {
                    return Err(NetError::Handshake(format!(
                        "expected Subscribe, got {other:?}"
                    )))
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match sock.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => fb.extend(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    };

    // Stream the history from the cursor, following the live tail.
    let mut out = Vec::with_capacity(32 * 1024);
    loop {
        // Copy the next burst out under the lock, sleeping on the
        // condvar while there is none.
        let burst: Vec<Timestamped<StreamElement>> = {
            let mut history = shared.history.lock().expect("sink history lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if cursor < history.base {
                    // The caller truncated past this subscriber's resume
                    // point: an exact replay is impossible, so fail
                    // loudly rather than skip elements.
                    let message = format!(
                        "history truncated to {}, cannot replay from {cursor}",
                        history.base
                    );
                    drop(history);
                    let err = encode_frame(&Frame::Error {
                        code: error_code::TRUNCATED,
                        message: message.clone(),
                    });
                    let _ = sock.write_all(&err);
                    return Err(NetError::Protocol { code: error_code::TRUNCATED, message });
                }
                let start = (cursor - history.base) as usize;
                if start < history.items.len() {
                    let end = history.items.len().min(start + shared.opts.batch.max(1));
                    break history.items[start..end].to_vec();
                }
                if shared.closed.load(Ordering::SeqCst) {
                    // Checked under the lock, after the tail: everything
                    // published before the close has been streamed.
                    let fin = encode_frame(&Frame::Fin { count: history.total() });
                    drop(history);
                    sock.write_all(&fin)?;
                    shared.bytes_sent.fetch_add(fin.len() as u64, Ordering::Relaxed);
                    return Ok(());
                }
                history = shared.wake.wait(history).expect("sink history lock");
            }
        };
        out.clear();
        let span = tracer.span_start();
        let frames = burst.len() as u64;
        let vt = burst[0].ts.as_micros();
        if shared.opts.batch <= 1 {
            for element in burst {
                encode_frame_into(&Frame::Data { seq: cursor, element }, &mut out);
                cursor += 1;
            }
        } else {
            // The burst is consecutive from the cursor, so it maps onto
            // `DataBatch` frames directly (split only by the byte cap).
            let mut off = 0usize;
            while off < burst.len() {
                let taken = encode_data_batch_into(
                    cursor,
                    &burst[off..],
                    shared.opts.max_batch_bytes,
                    &mut out,
                );
                tracer.instant(TraceKind::NetBatch, vt, 0, taken as u64);
                off += taken;
                cursor += taken as u64;
            }
        }
        tracer.span_end(span, TraceKind::NetEncode, vt, out.len() as u64, frames);
        sock.write_all(&out)?;
        shared.bytes_sent.fetch_add(out.len() as u64, Ordering::Relaxed);
    }
}

/// What a sink consumer observed.
#[derive(Debug)]
pub struct SinkReport {
    /// Successful reconnects after the initial connection.
    pub reconnects: u32,
    /// Duplicate `Data` frames suppressed by sequence dedup.
    pub duplicates_suppressed: u64,
    /// The consumer's trace events.
    pub trace: TraceLog,
}

/// Collects the sink's entire output stream over TCP, reconnecting with
/// `policy` (jittered by `seed`) and resuming from the next unseen
/// sequence after any disconnect. Returns once the server's `Fin`
/// confirms the stream is complete.
pub fn collect_all(
    addr: SocketAddr,
    policy: BackoffPolicy,
    seed: u64,
    trace: TraceSettings,
) -> Result<(Vec<Timestamped<StreamElement>>, SinkReport), NetError> {
    let mut tracer = Tracer::new(trace);
    tracer.set_lane(LANE_NET_CLIENT);
    let mut backoff = Backoff::new(policy, seed);
    let mut received: Vec<Timestamped<StreamElement>> = Vec::new();
    let mut report = SinkReport { reconnects: 0, duplicates_suppressed: 0, trace: TraceLog::default() };
    let mut attempt: u32 = 0;
    loop {
        // As on the ingest side, the retry budget counts consecutive
        // non-progressing failures: a session that received anything
        // new earns a fresh budget, so a long lossy subscription that
        // keeps moving completes instead of exhausting its retries.
        let received_before = received.len();
        match consume_session(addr, &mut received, &mut report, attempt, &mut tracer) {
            Ok(()) => {
                report.trace = tracer.take();
                return Ok((received, report));
            }
            Err(e) if e.is_retryable() => {
                if received.len() > received_before {
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

/// Folds one received element into the collected stream with the sink's
/// sequence discipline: below the next expected sequence is a duplicate
/// (suppressed, counted), above it is a gap (the in-order TCP replay
/// should make that impossible; recover by resubscribing), exactly at it
/// is appended.
fn accept_element(
    seq: u64,
    element: Timestamped<StreamElement>,
    received: &mut Vec<Timestamped<StreamElement>>,
    report: &mut SinkReport,
) -> Result<(), NetError> {
    let next = received.len() as u64;
    if seq < next {
        report.duplicates_suppressed += 1;
    } else if seq > next {
        return Err(NetError::Io(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("sink gap: got seq {seq}, expected {next}"),
        )));
    } else {
        received.push(element);
    }
    Ok(())
}

/// A *streaming* sink consumer: unlike [`collect_all`] (which blocks
/// until `Fin`), a `SinkSubscriber` hands elements to the caller as they
/// arrive, so a long-lived consumer — the cluster coordinator pulling
/// worker outputs while the workers are still joining — can interleave
/// consumption with other work.
///
/// The exactly-once discipline matches `collect_all`: the subscriber
/// resumes from its next unseen sequence after any disconnect and
/// suppresses duplicates per element, so the delivered stream is exactly
/// the sink's publish order with nothing lost or repeated.
pub struct SinkSubscriber {
    addr: SocketAddr,
    conn: Option<(TcpStream, FrameBuffer)>,
    pending: std::collections::VecDeque<Timestamped<StreamElement>>,
    /// Next unseen publish sequence == elements delivered so far.
    received: u64,
    /// Set once a `Fin` confirmed the stream complete.
    finished: bool,
    connected_once: bool,
    reconnects: u32,
    duplicates_suppressed: u64,
}

impl SinkSubscriber {
    /// A subscriber for the sink at `addr`. No I/O happens until the
    /// first [`next`](SinkSubscriber::next) call.
    pub fn new(addr: SocketAddr) -> SinkSubscriber {
        SinkSubscriber {
            addr,
            conn: None,
            pending: std::collections::VecDeque::new(),
            received: 0,
            finished: false,
            connected_once: false,
            reconnects: 0,
            duplicates_suppressed: 0,
        }
    }

    /// Elements delivered so far (the next unseen sequence).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True once the server's `Fin` confirmed the stream complete and
    /// every element was delivered.
    pub fn finished(&self) -> bool {
        self.finished && self.pending.is_empty()
    }

    /// Successful reconnects after the initial connection.
    pub fn reconnects(&self) -> u32 {
        self.reconnects
    }

    /// The next element, waiting up to `timeout` for one to arrive.
    /// `Ok(None)` means no element within the timeout (or the stream is
    /// finished — check [`finished`](SinkSubscriber::finished)).
    /// Disconnects are absorbed by resubscribing from the next unseen
    /// sequence; only non-retryable protocol errors surface.
    pub fn next(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Timestamped<StreamElement>>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(e) = self.pending.pop_front() {
                self.received += 1;
                return Ok(Some(e));
            }
            if self.finished {
                return Ok(None);
            }
            match self.poll(deadline) {
                Ok(()) => {}
                Err(e) if e.is_retryable() => {
                    // Drop the connection; the next poll resubscribes
                    // from the next unseen sequence.
                    self.conn = None;
                }
                Err(e) => return Err(e),
            }
            if self.pending.is_empty() && !self.finished && Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// The live subscription's socket, for an owner that waits on
    /// several subscribers at once: it turns readable when the sink has
    /// published more.
    pub fn socket(&self) -> Option<&TcpStream> {
        self.conn.as_ref().map(|(sock, _)| sock)
    }

    /// Ensures a live subscription and folds whatever the server sent
    /// into `pending`, blocking (woken by the socket) at most until
    /// `deadline` for the first byte. A deadline already past only picks
    /// up what is queued.
    fn poll(&mut self, deadline: Instant) -> Result<(), NetError> {
        if self.conn.is_none() {
            let mut sock = TcpStream::connect(self.addr)?;
            sock.set_nodelay(true)?;
            // Resume from past the elements already queued for the
            // caller, not just the delivered ones.
            let resume_from = self.received + self.pending.len() as u64;
            sock.write_all(&encode_frame(&Frame::Subscribe {
                resume_from,
                wire_version: WIRE_VERSION,
            }))?;
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.conn = Some((sock, FrameBuffer::new()));
        }
        let (sock, fb) = self.conn.as_mut().expect("connection just ensured");
        loop {
            let read = read_available(sock, fb)?;
            while let Some(frame) = fb.next_frame()? {
                let (first_seq, elements) = match frame {
                    Frame::Data { seq, element } => (seq, vec![element]),
                    Frame::DataBatch { first_seq, elements } => (first_seq, elements),
                    Frame::Fin { count } => {
                        let have = self.received + self.pending.len() as u64;
                        if have == count {
                            self.finished = true;
                            self.conn = None;
                            return Ok(());
                        }
                        return Err(NetError::Io(std::io::Error::new(
                            ErrorKind::InvalidData,
                            format!("sink Fin at {count} with {have} received"),
                        )));
                    }
                    Frame::Error { code, message } => {
                        return Err(NetError::Protocol { code, message })
                    }
                    other => {
                        return Err(NetError::Handshake(format!(
                            "unexpected sink frame: {other:?}"
                        )))
                    }
                };
                for (i, element) in elements.into_iter().enumerate() {
                    let seq = first_seq + i as u64;
                    let queued = self.received + self.pending.len() as u64;
                    if seq < queued {
                        self.duplicates_suppressed += 1;
                    } else if seq > queued {
                        return Err(NetError::Io(std::io::Error::new(
                            ErrorKind::InvalidData,
                            format!("sink gap: got seq {seq}, expected {queued}"),
                        )));
                    } else {
                        self.pending.push_back(element);
                    }
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if read > 0 || remaining.is_zero() {
                return Ok(());
            }
            wait_readable(&[sock.as_fd()], remaining)?;
        }
    }
}

fn consume_session(
    addr: SocketAddr,
    received: &mut Vec<Timestamped<StreamElement>>,
    report: &mut SinkReport,
    attempt: u32,
    tracer: &mut Tracer,
) -> Result<(), NetError> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;
    let resume_from = received.len() as u64;
    sock.write_all(&encode_frame(&Frame::Subscribe {
        resume_from,
        wire_version: WIRE_VERSION,
    }))?;
    if attempt > 0 {
        report.reconnects += 1;
        tracer.instant(TraceKind::NetReconnect, 0, attempt as u64, resume_from);
    }

    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 16 * 1024];
    let idle_limit = Duration::from_secs(10);
    let mut last_progress = Instant::now();
    loop {
        let span = tracer.span_start();
        let buffered = fb.buffered();
        if let Some(frame) = fb.next_frame()? {
            let consumed = (buffered - fb.buffered()) as u64;
            tracer.span_end(span, TraceKind::NetDecode, 0, consumed, 1);
            last_progress = Instant::now();
            match frame {
                Frame::Data { seq, element } => {
                    accept_element(seq, element, received, report)?;
                }
                Frame::DataBatch { first_seq, elements } => {
                    for (i, element) in elements.into_iter().enumerate() {
                        accept_element(first_seq + i as u64, element, received, report)?;
                    }
                }
                Frame::Fin { count } => {
                    if received.len() as u64 == count {
                        return Ok(());
                    }
                    return Err(NetError::Io(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("sink Fin at {count} with {} received", received.len()),
                    )));
                }
                Frame::Error { code, message } => {
                    return Err(NetError::Protocol { code, message })
                }
                other => {
                    return Err(NetError::Handshake(format!(
                        "unexpected sink frame: {other:?}"
                    )))
                }
            }
            continue;
        }
        if Instant::now().duration_since(last_progress) > idle_limit {
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::TimedOut,
                "sink subscription idle too long",
            )));
        }
        match sock.read(&mut buf) {
            Ok(0) => {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "sink server closed mid-stream",
                )))
            }
            Ok(n) => fb.extend(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

//! The sink side: a server publishing the join's output stream to TCP
//! subscribers, and the one consumer, [`SinkSubscriber`], which reads it
//! fault-tolerantly ([`collect_all`] reads one to the end).
//!
//! The sink retains published history so a subscriber that reconnects
//! asks for `Subscribe { resume_from: <next unseen seq> }` and gets a
//! replay of what it missed — the same sequence-number discipline as the
//! ingest side, pointed the other way.
//!
//! **The history is encoded frames.** Every element is encoded once,
//! when it is published, into the `DataBatch` frames subscribers are
//! sent: a [`BatchEncoder`] fills frames up to `batch` elements or
//! [`MAX_BATCH_BYTES`](crate::frame::MAX_BATCH_BYTES) of payload, and
//! [`SinkServer::append`] numbers them — sequence numbers are assigned
//! there, so a sink has one sequence however many encoders feed it — and
//! keeps each as one shared byte buffer. `publish` and
//! `publish_batch` go through the sink's own encoder; a producer that
//! holds its outputs as something other than elements (the cluster
//! worker encodes join results straight from the operator's buffer)
//! fills an encoder of its own. A subscriber handler takes handles to
//! the frames it has not sent under the history lock and writes their
//! bytes outside it, one write per wake-up; it never clones or encodes
//! an element.
//!
//! **Replay is per frame.** A `Subscribe { resume_from }` that falls
//! inside a retained frame is sent that whole frame, so the subscriber
//! sees elements below `resume_from` again. [`SinkSubscriber`] numbers
//! what it receives and drops anything below its next expected
//! sequence, so the stream it delivers is still exact.
//!
//! **Who truncates.** Without truncation the entire history is
//! retained, which is the right trade for test harnesses and bounded
//! runs (replay is always possible, memory is bounded by the run).
//! Anything long-running calls [`SinkServer::truncate_below`] once it
//! knows every consumer has passed a watermark — this protocol has no
//! consumer acks, so the watermark is the caller's knowledge. The
//! cluster worker truncates whenever its coordinator, the sink's only
//! subscriber, acknowledges what it has received. Truncation drops whole
//! frames that end at or below the watermark; sequence numbering is
//! unaffected, and a subscriber asking to resume below the first
//! retained frame is refused with a `TRUNCATED` error rather than
//! silently handed a gap.

use std::borrow::Borrow;
use std::collections::VecDeque;
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
use crate::frame::{encode_frame, error_code, BatchEncoder, Frame, FrameBuffer, WIRE_VERSION};
use crate::wait::{accept_ready, read_available, wait_readable};

/// Sink server configuration.
#[derive(Debug, Clone, Copy)]
pub struct SinkOptions {
    /// Elements per `DataBatch` frame written to a subscriber;
    /// `batch == 1` sends every element in a frame of its own.
    pub batch: usize,
    /// Tracing for subscriber handler threads.
    pub trace: TraceSettings,
}

impl Default for SinkOptions {
    fn default() -> SinkOptions {
        SinkOptions {
            batch: 128,
            trace: TraceSettings::default(),
        }
    }
}

/// Most frame bytes a subscriber handler writes per wake-up (it always
/// writes at least one frame).
const WRITE_CAP: usize = 64 * 1024;

/// One retained data frame: the encoded elements `first_seq..end()`.
struct EncodedFrame {
    first_seq: u64,
    count: u32,
    bytes: Arc<[u8]>,
}

impl EncodedFrame {
    fn end(&self) -> u64 {
        self.first_seq + u64::from(self.count)
    }
}

/// The retained replay window: consecutive frames, oldest first.
/// Truncation drops frames from the front; the published count only
/// ever grows.
#[derive(Default)]
struct History {
    frames: VecDeque<EncodedFrame>,
    /// Elements published so far: the sequence the next one gets.
    total: u64,
}

impl History {
    /// The first sequence still retained.
    fn base(&self) -> u64 {
        self.frames.front().map_or(self.total, |f| f.first_seq)
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
    /// The encoder behind `publish` and `publish_batch`.
    encoder: Mutex<BatchEncoder>,
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
        let encoder = Mutex::new(BatchEncoder::new(opts.batch));
        Ok(SinkServer { addr, shared, encoder, accept: Some(accept) })
    }

    /// The address subscribers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An encoder that frames elements the way this sink's options say,
    /// for [`append`](SinkServer::append).
    pub fn encoder(&self) -> BatchEncoder {
        BatchEncoder::new(self.shared.opts.batch)
    }

    /// Publishes one output element (sequence = publish order).
    pub fn publish(&self, element: impl Borrow<Timestamped<StreamElement>>) {
        self.publish_batch(std::slice::from_ref(element.borrow()));
    }

    /// Publishes a batch (one wake-up for all of it).
    pub fn publish_batch(&self, batch: &[Timestamped<StreamElement>]) {
        let mut encoder = self.encoder.lock().expect("sink encoder lock");
        for element in batch {
            encoder.push(element);
        }
        self.append(&mut encoder);
    }

    /// Publishes everything `encoder` holds, in the order it was encoded
    /// (one wake-up for all of it), and leaves the encoder empty: the
    /// frames get the next sequence numbers and are retained as they
    /// are, each in one shared buffer.
    pub fn append(&self, encoder: &mut BatchEncoder) {
        if encoder.is_empty() {
            return;
        }
        let mut history = self.shared.history.lock().expect("sink history lock");
        encoder.seal(history.total);
        for (count, frame) in encoder.frames() {
            let first_seq = history.total;
            history.frames.push_back(EncodedFrame { first_seq, count, bytes: Arc::from(frame) });
            history.total += u64::from(count);
        }
        drop(history);
        self.shared.wake.notify_all();
        encoder.clear();
    }

    /// Elements published so far (truncation does not shrink this —
    /// publish sequence numbers are permanent).
    pub fn len(&self) -> usize {
        self.shared.history.lock().expect("sink history lock").total as usize
    }

    /// True if nothing was published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements currently retained for replay (published minus
    /// truncated).
    pub fn retained(&self) -> usize {
        let h = self.shared.history.lock().expect("sink history lock");
        (h.total - h.base()) as usize
    }

    /// Frees the replay history's frames that end at or below
    /// `watermark`; the frame holding the watermark, if any, stays whole.
    /// Call once every consumer is known to have received everything
    /// below it; a later `Subscribe { resume_from }` below the first
    /// retained frame is refused with a `TRUNCATED` error, because an
    /// exact replay is no longer possible. Never moves backwards.
    pub fn truncate_below(&self, watermark: u64) {
        let mut h = self.shared.history.lock().expect("sink history lock");
        while h.frames.front().is_some_and(|f| f.end() <= watermark) {
            h.frames.pop_front();
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
        match accept_ready(&listener) {
            Ok(Some(sock)) => {
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
            Ok(None) => {}
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

    // Stream the history from the frame holding the cursor on, following
    // the live tail: handles to the next frames are taken under the
    // lock, their bytes are written outside it.
    let mut burst: Vec<Arc<[u8]>> = Vec::new();
    let mut out = Vec::with_capacity(WRITE_CAP);
    loop {
        let elements = {
            let mut history = shared.history.lock().expect("sink history lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                let base = history.base();
                if cursor < base {
                    // The caller truncated past this subscriber's resume
                    // point: an exact replay is impossible, so fail
                    // loudly rather than skip elements.
                    let message =
                        format!("history truncated to {base}, cannot replay from {cursor}");
                    drop(history);
                    let err = encode_frame(&Frame::Error {
                        code: error_code::TRUNCATED,
                        message: message.clone(),
                    });
                    let _ = sock.write_all(&err);
                    return Err(NetError::Protocol { code: error_code::TRUNCATED, message });
                }
                let from = history.frames.partition_point(|f| f.end() <= cursor);
                if from < history.frames.len() {
                    let (first, mut bytes) = (cursor, 0);
                    for frame in history.frames.range(from..) {
                        if bytes >= WRITE_CAP {
                            break;
                        }
                        bytes += frame.bytes.len();
                        cursor = frame.end();
                        burst.push(Arc::clone(&frame.bytes));
                    }
                    break cursor - first;
                }
                if shared.closed.load(Ordering::SeqCst) {
                    // Checked under the lock, after the tail: everything
                    // published before the close has been streamed.
                    let fin = encode_frame(&Frame::Fin { count: history.total });
                    drop(history);
                    sock.write_all(&fin)?;
                    shared.bytes_sent.fetch_add(fin.len() as u64, Ordering::Relaxed);
                    return Ok(());
                }
                history = shared.wake.wait(history).expect("sink history lock");
            }
        };
        out.clear();
        tracer.instant(TraceKind::NetBatch, 0, burst.len() as u64, elements);
        for frame in burst.drain(..) {
            out.extend_from_slice(&frame);
        }
        sock.write_all(&out)?;
        shared.bytes_sent.fetch_add(out.len() as u64, Ordering::Relaxed);
    }
}

/// What a sink consumer observed.
#[derive(Debug)]
pub struct SinkReport {
    /// Successful reconnects after the initial connection.
    pub reconnects: u32,
    /// Duplicate elements suppressed by sequence dedup.
    pub duplicates_suppressed: u64,
    /// The consumer's trace events.
    pub trace: TraceLog,
}

/// Collects the sink's entire output stream over TCP: a
/// [`SinkSubscriber`] whose failed attempts follow `policy` (jittered by
/// `seed`) is read until the server's `Fin` confirms the stream
/// complete. Gives up once `policy`'s budget of consecutive failures
/// that received nothing new is spent; a quiet sink is not a failure.
pub fn collect_all(
    addr: SocketAddr,
    policy: BackoffPolicy,
    seed: u64,
    trace: TraceSettings,
) -> Result<(Vec<Timestamped<StreamElement>>, SinkReport), NetError> {
    let mut sub = SinkSubscriber::with_policy(addr, policy, seed, trace);
    let mut received = Vec::new();
    while !sub.finished() {
        sub.next_run(Duration::from_secs(1), &mut received)?;
    }
    let report = SinkReport {
        reconnects: sub.reconnects,
        duplicates_suppressed: sub.duplicates_suppressed,
        trace: sub.tracer.take(),
    };
    Ok((received, report))
}

/// The one sink consumer: hands elements to the caller as they arrive,
/// so a long-lived consumer — the cluster coordinator pulling worker
/// outputs while the workers are still joining — can interleave
/// consumption with other work; [`collect_all`] reads one to the end.
///
/// The subscriber resumes from its next unseen sequence after any
/// disconnect and suppresses duplicates per element, so the delivered
/// stream is exactly the sink's publish order with nothing lost or
/// repeated. Failed subscribe attempts (a refused connect, a connection
/// closed under it) are spaced by the backoff schedule: a caller's
/// timeout bounds the wait for the next attempt, it does not spin on a
/// dead sink.
pub struct SinkSubscriber {
    addr: SocketAddr,
    conn: Option<(TcpStream, FrameBuffer)>,
    pending: VecDeque<Timestamped<StreamElement>>,
    /// Next unseen publish sequence == elements delivered so far.
    received: u64,
    /// Set once a `Fin` confirmed the stream complete.
    finished: bool,
    connected_once: bool,
    reconnects: u32,
    duplicates_suppressed: u64,
    /// Spaces failed attempts; reset whenever a new element arrives.
    backoff: Backoff,
    /// When the attempt after the last failure is due.
    retry_at: Option<Instant>,
    tracer: Tracer,
}

impl SinkSubscriber {
    /// A subscriber for the sink at `addr` that never gives up: failures
    /// are absorbed at the default schedule's pace, and the owner
    /// decides when a sink is lost. No I/O happens until the first
    /// [`next`](SinkSubscriber::next) call.
    pub fn new(addr: SocketAddr) -> SinkSubscriber {
        let policy = BackoffPolicy { max_attempts: u32::MAX, ..BackoffPolicy::default() };
        SinkSubscriber::with_policy(addr, policy, 0, TraceSettings::default())
    }

    fn with_policy(
        addr: SocketAddr,
        policy: BackoffPolicy,
        seed: u64,
        trace: TraceSettings,
    ) -> SinkSubscriber {
        let mut tracer = Tracer::new(trace);
        tracer.set_lane(LANE_NET_CLIENT);
        SinkSubscriber {
            addr,
            conn: None,
            pending: VecDeque::new(),
            received: 0,
            finished: false,
            connected_once: false,
            reconnects: 0,
            duplicates_suppressed: 0,
            backoff: Backoff::new(policy, seed),
            retry_at: None,
            tracer,
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
    /// sequence once the backoff delay has passed; only non-retryable
    /// protocol errors and a spent retry budget surface. The clock is
    /// read only when nothing is queued: draining a received burst costs
    /// no time calls.
    pub fn next(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Timestamped<StreamElement>>, NetError> {
        let mut deadline = None;
        loop {
            if let Some(e) = self.pending.pop_front() {
                self.received += 1;
                return Ok(Some(e));
            }
            if self.finished {
                return Ok(None);
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            if let Err(e) = self.poll(deadline) {
                if !e.is_retryable() {
                    return Err(e);
                }
                // Drop the connection; a later poll resubscribes from
                // the next unseen sequence.
                self.conn = None;
                let Some(delay) = self.backoff.next_delay() else {
                    return Err(NetError::RetriesExhausted {
                        attempts: self.backoff.attempts(),
                        last: e.to_string(),
                    });
                };
                self.retry_at = Some(Instant::now() + delay);
            }
            if self.pending.is_empty() && !self.finished && Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// The next element and every one queued behind it, appended to
    /// `out` in one move; returns how many. Waits as
    /// [`next`](SinkSubscriber::next) does, and only when nothing is
    /// queued: 0 means nothing arrived within `timeout` (or the stream is
    /// finished). A consumer that handles elements in runs pays the
    /// subscriber once per burst, not once per element.
    pub fn next_run(
        &mut self,
        timeout: Duration,
        out: &mut Vec<Timestamped<StreamElement>>,
    ) -> Result<usize, NetError> {
        let Some(first) = self.next(timeout)? else { return Ok(0) };
        out.push(first);
        // Through a `Vec` the move is one copy, and the queue keeps its
        // buffer for the next burst.
        let mut queued = Vec::from(std::mem::take(&mut self.pending));
        let n = 1 + queued.len();
        out.append(&mut queued);
        self.pending = queued.into();
        self.received += n as u64 - 1;
        Ok(n)
    }

    /// The live subscription's socket, for an owner that waits on
    /// several subscribers at once: it turns readable when the sink has
    /// published more.
    pub fn socket(&self) -> Option<&TcpStream> {
        self.conn.as_ref().map(|(sock, _)| sock)
    }

    /// Subscribes from past the elements already queued for the caller,
    /// not just the delivered ones.
    fn subscribe(&mut self) -> Result<(), NetError> {
        let mut sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        let resume_from = self.received + self.pending.len() as u64;
        sock.write_all(&encode_frame(&Frame::Subscribe {
            resume_from,
            wire_version: WIRE_VERSION,
        }))?;
        if self.connected_once {
            self.reconnects += 1;
            let attempt = u64::from(self.backoff.attempts());
            self.tracer.instant(TraceKind::NetReconnect, 0, attempt, resume_from);
        }
        self.connected_once = true;
        self.conn = Some((sock, FrameBuffer::new()));
        Ok(())
    }

    /// Ensures a live subscription and folds whatever the server sent
    /// into `pending`, blocking (woken by the socket) at most until
    /// `deadline` for the first byte. A deadline already past only picks
    /// up what is queued. After a failure, waits out the backoff delay
    /// first, as far as `deadline` allows.
    fn poll(&mut self, deadline: Instant) -> Result<(), NetError> {
        if self.conn.is_none() {
            if let Some(at) = self.retry_at {
                std::thread::sleep(at.min(deadline).saturating_duration_since(Instant::now()));
                if at > deadline {
                    return Ok(());
                }
            }
            self.subscribe()?;
        }
        let (sock, fb) = self.conn.as_mut().expect("connection just ensured");
        loop {
            let read = read_available(sock, fb)?;
            loop {
                let span = self.tracer.span_start();
                let buffered = fb.buffered();
                let Some(frame) = fb.next_frame()? else { break };
                let consumed = (buffered - fb.buffered()) as u64;
                self.tracer.span_end(span, TraceKind::NetDecode, 0, consumed, 1);
                let (first_seq, mut elements) = match frame {
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
                // A frame's sequences are consecutive: what lies below the
                // next unseen sequence is a duplicate prefix (a resume
                // inside a frame), and a gap can only open at its start.
                let queued = self.received + self.pending.len() as u64;
                if first_seq > queued {
                    return Err(NetError::Io(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("sink gap: got seq {first_seq}, expected {queued}"),
                    )));
                }
                let duplicates = (queued - first_seq).min(elements.len() as u64);
                self.duplicates_suppressed += duplicates;
                elements.drain(..duplicates as usize);
                if !elements.is_empty() {
                    self.backoff.reset();
                    self.pending.extend(elements);
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

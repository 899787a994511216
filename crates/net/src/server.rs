//! The TCP ingest server: accepts source clients, enforces the resume
//! and credit protocols, and feeds received elements into one bounded
//! channel for the executor.
//!
//! # Exactly-once delivery
//!
//! Each stream has one persistent `next_seq` counter that outlives
//! connections. The handshake tells a (re)connecting client to resume
//! from exactly there, so nothing the server already forwarded is ever
//! forwarded again; an element below `next_seq` is a duplicate and is
//! suppressed (it still earns credit, so a resuming client cannot
//! starve), and a frame starting above it is a gap — the server rejects
//! the connection with a `SEQUENCE_GAP` error, forcing the client back
//! through the handshake. Tuples and punctuations share the sequence,
//! so the exactly-once guarantee covers punctuations — which is what
//! keeps downstream purge decisions sound.
//!
//! One connection is the stream's *single writer* at a time: every
//! handshake bumps the stream's connection epoch, and a handler whose
//! epoch is no longer current is rejected with `SUPERSEDED` before it
//! can forward anything. The check→forward→advance critical section is
//! additionally serialized under a per-stream lock (with the sequence
//! advance conditional on still being at the forwarded seq), so even a
//! handler already blocked mid-forward when its replacement handshakes
//! cannot deliver an element twice or move the sequence backwards.
//!
//! # Backpressure
//!
//! Credits are granted only as elements are accepted by the bounded
//! downstream channel. When the executor falls behind, the channel
//! fills, the handler blocks (recorded as a [`TraceKind::NetStall`]
//! span), grants stop, and the client runs out of credits and stalls —
//! backpressure propagates socket-to-socket with no unbounded queue
//! anywhere.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use punct_trace::{TraceLog, TraceSettings, Tracer, LANE_NET_INGEST};
use punct_trace::event::TraceKind;
use punct_types::{StreamElement, Timestamped};
use stream_sim::Side;

use crate::error::NetError;
use crate::frame::{encode_frame, error_code, Frame, FrameBuffer, WIRE_VERSION};
use crate::wait::{accept_ready, wait_readable};

/// How the ingest server paces its clients.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Credits granted in the handshake (the client's initial window,
    /// in elements).
    pub initial_credits: u32,
    /// The server acknowledges and re-grants credit after this many
    /// received elements — or sooner, whenever a connection's socket
    /// runs dry with anything unacknowledged.
    pub ack_every: u32,
    /// Capacity of the bounded channel feeding the executor.
    pub channel_capacity: usize,
    /// Tracing for the handler threads.
    pub trace: TraceSettings,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            initial_credits: 256,
            ack_every: 64,
            channel_capacity: 1024,
            trace: TraceSettings::default(),
        }
    }
}

/// Live counters for an ingest server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Connections accepted (including reconnects).
    pub connections: u64,
    /// Stream elements received (each `DataBatch` element counts once).
    pub frames_received: u64,
    /// `DataBatch` frames received: `frames_received` over this is the
    /// mean wire batch.
    pub data_frames: u64,
    /// Payload bytes received off sockets.
    pub bytes_received: u64,
    /// Duplicate elements suppressed by sequence dedup.
    pub duplicates_suppressed: u64,
    /// Times a handler blocked on the full downstream channel.
    pub stalls: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames_received: AtomicU64,
    data_frames: AtomicU64,
    bytes_received: AtomicU64,
    duplicates_suppressed: AtomicU64,
    stalls: AtomicU64,
}

/// Per-stream state that must survive reconnects.
struct StreamSlot {
    side: Side,
    state: Mutex<StreamState>,
    /// Serializes the check→forward→advance critical section across
    /// handler threads. A stale handler racing a reconnect (its client
    /// already gave up on it) must not interleave with the live one:
    /// without this lock two handlers could both read `next_seq == N`,
    /// both forward element `N`, and deliver a tuple or punctuation
    /// twice downstream. Held while blocked on the full channel, so a
    /// superseding handler waits for the in-flight element rather than
    /// re-forwarding it.
    forward: Mutex<()>,
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamState {
    /// The next sequence number this stream expects — also the count of
    /// elements already forwarded downstream.
    next_seq: u64,
    /// Ownership token: bumped by every successful handshake, so each
    /// connection knows whether it is still the stream's single writer.
    epoch: u64,
    /// Set once a matching `Fin` arrived.
    finished: bool,
}

struct Shared {
    streams: Vec<StreamSlot>,
    opts: IngestOptions,
    counters: Counters,
    shutdown: AtomicBool,
    trace: Mutex<TraceLog>,
}

/// One message from the ingest server to the executor pipeline: a
/// `DataBatch` frame forwards its whole decoded element vector as **one**
/// message — the elements move decode → channel → router staging without
/// per-element channel traffic or copies.
#[derive(Debug)]
pub enum IngestMsg {
    /// The fresh (non-duplicate) elements of one `DataBatch` frame, in
    /// sequence order. Never empty.
    Batch(Side, Vec<Timestamped<StreamElement>>),
}

impl IngestMsg {
    /// The join side every element in this message belongs to.
    pub fn side(&self) -> Side {
        let IngestMsg::Batch(side, _) = self;
        *side
    }

    /// Number of elements carried.
    pub fn len(&self) -> usize {
        let IngestMsg::Batch(_, batch) = self;
        batch.len()
    }

    /// Always false: ingest messages carry at least one element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The channel an [`IngestServer`] feeds: received stream elements at
/// wire-frame granularity, tagged with their join side.
pub type IngestReceiver = Receiver<IngestMsg>;

/// What an ingest server's channel carries. A consumer with other things
/// to wait for (the cluster worker: control frames) makes those variants
/// of one event type and has the server feed that channel
/// ([`IngestServer::bind_into`]), so it blocks in exactly one place.
pub trait IngestEvent: From<IngestMsg> + Send + 'static {
    /// The in-band end-of-stream event for a stream of `side`, sent once,
    /// behind that stream's last element. `None` (the default) sends
    /// nothing; such a consumer asks [`IngestServer::all_finished`].
    fn end(_side: Side) -> Option<Self> {
        None
    }
}

impl IngestEvent for IngestMsg {}

/// A TCP server receiving punctuated streams from source clients.
///
/// Streams are identified by dense ids `0..sides.len()`; each carries
/// the join side its elements belong to. All received elements funnel
/// into the single bounded [`Receiver`] returned by [`bind`], tagged
/// with their side — per-stream order is preserved (one sequence per
/// stream, one connection at a time), while cross-stream interleaving
/// follows arrival, as it would on any real network.
///
/// [`bind`]: IngestServer::bind
pub struct IngestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl IngestServer {
    /// Binds a listener on `127.0.0.1` (ephemeral port) serving one
    /// stream per entry of `sides`, and returns the server plus the
    /// channel its handlers feed.
    pub fn bind(
        sides: &[Side],
        opts: IngestOptions,
    ) -> std::io::Result<(IngestServer, IngestReceiver)> {
        let (data_tx, data_rx) = bounded(opts.channel_capacity.max(1));
        Ok((IngestServer::bind_into(sides, opts, data_tx)?, data_rx))
    }

    /// [`bind`](IngestServer::bind) feeding a channel the caller owns
    /// (and may feed from elsewhere too). `opts.channel_capacity` is then
    /// the caller's to apply.
    pub fn bind_into<T: IngestEvent>(
        sides: &[Side],
        opts: IngestOptions,
        data_tx: Sender<T>,
    ) -> std::io::Result<IngestServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            streams: sides
                .iter()
                .map(|&side| StreamSlot {
                    side,
                    state: Mutex::new(StreamState::default()),
                    forward: Mutex::new(()),
                })
                .collect(),
            opts,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            trace: Mutex::new(TraceLog::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("net-ingest-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, data_tx))
            .expect("spawn ingest accept thread");
        Ok(IngestServer { addr, shared, accept: Some(accept) })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once every stream has received its `Fin`. Because a handler
    /// forwards a stream's elements before it processes that stream's
    /// `Fin`, everything is already in the channel by the time this
    /// turns true.
    pub fn all_finished(&self) -> bool {
        self.shared
            .streams
            .iter()
            .all(|s| s.state.lock().expect("stream state lock").finished)
    }

    /// Elements forwarded downstream so far, per stream.
    pub fn forwarded(&self) -> Vec<u64> {
        self.shared
            .streams
            .iter()
            .map(|s| s.state.lock().expect("stream state lock").next_seq)
            .collect()
    }

    /// A snapshot of the live counters.
    pub fn stats(&self) -> IngestStats {
        let c = &self.shared.counters;
        IngestStats {
            connections: c.connections.load(Ordering::Relaxed),
            frames_received: c.frames_received.load(Ordering::Relaxed),
            data_frames: c.data_frames.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            duplicates_suppressed: c.duplicates_suppressed.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
        }
    }

    /// Drains the trace events recorded by finished handler threads.
    pub fn take_trace(&self) -> TraceLog {
        std::mem::take(&mut *self.shared.trace.lock().expect("trace lock"))
    }

    /// Stops accepting, asks live handlers to exit, and joins the accept
    /// thread.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<T: IngestEvent>(listener: TcpListener, shared: Arc<Shared>, data_tx: Sender<T>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match accept_ready(&listener) {
            Ok(Some(sock)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let conn_tx = data_tx.clone();
                handlers.push(
                    std::thread::Builder::new()
                        .name("net-ingest-conn".into())
                        .spawn(move || {
                            let mut tracer = Tracer::new(conn_shared.opts.trace);
                            tracer.set_lane(LANE_NET_INGEST);
                            // Protocol and socket errors end the
                            // connection; the client recovers by
                            // reconnecting, so they are not fatal here.
                            let _ = handle_conn(sock, &conn_shared, &conn_tx, &mut tracer);
                            conn_shared
                                .trace
                                .lock()
                                .expect("trace lock")
                                .merge(tracer.take());
                        })
                        .expect("spawn ingest handler"),
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

/// Decodes the next frame already in `fb`, if a whole one is there.
fn decode_buffered(fb: &mut FrameBuffer, tracer: &mut Tracer) -> Result<Option<Frame>, NetError> {
    let span = tracer.span_start();
    let buffered = fb.buffered();
    let frame = fb.next_frame()?;
    if frame.is_some() {
        let consumed = (buffered - fb.buffered()) as u64;
        tracer.span_end(span, TraceKind::NetDecode, 0, consumed, 1);
    }
    Ok(frame)
}

/// One blocking socket read into `fb` (woken by data; the read timeout
/// only bounds how long a shutdown request goes unnoticed). Returns
/// `false` on clean EOF.
fn fill(sock: &mut TcpStream, fb: &mut FrameBuffer, shared: &Shared) -> Result<bool, NetError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(NetError::Io(std::io::Error::new(
            ErrorKind::Interrupted,
            "server shutting down",
        )));
    }
    let mut buf = [0u8; 16 * 1024];
    match sock.read(&mut buf) {
        Ok(0) => return Ok(false),
        Ok(n) => {
            shared.counters.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
            fb.extend(&buf[..n]);
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
        Err(e) => return Err(NetError::Io(e)),
    }
    Ok(true)
}

fn send_frames(sock: &mut TcpStream, frames: &[Frame]) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(64);
    for f in frames {
        crate::frame::encode_frame_into(f, &mut buf);
    }
    sock.write_all(&buf)?;
    Ok(())
}

fn reject(sock: &mut TcpStream, code: u16, message: String) -> Result<(), NetError> {
    let _ = sock.write_all(&encode_frame(&Frame::Error { code, message: message.clone() }));
    Err(NetError::Protocol { code, message })
}

fn handle_conn<T: IngestEvent>(
    mut sock: TcpStream,
    shared: &Shared,
    data_tx: &Sender<T>,
    tracer: &mut Tracer,
) -> Result<(), NetError> {
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut fb = FrameBuffer::new();

    // --- Handshake -----------------------------------------------------
    let hello = loop {
        if let Some(frame) = decode_buffered(&mut fb, tracer)? {
            break frame;
        }
        if !fill(&mut sock, &mut fb, shared)? {
            return Ok(()); // probed and closed (port scan, health check)
        }
    };
    let (stream, side) = match hello {
        Frame::Hello { stream, side, wire_version, schema: _ } => {
            if wire_version != WIRE_VERSION {
                return reject(
                    &mut sock,
                    error_code::VERSION_MISMATCH,
                    format!("wire version {wire_version}, server speaks {WIRE_VERSION}"),
                );
            }
            let Some(slot) = shared.streams.get(stream as usize) else {
                return reject(
                    &mut sock,
                    error_code::UNKNOWN_STREAM,
                    format!("stream {stream} not served ({} streams)", shared.streams.len()),
                );
            };
            let expect = u8::from(slot.side == Side::Right);
            if side != expect {
                return reject(
                    &mut sock,
                    error_code::BAD_HELLO,
                    format!("stream {stream} is side {expect}, client said {side}"),
                );
            }
            (stream as usize, slot.side)
        }
        other => {
            return reject(
                &mut sock,
                error_code::BAD_HELLO,
                format!("expected Hello, got {other:?}"),
            )
        }
    };

    let slot = &shared.streams[stream];
    // Take ownership of the stream: bumping the epoch makes any older
    // handler for this stream stale, so exactly one connection may
    // forward at a time (its client has already abandoned the old one —
    // it is the one that just reconnected).
    // `next_seq` is read without the forward lock deliberately: a stale
    // handler may still be blocked mid-forward of element `next_seq`,
    // and waiting for it here would stall the handshake behind a long
    // backpressure stall. If it does complete that forward, the resumed
    // client's replay of the element is suppressed as a duplicate.
    let (my_epoch, resume_from) = {
        let mut st = slot.state.lock().expect("stream state lock");
        st.epoch += 1;
        (st.epoch, st.next_seq)
    };
    send_frames(
        &mut sock,
        &[Frame::HelloAck {
            resume_from,
            credits: shared.opts.initial_credits,
            wire_version: WIRE_VERSION,
        }],
    )?;

    // --- Data loop -----------------------------------------------------
    // Elements received (fresh + duplicate) since the last ack/credit
    // grant. Duplicates earn credit too: a resuming client spent real
    // window on them, and starving it would wedge the resume.
    let mut since_ack: u32 = 0;
    loop {
        let frame = loop {
            if let Some(frame) = decode_buffered(&mut fb, tracer)? {
                break frame;
            }
            // The socket ran dry with elements unacknowledged: grant now
            // instead of at the next `ack_every` boundary. A sender that
            // flushes to a barrier, or simply stops, is waiting for
            // exactly this acknowledgement — and under sustained load
            // the socket is never dry, so grants still batch.
            if since_ack > 0 && !wait_readable(&[sock.as_fd()], Duration::ZERO)? {
                grant(&mut sock, slot, &mut since_ack)?;
            }
            if !fill(&mut sock, &mut fb, shared)? {
                return Ok(()); // client closed (after FinAck, or mid-stream crash)
            }
        };
        let (outcome, n) = match frame {
            Frame::DataBatch { first_seq, elements } => {
                let n = elements.len() as u32;
                tracer.instant(TraceKind::NetBatch, 0, stream as u64, n as u64);
                let outcome = forward_batch(
                    slot, shared, data_tx, tracer, my_epoch, stream, side, first_seq, elements,
                )?;
                (outcome, n)
            }
            Frame::Fin { count } => {
                let mut st = slot.state.lock().expect("stream state lock");
                if st.next_seq == count {
                    let first = !st.finished;
                    st.finished = true;
                    drop(st);
                    // In-band behind the stream's last element, and ahead
                    // of the FinAck: once the client's finish returns,
                    // the consumer has (or is about to read) the event.
                    if let (true, Some(end)) = (first, T::end(side)) {
                        data_tx.send(end).map_err(|_| disconnected("executor channel closed"))?;
                    }
                    send_frames(&mut sock, &[Frame::Ack { up_to: count }, Frame::FinAck])?;
                    since_ack = 0;
                    continue;
                }
                let have = st.next_seq;
                drop(st);
                return if have < count {
                    // Frames were lost before the Fin (e.g. dropped by a
                    // fault); make the client reconnect and resend.
                    reject(
                        &mut sock,
                        error_code::SEQUENCE_GAP,
                        format!("stream {stream}: Fin at {count} but only {have} received"),
                    )
                } else {
                    reject(
                        &mut sock,
                        error_code::BAD_HELLO,
                        format!("stream {stream}: Fin at {count} below received {have}"),
                    )
                };
            }
            other => {
                return reject(
                    &mut sock,
                    error_code::BAD_HELLO,
                    format!("unexpected frame on ingest connection: {other:?}"),
                )
            }
        };
        shared.counters.data_frames.fetch_add(1, Ordering::Relaxed);
        match outcome {
            ForwardOutcome::Forwarded => {}
            ForwardOutcome::Superseded => {
                return reject(
                    &mut sock,
                    error_code::SUPERSEDED,
                    format!("stream {stream}: a newer connection took over"),
                );
            }
            ForwardOutcome::Gap { got, expected } => {
                return reject(
                    &mut sock,
                    error_code::SEQUENCE_GAP,
                    format!("stream {stream}: got seq {got}, expected {expected}"),
                );
            }
        }
        since_ack += n;
        if since_ack >= shared.opts.ack_every {
            grant(&mut sock, slot, &mut since_ack)?;
        }
    }
}

/// Acknowledges everything forwarded so far and returns the credit the
/// `since_ack` elements behind it spent.
fn grant(sock: &mut TcpStream, slot: &StreamSlot, since_ack: &mut u32) -> Result<(), NetError> {
    let up_to = slot.state.lock().expect("stream state lock").next_seq;
    send_frames(sock, &[Frame::Ack { up_to }, Frame::Credit { n: *since_ack }])?;
    *since_ack = 0;
    Ok(())
}

fn disconnected(what: &str) -> NetError {
    NetError::Io(std::io::Error::new(ErrorKind::BrokenPipe, what.to_string()))
}

/// How [`forward_batch`] ended; protocol violations are returned (not
/// rejected in place) so the caller owns the socket write.
enum ForwardOutcome {
    /// Every element was forwarded or duplicate-suppressed.
    Forwarded,
    /// A newer connection took over this stream.
    Superseded,
    /// An element's sequence jumped past the expected one.
    Gap { got: u64, expected: u64 },
}

/// Sends one ingest message downstream, blocking (with a stall span)
/// when the executor is behind.
fn send_downstream<T: IngestEvent>(
    shared: &Shared,
    data_tx: &Sender<T>,
    tracer: &mut Tracer,
    stream: usize,
    vt: u64,
    count: u64,
    msg: IngestMsg,
) -> Result<(), NetError> {
    match data_tx.try_send(msg.into()) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(event)) => {
            shared.counters.stalls.fetch_add(1, Ordering::Relaxed);
            let span = tracer.span_start();
            data_tx.send(event).map_err(|_| disconnected("executor channel closed"))?;
            tracer.span_end(span, TraceKind::NetStall, vt, stream as u64, count);
            Ok(())
        }
        Err(TrySendError::Disconnected(_)) => Err(disconnected("executor channel closed")),
    }
}

/// Forwards one decoded `DataBatch` frame (element `i` carrying
/// `first_seq + i`) downstream under **one** acquisition of the
/// per-stream forward lock and as **one** channel message: the
/// check→forward→advance critical section.
///
/// Sequences are consecutive, so duplicates can only form a prefix
/// (below `next_seq`, suppressed and still earning credit) and a gap can
/// only open at the first fresh element; the fresh suffix is moved
/// downstream as a single [`IngestMsg::Batch`] and the stream counter
/// advances past all of it only after the channel accepts the message —
/// the channel hand-off is all-or-nothing, so a resume never sees a
/// half-advanced batch.
/// Ownership (the connection epoch) is checked once on entry: holding
/// the forward lock for the whole batch means no successor can
/// interleave forwards mid-batch, so the single check preserves the
/// single-writer invariant at batch granularity. The lock is released
/// before any socket write.
#[allow(clippy::too_many_arguments)]
fn forward_batch<T: IngestEvent>(
    slot: &StreamSlot,
    shared: &Shared,
    data_tx: &Sender<T>,
    tracer: &mut Tracer,
    my_epoch: u64,
    stream: usize,
    side: Side,
    first_seq: u64,
    mut elements: Vec<Timestamped<StreamElement>>,
) -> Result<ForwardOutcome, NetError> {
    let count = elements.len() as u64;
    let fwd = slot.forward.lock().expect("stream forward lock");
    let next_seq = {
        let st = slot.state.lock().expect("stream state lock");
        if st.epoch != my_epoch {
            return Ok(ForwardOutcome::Superseded);
        }
        st.next_seq
    };
    shared.counters.frames_received.fetch_add(count, Ordering::Relaxed);
    if first_seq > next_seq {
        return Ok(ForwardOutcome::Gap { got: first_seq, expected: next_seq });
    }
    let duplicates = (next_seq - first_seq).min(count);
    if duplicates > 0 {
        shared
            .counters
            .duplicates_suppressed
            .fetch_add(duplicates, Ordering::Relaxed);
        elements.drain(..duplicates as usize);
    }
    if elements.is_empty() {
        return Ok(ForwardOutcome::Forwarded); // fully replayed batch
    }
    let fresh = elements.len() as u64;
    let vt = elements.last().expect("non-empty fresh suffix").ts.as_micros();
    send_downstream(shared, data_tx, tracer, stream, vt, fresh, IngestMsg::Batch(side, elements))?;
    {
        let mut st = slot.state.lock().expect("stream state lock");
        if st.next_seq == next_seq {
            st.next_seq = next_seq + fresh;
        }
    }
    drop(fwd);
    Ok(ForwardOutcome::Forwarded)
}

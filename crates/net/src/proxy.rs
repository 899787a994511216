//! An in-process fault-injection TCP proxy.
//!
//! Sits between a client and a server, reassembling the client→server
//! byte stream into whole frames so faults are *frame-aware*: it drops
//! frames or cuts connections at frame granularity. Only `DataBatch`
//! frames are ever dropped — control frames (handshakes, acks, credits)
//! always pass, so a fault can delay recovery but never wedge it. The
//! server→client direction is a transparent byte pump.
//!
//! All randomness comes from a per-connection seeded generator
//! (`seed + connection_index`), so a given configuration misbehaves the
//! same way on every run.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{raw_is_data, FrameBuffer};
use crate::wait::accept_ready;

/// What the proxy does to traffic.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Drop each `DataBatch` frame with probability `1/drop_one_in`
    /// (0 disables dropping).
    pub drop_one_in: u32,
    /// Stop dropping after this many drops (keeps tests convergent).
    pub max_drops: u64,
    /// Force-close a connection after forwarding this many frames
    /// (0 disables).
    pub disconnect_after_frames: u64,
    /// Only the first this-many connections get force-closed, so
    /// reconnects eventually succeed.
    pub max_disconnects: u32,
    /// Seed for all fault randomness.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            drop_one_in: 0,
            max_drops: u64::MAX,
            disconnect_after_frames: 0,
            max_disconnects: 0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A lossy profile: drops roughly one in `n` data frames (up to
    /// `max_drops`) and force-closes the first `disconnects` connections
    /// after `after` frames each.
    pub fn lossy(n: u32, max_drops: u64, disconnects: u32, after: u64, seed: u64) -> FaultConfig {
        FaultConfig {
            drop_one_in: n,
            max_drops,
            disconnect_after_frames: after,
            max_disconnects: disconnects,
            seed,
        }
    }
}

/// Counters observed by a running proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames forwarded client→server.
    pub frames_forwarded: u64,
    /// `DataBatch` frames deliberately dropped.
    pub frames_dropped: u64,
    /// Connections force-closed.
    pub disconnects_forced: u64,
    /// Bytes forwarded client→server.
    pub bytes_forwarded: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames_forwarded: AtomicU64,
    frames_dropped: AtomicU64,
    disconnects_forced: AtomicU64,
    bytes_forwarded: AtomicU64,
}

struct ProxyShared {
    upstream: SocketAddr,
    config: FaultConfig,
    counters: Counters,
    shutdown: AtomicBool,
}

/// A running fault proxy. Point clients at [`addr`](FaultProxy::addr);
/// traffic reaches `upstream` modulo the configured faults.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds the proxy on `127.0.0.1` (ephemeral port) in front of
    /// `upstream`.
    pub fn spawn(upstream: SocketAddr, config: FaultConfig) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            config,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("net-proxy-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn proxy accept thread");
        Ok(FaultProxy { addr, shared, accept: Some(accept) })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ProxyStats {
        let c = &self.shared.counters;
        ProxyStats {
            connections: c.connections.load(Ordering::Relaxed),
            frames_forwarded: c.frames_forwarded.load(Ordering::Relaxed),
            frames_dropped: c.frames_dropped.load(Ordering::Relaxed),
            disconnects_forced: c.disconnects_forced.load(Ordering::Relaxed),
            bytes_forwarded: c.bytes_forwarded.load(Ordering::Relaxed),
        }
    }

    /// Stops the proxy and joins its threads.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ProxyShared>) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accept_ready(&listener) {
            Ok(Some(client)) => {
                let conn_index = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let upstream = match TcpStream::connect(shared.upstream) {
                    Ok(s) => s,
                    Err(_) => continue, // client sees the close and retries
                };
                let _ = client.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                let c2s_shared = Arc::clone(&shared);
                let (c_read, c_write) = (client.try_clone(), client);
                let (u_read, u_write) = (upstream.try_clone(), upstream);
                let (Ok(c_read), Ok(u_read)) = (c_read, u_read) else { continue };
                pumps.push(
                    std::thread::Builder::new()
                        .name("net-proxy-c2s".into())
                        .spawn(move || pump_faulted(c_read, u_write, c2s_shared, conn_index))
                        .expect("spawn proxy pump"),
                );
                pumps.push(
                    std::thread::Builder::new()
                        .name("net-proxy-s2c".into())
                        .spawn({
                            let shared = Arc::clone(&shared);
                            move || pump_plain(u_read, c_write, shared)
                        })
                        .expect("spawn proxy pump"),
                );
            }
            Ok(None) => {}
            Err(_) => break,
        }
        pumps.retain(|h| !h.is_finished());
    }
    for h in pumps {
        let _ = h.join();
    }
}

/// Client→server pump: frame-aware, applies the configured faults.
fn pump_faulted(
    mut from: TcpStream,
    mut to: TcpStream,
    shared: Arc<ProxyShared>,
    conn_index: u64,
) {
    let cfg = &shared.config;
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(conn_index));
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 16 * 1024];
    let mut frames_this_conn: u64 = 0;
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let eligible_for_disconnect = cfg.disconnect_after_frames > 0
        && conn_index < u64::from(cfg.max_disconnects);
    loop {
        // Forward every complete frame, applying faults.
        loop {
            let raw = match fb.next_raw() {
                Ok(Some(r)) => r,
                Ok(None) => break,
                Err(_) => {
                    // The byte stream is corrupt (cannot happen with our
                    // own clients); cut the connection.
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            };
            let (tag, bytes) = raw;
            if raw_is_data(tag)
                && cfg.drop_one_in > 0
                && shared.counters.frames_dropped.load(Ordering::Relaxed) < cfg.max_drops
                && rng.gen_range(0..cfg.drop_one_in) == 0
            {
                shared.counters.frames_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if to.write_all(&bytes).is_err() {
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
            shared.counters.frames_forwarded.fetch_add(1, Ordering::Relaxed);
            shared.counters.bytes_forwarded.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            frames_this_conn += 1;
            if eligible_for_disconnect && frames_this_conn >= cfg.disconnect_after_frames {
                shared.counters.disconnects_forced.fetch_add(1, Ordering::Relaxed);
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => fb.extend(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// Server→client pump: a transparent byte copy.
fn pump_plain(mut from: TcpStream, mut to: TcpStream, shared: Arc<ProxyShared>) {
    let mut buf = [0u8; 16 * 1024];
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

//! The one way this crate waits on a socket: `poll(2)`.
//!
//! A socket read timeout (`SO_RCVTIMEO`) is rounded to scheduler ticks:
//! on a `CONFIG_HZ=250` host a 1 ms timeout returns after ~8 ms and a
//! 20 ms one after ~24 ms, so a loop that "polls for 1 ms" really runs
//! at the tick rate. `poll(2)` sleeps on a high-resolution timer and
//! returns the moment a descriptor becomes readable, so every wait here
//! is woken by data and its timeout is only a deadline. A listener
//! turns readable when a connection is queued, so the accept loops wait
//! here too ([`accept_ready`]) instead of sleeping between `accept`
//! calls.
//!
//! Reading what is queued without waiting is one `recv(2)` with
//! `MSG_DONTWAIT` ([`read_available`]): it returns the bytes, or says
//! nothing is there, in one system call and without flipping the socket
//! in and out of non-blocking mode. These two calls, `poll` and `recv`,
//! are the crate's only foreign functions and its only `unsafe` code.

use std::ffi::{c_int, c_short, c_void};
use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd};
use std::time::Duration;

use crate::frame::FrameBuffer;

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

/// `MSG_DONTWAIT` from `<sys/socket.h>`.
#[cfg(any(target_os = "linux", target_os = "android"))]
const MSG_DONTWAIT: c_int = 0x40;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MSG_DONTWAIT: c_int = 0x80;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

/// `poll(2)` for readability over `set`; whether any entry is ready. An
/// interrupted wait reports `false`: callers loop on their own deadline.
fn poll_readable(set: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    // SAFETY: `set` is a live, exclusively borrowed slice of exactly
    // `set.len()` `pollfd` structs for the duration of the call, and
    // every descriptor in it is open because the `BorrowedFd` it was
    // built from outlives the call. `poll` writes only the `revents`
    // fields.
    let ready = unsafe { poll(set.as_mut_ptr(), set.len() as Nfds, millis) };
    if ready >= 0 {
        return Ok(ready > 0);
    }
    match io::Error::last_os_error() {
        e if e.kind() == ErrorKind::Interrupted => Ok(false),
        e => Err(e),
    }
}

fn readable(fd: BorrowedFd<'_>) -> PollFd {
    PollFd { fd: fd.as_raw_fd(), events: POLLIN, revents: 0 }
}

/// Blocks until one of `fds` is readable (or at end of stream, or in
/// error — whatever makes a read return at once) or `timeout` passes.
/// The timeout is rounded up to whole milliseconds; zero only asks.
/// Returns whether any descriptor is ready.
pub fn wait_readable(fds: &[BorrowedFd<'_>], timeout: Duration) -> io::Result<bool> {
    let mut set: Vec<PollFd> = fds.iter().copied().map(readable).collect();
    poll_readable(&mut set, timeout)
}

/// How long an accept loop waits for a connection before it looks at
/// its shutdown flag again: the bound on its shutdown latency, never a
/// delay on a connection.
const ACCEPT_WAIT: Duration = Duration::from_millis(2);

/// The next connection on the non-blocking `listener`, woken the moment
/// a client connects; `Ok(None)` when none came within [`ACCEPT_WAIT`].
/// Every accept loop in the crate waits here, and ends on an error.
pub fn accept_ready(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    if !poll_readable(&mut [readable(listener.as_fd())], ACCEPT_WAIT)? {
        return Ok(None);
    }
    match listener.accept() {
        Ok((sock, _peer)) => Ok(Some(sock)),
        // Readable but gone: the client gave up before we got to it.
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}

/// How much one [`read_available`] call takes off a socket at most.
const READ_CHUNK: usize = 16 * 1024;

/// Appends what is already queued on `sock` to `fb` — one read of at
/// most 16 KiB, so a reader that has fallen behind decodes each chunk
/// while it is still in cache instead of buffering everything the
/// socket holds — without blocking, and returns the byte count (0 when
/// nothing is queued). End of stream is an [`ErrorKind::UnexpectedEof`]
/// error — but only once everything sent before it has been handed over
/// by an earlier call. One `recv(2)` with `MSG_DONTWAIT` answers both
/// "is anything queued?" and "what is it?", where a `poll(2)` and then
/// a `read` took two system calls.
pub fn read_available(sock: &mut TcpStream, fb: &mut FrameBuffer) -> io::Result<usize> {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        // SAFETY: `buf` is a live, exclusively borrowed array of
        // `buf.len()` bytes for the duration of the call, and `recv`
        // writes at most that many into it; the descriptor is open
        // because `sock` is borrowed across the call. `MSG_DONTWAIT`
        // makes this one call non-blocking without touching the
        // socket's own mode.
        let n = unsafe { recv(sock.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
        match usize::try_from(n) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                fb.extend(&buf[..n]);
                return Ok(n);
            }
            Err(_) => match io::Error::last_os_error() {
                e if e.kind() == ErrorKind::Interrupted => {}
                e if e.kind() == ErrorKind::WouldBlock => return Ok(0),
                e => return Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    /// An idle socket reads nothing at once; a peer's 40 KiB then arrive
    /// in chunks of at most 16 KiB, and its close is reported only after
    /// the last of them.
    #[test]
    fn read_available_takes_chunks_then_reports_the_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut sock, _) = listener.accept().expect("accept");
        let mut fb = FrameBuffer::new();

        let started = Instant::now();
        assert_eq!(read_available(&mut sock, &mut fb).expect("idle read"), 0);
        assert!(started.elapsed() < Duration::from_millis(100), "an idle read blocked");

        let sent = 40 * 1024;
        peer.write_all(&vec![7u8; sent]).expect("write");
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        loop {
            assert!(Instant::now() < deadline, "no end of stream after {total} bytes");
            wait_readable(&[sock.as_fd()], Duration::from_millis(100)).expect("wait");
            match read_available(&mut sock, &mut fb) {
                Ok(n) => {
                    assert!(n <= READ_CHUNK, "one read took {n} bytes");
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => break,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        assert_eq!(total, sent, "end of stream before every byte was handed over");
        assert_eq!(fb.buffered(), sent);
    }
}

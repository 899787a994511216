//! The one way this crate waits on a socket: `poll(2)`.
//!
//! A socket read timeout (`SO_RCVTIMEO`) is rounded to scheduler ticks:
//! on a `CONFIG_HZ=250` host a 1 ms timeout returns after ~8 ms and a
//! 20 ms one after ~24 ms, so a loop that "polls for 1 ms" really runs
//! at the tick rate. `poll(2)` sleeps on a high-resolution timer and
//! returns the moment a descriptor becomes readable, so every wait here
//! is woken by data and its timeout is only a deadline. It also answers
//! "is anything queued right now?" with a zero timeout, which replaces
//! flipping a socket in and out of non-blocking mode around each read.

use std::ffi::{c_int, c_short};
use std::io::{self, ErrorKind, Read};
use std::net::TcpStream;
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

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
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

/// Appends whatever is already queued on `sock` to `fb` without
/// blocking and returns the byte count. End of stream is an
/// [`ErrorKind::UnexpectedEof`] error — but only once everything sent
/// before it has been handed over by an earlier call.
pub fn read_available(sock: &mut TcpStream, fb: &mut FrameBuffer) -> io::Result<usize> {
    let mut buf = [0u8; 16 * 1024];
    let mut total = 0;
    while poll_readable(&mut [readable(sock.as_fd())], Duration::ZERO)? {
        match sock.read(&mut buf) {
            Ok(0) if total > 0 => break,
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                fb.extend(&buf[..n]);
                total += n;
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

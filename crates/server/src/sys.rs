//! The workspace's one `unsafe` block: a binding to `poll(2)`.
//!
//! `std` can make a socket nonblocking but cannot wait on several of them,
//! and the workspace takes no crate dependencies, so the event loop's wait
//! is this one foreign call behind a safe function. Everything else in the
//! crate stays under `#![deny(unsafe_code)]`; CI checks that `unsafe` occurs
//! in no other file.

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable, or a peer has connected / closed (`POLLIN`).
pub(crate) const READABLE: c_short = 0x001;
/// Writable without blocking (`POLLOUT`).
pub(crate) const WRITABLE: c_short = 0x004;

/// `struct pollfd`: identical on every unix `std` supports.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `source` for `events`. The descriptor is only looked at during
    /// [`wait`], which the borrow checker cannot tie to `source`: callers
    /// build the set, wait, and drop it while they own the sockets.
    pub(crate) fn new(source: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

extern "C" {
    /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)`; `nfds_t` is
    /// `unsigned long` on Linux and the BSDs.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until one of `fds` is ready or `timeout` passes (`None`: no
/// limit); returns how many are ready, 0 on timeout. Interrupted waits are
/// retried. A descriptor that is closed or invalid counts as ready
/// (`POLLNVAL`/`POLLHUP` in `revents`), so the caller's next read or write
/// reports it.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // Round up: waking a fraction of a millisecond early would find nothing
    // due and spin.
    let millis = timeout.map_or(-1, |t| {
        let ceil = t.as_nanos().div_ceil(1_000_000);
        c_int::try_from(ceil).unwrap_or(c_int::MAX)
    });
    loop {
        // SAFETY: `fds` is an exclusive, live borrow of `fds.len()`
        // contiguous `#[repr(C)]` `pollfd` records, which is exactly what
        // poll(2) reads (`fd`, `events`) and writes (`revents`) for the
        // duration of the call and not after it. The kernel validates the
        // descriptors themselves: a stale or foreign `fd` yields `POLLNVAL`,
        // never undefined behaviour. `fds.len()` fits `nfds_t`: a slice of
        // 8-byte records cannot have more than `isize::MAX / 8` of them.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn times_out_on_idle_sockets_and_wakes_on_traffic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();

        // The pending connection makes the listener readable at once.
        let mut fds = [PollFd::new(&listener, READABLE)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        let (server, _) = listener.accept().unwrap();

        // Nothing to read: the wait lasts its timeout, rounded up.
        let mut fds = [
            PollFd::new(&listener, READABLE),
            PollFd::new(&server, READABLE),
        ];
        let started = Instant::now();
        assert_eq!(
            wait(&mut fds, Some(Duration::from_micros(20_500))).unwrap(),
            0
        );
        assert!(started.elapsed() >= Duration::from_millis(20));

        // A byte wakes the reader; an empty socket buffer is writable.
        client.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        let mut fds = [PollFd::new(&server, WRITABLE)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
    }
}

//! Minimal readiness FFI for the reactor: `poll(2)`, hand-declared,
//! plus the [`Waker`] that breaks a thread out of it.
//!
//! The vendored dependency set carries no `libc` crate, so the one
//! syscall the ingest reactor parks on is declared here directly and
//! fenced to Linux. Everywhere else [`poll_fds`] degrades to a
//! bounded sleep that reports every descriptor ready; callers then
//! drain with zero-timeout reads, which turns readiness parking into
//! a tick-paced sweep — correct, just not as idle.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One descriptor's interest set, layout-compatible with the kernel's
/// `struct pollfd` on Linux.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: i32,
    /// Requested events (set [`POLLIN`]).
    pub events: i16,
    /// Kernel-reported events; nonzero means "drain me" (readable,
    /// error, or hangup — all of which a zero-timeout read resolves).
    pub revents: i16,
}

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;

/// Data may be written without blocking. The ingest reactor never
/// waits on writability, but the HTTP serving tier does when a slow
/// reader leaves a partially flushed response behind.
pub const POLLOUT: i16 = 0x004;

#[cfg(target_os = "linux")]
mod imp {
    use super::PollFd;
    use std::time::Duration;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> usize {
        if fds.is_empty() {
            std::thread::sleep(timeout);
            return 0;
        }
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `PollFd` is `#[repr(C)]` and matches `struct pollfd`
        // (int fd, short events, short revents) on Linux; the pointer
        // and length describe a live, exclusively-borrowed slice for
        // the whole call; `poll` writes only inside that slice.
        let n = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        usize::try_from(n).unwrap_or(0)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{PollFd, POLLIN};
    use std::time::Duration;

    /// Portable fallback: sleep out the timeout, then claim everything
    /// is ready. The caller's zero-timeout drain makes spurious
    /// readiness harmless; the sleep bounds the sweep rate.
    pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> usize {
        std::thread::sleep(timeout);
        for fd in fds.iter_mut() {
            fd.revents = POLLIN;
        }
        fds.len()
    }
}

/// Waits up to `timeout` for readiness on `fds`, setting `revents` on
/// ready entries. Returns how many are ready (0 on timeout; errors
/// report as 0 and the caller's next read surfaces them).
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> usize {
    imp::poll_fds(fds, timeout)
}

/// Wakes a thread parked in [`poll_fds`] from any other thread: a
/// self-connected loopback TCP pair whose read end joins the poll set.
/// The armed flag keeps the pipe to at most one in-flight byte however
/// many wakes race one park.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
    rx: TcpStream,
    armed: AtomicBool,
}

impl Waker {
    /// A connected pair on `127.0.0.1`, read end non-blocking.
    pub fn new() -> io::Result<Waker> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        rx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        Ok(Waker {
            tx,
            rx,
            armed: AtomicBool::new(false),
        })
    }

    /// Makes the parked `poll` return (or the next one, if none is
    /// parked). Costs one atomic swap while a wake is already pending.
    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Swallows the pipe byte(s), then clears the armed flag. Call it
    /// when the poll reports the read end ready, *before* looking at
    /// whatever the wakers published.
    ///
    /// Order matters: pipe first, flag second. A `wake()` racing
    /// between the two sees `armed` still true and skips its write —
    /// safe, because its state change happened before the
    /// `store(false)` and the caller's look that follows observes it.
    /// The reverse order could consume a byte belonging to a wake that
    /// already saw `armed == false`, leaving the flag stuck true and
    /// every future wake silent.
    pub fn drain(&self) {
        let mut sink = [0u8; 16];
        let mut rx = &self.rx;
        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
        self.armed.store(false, Ordering::Release);
    }

    /// The read end, for the caller's poll set.
    #[cfg(unix)]
    pub fn fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_wake_breaks_a_parked_poll_and_rearms_after_drain() {
        let waker = std::sync::Arc::new(Waker::new().expect("waker"));
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            for _ in 0..8 {
                remote.wake();
            }
        });
        let mut fds = [PollFd {
            fd: waker.fd(),
            events: POLLIN,
            revents: 0,
        }];
        let started = Instant::now();
        poll_fds(&mut fds, Duration::from_secs(5));
        assert!(fds[0].revents != 0);
        assert!(started.elapsed() < Duration::from_secs(2));
        t.join().unwrap();
        waker.drain();
        // Drained and disarmed: the next park times out, and the next
        // wake writes again.
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)), 0);
        waker.wake();
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)), 1);
    }
}

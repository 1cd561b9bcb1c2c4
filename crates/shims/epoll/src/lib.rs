//! Offline stand-in for the crates.io [`polling`] crate: readiness
//! multiplexing for nonblocking sockets behind one tiny, portable API.
//!
//! The workspace builds without network access, so instead of depending on
//! `polling`/`mio` this shim vendors the minimal subset the `lwc-server`
//! event loop needs — register a socket under a `usize` key, wait for
//! read/write readiness, wake the waiter from another thread:
//!
//! * **Linux** — `epoll(7)` with an `eventfd(2)` notifier (the production
//!   backend: one syscall returns readiness for thousands of sockets),
//! * **other unix** — `poll(2)` over a registry snapshot with a self-pipe
//!   notifier (portable, fine for hundreds of sockets),
//! * **non-unix** — compiles, and [`Poller::new`] reports `Unsupported` at
//!   runtime (the server's blocking client paths don't need a poller).
//!
//! Semantics are **level-triggered**: a key keeps reporting readable while
//! unread bytes remain buffered, so callers re-arm nothing and simply read
//! until `WouldBlock`. Interest is explicit per direction — register write
//! interest only while a write buffer is nonempty, or every wait returns
//! instantly.
//!
//! On Linux the backend can be forced with `LWC_POLL_BACKEND=poll` (the
//! shim's own tests exercise both). Like every crate under `crates/shims/`,
//! deleting this directory and pointing the workspace dependency back at
//! crates.io restores the real thing; the `unsafe` FFI below is confined to
//! this crate — the rest of the workspace forbids `unsafe` outright.
//!
//! [`polling`]: https://crates.io/crates/polling

#![deny(missing_docs)]

use std::io;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};

/// Key reserved for the poller's internal notifier; [`Poller::add`] refuses
/// it.
pub const NOTIFY_KEY: usize = usize::MAX;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The key the source was registered under.
    pub key: usize,
    /// The source is readable (or closed/errored — a read will not block).
    pub readable: bool,
    /// The source is writable (or errored — a write will not block).
    pub writable: bool,
}

/// Something a [`Poller`] can watch. Blanket-implemented for every
/// `AsRawFd` type on unix (sockets, listeners, pipes).
pub trait Source {
    /// The OS handle to register.
    fn raw(&self) -> RawSource;
}

/// The OS-level handle type behind a [`Source`].
#[cfg(unix)]
pub type RawSource = RawFd;
/// The OS-level handle type behind a [`Source`] (unused off unix).
#[cfg(not(unix))]
pub type RawSource = usize;

#[cfg(unix)]
impl<T: AsRawFd> Source for T {
    fn raw(&self) -> RawSource {
        self.as_raw_fd()
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    #[cfg(unix)]
    Poll(pollset::PollSet),
    #[cfg(not(unix))]
    Unsupported,
}

/// A readiness multiplexer: register sources under keys, wait for events.
///
/// All methods take `&self`; the poller is `Sync`, so one thread can sit in
/// [`Poller::wait`] while others [`Poller::notify`] it.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a poller on the best backend for this platform.
    ///
    /// # Errors
    ///
    /// Propagates the backend's creation failure; on non-unix platforms
    /// returns `Unsupported`.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            if std::env::var("LWC_POLL_BACKEND").as_deref() == Ok("poll") {
                return Ok(Self { backend: Backend::Poll(pollset::PollSet::new()?) });
            }
            Ok(Self { backend: Backend::Epoll(epoll::Epoll::new()?) })
        }
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            Ok(Self { backend: Backend::Poll(pollset::PollSet::new()?) })
        }
        #[cfg(not(unix))]
        {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no readiness backend on this platform"))
        }
    }

    /// The name of the active backend (`"epoll"` or `"poll"`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            #[cfg(unix)]
            Backend::Poll(_) => "poll",
            #[cfg(not(unix))]
            Backend::Unsupported => "unsupported",
        }
    }

    /// Registers `source` under `key` with the given interest. The source
    /// must already be in nonblocking mode and stay alive until
    /// [`Poller::delete`].
    ///
    /// # Errors
    ///
    /// Fails if the source is already registered, the key is
    /// [`NOTIFY_KEY`], or the backend syscall fails.
    pub fn add(
        &self,
        source: &impl Source,
        key: usize,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        if key == NOTIFY_KEY {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "key is reserved"));
        }
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.add(source.raw(), key, readable, writable),
            #[cfg(unix)]
            Backend::Poll(ps) => ps.add(source.raw(), key, readable, writable),
            #[cfg(not(unix))]
            Backend::Unsupported => unreachable!("Poller::new refused construction"),
        }
    }

    /// Replaces the interest of an already-registered source.
    ///
    /// # Errors
    ///
    /// Fails if the source is not registered or the backend syscall fails.
    pub fn modify(
        &self,
        source: &impl Source,
        key: usize,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.modify(source.raw(), key, readable, writable),
            #[cfg(unix)]
            Backend::Poll(ps) => ps.modify(source.raw(), key, readable, writable),
            #[cfg(not(unix))]
            Backend::Unsupported => unreachable!("Poller::new refused construction"),
        }
    }

    /// Unregisters a source. Call before closing the descriptor.
    ///
    /// # Errors
    ///
    /// Fails if the source is not registered or the backend syscall fails.
    pub fn delete(&self, source: &impl Source) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.delete(source.raw()),
            #[cfg(unix)]
            Backend::Poll(ps) => ps.delete(source.raw()),
            #[cfg(not(unix))]
            Backend::Unsupported => unreachable!("Poller::new refused construction"),
        }
    }

    /// Blocks until at least one source is ready, the timeout elapses, or
    /// [`Poller::notify`] is called; ready events are appended to `events`
    /// (cleared first). A notification wakes the wait but adds no event.
    /// Returns the number of events delivered (0 on timeout/notify).
    ///
    /// # Errors
    ///
    /// Propagates backend syscall failures; `EINTR` is treated as a wake
    /// with no events, not an error.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.wait(events, timeout),
            #[cfg(unix)]
            Backend::Poll(ps) => ps.wait(events, timeout),
            #[cfg(not(unix))]
            Backend::Unsupported => unreachable!("Poller::new refused construction"),
        }
    }

    /// Wakes a thread blocked in [`Poller::wait`] from any other thread.
    /// Notifications don't accumulate: many notifies before one wait wake
    /// it once.
    ///
    /// # Errors
    ///
    /// Propagates the backend's write failure.
    pub fn notify(&self) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.notify(),
            #[cfg(unix)]
            Backend::Poll(ps) => ps.notify(),
            #[cfg(not(unix))]
            Backend::Unsupported => unreachable!("Poller::new refused construction"),
        }
    }
}

/// Clamps a wait timeout to whole milliseconds for the syscalls, rounding
/// up so a short positive timeout never becomes a busy-spin 0.
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => u128::max(1, d.as_millis()).min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! The Linux backend: `epoll(7)` + `eventfd(2)`.

    use super::{timeout_ms, Event, NOTIFY_KEY};
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const EFD_CLOEXEC: c_int = 0o2000000;

    /// Most events one `epoll_wait` call delivers; more simply arrive on
    /// the next call (level-triggered readiness is not lost).
    const WAIT_BATCH: usize = 256;

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = EPOLLRDHUP;
        if readable {
            bits |= EPOLLIN;
        }
        if writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(crate) struct Epoll {
        epfd: c_int,
        wake_fd: c_int,
    }

    impl Epoll {
        pub fn new() -> io::Result<Self> {
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let wake_fd = match check(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Self { epfd, wake_fd };
            poller.ctl(EPOLL_CTL_ADD, wake_fd, EPOLLIN, NOTIFY_KEY as u64)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data };
            check(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) })?;
            Ok(())
        }

        pub fn add(&self, fd: c_int, key: usize, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest_bits(readable, writable), key as u64)
        }

        pub fn modify(
            &self,
            fd: c_int,
            key: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest_bits(readable, writable), key as u64)
        }

        pub fn delete(&self, fd: c_int) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
            let n = unsafe {
                epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as c_int, timeout_ms(timeout))
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for ev in &buf[..n as usize] {
                let (bits, data) = (ev.events, ev.data);
                if data == NOTIFY_KEY as u64 {
                    // Drain the eventfd so the next notify wakes again.
                    let mut scratch = 0u64;
                    unsafe { read(self.wake_fd, (&mut scratch as *mut u64).cast(), 8) };
                    continue;
                }
                out.push(Event {
                    key: data as usize,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(out.len())
        }

        pub fn notify(&self) -> io::Result<()> {
            let one = 1u64;
            let ret = unsafe { write(self.wake_fd, (&one as *const u64).cast(), 8) };
            // A full (already-signalled) eventfd means a wake is pending —
            // that's exactly what the caller wanted.
            if ret < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::WouldBlock {
                    return Err(err);
                }
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_fd);
                close(self.epfd);
            }
        }
    }
}

#[cfg(unix)]
mod pollset {
    //! The portable unix backend: `poll(2)` over a registry snapshot, with
    //! a self-pipe notifier.

    use super::{timeout_ms, Event};
    use std::collections::HashMap;
    use std::io;
    use std::os::raw::{c_int, c_short, c_void};
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x4;
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;

    struct Interest {
        key: usize,
        readable: bool,
        writable: bool,
    }

    pub(crate) struct PollSet {
        registry: Mutex<HashMap<RawFd, Interest>>,
        wake_read: c_int,
        wake_write: c_int,
    }

    impl PollSet {
        pub fn new() -> io::Result<Self> {
            let mut fds = [0 as c_int; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) };
            }
            Ok(Self { registry: Mutex::new(HashMap::new()), wake_read: fds[0], wake_write: fds[1] })
        }

        pub fn add(&self, fd: RawFd, key: usize, readable: bool, writable: bool) -> io::Result<()> {
            let mut registry = self.registry.lock().expect("poisoned");
            if registry.contains_key(&fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
            }
            registry.insert(fd, Interest { key, readable, writable });
            Ok(())
        }

        pub fn modify(
            &self,
            fd: RawFd,
            key: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut registry = self.registry.lock().expect("poisoned");
            let interest = registry
                .get_mut(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            *interest = Interest { key, readable, writable };
            Ok(())
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registry
                .lock()
                .expect("poisoned")
                .remove(&fd)
                .map(|_| ())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            // Snapshot under the lock, poll outside it: registrations made
            // while we sleep take effect on the next wait (callers wanting
            // them sooner call notify, same as with epoll).
            let mut fds = vec![PollFd { fd: self.wake_read, events: POLLIN, revents: 0 }];
            let mut keys = vec![usize::MAX];
            {
                let registry = self.registry.lock().expect("poisoned");
                for (fd, interest) in registry.iter() {
                    let mut events = 0 as c_short;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd { fd: *fd, events, revents: 0 });
                    keys.push(interest.key);
                }
            }
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms(timeout)) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            if fds[0].revents != 0 {
                // Drain every pending notify byte in one gulp.
                let mut sink = [0u8; 64];
                while unsafe { read(self.wake_read, sink.as_mut_ptr().cast(), sink.len()) } > 0 {}
            }
            for (slot, key) in fds.iter().zip(&keys).skip(1) {
                if slot.revents == 0 {
                    continue;
                }
                out.push(Event {
                    key: *key,
                    readable: slot.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: slot.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(out.len())
        }

        pub fn notify(&self) -> io::Result<()> {
            let one = 1u8;
            let ret = unsafe { write(self.wake_write, (&one as *const u8).cast(), 1) };
            if ret < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::WouldBlock {
                    return Err(err);
                }
            }
            Ok(())
        }
    }

    impl Drop for PollSet {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_read);
                close(self.wake_write);
            }
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn pollers() -> Vec<Poller> {
        #[cfg(target_os = "linux")]
        {
            // The backend switch is process-wide and tests run on parallel
            // threads: build each pair of pollers under one lock.
            static BACKEND_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let _switch = BACKEND_SWITCH.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            std::env::set_var("LWC_POLL_BACKEND", "poll");
            let forced = Poller::new().unwrap();
            std::env::remove_var("LWC_POLL_BACKEND");
            let default = Poller::new().unwrap();
            assert_eq!(forced.backend_name(), "poll");
            assert_eq!(default.backend_name(), "epoll");
            vec![default, forced]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Poller::new().unwrap()]
        }
    }

    #[test]
    fn sockets_report_readable_when_bytes_arrive() {
        for poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.add(&server, 7, true, false).unwrap();

            let mut events = Vec::new();
            // Nothing pending: a short wait times out with no events.
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0, "{}", poller.backend_name());

            client.write_all(b"ping").unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{}", poller.backend_name());
            assert_eq!(events[0], Event { key: 7, readable: true, writable: false });

            // Level-triggered: still readable until the bytes are consumed.
            let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            assert_eq!(n, 1);
            let mut sink = [0u8; 16];
            let mut server = server;
            assert_eq!(server.read(&mut sink).unwrap(), 4);
            poller.delete(&server).unwrap();
        }
    }

    #[test]
    fn write_interest_is_explicit_and_modifiable() {
        for poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            // Read-only interest on an idle socket: no events.
            poller.add(&server, 3, true, false).unwrap();
            let mut events = Vec::new();
            assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);
            // Adding write interest makes the idle socket immediately ready.
            poller.modify(&server, 3, true, true).unwrap();
            assert_eq!(poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap(), 1);
            assert!(events[0].writable);
            poller.delete(&server).unwrap();
            assert!(poller.delete(&server).is_err(), "double delete is an error");
        }
    }

    #[test]
    fn notify_wakes_a_waiter_across_threads() {
        for poller in pollers() {
            let poller = Arc::new(poller);
            let waker = {
                let poller = Arc::clone(&poller);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(30));
                    poller.notify().unwrap();
                })
            };
            let mut events = Vec::new();
            let start = Instant::now();
            let n = poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
            assert_eq!(n, 0, "notify wakes without events");
            assert!(start.elapsed() < Duration::from_secs(5), "woke early, not by timeout");
            waker.join().unwrap();
            // Coalesced notifies wake exactly once; a drained poller sleeps.
            poller.notify().unwrap();
            poller.notify().unwrap();
            assert_eq!(poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap(), 0);
            assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);
        }
    }

    #[test]
    fn reserved_key_is_refused() {
        for poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            assert!(poller.add(&listener, NOTIFY_KEY, true, false).is_err());
        }
    }
}

//! Raw-syscall shim for the epoll reactor — the serve crate's single
//! `unsafe` boundary.
//!
//! The workspace bans dependencies, so the handful of facilities the
//! reactor needs beyond `std::net` come straight from libc (which
//! libstd already links — no new dependency): `epoll` itself, and
//! socket creation with `SO_REUSEPORT` set *before* `bind` (std's
//! `TcpListener::bind` binds eagerly, which is too late for port
//! sharding).
//!
//! The unsafe surface is kept minimal and is contained to this file:
//!
//! - ten `extern "C"` declarations (`socket`, `setsockopt`, `bind`,
//!   `listen`, `epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`,
//!   `getrlimit`, `setrlimit`),
//! - `OwnedFd::from_raw_fd` on descriptors those calls return.
//!
//! Every descriptor is wrapped in an [`OwnedFd`] the moment it is
//! validated, so lifetimes and close() are managed by safe RAII from
//! then on; listener fds are further converted to `std::net::TcpListener`
//! (a safe `From`), so accepting, nonblocking mode, and local-addr
//! queries all go through std. No raw pointer outlives the call it is
//! passed to, and no `from_raw_parts` is involved anywhere.
//!
//! ## Fault injection and EINTR discipline
//!
//! This module is also the reactor's syscall *fault boundary*: every
//! operation the reactor performs against the kernel funnels through a
//! shim here that consults a failpoint first (`sys.accept`,
//! `sys.epoll_ctl`, `sys.epoll_wait`, `sys.read`, `sys.write`,
//! `sys.eventfd`). `errno(...)` stages surface as the exact
//! `io::Error::from_raw_os_error` the kernel would produce; `partial(p)`
//! stages become short reads / short writes / spurious epoll wakeups.
//! Injection happens *before* [`retry_eintr`], deliberately: injected
//! `EINTR` exercises the reactor's own retry arms, while real signal
//! interruptions of `epoll_ctl`/`accept` are absorbed by the helper.
//!
//! `close` is the one syscall that must NOT be retried on `EINTR`: on
//! Linux the descriptor is freed before the interruption is reported,
//! so a retry could close a descriptor another thread just received.
//! Descriptor release therefore stays with `OwnedFd`'s Drop (libstd
//! calls `close` exactly once and ignores the result), which is the
//! correct Linux-side behavior.
#![allow(unsafe_code)]

use std::io::{self, IoSlice, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable-readiness event mask bit.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable-readiness event mask bit.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition event mask bit (always reported; listed for masks).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup event mask bit (always reported; listed for masks).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// Interrupted system call.
pub(crate) const EINTR: i32 = 4;
/// Resource temporarily unavailable (`EWOULDBLOCK`).
pub(crate) const EAGAIN: i32 = 11;
/// Out of kernel memory.
pub(crate) const ENOMEM: i32 = 12;
/// System-wide file table full.
pub(crate) const ENFILE: i32 = 23;
/// Per-process fd limit reached.
pub(crate) const EMFILE: i32 = 24;
/// Connection aborted before accept completed.
pub(crate) const ECONNABORTED: i32 = 103;
/// Connection reset by peer.
pub(crate) const ECONNRESET: i32 = 104;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEPORT: i32 = 15;
const LISTEN_BACKLOG: i32 = 1024;

/// One `struct epoll_event`. The kernel ABI packs this on x86-64 (and
/// only there); field reads below copy by value, so the unaligned
/// layout never produces a misaligned reference.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
#[repr(C, packed)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

/// One `struct epoll_event` (naturally aligned ABI on non-x86-64).
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy)]
#[repr(C)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The token registered with [`Epoll::add`].
    pub(crate) fn token(self) -> u64 {
        self.data
    }

    /// Readable-readiness (or an error/hangup condition, which must
    /// wake the reader so it can observe the failure).
    pub(crate) fn readable(self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }

    /// Writable-readiness.
    pub(crate) fn writable(self) -> bool {
        self.events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }
}

mod ffi {
    use std::ffi::c_void;

    extern "C" {
        pub(super) fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub(super) fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const c_void,
            len: u32,
        ) -> i32;
        pub(super) fn bind(fd: i32, addr: *const c_void, len: u32) -> i32;
        pub(super) fn listen(fd: i32, backlog: i32) -> i32;
        pub(super) fn epoll_create1(flags: i32) -> i32;
        pub(super) fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut c_void) -> i32;
        pub(super) fn epoll_wait(epfd: i32, events: *mut c_void, max: i32, timeout_ms: i32) -> i32;
        pub(super) fn eventfd(initval: u32, flags: i32) -> i32;
        pub(super) fn getrlimit(resource: i32, rlim: *mut c_void) -> i32;
        pub(super) fn setrlimit(resource: i32, rlim: *const c_void) -> i32;
    }
}

/// Retries `op` while it fails with `EINTR`. This is the shared retry
/// discipline for interruptible syscalls (`accept`, `epoll_ctl`,
/// blocking reads/writes); see the module docs for why `close` is
/// deliberately excluded.
pub(crate) fn retry_eintr<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Short-I/O length for a `partial(keep)` fault: at least one byte, so
/// an injected short write is never confused with a peer close
/// (`Ok(0)`), and a short read still makes forward progress.
fn short_len(len: usize, keep_percent: u32) -> usize {
    if len == 0 {
        return 0;
    }
    let keep = usize::try_from(keep_percent.min(100)).unwrap_or(100);
    len.checked_mul(keep).map_or(len, |scaled| scaled / 100).max(1)
}

/// Accepts one connection, with the `sys.accept` failpoint in front:
/// `errno(E)` surfaces as that raw OS error (the reactor's accept-error
/// taxonomy sees exactly what the kernel would produce), `error` as
/// `ECONNABORTED`. Real `EINTR` is absorbed by [`retry_eintr`];
/// injected `EINTR` deliberately reaches the caller's retry arm.
pub(crate) fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    if let Some(fault) = twig_util::failpoint!("sys.accept") {
        return Err(match fault {
            twig_util::failpoint::Fault::Errno(code) => io::Error::from_raw_os_error(code),
            twig_util::failpoint::Fault::Error | twig_util::failpoint::Fault::Partial(_) => {
                io::Error::from_raw_os_error(ECONNABORTED)
            }
        });
    }
    retry_eintr(|| listener.accept())
}

/// Reads into `buf`, with the `sys.read` failpoint in front: `errno(E)`
/// fails with that raw OS error; `partial(p)` caps the buffer *before*
/// the read (a genuine short read — no buffered bytes are lost), so
/// request framing sees exactly what a stingy kernel would deliver.
pub(crate) fn read(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    if let Some(fault) = twig_util::failpoint!("sys.read") {
        match fault {
            twig_util::failpoint::Fault::Errno(code) => {
                return Err(io::Error::from_raw_os_error(code));
            }
            twig_util::failpoint::Fault::Error => {
                return Err(io::Error::from_raw_os_error(ECONNRESET));
            }
            twig_util::failpoint::Fault::Partial(keep) => {
                let cap = short_len(buf.len(), keep);
                let Some(head) = buf.get_mut(..cap) else { return Ok(0) };
                return stream.read(head);
            }
        }
    }
    stream.read(buf)
}

/// Vectored write, with the `sys.write` failpoint in front: `errno(E)`
/// fails with that raw OS error; `partial(p)` writes only a prefix of
/// the first non-empty slice (at least one byte — `Ok(0)` from a
/// writable socket means the connection died, and an injected short
/// write must not impersonate that).
pub(crate) fn write_vectored(stream: &mut TcpStream, slices: &[IoSlice<'_>]) -> io::Result<usize> {
    if let Some(fault) = twig_util::failpoint!("sys.write") {
        match fault {
            twig_util::failpoint::Fault::Errno(code) => {
                return Err(io::Error::from_raw_os_error(code));
            }
            twig_util::failpoint::Fault::Error => {
                return Err(io::Error::from_raw_os_error(EPIPE_ERRNO));
            }
            twig_util::failpoint::Fault::Partial(keep) => {
                for slice in slices {
                    if slice.is_empty() {
                        continue;
                    }
                    let cap = short_len(slice.len(), keep);
                    let Some(head) = slice.get(..cap) else { continue };
                    return stream.write(head);
                }
                return Ok(0);
            }
        }
    }
    stream.write_vectored(slices)
}

/// Broken pipe — only used by the `sys.write` `error` mapping.
const EPIPE_ERRNO: i32 = 32;

/// Creates a nonblocking close-on-exec eventfd (the reactor's wakeup
/// channel), with the `sys.eventfd` failpoint in front so creation
/// failure (`ENOMEM`, fd exhaustion) is injectable — the reactor must
/// degrade to timeout polling, not die.
pub(crate) fn eventfd() -> io::Result<OwnedFd> {
    if let Some(fault) = twig_util::failpoint!("sys.eventfd") {
        return Err(match fault {
            twig_util::failpoint::Fault::Errno(code) => io::Error::from_raw_os_error(code),
            twig_util::failpoint::Fault::Error | twig_util::failpoint::Fault::Partial(_) => {
                io::Error::from_raw_os_error(ENOMEM)
            }
        });
    }
    // SAFETY: eventfd takes no pointers; the returned fd is validated
    // before ownership is claimed and has exactly this one owner.
    let fd = unsafe { ffi::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: fd was just returned by a successful eventfd call.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Posts one wakeup to an eventfd. The 8-byte counter write cannot
/// short-write; `EAGAIN` (counter saturated) already means the reader
/// has a pending wakeup, so it is success for our purposes.
pub(crate) fn eventfd_signal(fd: &OwnedFd) -> io::Result<()> {
    let payload = 1u64.to_ne_bytes();
    let mut file = std::fs::File::from(fd.try_clone()?);
    match retry_eintr(|| file.write(&payload)) {
        Ok(_) => Ok(()),
        Err(error) if error.raw_os_error() == Some(EAGAIN) => Ok(()),
        Err(error) => Err(error),
    }
}

/// Drains a nonblocking eventfd so the next signal produces a fresh
/// edge. `EAGAIN` (nothing pending — a spurious wake) is fine.
pub(crate) fn eventfd_drain(fd: &OwnedFd) {
    let mut counter = [0u8; 8];
    if let Ok(clone) = fd.try_clone() {
        let mut file = std::fs::File::from(clone);
        let _ = retry_eintr(|| file.read(&mut counter));
    }
}

/// `RLIMIT_NOFILE` on Linux.
const RLIMIT_NOFILE: i32 = 7;

/// `struct rlimit` (64-bit fields on Linux).
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rlimit {
    /// Soft limit — the one the kernel enforces.
    pub cur: u64,
    /// Hard ceiling the soft limit may be raised back up to.
    pub max: u64,
}

/// Reads the process `RLIMIT_NOFILE` (soft, hard).
pub fn nofile_limit() -> io::Result<Rlimit> {
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: the rlim pointer refers to a live, correctly sized struct
    // for the duration of the call; the kernel fills it before return.
    let rc = unsafe { ffi::getrlimit(RLIMIT_NOFILE, std::ptr::addr_of_mut!(limit).cast()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(limit)
}

/// Sets the process `RLIMIT_NOFILE`. Used by the chaos harness to run
/// the server into genuine fd exhaustion (and restore afterwards).
pub fn set_nofile_limit(limit: Rlimit) -> io::Result<()> {
    // SAFETY: the rlim pointer refers to a live, correctly sized struct
    // for the duration of the call; the kernel copies it.
    let rc = unsafe { ffi::setrlimit(RLIMIT_NOFILE, std::ptr::addr_of!(limit).cast()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// `struct sockaddr_in` (network byte order where the ABI says so).
#[repr(C)]
struct SockaddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

/// `struct sockaddr_in6`.
#[repr(C)]
struct SockaddrIn6 {
    family: u16,
    port_be: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd is
        // validated before ownership is claimed, and from_raw_fd sees a
        // fresh descriptor nothing else owns.
        let fd = unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd was just returned by a successful epoll_create1 and
        // has exactly this one owner.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    /// Registers `fd` for edge-triggered readiness with `token` as the
    /// event payload. Failpoint `sys.epoll_ctl`: `errno(E)` fails the
    /// registration; real `EINTR` is retried by [`retry_eintr`].
    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        if let Some(fault) = twig_util::failpoint!("sys.epoll_ctl") {
            return Err(match fault {
                twig_util::failpoint::Fault::Errno(code) => io::Error::from_raw_os_error(code),
                twig_util::failpoint::Fault::Error | twig_util::failpoint::Fault::Partial(_) => {
                    io::Error::from_raw_os_error(ENOMEM)
                }
            });
        }
        retry_eintr(|| {
            let mut event = EpollEvent { events, data: token };
            // SAFETY: the event pointer refers to a live stack value for
            // the duration of the call; the kernel copies it before
            // returning.
            let rc = unsafe {
                ffi::epoll_ctl(
                    self.fd.as_raw_fd(),
                    EPOLL_CTL_ADD,
                    fd,
                    std::ptr::addr_of_mut!(event).cast(),
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        })
    }

    /// Waits up to `timeout_ms` for readiness, filling `events`.
    /// Failpoint `sys.epoll_wait`: `errno(EINTR)` exercises the serve
    /// loop's interrupted-wait arm; `partial(p)` returns a spurious
    /// wakeup (zero events) — the loop must treat both as non-fatal.
    pub(crate) fn wait(&self, events: &mut Vec<EpollEvent>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        if let Some(fault) = twig_util::failpoint!("sys.epoll_wait") {
            return match fault {
                twig_util::failpoint::Fault::Errno(code) => Err(io::Error::from_raw_os_error(code)),
                twig_util::failpoint::Fault::Error => Err(io::Error::from_raw_os_error(EINTR)),
                twig_util::failpoint::Fault::Partial(_) => Ok(0),
            };
        }
        let capacity = i32::try_from(events.capacity()).unwrap_or(i32::MAX).max(1);
        // SAFETY: the spare capacity of `events` is valid writable memory
        // for `capacity` EpollEvent values; the kernel writes at most
        // that many and we only set_len to the count it reports.
        let rc = unsafe {
            ffi::epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr().cast(), capacity, timeout_ms)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let count = usize::try_from(rc).unwrap_or(0).min(events.capacity());
        // SAFETY: the kernel initialized the first `count` elements
        // (count is clamped to the capacity handed to epoll_wait).
        unsafe { events.set_len(count) };
        Ok(count)
    }
}

/// Creates a listener on `addr` with `SO_REUSEPORT` set before binding,
/// so several reactor shards can share one port. The result is a plain
/// `std::net::TcpListener`; all further operations on it are safe std.
pub(crate) fn reuseport_listener(addr: SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: socket takes no pointers; the fd is validated below and
    // wrapped into its single OwnedFd owner immediately after.
    let raw = unsafe { ffi::socket(i32::from(domain), SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if raw < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: raw came from a successful socket() call just above and
    // nothing else has claimed it.
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };

    let one: i32 = 1;
    // SAFETY: the option value pointer refers to a live i32 for the
    // duration of the call and the length matches its size.
    let rc = unsafe {
        ffi::setsockopt(
            fd.as_raw_fd(),
            SOL_SOCKET,
            SO_REUSEPORT,
            std::ptr::addr_of!(one).cast(),
            size_of_u32::<i32>(),
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }

    match addr {
        SocketAddr::V4(v4) => {
            let sa = SockaddrIn {
                family: AF_INET,
                port_be: v4.port().to_be(),
                addr_be: u32::from_be_bytes(v4.ip().octets()).to_be(),
                zero: [0; 8],
            };
            // SAFETY: the sockaddr pointer refers to a live, correctly
            // sized struct for the duration of the call.
            let rc = unsafe {
                ffi::bind(
                    fd.as_raw_fd(),
                    std::ptr::addr_of!(sa).cast(),
                    size_of_u32::<SockaddrIn>(),
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockaddrIn6 {
                family: AF_INET6,
                port_be: v6.port().to_be(),
                flowinfo: 0,
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: the sockaddr pointer refers to a live, correctly
            // sized struct for the duration of the call.
            let rc = unsafe {
                ffi::bind(
                    fd.as_raw_fd(),
                    std::ptr::addr_of!(sa).cast(),
                    size_of_u32::<SockaddrIn6>(),
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
        }
    }

    // SAFETY: listen takes no pointers; fd is the bound socket above.
    let rc = unsafe { ffi::listen(fd.as_raw_fd(), LISTEN_BACKLOG) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(TcpListener::from(fd))
}

/// `size_of::<T>()` as the `u32` the socket ABI wants (every struct
/// passed here is tens of bytes, so the cast cannot truncate).
fn size_of_u32<T>() -> u32 {
    u32::try_from(std::mem::size_of::<T>()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn two_shards_share_a_port_and_both_accept() {
        let first = reuseport_listener("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = reuseport_listener(addr).unwrap();
        assert_eq!(second.local_addr().unwrap().port(), addr.port());
        // The kernel hashes connections across shards; with both
        // listeners live, every connect must land on one of them.
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();
        let mut accepted = 0;
        for _ in 0..8 {
            let client = TcpStream::connect(addr).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                match first.accept().or_else(|_| second.accept()) {
                    Ok(_) => {
                        accepted += 1;
                        break;
                    }
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err(err) => panic!("accept never succeeded: {err}"),
                }
            }
            drop(client);
        }
        assert_eq!(accepted, 8);
    }

    #[test]
    fn errno_mapping_matches_io_error_kinds() {
        // The reactor's taxonomy leans on these std mappings; pin them.
        assert_eq!(io::Error::from_raw_os_error(EINTR).kind(), io::ErrorKind::Interrupted);
        assert_eq!(io::Error::from_raw_os_error(EAGAIN).kind(), io::ErrorKind::WouldBlock);
        assert_eq!(io::Error::from_raw_os_error(ENOMEM).kind(), io::ErrorKind::OutOfMemory);
        assert_eq!(
            io::Error::from_raw_os_error(ECONNABORTED).kind(),
            io::ErrorKind::ConnectionAborted
        );
        assert_eq!(io::Error::from_raw_os_error(ECONNRESET).kind(), io::ErrorKind::ConnectionReset);
        // EMFILE/ENFILE have no stable ErrorKind; the reactor matches on
        // raw_os_error, which must round-trip.
        assert_eq!(io::Error::from_raw_os_error(EMFILE).raw_os_error(), Some(EMFILE));
        assert_eq!(io::Error::from_raw_os_error(ENFILE).raw_os_error(), Some(ENFILE));
    }

    #[test]
    fn retry_eintr_retries_only_interruptions() {
        let mut attempts = 0;
        let result: io::Result<u32> = retry_eintr(|| {
            attempts += 1;
            if attempts < 3 {
                Err(io::Error::from_raw_os_error(EINTR))
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(attempts, 3);

        let mut attempts = 0;
        let result: io::Result<u32> = retry_eintr(|| {
            attempts += 1;
            Err(io::Error::from_raw_os_error(EMFILE))
        });
        assert_eq!(result.unwrap_err().raw_os_error(), Some(EMFILE));
        assert_eq!(attempts, 1, "non-EINTR errors must not be retried");
    }

    #[test]
    fn short_len_always_makes_progress() {
        assert_eq!(short_len(0, 50), 0);
        assert_eq!(short_len(100, 0), 1, "a short I/O still moves one byte");
        assert_eq!(short_len(100, 35), 35);
        assert_eq!(short_len(100, 100), 100);
        assert_eq!(short_len(1, 200), 1, "percent is clamped");
    }

    #[test]
    fn eventfd_signals_and_drains() {
        let fd = eventfd().unwrap();
        eventfd_signal(&fd).unwrap();
        eventfd_signal(&fd).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(fd.as_raw_fd(), 9, EPOLLIN | EPOLLET).unwrap();
        let mut events = Vec::with_capacity(4);
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token(), 9);
        eventfd_drain(&fd);
        // Drained: the edge is consumed and a fresh signal re-arms it.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        eventfd_signal(&fd).unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
    }

    #[test]
    fn nofile_limit_round_trips() {
        let limit = nofile_limit().unwrap();
        assert!(limit.cur > 0 && limit.cur <= limit.max);
        // Setting the limit to its current value must be accepted.
        set_nofile_limit(limit).unwrap();
        assert_eq!(nofile_limit().unwrap(), limit);
    }

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let listener = reuseport_listener("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), 0x5EED, EPOLLIN | EPOLLET).unwrap();
        let mut events = Vec::with_capacity(16);

        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let count = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(count, 1);
        assert_eq!(events[0].token(), 0x5EED);
        assert!(events[0].readable());

        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        // Edge-triggered: the consumed edge does not re-fire.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}

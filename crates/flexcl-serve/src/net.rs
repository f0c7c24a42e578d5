//! Transport loops: stdin-jsonl and one length-prefixed TCP transport.
//!
//! The jsonl loop is the CI/pipeline surface. On Linux the only TCP
//! transport is the epoll event loop ([`epoll::EpollTransport`]) —
//! edge-triggered readiness, per-connection read/write state machines
//! over the 4-byte length-prefixed framing, idle-timeout reaping, and
//! optional `SO_REUSEPORT` listener sharding. Elsewhere it is a blocking
//! loop with one thread per connection (`serve_tcp`).

use crate::server::Server;
use std::io::{self, BufRead, Write};

/// Serves newline-delimited JSON requests from `input`, writing one
/// response line per request to `output`. Returns the number of frames
/// served at EOF. Blank lines are skipped; a malformed line gets a typed
/// `malformed` response and service continues.
///
/// # Errors
///
/// Only transport I/O failures — request-level problems are answered in
/// band.
pub fn serve_jsonl(
    server: &Server,
    input: &mut impl BufRead,
    output: &mut impl Write,
) -> io::Result<u64> {
    let mut frames = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(frames);
        }
        let frame = line.trim();
        if frame.is_empty() {
            continue;
        }
        writeln!(output, "{}", server.handle_frame_raw(frame))?;
        output.flush()?;
        frames += 1;
    }
}

/// Accept loop for the length-prefixed TCP transport where epoll is not
/// available: one handler thread per connection, each serving frames
/// sequentially until the peer closes. Runs until the listener errors
/// (or forever). Nagle's algorithm is off on every accepted socket, as
/// in the epoll transport.
///
/// # Errors
///
/// Fatal accept errors; per-connection failures only end that
/// connection.
#[cfg(not(target_os = "linux"))]
pub fn serve_tcp(
    server: std::sync::Arc<Server>,
    listener: std::net::TcpListener,
) -> io::Result<()> {
    use crate::protocol::{read_frame, write_frame};
    loop {
        let (stream, _) = listener.accept()?;
        // Best effort: a socket that refuses the option still serves.
        let _ = stream.set_nodelay(true);
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || {
            let mut reader = stream.try_clone().expect("clone stream");
            let mut writer = stream;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if write_frame(&mut writer, &server.handle_frame_raw(&frame)).is_err() {
                    break;
                }
            }
        });
    }
}

/// Non-blocking epoll transport (Linux only): edge-triggered event
/// loops over raw syscalls, one per `SO_REUSEPORT` listener, serving
/// the 4-byte length-prefixed framing without a thread per connection.
#[cfg(target_os = "linux")]
pub mod epoll {
    use crate::protocol::MAX_FRAME_LEN;
    use crate::server::Server;
    use std::collections::HashMap;
    use std::io;
    use std::net::{Ipv4Addr, SocketAddrV4};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// Hand-rolled syscall surface — the crate takes no `libc`
    /// dependency, so the handful of symbols the event loop needs are
    /// declared here and resolved against the C library `std` already
    /// links. Constants are the Linux generic ABI values (identical on
    /// x86_64 and aarch64 for everything used here).
    mod sys {
        use std::ffi::c_void;

        pub const AF_INET: i32 = 2;
        pub const SOCK_STREAM: i32 = 1;
        pub const SOCK_NONBLOCK: i32 = 0o4000;
        pub const SOCK_CLOEXEC: i32 = 0o2000000;
        pub const SOL_SOCKET: i32 = 1;
        pub const SO_REUSEADDR: i32 = 2;
        pub const SO_REUSEPORT: i32 = 15;
        pub const IPPROTO_TCP: i32 = 6;
        pub const TCP_NODELAY: i32 = 1;

        pub const EPOLL_CLOEXEC: i32 = 0o2000000;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLET: u32 = 1 << 31;

        pub const EFD_CLOEXEC: i32 = 0o2000000;
        pub const EFD_NONBLOCK: i32 = 0o4000;

        pub const EINTR: i32 = 4;
        pub const EAGAIN: i32 = 11;

        /// Kernel `struct epoll_event`. x86_64 packs it to match the
        /// 32-bit layout; every other architecture uses natural
        /// alignment.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        /// `struct sockaddr_in` — port and address in network byte
        /// order.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct SockaddrIn {
            pub sin_family: u16,
            pub sin_port: u16,
            pub sin_addr: u32,
            pub sin_zero: [u8; 8],
        }

        extern "C" {
            pub fn epoll_create1(flags: i32) -> i32;
            pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(
                epfd: i32,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout: i32,
            ) -> i32;
            pub fn eventfd(initval: u32, flags: i32) -> i32;
            pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            pub fn setsockopt(
                fd: i32,
                level: i32,
                optname: i32,
                optval: *const c_void,
                optlen: u32,
            ) -> i32;
            #[cfg(test)]
            pub fn getsockopt(
                fd: i32,
                level: i32,
                optname: i32,
                optval: *mut c_void,
                optlen: *mut u32,
            ) -> i32;
            pub fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
            pub fn listen(fd: i32, backlog: i32) -> i32;
            pub fn accept4(fd: i32, addr: *mut SockaddrIn, len: *mut u32, flags: i32) -> i32;
            pub fn getsockname(fd: i32, addr: *mut SockaddrIn, len: *mut u32) -> i32;
            pub fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
            pub fn close(fd: i32) -> i32;
        }
    }

    /// Owned file descriptor: closes on drop.
    #[derive(Debug)]
    struct Fd(i32);

    impl Drop for Fd {
        fn drop(&mut self) {
            // Best effort; double-close is excluded by ownership.
            unsafe { sys::close(self.0) };
        }
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn errno() -> i32 {
        io::Error::last_os_error().raw_os_error().unwrap_or(0)
    }

    /// Tuning knobs for [`EpollTransport`].
    #[derive(Debug, Clone)]
    pub struct EpollOptions {
        /// Event loops, each with its own `SO_REUSEPORT` listener.
        pub listeners: usize,
        /// Idle connections (no traffic, nothing in flight) are closed
        /// after this long. A zero duration disables reaping: idle
        /// connections stay open until the peer closes or the loop stops.
        pub idle_timeout: Duration,
        /// Per-loop cap on concurrent connections; excess accepts are
        /// closed immediately.
        pub max_conns: usize,
    }

    impl Default for EpollOptions {
        fn default() -> Self {
            EpollOptions {
                listeners: 1,
                idle_timeout: Duration::from_secs(30),
                max_conns: 1024,
            }
        }
    }

    /// Completion mailbox shared between an event loop and the server
    /// workers: finished responses land in `pending` and the eventfd
    /// wakes the loop. Lives as long as the last in-flight completion
    /// closure, so a sweep finishing after shutdown writes into a
    /// still-open (merely unwatched) eventfd instead of a recycled fd.
    struct LoopShared {
        pending: Mutex<Vec<(u64, String)>>,
        wake: Fd,
    }

    impl LoopShared {
        fn new() -> io::Result<Self> {
            let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
            Ok(LoopShared { pending: Mutex::new(Vec::new()), wake: Fd(fd) })
        }

        fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // An EAGAIN here means the counter is already non-zero —
            // the loop is waking anyway.
            unsafe { sys::write(self.wake.0, one.as_ptr().cast(), one.len()) };
        }
    }

    /// Per-connection state machine. Reads accumulate into `rbuf`
    /// until a complete frame parses out; responses append to `wbuf`
    /// and drain as the socket accepts them. Responses may interleave
    /// out of request order when a connection pipelines frames — every
    /// response carries its `request_id`, so clients correlate by id,
    /// not position.
    struct Conn {
        fd: Fd,
        rbuf: Vec<u8>,
        wbuf: Vec<u8>,
        wpos: usize,
        inflight: usize,
        peer_closed: bool,
        want_write: bool,
        last: Instant,
    }

    const DATA_LISTENER: u64 = 0;
    const DATA_WAKE: u64 = 1;
    const FIRST_CONN: u64 = 2;
    const CONN_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET;

    struct Poller(Fd);

    impl Poller {
        fn new() -> io::Result<Self> {
            Ok(Poller(Fd(cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?)))
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
            let mut ev = sys::EpollEvent { events, data };
            cvt(unsafe { sys::epoll_ctl((self.0).0, op, fd, &mut ev) }).map(|_| ())
        }

        fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let n = unsafe {
                    sys::epoll_wait(
                        (self.0).0,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                if errno() != sys::EINTR {
                    return Err(io::Error::last_os_error());
                }
            }
        }
    }

    fn sockaddr_of(addr: SocketAddrV4) -> sys::SockaddrIn {
        sys::SockaddrIn {
            sin_family: sys::AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        }
    }

    fn local_addr_of(fd: i32) -> io::Result<SocketAddrV4> {
        let mut sa = sys::SockaddrIn {
            sin_family: 0,
            sin_port: 0,
            sin_addr: 0,
            sin_zero: [0; 8],
        };
        let mut len = std::mem::size_of::<sys::SockaddrIn>() as u32;
        cvt(unsafe { sys::getsockname(fd, &mut sa, &mut len) })?;
        Ok(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(sa.sin_addr)),
            u16::from_be(sa.sin_port),
        ))
    }

    fn listen_socket(addr: SocketAddrV4, reuseport: bool) -> io::Result<Fd> {
        let fd = Fd(cvt(unsafe {
            sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC, 0)
        })?);
        let one: i32 = 1;
        let optlen = std::mem::size_of::<i32>() as u32;
        cvt(unsafe {
            sys::setsockopt(
                fd.0,
                sys::SOL_SOCKET,
                sys::SO_REUSEADDR,
                (&one as *const i32).cast(),
                optlen,
            )
        })?;
        if reuseport {
            cvt(unsafe {
                sys::setsockopt(
                    fd.0,
                    sys::SOL_SOCKET,
                    sys::SO_REUSEPORT,
                    (&one as *const i32).cast(),
                    optlen,
                )
            })?;
        }
        let sa = sockaddr_of(addr);
        cvt(unsafe { sys::bind(fd.0, &sa, std::mem::size_of::<sys::SockaddrIn>() as u32) })?;
        cvt(unsafe { sys::listen(fd.0, 128) })?;
        Ok(fd)
    }

    /// The epoll serving transport. [`EpollTransport::bind`] spawns
    /// one event-loop thread per listener and returns immediately;
    /// [`EpollTransport::shutdown`] stops and joins them.
    pub struct EpollTransport {
        addr: SocketAddrV4,
        stop: Arc<AtomicBool>,
        loops: Vec<(JoinHandle<io::Result<()>>, Arc<LoopShared>)>,
    }

    impl EpollTransport {
        /// Binds `addr` (an IPv4 `host:port`; port 0 picks one) and
        /// starts `opts.listeners` event loops serving `server`.
        ///
        /// # Errors
        ///
        /// Address parse and socket/epoll setup failures.
        pub fn bind(server: Arc<Server>, addr: &str, opts: EpollOptions) -> io::Result<Self> {
            let want: SocketAddrV4 = addr.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("`{addr}` is not an IPv4 host:port"),
                )
            })?;
            let n = opts.listeners.max(1);
            // The first socket resolves port 0; siblings rebind the
            // resolved address so the kernel shards accepts.
            let first = listen_socket(want, n > 1)?;
            let bound = local_addr_of(first.0)?;
            let mut sockets = vec![first];
            for _ in 1..n {
                sockets.push(listen_socket(bound, true)?);
            }

            let stop = Arc::new(AtomicBool::new(false));
            let mut loops = Vec::with_capacity(n);
            for (i, listener) in sockets.into_iter().enumerate() {
                let shared = Arc::new(LoopShared::new()?);
                let handle = std::thread::Builder::new()
                    .name(format!("epoll-{i}"))
                    .spawn({
                        let server = Arc::clone(&server);
                        let shared = Arc::clone(&shared);
                        let stop = Arc::clone(&stop);
                        let opts = opts.clone();
                        move || event_loop(&server, listener, &shared, &stop, &opts)
                    })?;
                loops.push((handle, shared));
            }
            Ok(EpollTransport { addr: bound, stop, loops })
        }

        /// The bound address (with port 0 resolved).
        pub fn local_addr(&self) -> SocketAddrV4 {
            self.addr
        }

        /// Blocks on the event-loop threads without stopping them —
        /// the serve binary's foreground mode. Returns only if a loop
        /// exits (which short of an error it never does).
        ///
        /// # Errors
        ///
        /// The first loop error, if any loop exited abnormally.
        pub fn join(self) -> io::Result<()> {
            let mut result = Ok(());
            for (handle, _) in self.loops {
                match handle.join() {
                    Ok(r) => {
                        if result.is_ok() {
                            result = r;
                        }
                    }
                    Err(_) => {
                        if result.is_ok() {
                            result = Err(io::Error::other("event loop panicked"));
                        }
                    }
                }
            }
            result
        }

        /// Stops every event loop and joins its thread.
        ///
        /// # Errors
        ///
        /// The first loop error, if any loop exited abnormally.
        pub fn shutdown(self) -> io::Result<()> {
            self.stop.store(true, Ordering::SeqCst);
            let mut result = Ok(());
            for (handle, shared) in self.loops {
                shared.wake();
                match handle.join() {
                    Ok(r) => {
                        if result.is_ok() {
                            result = r;
                        }
                    }
                    Err(_) => {
                        if result.is_ok() {
                            result = Err(io::Error::other("event loop panicked"));
                        }
                    }
                }
            }
            result
        }
    }

    fn event_loop(
        server: &Server,
        listener: Fd,
        shared: &Arc<LoopShared>,
        stop: &AtomicBool,
        opts: &EpollOptions,
    ) -> io::Result<()> {
        let poller = Poller::new()?;
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            listener.0,
            sys::EPOLLIN | sys::EPOLLET,
            DATA_LISTENER,
        )?;
        poller.ctl(sys::EPOLL_CTL_ADD, shared.wake.0, sys::EPOLLIN, DATA_WAKE)?;

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id = FIRST_CONN;
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        // Wake at least 4x per idle window so reaping is timely even
        // with no traffic. A zero timeout disables reaping entirely
        // (connections then live until the peer closes or the loop stops),
        // so the tick only paces shutdown polling.
        let reap_enabled = !opts.idle_timeout.is_zero();
        let tick = if reap_enabled {
            (opts.idle_timeout.as_millis() as i32 / 4).clamp(10, 200)
        } else {
            200
        };

        while !stop.load(Ordering::SeqCst) {
            let n = poller.wait(&mut events, tick)?;
            for ev in &events[..n] {
                let (flags, data) = (ev.events, ev.data);
                match data {
                    DATA_LISTENER => accept_all(&poller, &listener, &mut conns, &mut next_id, opts),
                    DATA_WAKE => drain_eventfd(shared.wake.0),
                    id => {
                        let keep = match conns.get_mut(&id) {
                            Some(conn) => handle_conn_event(server, shared, id, conn, flags),
                            None => continue,
                        };
                        if !keep {
                            close_conn(&poller, &mut conns, id);
                        }
                    }
                }
            }

            // Deliver finished responses, then reap idle connections.
            let done = std::mem::take(&mut *shared.pending.lock().unwrap_or_else(|e| e.into_inner()));
            for (id, resp) in done {
                let keep = match conns.get_mut(&id) {
                    Some(conn) => deliver(&poller, id, conn, &resp),
                    None => continue, // connection died while the sweep ran
                };
                if !keep {
                    close_conn(&poller, &mut conns, id);
                }
            }
            if reap_enabled {
                let now = Instant::now();
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| {
                        c.inflight == 0
                            && c.wpos >= c.wbuf.len()
                            && now.duration_since(c.last) >= opts.idle_timeout
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    close_conn(&poller, &mut conns, id);
                }
            }
        }
        Ok(())
    }

    fn accept_all(
        poller: &Poller,
        listener: &Fd,
        conns: &mut HashMap<u64, Conn>,
        next_id: &mut u64,
        opts: &EpollOptions,
    ) {
        // EAGAIN drains the edge; anything else (ECONNABORTED, EMFILE
        // burst) is dropped and the loop stays up.
        while let Some(fd) = accept_one(listener) {
            if conns.len() >= opts.max_conns {
                continue; // drop: Fd closes on scope exit
            }
            let id = *next_id;
            *next_id += 1;
            if poller.ctl(sys::EPOLL_CTL_ADD, fd.0, CONN_INTEREST, id).is_err() {
                continue;
            }
            conns.insert(
                id,
                Conn {
                    fd,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    inflight: 0,
                    peer_closed: false,
                    want_write: false,
                    last: Instant::now(),
                },
            );
        }
    }

    /// Accepts one pending connection as a non-blocking socket with
    /// Nagle's algorithm off: responses pipelined on one connection are
    /// small writes that would otherwise wait for the peer's ACK.
    fn accept_one(listener: &Fd) -> Option<Fd> {
        // SAFETY: accept4 allows null address pointers when the peer
        // address is not wanted; `listener` is an open socket we own.
        let fd = unsafe {
            sys::accept4(
                listener.0,
                std::ptr::null_mut(),
                std::ptr::null_mut(),
                sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
            )
        };
        if fd < 0 {
            return None;
        }
        let fd = Fd(fd);
        let one: i32 = 1;
        // Best effort: a socket that refuses the option still serves.
        // SAFETY: `optval` points at `one`, which outlives the call, and
        // `optlen` is its size.
        unsafe {
            sys::setsockopt(
                fd.0,
                sys::IPPROTO_TCP,
                sys::TCP_NODELAY,
                (&one as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        Some(fd)
    }

    fn drain_eventfd(fd: i32) {
        let mut buf = [0u8; 8];
        unsafe { sys::read(fd, buf.as_mut_ptr().cast(), buf.len()) };
    }

    fn close_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, id: u64) {
        if let Some(conn) = conns.remove(&id) {
            // DEL before close so a recycled fd can't alias stale
            // interest; the kernel would drop it anyway on close.
            let _ = poller.ctl(sys::EPOLL_CTL_DEL, conn.fd.0, 0, id);
        }
    }

    /// Handles readiness on a connection; returns `false` when it
    /// should be closed (peer gone, protocol violation, I/O error).
    fn handle_conn_event(
        server: &Server,
        shared: &Arc<LoopShared>,
        id: u64,
        conn: &mut Conn,
        flags: u32,
    ) -> bool {
        if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            return false;
        }
        if flags & sys::EPOLLOUT != 0 && !flush(conn) {
            return false;
        }
        if flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !on_readable(server, shared, id, conn) {
            return false;
        }
        !(conn.peer_closed && conn.inflight == 0 && conn.wpos >= conn.wbuf.len())
    }

    /// Edge-triggered read: drain the socket, then parse every
    /// complete frame out of `rbuf` and dispatch it.
    fn on_readable(
        server: &Server,
        shared: &Arc<LoopShared>,
        id: u64,
        conn: &mut Conn,
    ) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let n = unsafe { sys::read(conn.fd.0, buf.as_mut_ptr().cast(), buf.len()) };
            if n > 0 {
                conn.rbuf.extend_from_slice(&buf[..n as usize]);
                conn.last = Instant::now();
            } else if n == 0 {
                conn.peer_closed = true;
                break;
            } else {
                match errno() {
                    sys::EAGAIN => break,
                    sys::EINTR => continue,
                    _ => return false,
                }
            }
        }
        loop {
            if conn.rbuf.len() < 4 {
                break;
            }
            let len =
                u32::from_be_bytes([conn.rbuf[0], conn.rbuf[1], conn.rbuf[2], conn.rbuf[3]])
                    as usize;
            if len > MAX_FRAME_LEN {
                return false; // framing violation: drop the connection
            }
            if conn.rbuf.len() < 4 + len {
                break;
            }
            let body = conn.rbuf[4..4 + len].to_vec();
            conn.rbuf.drain(..4 + len);
            let Ok(frame) = String::from_utf8(body) else {
                return false;
            };
            conn.inflight += 1;
            let mailbox = Arc::clone(shared);
            server.handle_frame_raw_async(
                &frame,
                Box::new(move |resp| {
                    mailbox
                        .pending
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((id, resp));
                    mailbox.wake();
                }),
            );
        }
        true
    }

    /// Frames `resp` onto the connection's write buffer and flushes
    /// what the socket will take; returns `false` to close.
    fn deliver(poller: &Poller, id: u64, conn: &mut Conn, resp: &str) -> bool {
        conn.inflight -= 1;
        conn.last = Instant::now();
        if resp.len() > MAX_FRAME_LEN {
            return false;
        }
        conn.wbuf.extend_from_slice(&(resp.len() as u32).to_be_bytes());
        conn.wbuf.extend_from_slice(resp.as_bytes());
        if !flush(conn) {
            return false;
        }
        let backlogged = conn.wpos < conn.wbuf.len();
        if backlogged != conn.want_write {
            conn.want_write = backlogged;
            let interest =
                if backlogged { CONN_INTEREST | sys::EPOLLOUT } else { CONN_INTEREST };
            if poller.ctl(sys::EPOLL_CTL_MOD, conn.fd.0, interest, id).is_err() {
                return false;
            }
        }
        !(conn.peer_closed && conn.inflight == 0 && conn.wpos >= conn.wbuf.len())
    }

    /// Writes until the socket blocks or the buffer drains; returns
    /// `false` on a write error.
    fn flush(conn: &mut Conn) -> bool {
        while conn.wpos < conn.wbuf.len() {
            let rest = &conn.wbuf[conn.wpos..];
            let n = unsafe { sys::write(conn.fd.0, rest.as_ptr().cast(), rest.len()) };
            if n > 0 {
                conn.wpos += n as usize;
            } else {
                match errno() {
                    sys::EAGAIN => break,
                    sys::EINTR => continue,
                    _ => return false,
                }
            }
        }
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        true
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn accepted_sockets_have_nagle_off() {
            let listener =
                listen_socket(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0), false).expect("listen");
            let addr = local_addr_of(listener.0).expect("local addr");
            let _client = std::net::TcpStream::connect(addr).expect("connect");
            // The handshake completes in the kernel; the accept queue may
            // still need a moment to surface it on a loaded host.
            let deadline = Instant::now() + Duration::from_secs(5);
            let conn = loop {
                if let Some(fd) = accept_one(&listener) {
                    break fd;
                }
                assert!(Instant::now() < deadline, "no connection to accept");
                std::thread::sleep(Duration::from_millis(1));
            };
            let mut value: i32 = 0;
            let mut len = std::mem::size_of::<i32>() as u32;
            // SAFETY: `value` and `len` outlive the call and `len` holds
            // the size of `value`.
            cvt(unsafe {
                sys::getsockopt(
                    conn.0,
                    sys::IPPROTO_TCP,
                    sys::TCP_NODELAY,
                    (&mut value as *mut i32).cast(),
                    &mut len,
                )
            })
            .expect("getsockopt");
            assert_eq!(value, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    #[test]
    fn jsonl_answers_every_line_and_survives_garbage() {
        let (server, _) = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("start");
        let input = "\n{\"id\":\"bad\"\n";
        let mut out = Vec::new();
        let n = serve_jsonl(&server, &mut input.as_bytes(), &mut out).expect("serve");
        assert_eq!(n, 1);
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.contains("\"kind\":\"malformed\""), "{text}");
        let c = server.shutdown();
        assert_eq!(c.malformed, 1);
    }

    #[test]
    fn metrics_frames_report_live_counters_and_responses_carry_request_ids() {
        let (server, _) = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("start");
        let input = "{\"id\":\"bad\"\n{\"metrics\":\"json\"}\n{\"metrics\":\"text\"}\n";
        let mut out = Vec::new();
        serve_jsonl(&server, &mut input.as_bytes(), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);

        // The malformed rejection still carries a server-assigned id.
        assert!(lines[0].contains("\"kind\":\"malformed\""), "{}", lines[0]);
        assert!(lines[0].contains("\"request_id\":\""), "{}", lines[0]);

        // The snapshot taken after it sees that rejection — and the
        // introspection frames themselves are not counted as traffic.
        for needle in ["\"serve.received\":1", "\"serve.malformed\":1", "\"serve.completed\":0"] {
            assert!(lines[1].contains(needle), "missing {needle} in {}", lines[1]);
        }
        assert!(lines[1].contains("\"process\":"), "{}", lines[1]);
        assert!(lines[2].contains("\"metrics_text\":\""), "{}", lines[2]);
        assert!(lines[2].contains("serve.malformed 1"), "{}", lines[2]);

        let c = server.shutdown();
        assert_eq!((c.received, c.malformed), (1, 1));
    }
}

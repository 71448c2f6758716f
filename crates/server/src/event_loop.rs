//! The readiness-driven core: `ServerConfig::workers` event-loop threads,
//! each multiplexing its own connections over its own
//! [`crate::sys::Poller`] (level-triggered epoll) and running every
//! decoded request to completion on that thread — the Redis shape.
//!
//! ```text
//!            ┌──────────── loop 0 (acceptor) ────────────┐
//! accept ───▶│ least-loaded loop? ─ self ─▶ register     │
//!            │        └─ other ─▶ inbox + wake ──────────┼──┐
//!            │ reads → FrameDecoder → run_batch → writes │  │
//!            └───────────────────────────────────────────┘  │
//!            ┌──────────── loop k (k ≥ 1) ───────────────┐  │
//!            │ wake → drain inbox → register ◀───────────┼──┘
//!            │ reads → FrameDecoder → run_batch → writes │
//!            └───────────────────────────────────────────┘
//! ```
//!
//! Loop 0 alone holds the listener and the optional metrics listener. It
//! hands each accepted stream to the loop with the fewest live
//! connections (ties to the lowest index) — one inbox push and one wake
//! per connection; from then on the connection never leaves that loop.
//!
//! Ordering needs no sequencer: per readable wake a connection's decoded
//! ops (at most `READ_BUDGET` bytes of them) execute right there, in
//! chunks of `MAX_BATCH`, and each chunk's responses are appended to
//! the outbuf in op order before the next chunk runs.
//!
//! The trade: an op runs on the thread that owns its connection, so a
//! predicate-sized op delays every other connection on the same loop for
//! its duration. The served workloads send point and by-user ops.
//!
//! Backpressure is TCP's: a connection whose outbuf crosses its
//! high-water mark has its read interest dropped until the client drains
//! responses, so the kernel socket buffer fills and the client blocks.

use crate::conn::{Conn, DecodedOp, Transport};
use crate::secure;
use crate::server::{run_batch, ServerShared};
use crate::sys;
use crate::wire::{self, ResponseBody};
use crypto::CryptoError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
/// The optional Prometheus exposition listener (`--metrics-addr`).
const TOKEN_METRICS: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 3;

/// How much one readiness wake may read from a single connection before
/// yielding to the others (level-triggered epoll re-reports the rest).
const READ_BUDGET: usize = 256 * 1024;

/// Most connections accepted per listener wake. At 10k-connection scale a
/// connect storm must not starve established connections of loop time;
/// level-triggered epoll re-reports the listener backlog on the next wake.
const ACCEPT_BURST: usize = 256;

/// How long the listener stays deaf after fd exhaustion before retrying.
/// A connection closing on loop 0 resumes it earlier — that is the event
/// that actually frees a descriptor; closes on other loops wait for this.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Most ops one engine batch may carry: a longer pipelined burst runs as
/// several batches, which bounds each batch's op vector and response
/// buffer.
const MAX_BATCH: usize = 128;

/// Outbound-buffer size past which a connection's read interest is
/// dropped until the client drains responses.
const OUTBUF_HIGH_WATER: usize = 8 << 20;

const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// What the acceptor and `GdprServer` see of one event loop: the streams
/// handed to it, how many live connections it owns, and its waker.
pub(crate) struct LoopShared {
    /// Streams accepted by loop 0 and not yet registered by this loop.
    pub inbox: Mutex<Vec<TcpStream>>,
    /// Live connections owned by this loop, counting streams still in
    /// the inbox: incremented by the acceptor when it picks this loop,
    /// decremented by this loop on close or failed registration.
    pub load: AtomicUsize,
    /// Write side of the loop's wake socketpair.
    wake_tx: TcpStream,
}

impl LoopShared {
    /// A loop's shared half plus the read side of its wake socketpair: an
    /// ephemeral loopback listener, one connect, one accept, listener
    /// dropped — built purely with std (the no-libc twin of an eventfd).
    pub fn new() -> io::Result<(LoopShared, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(listener.local_addr()?)?;
        let (wake_rx, _) = listener.accept()?;
        wake_tx.set_nonblocking(true)?;
        wake_tx.set_nodelay(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = LoopShared {
            inbox: Mutex::default(),
            load: AtomicUsize::new(0),
            wake_tx,
        };
        Ok((shared, wake_rx))
    }

    /// Re-arm the loop from another thread. A one-byte write is atomic,
    /// so concurrent wakers need no lock. A full pipe means a wake is
    /// already pending; any error beyond that means the loop is gone and
    /// waking is moot.
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// One connection to the metrics exposition listener: the full HTTP
/// response is composed at accept time; all that remains is draining it.
/// The request itself is never read — the endpoint serves exactly one
/// document.
struct MetricsConn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

pub(crate) struct EventLoop {
    shared: Arc<ServerShared>,
    /// This loop's position in `shared.loops`.
    index: usize,
    poller: sys::Poller,
    /// The data listener — loop 0 only.
    listener: Option<TcpListener>,
    /// Plaintext Prometheus exposition listener — loop 0 only, when
    /// configured.
    metrics_listener: Option<TcpListener>,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    /// In-progress metrics responses, keyed by token (same space as
    /// `conns`; a token is in at most one of the two maps).
    metrics_conns: HashMap<u64, MetricsConn>,
    next_token: u64,
    events: Vec<sys::Event>,
    scratch: Vec<u8>,
    last_stall_check: Instant,
    /// When `Some`, the listener's read interest is dropped after fd
    /// exhaustion; the instant is the retry deadline.
    accept_paused_until: Option<Instant>,
}

impl EventLoop {
    pub fn new(
        shared: Arc<ServerShared>,
        index: usize,
        listener: Option<TcpListener>,
        metrics_listener: Option<TcpListener>,
        wake_rx: TcpStream,
    ) -> io::Result<EventLoop> {
        let poller = sys::Poller::new()?;
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        }
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;
        if let Some(metrics) = &metrics_listener {
            metrics.set_nonblocking(true)?;
            poller.add(metrics.as_raw_fd(), TOKEN_METRICS, true, false)?;
        }
        Ok(EventLoop {
            shared,
            index,
            poller,
            listener,
            metrics_listener,
            wake_rx,
            conns: HashMap::new(),
            metrics_conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            events: Vec::with_capacity(256),
            scratch: vec![0; 64 * 1024],
            last_stall_check: Instant::now(),
            accept_paused_until: None,
        })
    }

    pub fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            // The tick bounds how late a write-stall kill can fire — and,
            // while accepting is paused on fd exhaustion, how late the
            // listener retry happens.
            let timeout = if self.accept_paused_until.is_some() {
                20
            } else {
                500
            };
            if self.poller.wait(&mut self.events, timeout).is_err() {
                break;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let events = std::mem::take(&mut self.events);
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.drain_wake();
                        self.register_handoffs();
                    }
                    TOKEN_METRICS => self.accept_metrics(),
                    token if self.metrics_conns.contains_key(&token) => {
                        if event.writable {
                            self.flush_metrics_conn(token);
                        }
                    }
                    token => {
                        if event.writable {
                            self.flush_conn(token);
                        }
                        if event.readable {
                            self.conn_readable(token);
                        }
                    }
                }
            }
            self.events = events;
            self.check_write_stalls();
            self.resume_accepting(false);
        }
        self.drain_on_shutdown();
    }

    /// Loop 0 only: accept a burst and place each stream on the loop with
    /// the fewest live connections (ties to the lowest index) — directly
    /// when that is this loop, otherwise through the target's inbox and
    /// waker. Each stream is placed as soon as it is accepted, so a burst
    /// cut short by fd exhaustion has already placed everything it took.
    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                    // Out of descriptors: go deaf on the listener instead
                    // of spinning on a backlog this process cannot accept.
                    // Existing connections keep full service; the next
                    // close on this loop (or the pause deadline) resumes
                    // accepting.
                    self.pause_accepting();
                    return;
                }
                // Transient per-connection failures (e.g. the peer reset
                // before accept); keep draining the backlog.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // Unknown persistent accept failure: avoid a busy
                    // spin; level-triggered epoll re-reports the backlog.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            };
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Response frames are small; waiting for ACKs to coalesce them
            // (Nagle) would serialize the request/response pattern.
            stream.set_nodelay(true).ok();
            let stats = &self.shared.stats;
            stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
            stats.connections_active.fetch_add(1, Ordering::Relaxed);
            let loops = &self.shared.loops;
            let target = (0..loops.len())
                .min_by_key(|&i| loops[i].load.load(Ordering::Relaxed))
                .unwrap_or(0);
            loops[target].load.fetch_add(1, Ordering::Relaxed);
            if target == self.index {
                self.register(stream);
            } else {
                loops[target].inbox.lock().push(stream);
                loops[target].wake();
            }
        }
    }

    /// Register every stream the acceptor handed to this loop.
    fn register_handoffs(&mut self) {
        let streams = std::mem::take(&mut *self.shared.loops[self.index].inbox.lock());
        for stream in streams {
            self.register(stream);
        }
    }

    /// Start serving a placed stream on this loop; on failure drop it and
    /// give back the counts its placement took.
    fn register(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn::new(
            stream,
            self.shared.config.max_frame,
            self.shared.config.encrypt.is_some(),
        );
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            self.release_slot();
            return;
        }
        self.conns.insert(token, conn);
    }

    /// One connection of this loop is gone (closed, or never registered).
    fn release_slot(&self) {
        self.shared
            .stats
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
        self.shared.loops[self.index]
            .load
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Accept metrics scrapes: compose the full HTTP response immediately
    /// (the snapshot belongs to the accept instant) and drain it as the
    /// socket allows. Never reads — a scraper that wants a second sample
    /// opens a second connection.
    fn accept_metrics(&mut self) {
        let mut accepted = Vec::new();
        if let Some(listener) = &self.metrics_listener {
            for _ in 0..ACCEPT_BURST {
                match listener.accept() {
                    Ok((stream, _)) => accepted.push(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // Metrics scrapes are best-effort; any other accept
                    // failure just waits for the next readiness report.
                    Err(_) => break,
                }
            }
        }
        for stream in accepted {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let report = crate::metrics::build_metrics_report(&self.shared);
            let tenants = self.shared.engine.tenant_telemetry();
            let buf = crate::metrics::http_response(&report, &tenants);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, false, true)
                .is_err()
            {
                continue;
            }
            self.metrics_conns.insert(
                token,
                MetricsConn {
                    stream,
                    buf,
                    pos: 0,
                },
            );
            self.flush_metrics_conn(token);
        }
    }

    /// Drain one metrics response; close once it is fully written (or on
    /// any write failure — there is nothing to salvage).
    fn flush_metrics_conn(&mut self, token: u64) {
        let Some(mc) = self.metrics_conns.get_mut(&token) else {
            return;
        };
        loop {
            if mc.pos == mc.buf.len() {
                self.close_metrics_conn(token);
                return;
            }
            match mc.stream.write(&mc.buf[mc.pos..]) {
                Ok(0) => {
                    self.close_metrics_conn(token);
                    return;
                }
                Ok(n) => mc.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_metrics_conn(token);
                    return;
                }
            }
        }
    }

    fn close_metrics_conn(&mut self, token: u64) {
        if let Some(mc) = self.metrics_conns.remove(&token) {
            let _ = self.poller.delete(mc.stream.as_raw_fd());
            let _ = mc.stream.shutdown(Shutdown::Both);
        }
    }

    fn pause_accepting(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        if self.accept_paused_until.is_none()
            && self
                .poller
                .modify(listener.as_raw_fd(), TOKEN_LISTENER, false, false)
                .is_err()
        {
            // Could not silence the listener; fall back to a short sleep
            // so the loop does not spin on the un-acceptable backlog.
            std::thread::sleep(Duration::from_millis(10));
            return;
        }
        self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
    }

    /// Re-arm the listener after fd exhaustion. `force` retries
    /// immediately (a descriptor was just freed on this loop); otherwise
    /// only once the pause deadline passes — which is how a close on
    /// another loop is noticed, at loop 0's next tick.
    fn resume_accepting(&mut self, force: bool) {
        let (Some(deadline), Some(listener)) = (self.accept_paused_until, &self.listener) else {
            return;
        };
        if !force && Instant::now() < deadline {
            return;
        }
        if self
            .poller
            .modify(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
            .is_ok()
        {
            self.accept_paused_until = None;
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break, // writer gone: shutdown path will notice
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.poisoned || conn.peer_eof {
            return;
        }
        let mut budget = READ_BUDGET;
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.counters.bytes_in += n as u64;
                    conn.decoder.push(&self.scratch[..n]);
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        // Decode everything complete; a malformed payload answers in
        // order and poisons the stream, a hostile length prefix kills the
        // framing outright (no response can be attributed to a seq).
        // On an encrypted transport each frame payload first crosses the
        // record layer: the hello while handshaking, sealed records after.
        let config = &self.shared.config;
        let mut pending = Vec::new();
        while !conn.poisoned {
            match conn.decoder.next_frame() {
                Ok(Some(payload)) => {
                    let plaintext = match &mut conn.transport {
                        Transport::Plain => payload,
                        Transport::Handshaking => {
                            match secure::decode_hello(&payload, secure::ROLE_CLIENT) {
                                Ok(client_random) => {
                                    let key =
                                        config.encrypt.as_deref().unwrap_or(secure::DEFAULT_PSK);
                                    let server_random = secure::session_random();
                                    let ack =
                                        secure::encode_hello(secure::ROLE_SERVER, &server_random);
                                    // The ack itself travels pre-cipher;
                                    // straight to the outbuf, not enqueue.
                                    let mut frame = Vec::with_capacity(4 + ack.len());
                                    let _ = wire::write_frame(&mut frame, &ack);
                                    if conn.outbuf.is_empty() {
                                        conn.last_write_progress = Instant::now();
                                    }
                                    conn.outbuf.extend(frame);
                                    conn.transport = Transport::Secure(Box::new(
                                        secure::server_channel(key, &client_random, &server_random),
                                    ));
                                    self.shared
                                        .stats
                                        .handshakes_completed
                                        .fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                                Err(_) => {
                                    // A plaintext op frame, garbage, or a
                                    // skewed version: refuse the downgrade
                                    // without answering — an unauthenticated
                                    // peer gets no protocol oracle.
                                    self.shared
                                        .stats
                                        .handshake_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                    conn.poisoned = true;
                                    conn.close_after_flush = true;
                                    conn.decoder.clear();
                                    continue;
                                }
                            }
                        }
                        Transport::Secure(channel) => match channel.open(&payload) {
                            Ok(plaintext) => plaintext,
                            Err(e) => {
                                // A record-layer failure desynchronizes the
                                // channel permanently; close without a
                                // response, but audit replays apart from
                                // corruption.
                                let stat = match e {
                                    CryptoError::Replay => &self.shared.stats.replay_rejects,
                                    _ => &self.shared.stats.decrypt_failures,
                                };
                                stat.fetch_add(1, Ordering::Relaxed);
                                conn.poisoned = true;
                                conn.close_after_flush = true;
                                conn.decoder.clear();
                                continue;
                            }
                        },
                    };
                    match wire::decode_request(&plaintext) {
                        Ok((seq, tenant, body)) => pending.push(DecodedOp::Request {
                            seq,
                            tenant,
                            body,
                            decoded_at: Instant::now(),
                        }),
                        Err(err) => {
                            self.shared
                                .stats
                                .protocol_errors
                                .fetch_add(1, Ordering::Relaxed);
                            // Best-effort seq echo: v2 payloads carry it
                            // after the version byte. A v1/garbage frame
                            // yields a junk seq, which is fine — the error
                            // text names the real problem and the
                            // connection closes.
                            let seq = plaintext
                                .get(1..9)
                                .map_or(0, |b| u64::from_be_bytes(b.try_into().unwrap()));
                            pending.push(DecodedOp::Canned(wire::encode_response(
                                seq,
                                &ResponseBody::Protocol(err.to_string()),
                            )));
                            conn.poisoned = true;
                            conn.close_after_flush = true;
                            conn.decoder.clear();
                        }
                    }
                }
                Ok(None) => break,
                Err(_hostile_len) => {
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    conn.poisoned = true;
                    conn.close_after_flush = true;
                    conn.decoder.clear();
                }
            }
        }
        if conn.peer_eof {
            conn.close_after_flush = true;
        }
        // Run to completion: everything this wake decoded executes now,
        // on this thread, and its responses join the outbuf in op order.
        let mut ops = pending.into_iter().peekable();
        while ops.peek().is_some() {
            let batch: Vec<DecodedOp> = ops.by_ref().take(MAX_BATCH).collect();
            let bytes = run_batch(&self.shared, &mut conn.counters, batch);
            conn.enqueue(bytes);
        }
        // Opportunistic write: a batch's responses almost always fit the
        // socket buffer, so skip the EPOLLOUT round trip in the common
        // case. Also closes a connection that owes nothing and is done.
        self.flush_conn(token);
        self.update_interest(token);
    }

    /// Drain the outbuf as far as the socket accepts; closes the
    /// connection on write failure or once everything owed is out and the
    /// connection is marked to close.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.outbuf.is_empty() {
            match conn.stream.write(conn.outbuf.remaining()) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.counters.bytes_out += n as u64;
                    conn.outbuf.advance(n);
                    conn.last_write_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if conn.outbuf.is_empty() {
            if let Some(started) = conn.write_batch_started.take() {
                self.shared.telemetry.write_drain.record(started.elapsed());
            }
        }
        if conn.outbuf.is_empty() && conn.close_after_flush {
            self.close_conn(token);
        }
    }

    /// Recompute and apply the connection's epoll interest from its state.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let readable = !conn.poisoned && !conn.peer_eof && conn.outbuf.len() < OUTBUF_HIGH_WATER;
        let writable = !conn.outbuf.is_empty();
        if (readable, writable) != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, readable, writable)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            conn.interest = (readable, writable);
        }
    }

    /// Kill connections owing output that made no write progress for the
    /// configured timeout — a pipelining client that never drains
    /// responses must not hold buffers forever.
    fn check_write_stalls(&mut self) {
        let timeout = self.shared.config.write_timeout;
        if timeout.is_zero() {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last_stall_check) < Duration::from_millis(100) {
            return;
        }
        self.last_stall_check = now;
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                !conn.outbuf.is_empty() && now.duration_since(conn.last_write_progress) > timeout
            })
            .map(|(&token, _)| token)
            .collect();
        for token in dead {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.release_slot();
            // A descriptor just freed: if accepts were paused on fd
            // exhaustion there is room for exactly this listener retry.
            self.resume_accepting(true);
        }
    }

    /// Graceful exit: stop reading, flush what the sockets accept within
    /// a short deadline, close everything. Nothing is mid-execution — a
    /// batch runs to completion before the loop looks at the flag.
    fn drain_on_shutdown(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let owed: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.outbuf.is_empty())
                .map(|(&t, _)| t)
                .collect();
            for token in owed {
                self.flush_conn(token);
            }
            let drained = self.conns.values().all(|c| c.outbuf.is_empty());
            if drained || Instant::now() >= deadline {
                break;
            }
            if self.poller.wait(&mut self.events, 50).is_err() {
                break;
            }
            if self.events.iter().any(|e| e.token == TOKEN_WAKE) {
                self.drain_wake();
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        let metrics_tokens: Vec<u64> = self.metrics_conns.keys().copied().collect();
        for token in metrics_tokens {
            self.close_metrics_conn(token);
        }
    }
}

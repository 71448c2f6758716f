//! The readiness-driven core: one thread multiplexing every connection
//! over [`crate::sys::Poller`] (level-triggered epoll), with engine work
//! offloaded to the [`crate::pool::Executor`] as per-connection batches.
//!
//! ```text
//!        ┌───────────────── event loop (1 thread) ─────────────────┐
//! accept │ nonblocking reads → FrameDecoder → pending ops          │
//!        │        └── burst of N ops → one executor batch ──┐      │
//!        │ completions (wake) → outbuf → nonblocking writes │      │
//!        └──────────────────────────────────────────────────┼──────┘
//!                                                           ▼
//!                                     Executor: engine.execute_batch(ops)
//! ```
//!
//! `execute_batch` is one executor hand-off, not a second execution path:
//! the in-process engines run the ops in order, one audit append per op.
//!
//! Ordering needs no sequencer: at most one batch per connection is in
//! flight, its responses are encoded into one buffer in op order, and the
//! loop appends completion buffers to the connection's outbuf in
//! submission order.
//!
//! Backpressure is two-staged: a full executor queue leaves batches
//! pending on their connections, and a connection whose pending ops or
//! outbuf cross their high-water marks gets its read interest dropped —
//! the kernel socket buffer then fills and the client blocks, exactly the
//! end state the old blocking pool submit produced, but without a thread
//! parked per connection.

use crate::conn::{Conn, DecodedOp, Transport};
use crate::secure;
use crate::server::{run_batch, ServerShared};
use crate::sys;
use crate::wire::{self, ResponseBody};
use crypto::CryptoError;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
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
/// A connection closing resumes it earlier — that is the event that
/// actually frees a descriptor.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Most ops one server-side batch may carry; a longer pipelined burst is
/// split so a single connection cannot monopolize an executor thread for
/// an unbounded stretch.
const MAX_BATCH: usize = 128;

/// Decoded-but-unexecuted ops a connection may accumulate before its read
/// interest is dropped.
const MAX_PENDING_OPS: usize = 4096;

/// Outbound-buffer size past which a connection's read interest is
/// dropped until the client drains responses.
const OUTBUF_HIGH_WATER: usize = 8 << 20;

const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// A batch's encoded responses, handed back from the executor.
pub(crate) struct Completion {
    pub token: u64,
    pub bytes: Vec<u8>,
}

/// The executor-side handle that re-arms the loop: a loopback socketpair
/// built purely with std (the no-libc twin of an eventfd).
pub(crate) struct Waker {
    tx: parking_lot::Mutex<TcpStream>,
}

impl Waker {
    pub fn wake(&self) {
        // A full pipe means a wake is already pending; any error beyond
        // that means the loop is gone and waking is moot.
        let _ = self.tx.lock().write(&[1]);
    }
}

/// The wake socketpair: an ephemeral loopback listener, one connect, one
/// accept, listener dropped. Returns (write side, read side).
pub(crate) fn wake_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker {
            tx: parking_lot::Mutex::new(tx),
        },
        rx,
    ))
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
    poller: sys::Poller,
    listener: TcpListener,
    /// Plaintext Prometheus exposition listener, when configured.
    metrics_listener: Option<TcpListener>,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    /// In-progress metrics responses, keyed by token (same space as
    /// `conns`; a token is in at most one of the two maps).
    metrics_conns: HashMap<u64, MetricsConn>,
    next_token: u64,
    /// Connections whose batch submission found the executor full.
    stalled: Vec<u64>,
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
        poller: sys::Poller,
        listener: TcpListener,
        metrics_listener: Option<TcpListener>,
        wake_rx: TcpStream,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;
        if let Some(metrics) = &metrics_listener {
            metrics.set_nonblocking(true)?;
            poller.add(metrics.as_raw_fd(), TOKEN_METRICS, true, false)?;
        }
        Ok(EventLoop {
            shared,
            poller,
            listener,
            metrics_listener,
            wake_rx,
            conns: HashMap::new(),
            metrics_conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            stalled: Vec::new(),
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
                    TOKEN_WAKE => self.drain_wake(),
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
            self.process_completions();
            self.check_write_stalls();
            self.resume_accepting(false);
        }
        self.drain_on_shutdown();
    }

    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                    // Out of descriptors: go deaf on the listener instead
                    // of spinning on a backlog this process cannot accept.
                    // Existing connections keep full service; the next
                    // close (or the pause deadline) resumes accepting.
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
            let token = self.next_token;
            self.next_token += 1;
            let stats = &self.shared.stats;
            stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
            stats.connections_active.fetch_add(1, Ordering::Relaxed);
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
                stats.connections_active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            self.conns.insert(token, conn);
        }
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
        if self.accept_paused_until.is_none()
            && self
                .poller
                .modify(self.listener.as_raw_fd(), TOKEN_LISTENER, false, false)
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
    /// immediately (a descriptor was just freed); otherwise only once the
    /// pause deadline passes.
    fn resume_accepting(&mut self, force: bool) {
        let Some(deadline) = self.accept_paused_until else {
            return;
        };
        if !force && Instant::now() < deadline {
            return;
        }
        if self
            .poller
            .modify(self.listener.as_raw_fd(), TOKEN_LISTENER, true, false)
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
        let config = self.shared.config.clone();
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
                    conn.counters
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
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
                        Ok((seq, tenant, body)) => conn.pending.push_back(DecodedOp::Request {
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
                            conn.pending
                                .push_back(DecodedOp::Canned(wire::encode_response(
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
        if conn.close_after_flush && conn.drained() {
            self.close_conn(token);
            return;
        }
        // Flush eagerly so a handshake ack does not wait a poll cycle.
        if !conn.outbuf.is_empty() {
            self.flush_conn(token);
        }
        self.try_submit(token);
        self.update_interest(token);
    }

    /// Hand the connection's pending burst to the executor as one batch —
    /// unless one is already in flight (ordering) or the executor is full
    /// (the batch stays pending; retried on the next completion wake).
    fn try_submit(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.in_flight || conn.pending.is_empty() {
            return;
        }
        if !self.shared.executor.has_capacity() {
            if !self.stalled.contains(&token) {
                self.stalled.push(token);
            }
            return;
        }
        let take = conn.pending.len().min(MAX_BATCH);
        let ops: Vec<DecodedOp> = conn.pending.drain(..take).collect();
        conn.in_flight = true;
        let shared = Arc::clone(&self.shared);
        let counters = Arc::clone(&conn.counters);
        let submitted_at = Instant::now();
        let submitted = self.shared.executor.submit(Box::new(move || {
            // Submit → worker pickup: pure executor queue pressure.
            shared.telemetry.queue_wait.record(submitted_at.elapsed());
            let bytes = run_batch(&shared, &counters, ops);
            shared.completions.lock().push(Completion { token, bytes });
            shared.waker.wake();
        }));
        if !submitted {
            // Shutting down: the loop is about to exit; drop the batch.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.in_flight = false;
            }
        }
    }

    fn process_completions(&mut self) {
        loop {
            let done: Vec<Completion> = {
                let mut completions = self.shared.completions.lock();
                if completions.is_empty() {
                    break;
                }
                std::mem::take(&mut *completions)
            };
            for completion in done {
                let Some(conn) = self.conns.get_mut(&completion.token) else {
                    continue;
                };
                conn.in_flight = false;
                if conn.outbuf.is_empty() && !completion.bytes.is_empty() {
                    // The write obligation starts now; stall tracking
                    // must not count the idle time before it. The same
                    // instant starts the write_drain telemetry stage.
                    let now = Instant::now();
                    conn.last_write_progress = now;
                    conn.write_batch_started = Some(now);
                }
                conn.enqueue(completion.bytes);
                // Opportunistic write: a just-completed batch almost
                // always fits the socket buffer, so skip the EPOLLOUT
                // round trip entirely in the common case.
                self.flush_conn(completion.token);
                self.try_submit(completion.token);
                self.update_interest(completion.token);
            }
            // Freed executor slots: retry connections parked on a full
            // queue.
            let stalled = std::mem::take(&mut self.stalled);
            for token in stalled {
                self.try_submit(token);
                self.update_interest(token);
            }
        }
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
                    conn.counters
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
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
        if conn.outbuf.is_empty() && conn.close_after_flush && conn.drained() {
            self.close_conn(token);
        }
    }

    /// Recompute and apply the connection's epoll interest from its state.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let readable = !conn.poisoned
            && !conn.peer_eof
            && conn.pending.len() < MAX_PENDING_OPS
            && conn.outbuf.len() < OUTBUF_HIGH_WATER;
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
    /// responses must not hold buffers (and batches) forever.
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
            self.shared
                .stats
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
            // A descriptor just freed: if accepts were paused on fd
            // exhaustion there is room for exactly this listener retry.
            self.resume_accepting(true);
        }
        self.stalled.retain(|&t| t != token);
    }

    /// Graceful exit: stop reading, let in-flight batches complete, flush
    /// what the sockets accept within a short deadline, close everything.
    fn drain_on_shutdown(&mut self) {
        for conn in self.conns.values_mut() {
            conn.pending.clear();
            conn.poisoned = true;
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            self.process_shutdown_completions();
            let tokens: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.outbuf.is_empty())
                .map(|(&t, _)| t)
                .collect();
            for token in tokens {
                self.flush_conn(token);
            }
            let owed = self
                .conns
                .values()
                .any(|c| c.in_flight || !c.outbuf.is_empty());
            if !owed || Instant::now() >= deadline {
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

    /// Completion intake during drain: append and flush, but never submit
    /// new batches.
    fn process_shutdown_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock());
        for completion in done {
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                continue;
            };
            conn.in_flight = false;
            conn.enqueue(completion.bytes);
            self.flush_conn(completion.token);
        }
    }
}

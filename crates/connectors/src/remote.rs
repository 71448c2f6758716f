//! The remote connector: `GdprClient` speaks the `gdpr-server` wire
//! protocol over a TCP connection, and [`RemoteConnector`] pools clients
//! behind the same [`GdprConnector`] interface every other variant
//! implements — so the conformance suite, the property harnesses, and the
//! bench layer drive a server over loopback (or a real network) without
//! changing a line.
//!
//! Pipelining: [`GdprClient::pipeline`] bursts a batch of queries before
//! reading any response; the server answers strictly in request order and
//! echoes each request's `seq`, which the client verifies — a reordered or
//! cross-connection response is detected, never silently mis-attributed.

use gdpr_core::compliance::FeatureReport;
use gdpr_core::connector::{EngineHandle, SpaceReport};
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::query::GdprQuery;
use gdpr_core::response::GdprResponse;
use gdpr_core::role::Session;
use gdpr_core::tenant::TenantId;
use gdpr_core::GdprConnector;
use gdpr_server::secure;
use gdpr_server::wire::{self, MetricsReport, RequestBody, ResponseBody, StatsSnapshot};
use gdpr_server::{GdprServer, ServerConfig};
use parking_lot::Mutex;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn io_err(context: &str, e: impl std::fmt::Display) -> GdprError {
    GdprError::Store(format!("remote {context}: {e}"))
}

/// One client connection to a `gdpr-serve` endpoint.
///
/// A call holds the connection for its full round trip, so one client is
/// one unit of server-side concurrency; open several (or use
/// [`RemoteConnector`]'s pool) to drive a server with N in-flight
/// requests.
pub struct GdprClient {
    io: Mutex<ClientIo>,
    seq: AtomicU64,
    /// The tenant stamped into control-request headers (`GetMetrics`,
    /// `Features`, ...). `Execute` headers use the session's tenant
    /// instead — the session is authoritative for data ops.
    tenant: TenantId,
}

struct ClientIo {
    /// One descriptor serves both directions: calls are serialized by the
    /// client's mutex and strictly write-then-read, and writes go through
    /// [`BufReader::get_mut`] (duplicating the fd with `try_clone` would
    /// double the descriptor cost of a 10k-connection population).
    stream: BufReader<TcpStream>,
    /// `Some` once the encrypted-transport handshake completed; every
    /// outbound frame payload is then sealed and every inbound one opened.
    channel: Option<Box<crypto::channel::DuplexChannel>>,
}

impl ClientIo {
    fn send(&mut self, bytes: &[u8]) -> GdprResult<()> {
        self.stream
            .get_mut()
            .write_all(bytes)
            .map_err(|e| io_err("send", e))
    }

    /// Encode (and, on an encrypted transport, seal) one request payload
    /// into its wire frame.
    fn frame_bytes(&mut self, plaintext: &[u8]) -> GdprResult<Vec<u8>> {
        let mut buf = Vec::new();
        match &mut self.channel {
            Some(channel) => wire::write_frame(&mut buf, &channel.seal(plaintext)),
            None => wire::write_frame(&mut buf, plaintext),
        }
        .map_err(|e| io_err("send", e))?;
        Ok(buf)
    }

    /// Read one frame and open it when the transport is encrypted.
    /// `Ok(None)` is a clean server close.
    fn recv_frame(&mut self) -> GdprResult<Option<Vec<u8>>> {
        let max = wire::MAX_FRAME
            + if self.channel.is_some() {
                secure::SEAL_OVERHEAD
            } else {
                0
            };
        let Some(payload) =
            wire::read_frame(&mut self.stream, max).map_err(|e| io_err("receive", e))?
        else {
            return Ok(None);
        };
        match &mut self.channel {
            Some(channel) => channel
                .open(&payload)
                .map(Some)
                .map_err(|e| io_err("open sealed record", e)),
            None => Ok(Some(payload)),
        }
    }
}

/// Run the client half of the [`secure`] handshake. Rejects any answer
/// that is not a well-formed server hello — in particular a plaintext
/// server's protocol-error response — so an encrypted client can never be
/// silently downgraded to plaintext.
fn client_handshake(
    stream: &mut BufReader<TcpStream>,
    key: &str,
) -> GdprResult<crypto::channel::DuplexChannel> {
    let client_random = secure::session_random();
    let hello = secure::encode_hello(secure::ROLE_CLIENT, &client_random);
    wire::write_frame(stream.get_mut(), &hello).map_err(|e| io_err("handshake send", e))?;
    let ack = wire::read_frame(stream, wire::MAX_FRAME)
        .map_err(|e| io_err("handshake receive", e))?
        .ok_or_else(|| {
            io_err(
                "handshake",
                "server closed during handshake (wrong pre-shared key, or no --encrypt?)",
            )
        })?;
    let server_random = secure::decode_hello(&ack, secure::ROLE_SERVER).map_err(|e| {
        io_err(
            "handshake",
            format!(
                "{e} — refusing to continue: the endpoint did not complete the \
                 encrypted handshake (plaintext downgrade rejected)"
            ),
        )
    })?;
    Ok(secure::client_channel(key, &client_random, &server_random))
}

impl GdprClient {
    /// Connect to `addr` (`host:port`), following `GDPR_ENCRYPT` /
    /// `GDPR_ENCRYPT_KEY` for the transport — the same environment the
    /// server's `ServerConfig::default` reads, so suites flip both ends
    /// together.
    pub fn connect(addr: &str) -> GdprResult<GdprClient> {
        Self::connect_with(addr, secure::encrypt_key_from_env().as_deref())
    }

    /// Connect with an explicit transport choice: `Some(key)` runs the
    /// encrypted handshake before the first op, `None` stays plaintext.
    pub fn connect_with(addr: &str, encrypt_key: Option<&str>) -> GdprResult<GdprClient> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).ok();
        let mut stream = BufReader::new(stream);
        let channel = match encrypt_key {
            Some(key) => Some(Box::new(client_handshake(&mut stream, key)?)),
            None => None,
        };
        Ok(GdprClient {
            io: Mutex::new(ClientIo { stream, channel }),
            seq: AtomicU64::new(0),
            tenant: TenantId::default(),
        })
    }

    /// Scope this client's control requests to `tenant`.
    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.tenant = tenant;
    }

    /// The tenant this client's control requests run as.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    fn roundtrip(&self, body: &RequestBody) -> GdprResult<ResponseBody> {
        self.roundtrip_as(&self.tenant, body)
    }

    fn roundtrip_as(&self, tenant: &TenantId, body: &RequestBody) -> GdprResult<ResponseBody> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut io = self.io.lock();
        let frame = io.frame_bytes(&wire::encode_request(seq, tenant, body))?;
        io.send(&frame)?;
        let payload = io
            .recv_frame()?
            .ok_or_else(|| io_err("receive", "server closed the connection"))?;
        let (got_seq, response) =
            wire::decode_response(&payload).map_err(|e| io_err("decode", e))?;
        if got_seq != seq {
            // An out-of-order response would mis-attribute personal data
            // across requests; fail the call loudly instead.
            return Err(io_err(
                "sequencing",
                format!("response seq {got_seq} for request {seq}"),
            ));
        }
        Ok(response)
    }

    /// Execute one GDPR query. GDPR-layer errors decode back to the exact
    /// [`GdprError`] the in-process engine would have returned.
    pub fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        let tenant = session.tenant.clone();
        match self.roundtrip_as(
            &tenant,
            &RequestBody::Execute(session.clone(), query.clone()),
        )? {
            ResponseBody::Response(response) => Ok(response),
            ResponseBody::Error(error) => Err(error),
            ResponseBody::Protocol(msg) => Err(io_err("protocol", msg)),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    /// Pipeline a batch: write every request, then read every response (in
    /// order, seq-verified). One round of network buffering instead of
    /// `batch.len()` round trips. The server executes the whole burst as a
    /// single engine-side batch.
    pub fn pipeline(
        &self,
        batch: &[(Session, GdprQuery)],
    ) -> GdprResult<Vec<GdprResult<GdprResponse>>> {
        self.pipeline_windowed(batch, batch.len().max(1))
    }

    /// [`Self::pipeline`] with a bounded in-flight window: at most
    /// `window` requests are unanswered at any moment. The window is
    /// primed as one burst; each response read refills one slot. This is
    /// the shape of a real pipelining workload (the bench depth sweep),
    /// and it bounds client-side memory for arbitrarily long batches.
    pub fn pipeline_windowed(
        &self,
        batch: &[(Session, GdprQuery)],
        window: usize,
    ) -> GdprResult<Vec<GdprResult<GdprResponse>>> {
        let window = window.max(1);
        let mut io = self.io.lock();
        let seqs: Vec<u64> = batch
            .iter()
            .map(|_| self.seq.fetch_add(1, Ordering::Relaxed))
            .collect();
        // Frames are built (and on an encrypted transport sealed) at
        // write time, not up front: record sequence numbers must follow
        // the actual send order as responses refill the window.
        let frame_for = |io: &mut ClientIo, i: usize| -> GdprResult<Vec<u8>> {
            let (session, query) = &batch[i];
            let body = RequestBody::Execute(session.clone(), query.clone());
            io.frame_bytes(&wire::encode_request(seqs[i], &session.tenant, &body))
        };
        // Prime the window as one buffered burst: the wire carries it in
        // as few segments as possible.
        let prime = batch.len().min(window);
        let mut burst = Vec::new();
        for i in 0..prime {
            let frame = frame_for(&mut io, i)?;
            burst.extend(frame);
        }
        io.send(&burst)?;
        let mut next_write = prime;
        let mut out = Vec::with_capacity(batch.len());
        for &expected_seq in &seqs {
            let payload = io
                .recv_frame()?
                .ok_or_else(|| io_err("receive", "server closed mid-pipeline"))?;
            let (seq, response) =
                wire::decode_response(&payload).map_err(|e| io_err("decode", e))?;
            if seq != expected_seq {
                return Err(io_err(
                    "sequencing",
                    format!("pipelined response seq {seq}, expected {expected_seq}"),
                ));
            }
            out.push(match response {
                ResponseBody::Response(resp) => Ok(resp),
                ResponseBody::Error(error) => Err(error),
                other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
            });
            if next_write < batch.len() {
                let frame = frame_for(&mut io, next_write)?;
                io.send(&frame)?;
                next_write += 1;
            }
        }
        Ok(out)
    }

    pub fn features(&self) -> GdprResult<FeatureReport> {
        match self.roundtrip(&RequestBody::Features)? {
            ResponseBody::Features(report) => Ok(report),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    pub fn space_report(&self) -> GdprResult<SpaceReport> {
        match self.roundtrip(&RequestBody::SpaceReport)? {
            ResponseBody::Space(space) => Ok(space),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    pub fn record_count(&self) -> GdprResult<usize> {
        match self.roundtrip(&RequestBody::RecordCount)? {
            ResponseBody::Count(n) => Ok(n as usize),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    pub fn server_name(&self) -> GdprResult<String> {
        match self.roundtrip(&RequestBody::Name)? {
            ResponseBody::Name(name) => Ok(name),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    /// Echo probe; verifies framing and liveness.
    pub fn ping(&self, blob: &[u8]) -> GdprResult<Vec<u8>> {
        match self.roundtrip(&RequestBody::Ping(blob.to_vec()))? {
            ResponseBody::Pong(echo) => Ok(echo),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    /// This connection's (and the server's) counters.
    pub fn conn_stats(&self) -> GdprResult<StatsSnapshot> {
        match self.roundtrip(&RequestBody::ConnStats)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }

    /// The server's full telemetry snapshot: per-opcode op/error counts and
    /// latency histograms, per-stage pipeline histograms, and the flat
    /// server/security counters.
    pub fn metrics(&self) -> GdprResult<MetricsReport> {
        self.metrics_for(&self.tenant)
    }

    /// [`Self::metrics`] scoped to an explicit tenant: the per-opcode
    /// table covers that tenant's traffic alone.
    pub fn metrics_for(&self, tenant: &TenantId) -> GdprResult<MetricsReport> {
        match self.roundtrip_as(tenant, &RequestBody::GetMetrics)? {
            ResponseBody::Metrics(report) => Ok(report),
            other => Err(io_err("protocol", format!("unexpected response {other:?}"))),
        }
    }
}

/// A [`GdprConnector`] over the wire: a pool of [`GdprClient`] connections
/// to one server, picked round-robin per call so up to `pool size` requests
/// proceed concurrently — the remote analogue of `--threads N` driving an
/// in-process engine.
pub struct RemoteConnector {
    clients: Vec<GdprClient>,
    next: AtomicUsize,
    /// The served connector's name, fetched once at connect (`name()`
    /// returns `&str`, so it cannot go over the wire per call).
    name: String,
    /// When serving in-process, the connector owns the server so the
    /// endpoint lives exactly as long as its clients.
    server: Option<GdprServer>,
}

impl RemoteConnector {
    /// Connect one client to `addr`.
    pub fn connect(addr: &str) -> GdprResult<RemoteConnector> {
        Self::connect_pool(addr, 1)
    }

    /// Connect a pool of `clients` connections to `addr`, with the
    /// transport chosen by `GDPR_ENCRYPT` / `GDPR_ENCRYPT_KEY`.
    pub fn connect_pool(addr: &str, clients: usize) -> GdprResult<RemoteConnector> {
        Self::connect_pool_with(addr, clients, secure::encrypt_key_from_env().as_deref())
    }

    /// Connect a pool with an explicit transport choice.
    pub fn connect_pool_with(
        addr: &str,
        clients: usize,
        encrypt_key: Option<&str>,
    ) -> GdprResult<RemoteConnector> {
        let clients = (0..clients.max(1))
            .map(|_| GdprClient::connect_with(addr, encrypt_key))
            .collect::<GdprResult<Vec<_>>>()?;
        let name = clients[0].server_name()?;
        Ok(RemoteConnector {
            clients,
            next: AtomicUsize::new(0),
            name,
            server: None,
        })
    }

    /// Serve `engine` on an ephemeral loopback port and connect a pool to
    /// it — every in-process connector variant becomes a networked one in
    /// one call. The server shuts down when the connector drops. The pool's
    /// transport follows `config.encrypt`, so an encrypted in-process
    /// server always gets matching clients.
    pub fn serve_in_process_with(
        engine: EngineHandle,
        clients: usize,
        config: ServerConfig,
    ) -> GdprResult<RemoteConnector> {
        let encrypt = config.encrypt.clone();
        let server =
            GdprServer::bind(engine, "127.0.0.1:0", config).map_err(|e| io_err("bind", e))?;
        let mut connector = Self::connect_pool_with(
            &server.local_addr().to_string(),
            clients,
            encrypt.as_deref(),
        )?;
        connector.server = Some(server);
        Ok(connector)
    }

    /// Scope every pooled connection's control requests to `tenant` —
    /// what `gdprbench --tenant` applies after connecting.
    pub fn set_tenant(&mut self, tenant: &TenantId) {
        for client in &mut self.clients {
            client.set_tenant(tenant.clone());
        }
    }

    /// The pooled connections.
    pub fn clients(&self) -> &[GdprClient] {
        &self.clients
    }

    /// One client, round-robin.
    pub fn client(&self) -> &GdprClient {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.clients.len();
        &self.clients[i]
    }

    /// The in-process server, when this connector owns one.
    pub fn server(&self) -> Option<&GdprServer> {
        self.server.as_ref()
    }
}

impl GdprConnector for RemoteConnector {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        self.client().execute(session, query)
    }

    /// A batch rides one connection as one pipelined burst — the server
    /// executes it as a single engine-side batch. On a transport failure
    /// the whole batch reports that failure per op (per-op GDPR errors
    /// still arrive individually via the pipeline).
    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        match self.client().pipeline(&ops) {
            Ok(results) => results,
            Err(error) => ops.iter().map(|_| Err(error.clone())).collect(),
        }
    }

    // The introspection methods have no error channel in the trait, and
    // inventing answers for an unreachable server would be worse than
    // failing: a fabricated `record_count() == 0` reads as "all personal
    // data erased", and a default `features()` reads as a real (fully
    // non-compliant) posture. Panic with context instead; callers that
    // need fallible access use the same calls on [`Self::client`].

    fn features(&self) -> FeatureReport {
        self.client()
            .features()
            .expect("remote features: server unreachable")
    }

    fn space_report(&self) -> SpaceReport {
        self.client()
            .space_report()
            .expect("remote space report: server unreachable")
    }

    fn record_count(&self) -> usize {
        self.client()
            .record_count()
            .expect("remote record count: server unreachable")
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// The server engine's per-opcode table, fetched over the wire via
    /// `GetMetrics`; `None` when the server is unreachable rather than a
    /// fabricated empty table.
    fn op_telemetry(&self) -> Option<gdpr_core::telemetry::OpTelemetrySnapshot> {
        self.client()
            .metrics()
            .ok()
            .map(|report| gdpr_core::telemetry::OpTelemetrySnapshot { ops: report.ops })
    }

    /// One tenant's table, via a tenant-scoped `GetMetrics`.
    fn op_telemetry_for(
        &self,
        tenant: &TenantId,
    ) -> Option<gdpr_core::telemetry::OpTelemetrySnapshot> {
        self.client()
            .metrics_for(tenant)
            .ok()
            .map(|report| gdpr_core::telemetry::OpTelemetrySnapshot { ops: report.ops })
    }
}

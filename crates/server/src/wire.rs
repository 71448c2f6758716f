//! The GDPR wire protocol: framing plus a complete codec for every
//! [`GdprQuery`], [`GdprResponse`], and [`GdprError`] variant, so remote
//! semantics are byte-equivalent to in-process calls.
//!
//! # Frame layout
//!
//! ```text
//! ┌──────────────┬──────────────────────────────┐
//! │ u32 BE len   │ payload (len bytes)          │
//! └──────────────┴──────────────────────────────┘
//! request  payload := u8 version │ u64 BE seq │ string tenant │ u8 opcode │ body
//! response payload := u8 version │ u64 BE seq │ u8 status │ body
//! ```
//!
//! The leading byte is the protocol version ([`PROTOCOL_VERSION`], 0x02
//! since multi-tenancy). Version-1 payloads began directly with the `u64`
//! seq — their first byte is the sequence number's most-significant byte,
//! which a client would have to send >7×10¹⁶ requests to raise to 0x02 —
//! so mismatched peers fail loudly on the first frame instead of
//! misparsing it.
//!
//! `tenant` is the caller's tenant name (empty string = the default
//! tenant). It rides in the request header, not inside the session body,
//! so control requests (`GetMetrics`) are tenant-scoped too; for `Execute`
//! the decoder injects it into the session, making the header
//! authoritative.
//!
//! `seq` is assigned by the client and echoed verbatim in the response —
//! with pipelining (many requests in flight per connection) the server
//! answers strictly in request order, and the echoed `seq` lets the client
//! assert that no response was reordered or crossed between connections.
//!
//! Integers are big-endian; strings and blobs are `u32` length-prefixed
//! UTF-8/bytes; lists are a `u32` count followed by the elements; options
//! are a presence byte. Decoding is bounds-checked everywhere (see
//! [`crate::codec`]) and must consume the payload exactly — truncated
//! frames, hostile lengths, unknown opcodes, and trailing garbage are all
//! rejected, never panicked on.
//!
//! The opcode tables live next to the matching encode/decode pairs below
//! and are documented for external implementations in
//! `crates/server/README.md`.

use crate::codec::{Reader, WireError, WireResult, Writer};
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::query::{MetadataField, MetadataUpdate};
use gdpr_core::record::{Metadata, PersonalRecord};
use gdpr_core::response::{DataRows, Items, LogLine, MetadataRow, MetadataRows, RowWriter};
use gdpr_core::role::{Role, Session};
use gdpr_core::telemetry::{self, HistogramSnapshot, OpSnapshot};
use gdpr_core::tenant::TenantId;
use gdpr_core::{GdprError, GdprQuery, GdprResponse};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Frames larger than this are rejected before allocation — a corrupt or
/// hostile length prefix must not balloon server memory.
pub const MAX_FRAME: usize = 64 << 20;

/// The protocol revision both payload kinds open with. Bumped to 2 when
/// the tenant field entered the request header; a peer speaking another
/// revision is rejected on its first frame with an error naming both
/// versions.
pub const PROTOCOL_VERSION: u8 = 2;

/// Read and check the leading version byte of a payload.
fn check_version(r: &mut Reader<'_>) -> WireResult<()> {
    let version = r.u8("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::new(
            r.offset() - 1,
            format!(
                "unsupported protocol version {version:#04x} (this peer speaks {PROTOCOL_VERSION:#04x}; \
                 version-1 frames have no version byte and no tenant field)"
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one `len || payload` frame — as a single `write_all`, so an
/// unbuffered socket sends one segment per frame instead of a 4-byte
/// header followed by a Nagle-delayed payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// exactly between frames); a stream that dies mid-frame — even inside
/// the 4-byte length prefix — is an error.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream died inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What a client may ask of a served engine: the full [`GdprQuery`] surface
/// plus the connector-level introspection the bench and conformance layers
/// use (`features`, `space_report`, `record_count`, `name`) and two
/// connection-level utilities.
// `Execute` dwarfs the control variants, but every request is decoded,
// dispatched, and dropped within one pool job — boxing the hot variant
// would buy nothing except an allocation per query on the request path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// opcode 0x00 — execute one GDPR query under a session.
    Execute(Session, GdprQuery),
    /// opcode 0x01 — the served engine's capability report.
    Features,
    /// opcode 0x02 — the served engine's space accounting.
    SpaceReport,
    /// opcode 0x03 — live record count.
    RecordCount,
    /// opcode 0x04 — the served connector's name (`redis-sharded`, ...).
    Name,
    /// opcode 0x05 — echo; liveness probe and framing self-test.
    Ping(Vec<u8>),
    /// opcode 0x06 — this connection's and the server's counters.
    ConnStats,
    /// opcode 0x07 — the server's full telemetry snapshot: per-opcode
    /// service-time histograms, per-stage pipeline histograms, and the
    /// server/security counters.
    GetMetrics,
}

pub fn encode_request(seq: u64, tenant: &TenantId, body: &RequestBody) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(PROTOCOL_VERSION);
    w.u64(seq);
    w.string(tenant.name());
    match body {
        RequestBody::Execute(session, query) => {
            w.u8(0x00);
            encode_session(&mut w, session);
            encode_query(&mut w, query);
        }
        RequestBody::Features => w.u8(0x01),
        RequestBody::SpaceReport => w.u8(0x02),
        RequestBody::RecordCount => w.u8(0x03),
        RequestBody::Name => w.u8(0x04),
        RequestBody::Ping(blob) => {
            w.u8(0x05);
            w.bytes(blob);
        }
        RequestBody::ConnStats => w.u8(0x06),
        RequestBody::GetMetrics => w.u8(0x07),
    }
    w.into_bytes()
}

pub fn decode_request(payload: &[u8]) -> WireResult<(u64, TenantId, RequestBody)> {
    let mut r = Reader::new(payload);
    check_version(&mut r)?;
    let seq = r.u64("seq")?;
    let tenant_name = r.string("tenant")?;
    let tenant = TenantId::new(tenant_name)
        .map_err(|e| WireError::new(r.offset(), format!("unacceptable tenant: {e}")))?;
    let op = r.u8("request opcode")?;
    let body = match op {
        0x00 => {
            // The header tenant is authoritative: inject it into the
            // session so the engine never sees a tenant the framing layer
            // didn't vouch for.
            let session = decode_session(&mut r)?.with_tenant(tenant.clone());
            let query = decode_query(&mut r)?;
            RequestBody::Execute(session, query)
        }
        0x01 => RequestBody::Features,
        0x02 => RequestBody::SpaceReport,
        0x03 => RequestBody::RecordCount,
        0x04 => RequestBody::Name,
        0x05 => RequestBody::Ping(r.bytes("ping blob")?.to_vec()),
        0x06 => RequestBody::ConnStats,
        0x07 => RequestBody::GetMetrics,
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown request opcode {other:#04x}"),
            ))
        }
    };
    r.finish()?;
    Ok((seq, tenant, body))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Per-connection and server-wide counters, served for `ConnStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests this connection has completed.
    pub requests: u64,
    /// Of those, how many returned a GDPR error.
    pub errors: u64,
    /// Payload bytes read from this connection.
    pub bytes_in: u64,
    /// Payload bytes written to this connection.
    pub bytes_out: u64,
    /// Connections the server has accepted since start.
    pub server_connections: u64,
    /// Requests the server has completed across all connections.
    pub server_requests: u64,
}

/// One named pipeline-stage histogram inside a [`MetricsReport`]
/// (`decode_wait`, `execute`, `write_drain`, `batch_size`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMetrics {
    pub name: String,
    pub histogram: HistogramSnapshot,
}

/// The server's full telemetry snapshot, served for `GetMetrics`: the
/// engine's per-opcode table, the event loop's per-stage histograms, and
/// the flat server/security counters — everything the Prometheus endpoint
/// exposes, through the binary codec instead.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// Per-opcode service times and ok/error counts (engine-side).
    pub ops: Vec<OpSnapshot>,
    /// Per-stage request lifecycle histograms (server-side).
    pub stages: Vec<StageMetrics>,
    /// Flat named counters: connections, requests, and the transport
    /// security counters (handshakes, replay/decrypt rejects).
    pub counters: Vec<(String, u64)>,
}

impl MetricsReport {
    /// The value of a flat counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The per-opcode snapshot for a query name, if present.
    pub fn op(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// The stage histogram for a stage name, if present.
    pub fn stage(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.histogram)
    }
}

/// Every answer the server sends. The status byte doubles as the body tag.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// status 0x00 — `Execute` succeeded.
    Response(GdprResponse),
    /// status 0x01 — `Execute` failed with a GDPR-layer error. These are
    /// part of the semantics (the conformance suite asserts on them), so
    /// they roundtrip exactly like successes.
    Error(GdprError),
    /// status 0x02 — the request itself was malformed or unserviceable;
    /// the server answers this and closes the connection.
    Protocol(String),
    /// status 0x03 — answer to `Features`.
    Features(FeatureReport),
    /// status 0x04 — answer to `SpaceReport`.
    Space(SpaceReport),
    /// status 0x05 — answer to `RecordCount`.
    Count(u64),
    /// status 0x06 — answer to `Name`.
    Name(String),
    /// status 0x07 — answer to `Ping`, blob echoed.
    Pong(Vec<u8>),
    /// status 0x08 — answer to `ConnStats`.
    Stats(StatsSnapshot),
    /// status 0x09 — answer to `GetMetrics`.
    Metrics(MetricsReport),
}

pub fn encode_response(seq: u64, body: &ResponseBody) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(PROTOCOL_VERSION);
    w.u64(seq);
    match body {
        ResponseBody::Response(resp) => {
            w.u8(0x00);
            encode_gdpr_response(&mut w, resp);
        }
        ResponseBody::Error(err) => {
            w.u8(0x01);
            encode_error(&mut w, err);
        }
        ResponseBody::Protocol(msg) => {
            w.u8(0x02);
            w.string(msg);
        }
        ResponseBody::Features(report) => {
            w.u8(0x03);
            encode_feature_report(&mut w, report);
        }
        ResponseBody::Space(space) => {
            w.u8(0x04);
            w.u64(space.personal_data_bytes as u64);
            w.u64(space.total_bytes as u64);
        }
        ResponseBody::Count(n) => {
            w.u8(0x05);
            w.u64(*n);
        }
        ResponseBody::Name(name) => {
            w.u8(0x06);
            w.string(name);
        }
        ResponseBody::Pong(blob) => {
            w.u8(0x07);
            w.bytes(blob);
        }
        ResponseBody::Stats(stats) => {
            w.u8(0x08);
            w.u64(stats.requests);
            w.u64(stats.errors);
            w.u64(stats.bytes_in);
            w.u64(stats.bytes_out);
            w.u64(stats.server_connections);
            w.u64(stats.server_requests);
        }
        ResponseBody::Metrics(report) => {
            w.u8(0x09);
            encode_metrics_report(&mut w, report);
        }
    }
    w.into_bytes()
}

pub fn decode_response(payload: &[u8]) -> WireResult<(u64, ResponseBody)> {
    let mut r = Reader::new(payload);
    check_version(&mut r)?;
    let seq = r.u64("seq")?;
    let status = r.u8("response status")?;
    let body = match status {
        0x00 => ResponseBody::Response(decode_gdpr_response(&mut r)?),
        0x01 => ResponseBody::Error(decode_error(&mut r)?),
        0x02 => ResponseBody::Protocol(r.string("protocol error")?),
        0x03 => ResponseBody::Features(decode_feature_report(&mut r)?),
        0x04 => ResponseBody::Space(SpaceReport {
            personal_data_bytes: r.u64("personal bytes")? as usize,
            total_bytes: r.u64("total bytes")? as usize,
        }),
        0x05 => ResponseBody::Count(r.u64("count")?),
        0x06 => ResponseBody::Name(r.string("name")?),
        0x07 => ResponseBody::Pong(r.bytes("pong blob")?.to_vec()),
        0x08 => ResponseBody::Stats(StatsSnapshot {
            requests: r.u64("requests")?,
            errors: r.u64("errors")?,
            bytes_in: r.u64("bytes in")?,
            bytes_out: r.u64("bytes out")?,
            server_connections: r.u64("server connections")?,
            server_requests: r.u64("server requests")?,
        }),
        0x09 => ResponseBody::Metrics(decode_metrics_report(&mut r)?),
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown response status {other:#04x}"),
            ))
        }
    };
    r.finish()?;
    Ok((seq, body))
}

// ---------------------------------------------------------------------------
// Telemetry snapshots
// ---------------------------------------------------------------------------

/// Histograms travel sparse: `count | sum | min | max`, then a `u32` run of
/// `(u32 bucket index, u64 bucket count)` pairs for the nonzero buckets
/// only — a mostly-idle histogram is a few dozen bytes instead of 64×8.
pub fn encode_histogram(w: &mut Writer, h: &HistogramSnapshot) {
    w.u64(h.count);
    w.u64(h.sum_ns);
    w.u64(h.min_ns);
    w.u64(h.max_ns);
    let nonzero: Vec<(usize, u64)> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| (i, c))
        .collect();
    w.count(nonzero.len());
    for (idx, c) in nonzero {
        w.u32(idx as u32);
        w.u64(c);
    }
}

pub fn decode_histogram(r: &mut Reader<'_>) -> WireResult<HistogramSnapshot> {
    let mut h = HistogramSnapshot {
        count: r.u64("histogram count")?,
        sum_ns: r.u64("histogram sum")?,
        min_ns: r.u64("histogram min")?,
        max_ns: r.u64("histogram max")?,
        ..HistogramSnapshot::default()
    };
    // Each sparse entry is 12 bytes (u32 index + u64 count) on the wire.
    let n = r.count(12, "histogram buckets")?;
    if n > telemetry::BUCKETS {
        return Err(WireError::new(
            r.offset(),
            format!("{n} sparse buckets exceed the {} fixed", telemetry::BUCKETS),
        ));
    }
    for _ in 0..n {
        let at = r.offset();
        let idx = r.u32("bucket index")? as usize;
        if idx >= telemetry::BUCKETS {
            return Err(WireError::new(
                at,
                format!(
                    "bucket index {idx} out of range (max {})",
                    telemetry::BUCKETS
                ),
            ));
        }
        h.buckets[idx] = r.u64("bucket count")?;
    }
    Ok(h)
}

pub fn encode_metrics_report(w: &mut Writer, report: &MetricsReport) {
    w.count(report.ops.len());
    for op in &report.ops {
        w.string(&op.name);
        w.u64(op.ok);
        w.u64(op.errors);
        encode_histogram(w, &op.latency);
    }
    w.count(report.stages.len());
    for stage in &report.stages {
        w.string(&stage.name);
        encode_histogram(w, &stage.histogram);
    }
    w.count(report.counters.len());
    for (name, value) in &report.counters {
        w.string(name);
        w.u64(*value);
    }
}

pub fn decode_metrics_report(r: &mut Reader<'_>) -> WireResult<MetricsReport> {
    let n_ops = r.count(52, "metric ops")?;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(OpSnapshot {
            name: r.string("op name")?,
            ok: r.u64("op ok count")?,
            errors: r.u64("op error count")?,
            latency: decode_histogram(r)?,
        });
    }
    let n_stages = r.count(40, "metric stages")?;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        stages.push(StageMetrics {
            name: r.string("stage name")?,
            histogram: decode_histogram(r)?,
        });
    }
    let n_counters = r.count(12, "metric counters")?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        counters.push((r.string("counter name")?, r.u64("counter value")?));
    }
    Ok(MetricsReport {
        ops,
        stages,
        counters,
    })
}

// ---------------------------------------------------------------------------
// Sessions and roles
// ---------------------------------------------------------------------------

fn encode_option_string(w: &mut Writer, v: &Option<String>) {
    match v {
        Some(s) => {
            w.bool(true);
            w.string(s);
        }
        None => w.bool(false),
    }
}

fn decode_option_string(r: &mut Reader<'_>, what: &str) -> WireResult<Option<String>> {
    Ok(if r.bool(what)? {
        Some(r.string(what)?)
    } else {
        None
    })
}

pub fn encode_session(w: &mut Writer, session: &Session) {
    w.u8(match session.role {
        Role::Controller => 0,
        Role::Customer => 1,
        Role::Processor => 2,
        Role::Regulator => 3,
    });
    encode_option_string(w, &session.user);
    encode_option_string(w, &session.purpose);
}

pub fn decode_session(r: &mut Reader<'_>) -> WireResult<Session> {
    let role = match r.u8("role")? {
        0 => Role::Controller,
        1 => Role::Customer,
        2 => Role::Processor,
        3 => Role::Regulator,
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown role {other}"),
            ))
        }
    };
    Ok(Session {
        role,
        user: decode_option_string(r, "session user")?,
        purpose: decode_option_string(r, "session purpose")?,
        // The request-header tenant is injected by `decode_request`; the
        // session body deliberately does not carry one.
        tenant: TenantId::default(),
    })
}

// ---------------------------------------------------------------------------
// Durations, metadata, records
// ---------------------------------------------------------------------------

fn encode_duration(w: &mut Writer, d: Duration) {
    w.u64(d.as_secs());
    w.u32(d.subsec_nanos());
}

fn decode_duration(r: &mut Reader<'_>) -> WireResult<Duration> {
    let secs = r.u64("duration secs")?;
    let at = r.offset();
    let nanos = r.u32("duration nanos")?;
    if nanos >= 1_000_000_000 {
        return Err(WireError::new(
            at,
            format!("subsecond nanos {nanos} out of range"),
        ));
    }
    Ok(Duration::new(secs, nanos))
}

fn encode_ttl(w: &mut Writer, ttl: Option<Duration>) {
    match ttl {
        Some(ttl) => {
            w.bool(true);
            encode_duration(w, ttl);
        }
        None => w.bool(false),
    }
}

fn decode_ttl(r: &mut Reader<'_>) -> WireResult<Option<Duration>> {
    Ok(if r.bool("ttl present")? {
        Some(decode_duration(r)?)
    } else {
        None
    })
}

pub fn encode_metadata(w: &mut Writer, m: &Metadata) {
    w.string_list(&m.purposes);
    encode_ttl(w, m.ttl);
    w.string(&m.user);
    w.string_list(&m.objections);
    w.string_list(&m.decisions);
    w.string_list(&m.sharing);
    w.string(&m.source);
}

/// A lent metadata row, in [`encode_metadata`]'s layout: the same bytes as
/// the row's [`MetadataRow::to_metadata`] would encode to.
fn encode_metadata_row(w: &mut Writer, row: &MetadataRow<'_>) {
    let list = |w: &mut Writer, items: Items<'_>| {
        w.count(items.len());
        items.for_each(|item| w.string(item));
    };
    list(w, row.purposes());
    encode_ttl(w, row.ttl());
    w.string(row.user());
    list(w, row.objections());
    list(w, row.decisions());
    list(w, row.sharing());
    w.string(row.source());
}

/// A string list, its items pushed into the row being decoded.
fn decode_items(r: &mut Reader<'_>, what: &str, row: &mut RowWriter<'_>) -> WireResult<()> {
    let n = r.count(4, what)?;
    for _ in 0..n {
        row.item(r.str(what)?);
    }
    row.end_list();
    Ok(())
}

pub fn decode_metadata(r: &mut Reader<'_>) -> WireResult<Metadata> {
    Ok(Metadata {
        purposes: r.string_list("purposes")?,
        ttl: decode_ttl(r)?,
        user: r.string("user")?,
        objections: r.string_list("objections")?,
        decisions: r.string_list("decisions")?,
        sharing: r.string_list("sharing")?,
        source: r.string("source")?,
    })
}

pub fn encode_record(w: &mut Writer, record: &PersonalRecord) {
    w.string(&record.key);
    w.string(&record.data);
    encode_metadata(w, &record.metadata);
}

pub fn decode_record(r: &mut Reader<'_>) -> WireResult<PersonalRecord> {
    Ok(PersonalRecord {
        key: r.string("record key")?,
        data: r.string("record data")?,
        metadata: decode_metadata(r)?,
    })
}

fn encode_field(w: &mut Writer, field: MetadataField) {
    w.u8(match field {
        MetadataField::Purposes => 0,
        MetadataField::Objections => 1,
        MetadataField::Decisions => 2,
        MetadataField::Sharing => 3,
        MetadataField::Source => 4,
        MetadataField::User => 5,
    });
}

fn decode_field(r: &mut Reader<'_>) -> WireResult<MetadataField> {
    Ok(match r.u8("metadata field")? {
        0 => MetadataField::Purposes,
        1 => MetadataField::Objections,
        2 => MetadataField::Decisions,
        3 => MetadataField::Sharing,
        4 => MetadataField::Source,
        5 => MetadataField::User,
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown metadata field {other}"),
            ))
        }
    })
}

pub fn encode_update(w: &mut Writer, update: &MetadataUpdate) {
    match update {
        MetadataUpdate::Add(field, value) => {
            w.u8(0);
            encode_field(w, *field);
            w.string(value);
        }
        MetadataUpdate::Remove(field, value) => {
            w.u8(1);
            encode_field(w, *field);
            w.string(value);
        }
        MetadataUpdate::SetScalar(field, value) => {
            w.u8(2);
            encode_field(w, *field);
            w.string(value);
        }
        MetadataUpdate::SetTtl(ttl) => {
            w.u8(3);
            encode_duration(w, *ttl);
        }
    }
}

pub fn decode_update(r: &mut Reader<'_>) -> WireResult<MetadataUpdate> {
    Ok(match r.u8("update kind")? {
        0 => MetadataUpdate::Add(decode_field(r)?, r.string("update value")?),
        1 => MetadataUpdate::Remove(decode_field(r)?, r.string("update value")?),
        2 => MetadataUpdate::SetScalar(decode_field(r)?, r.string("update value")?),
        3 => MetadataUpdate::SetTtl(decode_duration(r)?),
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown update kind {other}"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Query opcodes follow the §3.3 taxonomy order (the same order
/// `GdprQuery` declares).
pub fn encode_query(w: &mut Writer, query: &GdprQuery) {
    use GdprQuery::*;
    match query {
        CreateRecord(record) => {
            w.u8(0);
            encode_record(w, record);
        }
        DeleteByKey(key) => {
            w.u8(1);
            w.string(key);
        }
        DeleteByPurpose(purpose) => {
            w.u8(2);
            w.string(purpose);
        }
        DeleteExpired => w.u8(3),
        DeleteByUser(user) => {
            w.u8(4);
            w.string(user);
        }
        ReadDataByKey(key) => {
            w.u8(5);
            w.string(key);
        }
        ReadDataByPurpose(purpose) => {
            w.u8(6);
            w.string(purpose);
        }
        ReadDataByUser(user) => {
            w.u8(7);
            w.string(user);
        }
        ReadDataNotObjecting(usage) => {
            w.u8(8);
            w.string(usage);
        }
        ReadDataDecisionEligible => w.u8(9),
        ReadMetadataByKey(key) => {
            w.u8(10);
            w.string(key);
        }
        ReadMetadataByUser(user) => {
            w.u8(11);
            w.string(user);
        }
        ReadMetadataBySharedWith(party) => {
            w.u8(12);
            w.string(party);
        }
        UpdateDataByKey { key, data } => {
            w.u8(13);
            w.string(key);
            w.string(data);
        }
        UpdateMetadataByKey { key, update } => {
            w.u8(14);
            w.string(key);
            encode_update(w, update);
        }
        UpdateMetadataByPurpose { purpose, update } => {
            w.u8(15);
            w.string(purpose);
            encode_update(w, update);
        }
        UpdateMetadataByUser { user, update } => {
            w.u8(16);
            w.string(user);
            encode_update(w, update);
        }
        GetSystemLogs { from_ms, to_ms } => {
            w.u8(17);
            w.u64(*from_ms);
            w.u64(*to_ms);
        }
        GetSystemFeatures => w.u8(18),
        VerifyDeletion(key) => {
            w.u8(19);
            w.string(key);
        }
    }
}

pub fn decode_query(r: &mut Reader<'_>) -> WireResult<GdprQuery> {
    use GdprQuery::*;
    Ok(match r.u8("query opcode")? {
        0 => CreateRecord(decode_record(r)?),
        1 => DeleteByKey(r.string("key")?),
        2 => DeleteByPurpose(r.string("purpose")?),
        3 => DeleteExpired,
        4 => DeleteByUser(r.string("user")?),
        5 => ReadDataByKey(r.string("key")?),
        6 => ReadDataByPurpose(r.string("purpose")?),
        7 => ReadDataByUser(r.string("user")?),
        8 => ReadDataNotObjecting(r.string("usage")?),
        9 => ReadDataDecisionEligible,
        10 => ReadMetadataByKey(r.string("key")?),
        11 => ReadMetadataByUser(r.string("user")?),
        12 => ReadMetadataBySharedWith(r.string("party")?),
        13 => UpdateDataByKey {
            key: r.string("key")?,
            data: r.string("data")?,
        },
        14 => UpdateMetadataByKey {
            key: r.string("key")?,
            update: decode_update(r)?,
        },
        15 => UpdateMetadataByPurpose {
            purpose: r.string("purpose")?,
            update: decode_update(r)?,
        },
        16 => UpdateMetadataByUser {
            user: r.string("user")?,
            update: decode_update(r)?,
        },
        17 => GetSystemLogs {
            from_ms: r.u64("from_ms")?,
            to_ms: r.u64("to_ms")?,
        },
        18 => GetSystemFeatures,
        19 => VerifyDeletion(r.string("key")?),
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown query opcode {other}"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// GDPR responses
// ---------------------------------------------------------------------------

fn encode_feature_support(w: &mut Writer, support: FeatureSupport) {
    w.u8(match support {
        FeatureSupport::Native => 0,
        FeatureSupport::Retrofitted => 1,
        FeatureSupport::Unsupported => 2,
    });
}

fn decode_feature_support(r: &mut Reader<'_>) -> WireResult<FeatureSupport> {
    Ok(match r.u8("feature support")? {
        0 => FeatureSupport::Native,
        1 => FeatureSupport::Retrofitted,
        2 => FeatureSupport::Unsupported,
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown feature support {other}"),
            ))
        }
    })
}

pub fn encode_feature_report(w: &mut Writer, report: &FeatureReport) {
    encode_feature_support(w, report.timely_deletion);
    encode_feature_support(w, report.monitoring_and_logging);
    encode_feature_support(w, report.metadata_indexing);
    encode_feature_support(w, report.encryption);
    encode_feature_support(w, report.access_control);
}

pub fn decode_feature_report(r: &mut Reader<'_>) -> WireResult<FeatureReport> {
    Ok(FeatureReport {
        timely_deletion: decode_feature_support(r)?,
        monitoring_and_logging: decode_feature_support(r)?,
        metadata_indexing: decode_feature_support(r)?,
        encryption: decode_feature_support(r)?,
        access_control: decode_feature_support(r)?,
    })
}

fn encode_log_line(w: &mut Writer, line: &LogLine) {
    w.u64(line.timestamp_ms);
    w.string(&line.actor);
    w.string(&line.operation);
    w.string(&line.detail);
}

fn decode_log_line(r: &mut Reader<'_>) -> WireResult<LogLine> {
    Ok(LogLine {
        timestamp_ms: r.u64("log timestamp")?,
        actor: r.string("log actor")?,
        operation: r.string("log operation")?.into(),
        detail: r.string("log detail")?,
    })
}

pub fn encode_gdpr_response(w: &mut Writer, resp: &GdprResponse) {
    use GdprResponse::*;
    match resp {
        Created => w.u8(0),
        Deleted(n) => {
            w.u8(1);
            w.u64(*n as u64);
        }
        Data(rows) => {
            w.u8(3);
            w.count(rows.len());
            for (key, data) in rows.iter() {
                w.string(key);
                w.string(data);
            }
        }
        Metadata(rows) => {
            w.u8(4);
            w.count(rows.len());
            for row in rows.iter() {
                w.string(row.key());
                encode_metadata_row(w, &row);
            }
        }
        Updated(n) => {
            w.u8(5);
            w.u64(*n as u64);
        }
        Logs(lines) => {
            w.u8(6);
            w.count(lines.len());
            for line in lines.iter() {
                encode_log_line(w, line);
            }
        }
        Features(report) => {
            w.u8(7);
            encode_feature_report(w, report);
        }
        DeletionVerified(gone) => {
            w.u8(8);
            w.bool(*gone);
        }
    }
}

pub fn decode_gdpr_response(r: &mut Reader<'_>) -> WireResult<GdprResponse> {
    use GdprResponse::*;
    Ok(match r.u8("response opcode")? {
        0 => Created,
        1 => Deleted(r.u64("deleted count")? as usize),
        3 => {
            // Every row costs its two 4-byte length prefixes, so the rows'
            // text is at most what the rest of the payload holds.
            let n = r.count(8, "data pairs")?;
            let mut rows = DataRows::with_capacity(n, r.remaining() - 8 * n);
            for _ in 0..n {
                rows.push(r.str("data key")?, r.str("data value")?);
            }
            Data(rows)
        }
        4 => {
            // A row's key and six text fields cost 28 bytes of length
            // prefixes and counts and its TTL a presence byte, so the rows'
            // text is at most what the rest of the payload holds past them.
            let n = r.count(8, "metadata pairs")?;
            let mut rows = MetadataRows::with_capacity(n, r.remaining().saturating_sub(29 * n));
            for _ in 0..n {
                let mut row = rows.row(r.str("metadata key")?);
                decode_items(r, "purposes", &mut row)?;
                let ttl = decode_ttl(r)?;
                row.scalar(r.str("user")?);
                decode_items(r, "objections", &mut row)?;
                decode_items(r, "decisions", &mut row)?;
                decode_items(r, "sharing", &mut row)?;
                row.scalar(r.str("source")?);
                row.finish(ttl);
            }
            Metadata(rows)
        }
        5 => Updated(r.u64("updated count")? as usize),
        6 => {
            let n = r.count(20, "log lines")?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                lines.push(decode_log_line(r)?);
            }
            Logs(lines.into())
        }
        7 => Features(decode_feature_report(r)?),
        8 => DeletionVerified(r.bool("deletion verdict")?),
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown response opcode {other}"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// GDPR errors
// ---------------------------------------------------------------------------

pub fn encode_error(w: &mut Writer, err: &GdprError) {
    use GdprError::*;
    match err {
        AccessDenied {
            role,
            query,
            reason,
        } => {
            w.u8(0);
            w.string(role);
            w.string(query);
            w.string(reason);
        }
        NotFound(key) => {
            w.u8(1);
            w.string(key);
        }
        AlreadyExists(key) => {
            w.u8(2);
            w.string(key);
        }
        InvalidRecord(msg) => {
            w.u8(3);
            w.string(msg);
        }
        Store(msg) => {
            w.u8(4);
            w.string(msg);
        }
        Unsupported(msg) => {
            w.u8(5);
            w.string(msg);
        }
        ShardMisroute {
            key,
            found_in,
            owner,
            shard_count,
        } => {
            w.u8(6);
            w.string(key);
            w.u64(*found_in as u64);
            w.u64(*owner as u64);
            w.u64(*shard_count as u64);
        }
    }
}

pub fn decode_error(r: &mut Reader<'_>) -> WireResult<GdprError> {
    use GdprError::*;
    Ok(match r.u8("error opcode")? {
        0 => AccessDenied {
            role: r.string("error role")?,
            query: r.string("error query")?,
            reason: r.string("error reason")?,
        },
        1 => NotFound(r.string("error key")?),
        2 => AlreadyExists(r.string("error key")?),
        3 => InvalidRecord(r.string("error message")?),
        4 => Store(r.string("error message")?),
        5 => Unsupported(r.string("error message")?),
        6 => ShardMisroute {
            key: r.string("error key")?,
            found_in: r.u64("found_in")? as usize,
            owner: r.u64("owner")? as usize,
            shard_count: r.u64("shard_count")? as usize,
        },
        other => {
            return Err(WireError::new(
                r.offset() - 1,
                format!("unknown error opcode {other}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> PersonalRecord {
        let mut metadata = Metadata::new(
            "neo",
            vec!["ads".to_string(), "2fa".to_string()],
            Duration::from_secs(3600),
        );
        metadata.objections.push("ads".to_string());
        metadata.sharing.push("x-corp".to_string());
        PersonalRecord::new("ph-1", "123-456", metadata)
    }

    fn sample_metrics() -> MetricsReport {
        let hist = gdpr_core::AtomicHistogram::new();
        hist.record(Duration::from_micros(3));
        hist.record(Duration::from_millis(40));
        hist.record_value(u64::MAX); // saturated bucket must survive the wire
        MetricsReport {
            ops: vec![OpSnapshot {
                name: "create-record".to_string(),
                ok: 41,
                errors: 1,
                latency: hist.snapshot(),
            }],
            stages: vec![
                StageMetrics {
                    name: "decode_wait".to_string(),
                    histogram: hist.snapshot(),
                },
                StageMetrics {
                    name: "execute".to_string(),
                    histogram: HistogramSnapshot::default(), // empty histogram
                },
            ],
            counters: vec![
                ("connections".to_string(), 7),
                ("replay_rejects".to_string(), 0),
            ],
        }
    }

    #[test]
    fn metrics_report_roundtrips_exactly() {
        let report = sample_metrics();
        let encoded = encode_response(99, &ResponseBody::Metrics(report.clone()));
        let (seq, got) = decode_response(&encoded).unwrap();
        assert_eq!(seq, 99);
        assert_eq!(got, ResponseBody::Metrics(report.clone()));
        // Accessors find what was encoded.
        assert_eq!(report.counter("connections"), Some(7));
        assert_eq!(report.counter("missing"), None);
        assert_eq!(report.op("create-record").unwrap().ok, 41);
        assert!(report.stage("execute").unwrap().is_empty());
    }

    #[test]
    fn histogram_decode_rejects_out_of_range_bucket() {
        let mut w = Writer::new();
        w.u64(3); // count
        w.u64(100); // sum
        w.u64(1); // min
        w.u64(50); // max
        w.count(1);
        w.u32(telemetry::BUCKETS as u32); // one past the last valid index
        w.u64(3);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(decode_histogram(&mut r).is_err());
    }

    #[test]
    fn request_roundtrip_covers_every_opcode() {
        let bodies = vec![
            RequestBody::Execute(Session::customer("neo"), GdprQuery::CreateRecord(record())),
            RequestBody::Execute(
                Session::processor("ads"),
                GdprQuery::UpdateMetadataByKey {
                    key: "ph-1".to_string(),
                    update: MetadataUpdate::SetTtl(Duration::new(3, 250_000_000)),
                },
            ),
            RequestBody::Features,
            RequestBody::SpaceReport,
            RequestBody::RecordCount,
            RequestBody::Name,
            RequestBody::Ping(vec![0, 1, 255]),
            RequestBody::ConnStats,
            RequestBody::GetMetrics,
        ];
        for (seq, body) in bodies.into_iter().enumerate() {
            let encoded = encode_request(seq as u64 * 7, &TenantId::default(), &body);
            let (got_seq, tenant, got) = decode_request(&encoded).unwrap();
            assert_eq!(got_seq, seq as u64 * 7);
            assert!(tenant.is_default());
            assert_eq!(got, body);
        }
    }

    #[test]
    fn request_header_tenant_roundtrips_and_enters_the_session() {
        let acme = TenantId::new("acme").unwrap();
        // Control requests carry the tenant in the header alone.
        let encoded = encode_request(5, &acme, &RequestBody::GetMetrics);
        let (seq, tenant, body) = decode_request(&encoded).unwrap();
        assert_eq!((seq, &tenant, &body), (5, &acme, &RequestBody::GetMetrics));
        // Execute: the decoder injects the header tenant into the session.
        let session = Session::customer("neo").with_tenant(acme.clone());
        let body = RequestBody::Execute(session, GdprQuery::ReadDataByKey("k".into()));
        let encoded = encode_request(6, &acme, &body);
        let (_, tenant, got) = decode_request(&encoded).unwrap();
        assert_eq!(tenant, acme);
        assert_eq!(got, body);
    }

    #[test]
    fn version_1_and_alien_version_frames_are_rejected_loudly() {
        // A v1 request payload began with the u64 seq — first byte 0x00.
        let mut v1 = Writer::new();
        v1.u64(3);
        v1.u8(0x01); // Features
        let err = decode_request(&v1.into_bytes()).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported protocol version 0x00"),
            "{err}"
        );
        // A hypothetical v3 peer is named in the error too.
        let mut v3 = encode_request(1, &TenantId::default(), &RequestBody::Name);
        v3[0] = 0x03;
        let err = decode_request(&v3).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported protocol version 0x03"),
            "{err}"
        );
        // Responses carry the same leading byte.
        let mut resp = encode_response(1, &ResponseBody::Count(1));
        resp[0] = 0x01;
        assert!(decode_response(&resp).is_err());
    }

    #[test]
    fn malformed_header_tenants_are_rejected() {
        for bad in ["has space", "a/b", &"x".repeat(65)] {
            let mut w = Writer::new();
            w.u8(PROTOCOL_VERSION);
            w.u64(0);
            w.string(bad);
            w.u8(0x01); // Features
            let err = decode_request(&w.into_bytes()).unwrap_err();
            assert!(err.to_string().contains("unacceptable tenant"), "{err}");
        }
    }

    #[test]
    fn response_roundtrip_covers_every_status() {
        let bodies = vec![
            ResponseBody::Response(GdprResponse::Created),
            ResponseBody::Response(GdprResponse::Logs(
                vec![LogLine {
                    timestamp_ms: 12,
                    actor: "customer:neo".to_string(),
                    operation: "read-data-by-usr".into(),
                    detail: "usr=neo [ok] n=2".to_string(),
                }]
                .into(),
            )),
            ResponseBody::Error(GdprError::ShardMisroute {
                key: "k".to_string(),
                found_in: 1,
                owner: 2,
                shard_count: 3,
            }),
            ResponseBody::Protocol("bad frame".to_string()),
            ResponseBody::Features(FeatureReport::default()),
            ResponseBody::Space(SpaceReport {
                personal_data_bytes: 10,
                total_bytes: 35,
            }),
            ResponseBody::Count(99),
            ResponseBody::Name("redis-sharded".to_string()),
            ResponseBody::Pong(vec![9; 3]),
            ResponseBody::Stats(StatsSnapshot {
                requests: 1,
                errors: 2,
                bytes_in: 3,
                bytes_out: 4,
                server_connections: 5,
                server_requests: 6,
            }),
            ResponseBody::Metrics(sample_metrics()),
        ];
        for (seq, body) in bodies.into_iter().enumerate() {
            let encoded = encode_response(seq as u64, &body);
            let (got_seq, got) = decode_response(&encoded).unwrap();
            assert_eq!(got_seq, seq as u64);
            assert_eq!(got, body);
        }
    }

    /// `Data` goes on the wire as it did when each row was two strings of
    /// its own: opcode 3, the row count, then key and data per row, each a
    /// `u32` length and its bytes. The literals are those frames' bytes.
    #[test]
    fn data_rows_encode_to_the_golden_bytes() {
        type Row = (&'static str, &'static str);
        let golden: [(&[Row], &[u8]); 3] = [
            (&[], b"\x03\x00\x00\x00\x00"),
            (
                &[("ph-1", "123-456")],
                b"\x03\x00\x00\x00\x01\x00\x00\x00\x04ph-1\x00\x00\x00\x07123-456",
            ),
            (
                &[("a", "x"), ("bb", ""), ("c", "zz")],
                b"\x03\x00\x00\x00\x03\x00\x00\x00\x01a\x00\x00\x00\x01x\
                  \x00\x00\x00\x02bb\x00\x00\x00\x00\
                  \x00\x00\x00\x01c\x00\x00\x00\x02zz",
            ),
        ];
        for (rows, bytes) in golden {
            let resp = GdprResponse::Data(rows.iter().copied().collect());
            let mut w = Writer::new();
            encode_gdpr_response(&mut w, &resp);
            assert_eq!(w.into_bytes(), bytes, "{rows:?}");
            let mut r = Reader::new(bytes);
            assert_eq!(decode_gdpr_response(&mut r).unwrap(), resp);
            r.finish().unwrap();
        }
    }

    /// `Metadata` goes on the wire as it did when each row was a key string
    /// and an owned `Metadata`: opcode 4, the row count, then per row the
    /// key and the seven attributes in `encode_metadata`'s order (lists as a
    /// count and their items, the TTL as a presence byte, `u64` seconds and
    /// `u32` nanos). The literals are those frames' bytes; the rows hold
    /// empty lists, a missing TTL, a sub-second TTL, non-ASCII USR and SRC,
    /// and multi-item lists with an empty item and an item holding `,`.
    #[test]
    fn metadata_rows_encode_to_the_golden_bytes() {
        let list =
            |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        let rows = [
            (
                "k1",
                Metadata {
                    purposes: list(&["ads", "2fa"]),
                    ttl: Some(Duration::from_secs(365 * 86_400)),
                    user: "néo".into(),
                    objections: vec![],
                    decisions: vec![],
                    sharing: list(&["a-corp", "b-corp"]),
                    source: "first-party".into(),
                },
            ),
            (
                "k2",
                Metadata {
                    purposes: vec![],
                    ttl: None,
                    user: String::new(),
                    objections: list(&["ads"]),
                    decisions: list(&["opt-out"]),
                    sharing: list(&["", "x,y"]),
                    source: "ß".into(),
                },
            ),
            (
                "k3",
                Metadata {
                    ttl: Some(Duration::from_millis(1_500)),
                    user: "u".into(),
                    ..Metadata::default()
                },
            ),
        ];
        let k1: &[u8] = b"\x00\x00\x00\x02k1\
            \x00\x00\x00\x02\x00\x00\x00\x03ads\x00\x00\x00\x032fa\
            \x01\x00\x00\x00\x00\x01\xe1\x33\x80\x00\x00\x00\x00\
            \x00\x00\x00\x04n\xc3\xa9o\
            \x00\x00\x00\x00\
            \x00\x00\x00\x00\
            \x00\x00\x00\x02\x00\x00\x00\x06a-corp\x00\x00\x00\x06b-corp\
            \x00\x00\x00\x0bfirst-party";
        let k2: &[u8] = b"\x00\x00\x00\x02k2\
            \x00\x00\x00\x00\
            \x00\
            \x00\x00\x00\x00\
            \x00\x00\x00\x01\x00\x00\x00\x03ads\
            \x00\x00\x00\x01\x00\x00\x00\x07opt-out\
            \x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03x,y\
            \x00\x00\x00\x02\xc3\x9f";
        let k3: &[u8] = b"\x00\x00\x00\x02k3\
            \x00\x00\x00\x00\
            \x01\x00\x00\x00\x00\x00\x00\x00\x01\x1d\xcd\x65\x00\
            \x00\x00\x00\x01u\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00";
        let golden: [(usize, Vec<u8>); 3] = [
            (0, b"\x04\x00\x00\x00\x00".to_vec()),
            (1, [b"\x04\x00\x00\x00\x01", k1].concat()),
            (3, [b"\x04\x00\x00\x00\x03", k1, k2, k3].concat()),
        ];
        for (n, bytes) in golden {
            let resp = GdprResponse::Metadata(
                rows[..n]
                    .iter()
                    .map(|(key, m)| (key.to_string(), m.clone()))
                    .collect(),
            );
            let mut w = Writer::new();
            encode_gdpr_response(&mut w, &resp);
            assert_eq!(w.into_bytes(), bytes, "{n} rows");
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_gdpr_response(&mut r).unwrap(), resp);
            r.finish().unwrap();
        }
    }

    /// A `Logs` window over several shared chunks — starting inside a
    /// sealed chunk, ending in the open tail — goes on the wire as the flat
    /// list did (opcode, count, four fields per line) and decodes back equal.
    #[test]
    fn multi_chunk_logs_encode_as_the_flat_list() {
        use gdpr_core::audit::{AuditTrail, CHUNK_LINES};
        let sim = clock::sim();
        let trail = AuditTrail::new(sim.clone());
        let session = Session::customer("neo");
        for i in 0..2 * CHUNK_LINES + 40 {
            sim.advance(Duration::from_millis(1));
            trail.record(&session, "read-data-by-key", format!("key=k{i}"), Ok(i));
        }
        let window = trail.lines_between(CHUNK_LINES as u64 / 2, u64::MAX);
        assert_eq!(window.len(), 2 * CHUNK_LINES + 40 - (CHUNK_LINES / 2 - 1));

        let mut flat = Writer::new();
        flat.u8(6);
        flat.count(window.len());
        for line in window.to_vec() {
            flat.u64(line.timestamp_ms);
            flat.string(&line.actor);
            flat.string(&line.operation);
            flat.string(&line.detail);
        }
        let response = GdprResponse::Logs(window);
        let mut w = Writer::new();
        encode_gdpr_response(&mut w, &response);
        let bytes = w.into_bytes();
        assert_eq!(bytes, flat.into_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_gdpr_response(&mut r).unwrap(), response);
        r.finish().unwrap();

        // And the bytes themselves, on a one-line trail.
        let trail = AuditTrail::new(sim.clone());
        trail.record(&session, "x", "k".into(), Ok(2));
        let mut w = Writer::new();
        encode_gdpr_response(
            &mut w,
            &GdprResponse::Logs(trail.lines_between(0, u64::MAX)),
        );
        let mut golden = vec![6, 0, 0, 0, 1];
        golden.extend((2 * CHUNK_LINES as u64 + 40).to_be_bytes());
        golden.extend([0, 0, 0, 12]);
        golden.extend(b"customer:neo");
        golden.extend([0, 0, 0, 1, b'x']);
        golden.extend([0, 0, 0, 10]);
        golden.extend(b"k [ok] n=2");
        assert_eq!(w.into_bytes(), golden);
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let payload = encode_request(1, &TenantId::default(), &RequestBody::Name);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap(),
            payload
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap(),
            payload
        );
        assert!(read_frame(&mut cursor, MAX_FRAME).unwrap().is_none());

        // A frame longer than the cap is refused before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cursor = std::io::Cursor::new(huge);
        assert!(read_frame(&mut cursor, MAX_FRAME).is_err());
    }

    #[test]
    fn mid_frame_death_is_an_error_not_eof() {
        let payload = encode_request(1, &TenantId::default(), &RequestBody::RecordCount);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor, MAX_FRAME).is_err());
    }

    #[test]
    fn trailing_garbage_after_body_is_rejected() {
        let mut encoded = encode_request(3, &TenantId::default(), &RequestBody::Features);
        encoded.push(0xAB);
        assert!(decode_request(&encoded).is_err());
        let mut encoded = encode_response(3, &ResponseBody::Count(1));
        encoded.push(0xAB);
        assert!(decode_response(&encoded).is_err());
    }

    /// Response opcode 2 once carried a list of full records that no
    /// engine ever sent. It stays unassigned, so the other opcodes keep
    /// their numbers, and a body that uses it is refused.
    #[test]
    fn response_opcode_2_is_unassigned() {
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        w.u64(0);
        w.u8(0x00); // a GDPR response
        w.u8(2);
        w.count(0);
        let err = decode_response(&w.into_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("unknown response opcode 2"),
            "{err}"
        );
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        w.u64(0);
        w.string("");
        w.u8(0xEE);
        assert!(decode_request(&w.into_bytes()).is_err());
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        w.u64(0);
        w.u8(0xEE);
        assert!(decode_response(&w.into_bytes()).is_err());
    }
}

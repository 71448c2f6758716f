//! Closed-loop clients, the correctness gate and exact percentiles.
//!
//! Every client waits for its reply before it issues the next request (the
//! wire client keeps a fixed window of requests in flight and waits once the
//! window is full). Clients stop on slice boundaries only, which are block
//! boundaries; see `stream.rs`.
//!
//! The timing metrics are not read off the whole phase. A client's run is cut
//! into **slices** of a fixed number of blocks, so every slice holds the same
//! mix; each slice's clocks are divided by the machine's slowdown over it, as
//! the reference kernel (`reference.rs`) read it just before and just after;
//! and what is reported is the slice at the best decile. Contention on this
//! box only ever slows, for spells of half a second to minutes, and the
//! kernel under-corrects the ops that miss the caches most (a log read takes
//! 2.2 times as long where the kernel takes 1.45), so the mean and even the
//! median slice carry the neighbours' load while the best decile is what the
//! code does when left alone.

use crate::reference::Reference;
use crate::stream::{Op, Stream};
use crate::sut::{
    responses_match, GdprConnector, GdprError, GdprQuery, GdprResponse, Oracle, RequestBody,
    ResponseBody, WireConn,
};
use crate::{procfs, trace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The percentile `tail_us` reports, on every workload. Fixed, not derived
/// from the sample count: a faster build completes more ops and must not be
/// held to a higher percentile for it. p90 rather than p99 because a slice
/// holds 12 to 1 750 ops and p99 of 12 is its maximum; on the in-process
/// mixes, where a fifth to a third of the ops are predicate or log reads, p90
/// is the typical heavy op.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// When a client stops: at the first slice boundary past a duration, or
/// after a fixed number of blocks (the traced replay, whose counts must
/// repeat exactly).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    Blocks(usize),
}

/// How a phase is cut into slices: `blocks` blocks each, with the op count
/// its clients share.
#[derive(Debug, Clone, Copy)]
pub struct Slicing<'a> {
    pub blocks: usize,
    pub phase_ops: &'a AtomicU64,
}

/// The clocks over one slice of one client.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_ns: u64,
    /// CPU seconds of the whole process, and ops completed by all clients of
    /// the phase, over the same interval.
    pub cpu_s: f64,
    pub phase_ops: u64,
    /// The machine's slowdown: mean of the reference bursts on either side.
    pub slowdown: f64,
}

/// A client's clocks at its last slice boundary. `phase_ops` is shared by
/// the clients of a phase: the process's CPU time cannot be split between
/// them, so a slice relates it to the ops all of them completed meanwhile.
struct Clocks<'a> {
    phase_ops: &'a AtomicU64,
    reference: Reference,
    slowdown: f64,
    at: Instant,
    cpu_s: f64,
    ops: u64,
    /// Time spent in reference bursts, which belongs to no slice.
    burst_ns: u64,
}

impl<'a> Clocks<'a> {
    fn start(phase_ops: &'a AtomicU64) -> Clocks<'a> {
        let mut reference = Reference::new();
        let slowdown = reference.burst();
        Clocks {
            phase_ops,
            reference,
            slowdown,
            at: Instant::now(),
            cpu_s: procfs::cpu_seconds(),
            ops: phase_ops.load(Ordering::Relaxed),
            burst_ns: 0,
        }
    }

    /// Count the op whose latency `tally` just took; if it was the slice's
    /// last, close the slice and time a reference burst before the next.
    fn op_done(&mut self, tally: &mut Tally) {
        self.phase_ops.fetch_add(1, Ordering::Relaxed);
        if !tally.latencies_ns.len().is_multiple_of(tally.slice_ops) {
            return;
        }
        let (now, cpu_s) = (Instant::now(), procfs::cpu_seconds());
        let ops = self.phase_ops.load(Ordering::Relaxed);
        let slowdown = self.reference.burst();
        tally.slices.push(Slice {
            wall_ns: (now - self.at).as_nanos() as u64,
            cpu_s: cpu_s - self.cpu_s,
            phase_ops: ops - self.ops,
            slowdown: (self.slowdown + slowdown) / 2.0,
        });
        self.slowdown = slowdown;
        self.at = Instant::now();
        self.burst_ns += (self.at - now).as_nanos() as u64;
        // The burst's own CPU time, and the ops other clients completed
        // during it, belong to no slice either.
        self.cpu_s = procfs::cpu_seconds();
        self.ops = self.phase_ops.load(Ordering::Relaxed);
    }
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Raw per-op nanoseconds, call → return or send → decoded reply.
    pub latencies_ns: Vec<u64>,
    /// Transport errors, bad sequence numbers, protocol answers, store-side
    /// errors, oracle mismatches.
    pub failed: u64,
    /// `NotFound` / `AccessDenied` / `AlreadyExists`: correct answers to ops
    /// the generator aims at erased keys or other subjects' records.
    pub semantic_errors: u64,
    pub wall_ns: u64,
    /// Wire only: time blocked waiting for a reply, payload bytes each way.
    pub wait_ns: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// Ops per slice, and the slices completed: slice `i` took
    /// `latencies_ns[i * slice_ops..][..slice_ops]`.
    pub slice_ops: usize,
    pub slices: Vec<Slice>,
}

impl Tally {
    fn new(slice_ops: usize) -> Tally {
        Tally {
            slice_ops,
            ..Tally::default()
        }
    }

    pub fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    fn count(&mut self, result: &Result<GdprResponse, GdprError>) {
        match result {
            Ok(_) => {}
            Err(
                GdprError::NotFound(_)
                | GdprError::AccessDenied { .. }
                | GdprError::AlreadyExists(_),
            ) => self.semantic_errors += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn merge(tallies: Vec<Tally>) -> Merged {
        let mut merged = Merged::default();
        let (mut p50s, mut tails, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
        let mut slowdowns = Vec::new();
        for tally in tallies {
            let rates = tally
                .slices
                .iter()
                .map(|s| tally.slice_ops as f64 * 1e9 / s.wall_ns as f64 * s.slowdown);
            merged.best.ops_per_s += quantile(rates.collect(), 1.0 - BEST);
            for (slice, latencies) in tally
                .slices
                .iter()
                .zip(tally.latencies_ns.chunks(tally.slice_ops))
            {
                let mut sorted = latencies.to_vec();
                sorted.sort_unstable();
                p50s.push(percentile_us(&sorted, 50.0) / slice.slowdown);
                tails.push(percentile_us(&sorted, TAIL_PERCENTILE) / slice.slowdown);
                cpus.push(slice.cpu_s * 1e6 / slice.phase_ops as f64 / slice.slowdown);
                slowdowns.push(slice.slowdown);
            }
            merged.ops_per_s += tally.ops_per_s();
            merged.failed += tally.failed;
            merged.semantic_errors += tally.semantic_errors;
            merged.client_wall_ns += tally.wall_ns;
            merged.wait_ns += tally.wait_ns;
            merged.request_bytes += tally.request_bytes;
            merged.response_bytes += tally.response_bytes;
            merged.latencies_ns.extend(tally.latencies_ns);
        }
        merged.latencies_ns.sort_unstable();
        merged.best.slices = p50s.len();
        merged.best.slowdown = median(slowdowns);
        merged.best.p50_us = quantile(p50s, BEST);
        merged.best.tail_us = quantile(tails, BEST);
        merged.best.cpu_us_per_op = quantile(cpus, BEST);
        merged
    }
}

/// The share of slices that read better than the one reported.
const BEST: f64 = 0.1;

/// What `--trace 0` reports: the slice at the best decile, on clocks
/// corrected by the reference kernel. Throughput is the sum over clients of
/// the client's ninth-decile slice rate; the others are the first decile,
/// over the slices of all clients, of the slice's exact p50, its exact p90
/// and the process's CPU time per op completed during it.
#[derive(Debug, Default)]
pub struct BestDecile {
    pub slices: usize,
    /// The median slice's slowdown, for the reader of standard error.
    pub slowdown: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub cpu_us_per_op: f64,
}

/// The value below which the share `q` of `values` lies; 0 for no values.
fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let at = ((q * values.len() as f64) as usize).min(values.len().saturating_sub(1));
    values.get(at).copied().unwrap_or(0.0)
}

/// The upper median.
pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// Exact percentile of sorted raw samples, in µs.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    let n = sorted_ns.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, n) - 1] as f64 / 1e3
}

/// The clients of one phase together. Whole-phase throughput (uncorrected;
/// the per-layer ledger's ratios use it) is the sum of each client's ops ÷
/// its own wall time, since each stops on its own boundary.
#[derive(Debug, Default)]
pub struct Merged {
    pub best: BestDecile,
    pub latencies_ns: Vec<u64>,
    pub ops_per_s: f64,
    pub failed: u64,
    pub semantic_errors: u64,
    pub client_wall_ns: u64,
    pub wait_ns: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

impl Merged {
    pub fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Exact percentile of the whole phase's raw samples, in µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile_us(&self.latencies_ns, p)
    }
}

/// The engine-span name of an op: its class in the per-layer ledger.
pub fn engine_class(query: &GdprQuery) -> &'static str {
    use GdprQuery::*;
    match query {
        ReadDataByKey(_) | ReadMetadataByKey(_) | VerifyDeletion(_) => "engine.point_read",
        CreateRecord(_) | DeleteByKey(_) | UpdateDataByKey { .. } | UpdateMetadataByKey { .. } => {
            "engine.point_write"
        }
        GetSystemLogs { .. } | GetSystemFeatures => "engine.audit_read",
        other if other.is_write() => "engine.pred_write",
        _ => "engine.pred_read",
    }
}

/// One in-process closed-loop client: run blocks from `cursor` on, in
/// slices of `slicing.blocks`.
pub fn run_in_process(
    engine: &dyn GdprConnector,
    stream: &Stream,
    cursor: &mut usize,
    until: Until,
    slicing: Slicing,
) -> Tally {
    let mut tally = Tally::new(slicing.blocks * stream.block_len);
    let mut clocks = Clocks::start(slicing.phase_ops);
    let start = Instant::now();
    let mut blocks_done = 0;
    let mut request = 0u64;
    loop {
        if !stream.cyclic && *cursor >= stream.blocks() {
            break;
        }
        for op in stream.block(*cursor) {
            request += 1;
            let sent = Instant::now();
            let result = trace::request_span(
                engine_class(&op.query),
                request,
                || engine.execute(&op.session, &op.query),
                |r| r.as_ref().map_or(0, |resp| resp.cardinality() as u64),
            );
            tally.latencies_ns.push(sent.elapsed().as_nanos() as u64);
            tally.count(&std::hint::black_box(result));
            clocks.op_done(&mut tally);
        }
        *cursor += 1;
        blocks_done += 1;
        let done = match until {
            Until::Elapsed(limit) => blocks_done % slicing.blocks == 0 && start.elapsed() >= limit,
            Until::Blocks(n) => blocks_done >= n,
        };
        if done {
            break;
        }
    }
    tally.wall_ns = start.elapsed().as_nanos() as u64 - clocks.burst_ns;
    tally
}

/// One wire client: keep up to `window` requests in flight on `conn`, check
/// every reply's sequence number, stop sending at the first slice boundary
/// past `limit` and drain. A slice ends with the reply to its last request.
pub fn run_wire(
    conn: &mut WireConn,
    bodies: &[RequestBody],
    block_len: usize,
    cursor: &mut usize,
    limit: Duration,
    window: usize,
    slicing: Slicing,
) -> Tally {
    let mut tally = Tally::new(slicing.blocks * block_len);
    let mut clocks = Clocks::start(slicing.phase_ops);
    let blocks = bodies.len() / block_len;
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut next = (*cursor % blocks) * block_len;
    let mut seq = 0u64;
    let mut sending = true;
    let start = Instant::now();
    loop {
        while sending && in_flight.len() < window {
            let sent = Instant::now();
            match conn.send(seq, &bodies[next]) {
                Ok(bytes) => tally.request_bytes += bytes as u64,
                Err(_) => {
                    tally.failed += 1;
                    sending = false;
                    break;
                }
            }
            in_flight.push_back((seq, sent));
            seq += 1;
            next += 1;
            if next.is_multiple_of(block_len) {
                *cursor += 1;
                next %= bodies.len();
                sending =
                    !(seq as usize).is_multiple_of(tally.slice_ops) || start.elapsed() < limit;
            }
        }
        let Some((expected, sent)) = in_flight.pop_front() else {
            break;
        };
        let waiting = Instant::now();
        let reply = conn.recv();
        let now = Instant::now();
        tally.wait_ns += (now - waiting).as_nanos() as u64;
        match reply {
            Ok((got, body, bytes)) => {
                tally.response_bytes += bytes as u64;
                tally.latencies_ns.push((now - sent).as_nanos() as u64);
                clocks.op_done(&mut tally);
                if got != expected {
                    tally.failed += 1;
                }
                match body {
                    ResponseBody::Response(resp) => tally.count(&Ok(resp)),
                    ResponseBody::Error(e) => tally.count(&Err(e)),
                    _ => tally.failed += 1,
                }
            }
            Err(_) => {
                // The connection is gone: everything in flight failed.
                tally.failed += 1 + in_flight.len() as u64;
                break;
            }
        }
    }
    tally.wall_ns = start.elapsed().as_nanos() as u64 - clocks.burst_ns;
    tally
}

/// Execute one op over the wire, window 1 — the gate's client.
pub fn call_wire(conn: &mut WireConn, seq: u64, op: &Op) -> Result<GdprResponse, GdprError> {
    let body = RequestBody::Execute(op.session.clone(), op.query.clone());
    let transport = |e: std::io::Error| GdprError::Store(format!("transport: {e}"));
    conn.send(seq, &body).map_err(transport)?;
    match conn.recv().map_err(transport)? {
        (got, _, _) if got != seq => Err(GdprError::Store(format!(
            "reply carries sequence {got}, expected {seq}"
        ))),
        (_, ResponseBody::Response(resp), _) => Ok(resp),
        (_, ResponseBody::Error(e), _) => Err(e),
        (_, other, _) => Err(GdprError::Store(format!("unexpected reply {other:?}"))),
    }
}

/// The correctness gate: replay `ops` one at a time against fresh state in
/// lock-step with the oracle. Returns the number of responses that differ
/// from the model's.
pub fn gate<'a>(
    oracle: &mut Oracle,
    ops: impl Iterator<Item = &'a Op>,
    mut call: impl FnMut(u64, &Op) -> Result<GdprResponse, GdprError>,
) -> (u64, u64) {
    let (mut attempted, mut mismatches) = (0, 0);
    for (seq, op) in ops.enumerate() {
        let expected = oracle.apply(&op.session, &op.query);
        let actual = call(seq as u64, op);
        attempted += 1;
        if !responses_match(&op.query, &expected, &actual) {
            if mismatches == 0 {
                let mut shown = format!("expected {expected:?}, got {actual:?}");
                shown.truncate(600);
                eprintln!(
                    "gate: op {seq} {} diverges from the oracle: {shown}",
                    op.query.name()
                );
            }
            mismatches += 1;
        }
    }
    (attempted, mismatches)
}

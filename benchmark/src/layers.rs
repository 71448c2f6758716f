//! The `--trace 1` run: the per-layer ledger.
//!
//! Order of a traced run, on one traced deployment:
//! 1. **traced replay** — client 0's stream, one client, in-process, a fixed
//!    number of blocks from fresh state, spans on. Gives the engine / store
//!    split, and the counts that must repeat exactly for a seed.
//! 2. **untraced replay** — the same number of blocks, spans off: the
//!    difference is the tracing overhead.
//! 3. **native phase** — the workload as `--trace 0` runs it (all clients,
//!    wire where the workload has one), spans off: server stage counters,
//!    client wait, bytes on the wire, scaling from 1 to 2 clients.
//! 4. **direct replays** — each remaining layer is called directly with the
//!    inputs the stream holds: codec, frame decoder, ACL, audit trail,
//!    metadata index, router vs bare engine, checkpoint, reopen, sealing.

use crate::driver::{self, Slicing, Until};
use crate::procfs;
use crate::stream::Op;
use crate::sut::{
    self, authorize, decode_request, decode_response, encode_request, encode_response, record_of,
    serialize_record, AuditTrail, Backend, FrameDecoder, GdprConnector, GdprQuery, IndexBatch,
    MetadataIndex, MetricsReport, RecordPredicate, RequestBody, ResponseBody, Sut, Volume,
    WireConn, MAX_FRAME,
};
use crate::trace::{self, Span};
use crate::workloads::{self, Spec};
use crate::Outcome;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not touch reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("driver.gen_ops_per_s", "1/s"),
    ("driver.semantic_error_share", "share"),
    ("driver.trace_overhead_pct", "%"),
    ("driver.loop_share", "share"),
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.request_bytes_per_op", "B"),
    ("wire.response_bytes_per_op", "B"),
    ("conn.frame_decode_ns", "ns"),
    ("server.decode_wait_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.execute_us_per_batch", "us"),
    ("server.write_drain_us", "us"),
    ("server.batch_size_mean", "count"),
    ("server.protocol_errors", "count"),
    ("client.wait_share", "share"),
    ("engine.point_read_ns", "ns"),
    ("engine.point_write_ns", "ns"),
    ("engine.pred_read_us", "us"),
    ("engine.pred_write_us", "us"),
    ("engine.audit_read_us", "us"),
    ("engine.self_share", "share"),
    ("engine.store_calls_per_op", "count"),
    ("engine.fetched_per_returned", "count"),
    ("sharded.router_overhead_ns", "ns"),
    ("sharded.clients2_speedup", "x"),
    ("acl.authorize_ns", "ns"),
    ("audit.record_ns", "ns"),
    ("audit.lines_between_us", "us"),
    ("audit.events", "count"),
    ("audit.bytes", "B"),
    ("metaindex.keys_for_us", "us"),
    ("metaindex.keys_per_lookup", "count"),
    ("metaindex.upsert_ns", "ns"),
    ("metaindex.apply_ns_per_entry", "ns"),
    ("metaindex.remove_ns", "ns"),
    ("metaindex.bytes", "B"),
    ("store.fetch_ns", "ns"),
    ("store.put_ns", "ns"),
    ("store.rewrite_ns", "ns"),
    ("store.delete_ns", "ns"),
    ("store.scan_ms", "ms"),
    ("store.calls", "count"),
    ("store.time_share", "share"),
    ("pagestore.pool_hit_rate", "share"),
    ("pagestore.pool_evictions", "count"),
    ("pagestore.commits", "count"),
    ("pagestore.write_bytes_per_user_byte", "x"),
    ("pagestore.write_syscalls", "count"),
    ("pagestore.disk_bytes", "B"),
    ("pagestore.checkpoint_ms", "ms"),
    ("pagestore.reopen_ms", "ms"),
    ("pagestore.durable_commit_ms", "ms"),
    ("crypto.volume_seal_ns", "ns"),
    ("crypto.volume_open_ns", "ns"),
];

/// Most ops a direct replay feeds its layer.
const REPLAY_OPS: usize = 20_000;
/// Most predicate lookups replayed against the index.
const REPLAY_LOOKUPS: usize = 300;
/// Most corpus records the index replay holds.
const REPLAY_RECORDS: usize = 100_000;

struct Ledger(Vec<(&'static str, f64, &'static str)>);

impl Ledger {
    fn new() -> Ledger {
        Ledger(PER_LAYER.iter().map(|(n, u)| (*n, 0.0, *u)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        slot.1 = value;
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Nanoseconds per item of `f` run over `items`.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        f(item);
    }
    ratio(started.elapsed().as_nanos() as f64, items.len() as f64)
}

pub fn run_traced(spec: &Spec, seed: u64, seconds: u64, scratch: &Path) -> Result<Outcome, String> {
    let err = |e: sut::GdprError| e.to_string();
    let budget = Duration::from_secs(seconds);
    let mut ledger = Ledger::new();

    let inputs = workloads::make_inputs(spec, seed);
    ledger.set(
        "driver.gen_ops_per_s",
        ratio(inputs.generated_ops as f64, inputs.generate_s),
    );
    let bodies = workloads::wire_bodies(spec, &inputs);
    let mut ready = workloads::set_up(spec, &inputs, true, &scratch.join("traced")).map_err(err)?;
    let stream = &inputs.streams[0];
    let mut cursor = 0usize;
    let (mut attempted, mut failed) = (0u64, 0u64);

    let replay_ops = std::sync::atomic::AtomicU64::new(0);
    let slicing = Slicing {
        blocks: spec.slice_blocks,
        phase_ops: &replay_ops,
    };

    // 1. Traced replay, from fresh state, fixed length.
    let pool_before = ready
        .sut
        .pages
        .as_ref()
        .map(|p| (p.pool_stats(), p.generation()));
    let io_before = procfs::io();
    trace::set_enabled(true);
    let traced = driver::run_in_process(
        &ready.sut.engine,
        stream,
        &mut cursor,
        Until::Blocks(spec.trace_blocks),
        slicing,
    );
    trace::set_enabled(false);
    let io_after = procfs::io();
    let mut spans = trace::drain();
    trace::attribute(&mut spans);
    attempted += traced.ops();
    failed += traced.failed;
    ledger.set(
        "driver.semantic_error_share",
        ratio(traced.semantic_errors as f64, traced.ops() as f64),
    );
    let user_bytes = span_ledger(&spans, traced.wall_ns, &mut ledger);
    fixed_point(&ready.sut, &mut ledger);
    if let (Some(pages), Some((pool, generation))) = (&ready.sut.pages, pool_before) {
        let now = pages.pool_stats();
        let (hits, misses) = (now.hits - pool.hits, now.misses - pool.misses);
        ledger.set(
            "pagestore.pool_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        );
        ledger.set(
            "pagestore.pool_evictions",
            (now.evictions - pool.evictions) as f64,
        );
        ledger.set(
            "pagestore.commits",
            (pages.generation() - generation) as f64,
        );
        ledger.set(
            "pagestore.write_bytes_per_user_byte",
            ratio(io_after.write_chars - io_before.write_chars, user_bytes),
        );
        ledger.set(
            "pagestore.write_syscalls",
            io_after.write_syscalls - io_before.write_syscalls,
        );
        let started = Instant::now();
        pages.checkpoint().map_err(|e| e.to_string())?;
        ledger.set(
            "pagestore.checkpoint_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        // After the checkpoint: the data file alone, the WAL being empty.
        ledger.set("pagestore.disk_bytes", pages.disk_bytes() as f64);
    }

    // 2. The same length again, spans off.
    let untraced = driver::run_in_process(
        &ready.sut.engine,
        stream,
        &mut cursor,
        Until::Blocks(spec.trace_blocks),
        slicing,
    );
    attempted += untraced.ops();
    failed += untraced.failed;
    ledger.set(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s())),
    );

    // 3. The workload as it is measured, spans off.
    let mut cursors = vec![cursor; spec.clients];
    let metrics_before = server_metrics(&ready)?;
    let native =
        workloads::run_clients(spec, &inputs, &mut ready, &bodies, &mut cursors, budget / 4);
    attempted += native.ops();
    failed += native.failed;
    if let (Some(before), Some(after)) = (metrics_before, server_metrics(&ready)?) {
        server_ledger(&before, &after, &mut ledger);
        ledger.set(
            "client.wait_share",
            ratio(native.wait_ns as f64, native.client_wall_ns as f64),
        );
        ledger.set(
            "wire.request_bytes_per_op",
            ratio(native.request_bytes as f64, native.ops() as f64),
        );
        ledger.set(
            "wire.response_bytes_per_op",
            ratio(native.response_bytes as f64, native.ops() as f64),
        );
    }
    if inputs.streams.len() == 2 {
        // In-process scaling from one client (phase 2) to two.
        let two = if spec.wire || spec.clients != 2 {
            // No request bodies: the clients call the engine directly.
            let mut cursors = vec![cursors[0]; 2];
            let two =
                workloads::run_clients(spec, &inputs, &mut ready, &[], &mut cursors, budget / 10);
            attempted += two.ops();
            failed += two.failed;
            two.ops_per_s
        } else {
            native.ops_per_s
        };
        ledger.set("sharded.clients2_speedup", ratio(two, untraced.ops_per_s()));
    }

    // 4. Direct replays.
    let replay: Vec<&Op> = stream.ops.iter().take(REPLAY_OPS).collect();
    ledger.set(
        "acl.authorize_ns",
        ns_per(&replay, |op| {
            let _ = black_box(authorize(&op.session, &op.query));
        }),
    );
    let own_trail = AuditTrail::new(sut::wall_clock());
    ledger.set(
        "audit.record_ns",
        ns_per(&replay, |op| {
            own_trail.record(&op.session, op.query.name(), op.query.detail(), Ok(1));
        }),
    );
    index_ledger(spec, &replay, &mut ledger);
    if spec.wire {
        codec_ledger(&ready.sut, &replay, &mut ledger);
    }
    if spec.backend == Backend::RedisSharded {
        let reads: Vec<&Op> = replay
            .iter()
            .copied()
            .filter(|op| driver::engine_class(&op.query) == "engine.point_read")
            .collect();
        let bare = sut::bare_engine(&spec.corpus()).map_err(err)?;
        let call = |engine: &dyn GdprConnector| {
            ns_per(&reads, |op| {
                let _ = black_box(engine.execute(&op.session, &op.query));
            })
        };
        // Once each to warm both, then the measured pass.
        let _ = (call(&ready.sut.engine), call(&bare));
        ledger.set(
            "sharded.router_overhead_ns",
            call(&ready.sut.engine) - call(&bare),
        );
    }
    if let Backend::Disk { pool_pages } = spec.backend {
        let corpus = spec.corpus();
        let values: Vec<String> = (0..corpus.records.min(2_000))
            .map(|i| serialize_record(&record_of(i, &corpus)))
            .collect();
        let volume = Volume::new(b"e2e-benchmark-volume-seed");
        ledger.set(
            "crypto.volume_seal_ns",
            ns_per(&values, |v| {
                black_box(volume.seal(7, v.as_bytes()));
            }),
        );
        let sealed: Vec<Vec<u8>> = values
            .iter()
            .map(|v| volume.seal(7, v.as_bytes()))
            .collect();
        ledger.set(
            "crypto.volume_open_ns",
            ns_per(&sealed, |s| {
                let _ = black_box(volume.open(s));
            }),
        );
        ledger.set(
            "pagestore.durable_commit_ms",
            sut::durable_commit_ms(&scratch.join("durable"), &values).map_err(err)?,
        );
        let (survived, reopen_ms) =
            workloads::reopen_after(ready, pool_pages, true).map_err(err)?;
        ledger.set("pagestore.reopen_ms", reopen_ms);
        attempted += 1;
        failed += u64::from(!survived);
    }

    let trace_file = sut::scratch_root().join(format!("trace-{}.jsonl", spec.name));
    trace::write_jsonl(&trace_file, &spans)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    eprintln!(
        "{} spans; the first are in {}",
        spans.len(),
        trace_file.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: ledger.0,
    })
}

/// Engine and store metrics from the traced replay's spans. Returns the
/// value bytes the store was asked to write.
fn span_ledger(spans: &[Span], wall_ns: u64, ledger: &mut Ledger) -> f64 {
    // Mean duration per span name, and counts.
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for span in spans {
        let slot = by_name.entry(span.name).or_default();
        slot.0 += span.ns();
        slot.1 += 1;
    }
    let mean_ns = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |(ns, n)| ratio(*ns as f64, *n as f64))
    };
    ledger.set("engine.point_read_ns", mean_ns("engine.point_read"));
    ledger.set("engine.point_write_ns", mean_ns("engine.point_write"));
    ledger.set("engine.pred_read_us", mean_ns("engine.pred_read") / 1e3);
    ledger.set("engine.pred_write_us", mean_ns("engine.pred_write") / 1e3);
    ledger.set("engine.audit_read_us", mean_ns("engine.audit_read") / 1e3);
    ledger.set("store.fetch_ns", mean_ns("store.fetch"));
    ledger.set("store.put_ns", mean_ns("store.put"));
    ledger.set("store.rewrite_ns", mean_ns("store.rewrite"));
    ledger.set("store.delete_ns", mean_ns("store.delete"));
    ledger.set("store.scan_ms", mean_ns("store.scan") / 1e6);

    // Self time: each request span minus what its store spans cover.
    let (mut requests, mut store_calls, mut engine_ns, mut covered_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut fetched, mut returned, mut user_bytes) = (0u64, 0u64, 0u64);
    let mut i = 0;
    while i < spans.len() {
        let request = spans[i];
        i += 1;
        if !request.is_request() {
            continue; // a store call outside any request (none expected)
        }
        let first_child = i;
        while i < spans.len() && !spans[i].is_request() && spans[i].request == request.request {
            i += 1;
        }
        let children = &spans[first_child..i];
        requests += 1;
        store_calls += children.len() as u64;
        engine_ns += request.ns();
        covered_ns += trace::covered_ns(request.start_ns, request.end_ns, children);
        user_bytes += children.iter().map(|c| c.count).sum::<u64>();
        if request.name == "engine.pred_read" {
            fetched += children.iter().filter(|c| c.name == "store.fetch").count() as u64;
            returned += request.count;
        }
    }
    ledger.set("store.calls", store_calls as f64);
    // What the replay's wall time holds besides engine calls: the driver's
    // own loop, mostly dropping the responses.
    ledger.set(
        "driver.loop_share",
        1.0 - ratio(engine_ns as f64, wall_ns as f64),
    );
    ledger.set("store.time_share", ratio(covered_ns as f64, wall_ns as f64));
    ledger.set(
        "engine.self_share",
        ratio((engine_ns - covered_ns) as f64, wall_ns as f64),
    );
    ledger.set(
        "engine.store_calls_per_op",
        ratio(store_calls as f64, requests as f64),
    );
    ledger.set(
        "engine.fetched_per_returned",
        ratio(fetched as f64, returned as f64),
    );
    user_bytes as f64
}

/// Sizes read at the fixed point after the traced replay, so they repeat.
fn fixed_point(sut: &Sut, ledger: &mut Ledger) {
    let Some(traced) = &sut.traced else { return };
    let trail = traced.audit();
    ledger.set("audit.events", trail.len() as f64);
    ledger.set("audit.bytes", trail.size_bytes() as f64);
    ledger.set("metaindex.bytes", traced.index_bytes() as f64);
    let started = Instant::now();
    let rounds = 3;
    for _ in 0..rounds {
        black_box(trail.lines_between(0, u64::MAX));
    }
    ledger.set(
        "audit.lines_between_us",
        started.elapsed().as_secs_f64() * 1e6 / rounds as f64,
    );
}

fn server_metrics(ready: &workloads::Ready) -> Result<Option<MetricsReport>, String> {
    let Some(addr) = ready.sut.addr() else {
        return Ok(None);
    };
    let mut control = WireConn::connect(addr).map_err(|e| format!("control connection: {e}"))?;
    control
        .metrics()
        .map(Some)
        .map_err(|e| format!("GetMetrics: {e}"))
}

/// Stage means over the native phase: after − before of the program's own
/// cumulative histograms.
fn server_ledger(before: &MetricsReport, after: &MetricsReport, ledger: &mut Ledger) {
    let mean = |stage: &str| {
        let (Some(b), Some(a)) = (before.stage(stage), after.stage(stage)) else {
            return 0.0;
        };
        ratio((a.sum_ns - b.sum_ns) as f64, (a.count - b.count) as f64)
    };
    ledger.set("server.decode_wait_us", mean("decode_wait") / 1e3);
    ledger.set("server.queue_wait_us", mean("queue_wait") / 1e3);
    ledger.set("server.execute_us_per_batch", mean("execute") / 1e3);
    ledger.set("server.write_drain_us", mean("write_drain") / 1e3);
    ledger.set("server.batch_size_mean", mean("batch_size"));
    ledger.set(
        "server.protocol_errors",
        after.counter("protocol_errors").unwrap_or(0) as f64,
    );
}

/// The predicate a query resolves through the index, if any.
fn predicate_of(query: &GdprQuery) -> Option<RecordPredicate> {
    use GdprQuery::*;
    Some(match query {
        ReadDataByUser(u) | ReadMetadataByUser(u) | DeleteByUser(u) => {
            RecordPredicate::User(u.clone())
        }
        UpdateMetadataByUser { user, .. } => RecordPredicate::User(user.clone()),
        ReadDataByPurpose(p) => RecordPredicate::AllowsPurpose(p.clone()),
        DeleteByPurpose(p) => RecordPredicate::DeclaredPurpose(p.clone()),
        UpdateMetadataByPurpose { purpose, .. } => {
            RecordPredicate::DeclaredPurpose(purpose.clone())
        }
        ReadDataNotObjecting(o) => RecordPredicate::NotObjecting(o.clone()),
        ReadDataDecisionEligible => RecordPredicate::DecisionEligible,
        _ => return None,
    })
}

/// A benchmark-owned index over the workload's corpus, fed the stream's own
/// predicates.
fn index_ledger(spec: &Spec, replay: &[&Op], ledger: &mut Ledger) {
    let corpus = spec.corpus();
    let records: Vec<_> = (0..corpus.records.min(REPLAY_RECORDS))
        .map(|i| record_of(i, &corpus))
        .collect();
    let index = MetadataIndex::new();
    let now_ms = 1_000;
    ledger.set(
        "metaindex.upsert_ns",
        ns_per(&records, |r| index.upsert(r, now_ms, false)),
    );
    let predicates: Vec<RecordPredicate> = replay
        .iter()
        .filter_map(|op| predicate_of(&op.query))
        .take(REPLAY_LOOKUPS)
        .collect();
    let mut keys = 0usize;
    let lookup_ns = ns_per(&predicates, |p| {
        keys += black_box(index.keys_for(p)).map_or(0, |k| k.len());
    });
    ledger.set("metaindex.keys_for_us", lookup_ns / 1e3);
    ledger.set(
        "metaindex.keys_per_lookup",
        ratio(keys as f64, predicates.len() as f64),
    );
    let mut batch = IndexBatch::new();
    for record in &records {
        batch.upsert(record.clone(), now_ms, true);
    }
    let started = Instant::now();
    let applied = index.apply(batch);
    ledger.set(
        "metaindex.apply_ns_per_entry",
        ratio(started.elapsed().as_nanos() as f64, applied.max(1) as f64),
    );
    ledger.set(
        "metaindex.remove_ns",
        ns_per(&records, |r| {
            index.remove(&r.key);
        }),
    );
}

/// Both payload codecs and the server's frame decoder over the stream's
/// requests and the engine's answers to them.
fn codec_ledger(sut: &Sut, replay: &[&Op], ledger: &mut Ledger) {
    let tenant = Default::default();
    let requests: Vec<RequestBody> = replay
        .iter()
        .map(|op| RequestBody::Execute(op.session.clone(), op.query.clone()))
        .collect();
    let mut payloads = Vec::with_capacity(requests.len());
    let mut seq = 0;
    ledger.set(
        "wire.encode_request_ns",
        ns_per(&requests, |body| {
            payloads.push(encode_request(seq, &tenant, body));
            seq += 1;
        }),
    );
    ledger.set(
        "wire.decode_request_ns",
        ns_per(&payloads, |p| {
            let _ = black_box(decode_request(p));
        }),
    );
    let answers: Vec<ResponseBody> = replay
        .iter()
        .map(|op| match sut.engine.execute(&op.session, &op.query) {
            Ok(resp) => ResponseBody::Response(resp),
            Err(e) => ResponseBody::Error(e),
        })
        .collect();
    let mut encoded = Vec::with_capacity(answers.len());
    ledger.set(
        "wire.encode_response_ns",
        ns_per(&answers, |body| encoded.push(encode_response(1, body))),
    );
    ledger.set(
        "wire.decode_response_ns",
        ns_per(&encoded, |p| {
            let _ = black_box(decode_response(p));
        }),
    );
    // The request frames as the server's socket delivers them: one byte
    // stream, read in 16 KiB pieces.
    let mut bytes = Vec::new();
    for payload in &payloads {
        sut::write_frame(&mut bytes, payload).expect("writing to a Vec cannot fail");
    }
    let mut decoder = FrameDecoder::new(MAX_FRAME);
    let mut frames = 0usize;
    let started = Instant::now();
    for piece in bytes.chunks(16 << 10) {
        decoder.push(piece);
        while let Ok(Some(frame)) = decoder.next_frame() {
            black_box(frame);
            frames += 1;
        }
    }
    ledger.set(
        "conn.frame_decode_ns",
        ratio(started.elapsed().as_nanos() as f64, frames as f64),
    );
}

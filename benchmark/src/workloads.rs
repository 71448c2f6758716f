//! The four workloads: what each deploys, how big, and how it is set up.
//! `README.md` records why each was chosen.

use crate::driver::{self, Merged, Slicing, Tally, Until};
use crate::reference::Reference;
use crate::stream::{self, Stream};
use crate::sut::{
    record_of, stable_corpus, Backend, CorpusConfig, GdprError, GdprQuery, GdprWorkloadKind,
    Oracle, RequestBody, Session, Sut, WireConn, CORES,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` and the baseline refer to.
    Full,
    /// Toy sizes for the smoke test: same code paths, seconds to run.
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: GdprWorkloadKind,
    pub backend: Backend,
    pub wire: bool,
    pub records: usize,
    pub clients: usize,
    /// Requests in flight per connection (wire only).
    pub window: usize,
    /// Blocks per client stream. Cyclic streams wrap; the controller's must
    /// outlast the run.
    pub stream_blocks: usize,
    /// Blocks per slice (see `driver.rs`): a tenth of a second or so. The
    /// machine changes speed within half a second, and a slice must sit
    /// inside one spell to be one of the undisturbed tenth.
    pub slice_blocks: usize,
    /// Blocks replayed in lock-step with the oracle before measuring.
    pub gate_blocks: usize,
    /// Blocks of the traced single-client replay (fixed, so counts repeat).
    pub trace_blocks: usize,
    /// Customer ops run in set-up to give the audit trail its length.
    pub preroll_ops: usize,
}

impl Spec {
    pub fn corpus(&self) -> CorpusConfig {
        stable_corpus(self.records)
    }
}

pub fn specs(scale: Scale) -> Vec<Spec> {
    let full = scale == Scale::Full;
    let pick = |full_size: usize, smoke_size: usize| if full { full_size } else { smoke_size };
    vec![
        Spec {
            name: "customer-wire",
            kind: GdprWorkloadKind::Customer,
            backend: Backend::RedisSharded,
            wire: true,
            records: pick(100_000, 2_000),
            clients: CORES,
            window: 16,
            stream_blocks: pick(20_000, 400),
            slice_blocks: pick(250, 50),
            gate_blocks: pick(334, 20),
            trace_blocks: pick(8_000, 100),
            preroll_ops: 0,
        },
        Spec {
            name: "processor-mem",
            kind: GdprWorkloadKind::Processor,
            backend: Backend::RedisMi,
            wire: false,
            records: pick(20_000, 1_000),
            clients: CORES,
            window: 1,
            stream_blocks: pick(400, 20),
            slice_blocks: 1,
            gate_blocks: pick(8, 2),
            trace_blocks: pick(12, 2),
            preroll_ops: 0,
        },
        Spec {
            name: "controller-disk",
            kind: GdprWorkloadKind::Controller,
            backend: Backend::Disk {
                pool_pages: pick(32, 8),
            },
            wire: false,
            records: pick(4_000, 400),
            clients: 1,
            window: 1,
            stream_blocks: pick(400, 40),
            slice_blocks: 1,
            gate_blocks: pick(4, 1),
            trace_blocks: pick(12, 1),
            preroll_ops: 0,
        },
        Spec {
            name: "regulator-sharded",
            kind: GdprWorkloadKind::Regulator,
            backend: Backend::RedisSharded,
            wire: false,
            records: pick(20_000, 1_000),
            // One client: with two, each waits on the router's audit mutex
            // while the other's log read holds it for 35 ms, the mutex is
            // busy about half the time, and the median op flips between
            // "found it free" (1.5 ms) and "waited" (18 ms) from one run to
            // the next. `sharded.clients2_speedup` keeps the two-client view.
            clients: 1,
            window: 1,
            stream_blocks: pick(300, 20),
            slice_blocks: 1,
            gate_blocks: pick(15, 4),
            trace_blocks: pick(15, 4),
            preroll_ops: pick(50_000, 600),
        },
    ]
}

/// Everything made from the seed before any clock starts.
pub struct Inputs {
    pub streams: Vec<Stream>,
    /// Customer ops (stable population) run during set-up.
    pub preroll: Option<Stream>,
    pub generated_ops: usize,
    pub generate_s: f64,
}

pub fn make_inputs(spec: &Spec, seed: u64) -> Inputs {
    let corpus = spec.corpus();
    let started = Instant::now();
    let create_counter = Arc::new(AtomicU64::new(corpus.records as u64));
    // Two streams wherever a stream can be replayed, so the traced run can
    // put a second in-process client beside the first whatever `clients` is.
    let streams = if spec.kind == GdprWorkloadKind::Controller {
        spec.clients
    } else {
        CORES
    };
    let streams: Vec<Stream> = (0..streams)
        .map(|client| {
            stream::materialise(
                spec.kind,
                &corpus,
                seed ^ client as u64,
                spec.stream_blocks,
                Arc::clone(&create_counter),
            )
        })
        .collect();
    let generated_ops = streams.iter().map(|s| s.ops.len()).sum();
    let generate_s = started.elapsed().as_secs_f64();
    let preroll = (spec.preroll_ops > 0).then(|| {
        let blocks = spec.preroll_ops / 6; // a customer block is 6 ops
        stream::materialise(
            GdprWorkloadKind::Customer,
            &corpus,
            seed ^ 0x9E37_79B9_7F4A_7C15,
            blocks,
            Arc::new(AtomicU64::new(corpus.records as u64)),
        )
    });
    Inputs {
        streams,
        preroll,
        generated_ops,
        generate_s,
    }
}

/// A deployment ready to be driven, and how long it took to get there.
pub struct Ready {
    pub sut: Sut,
    pub conns: Vec<WireConn>,
    pub setup_s: f64,
    pub dir: PathBuf,
}

/// Build + load + pre-roll + connect: the `setup_s` interval, divided by the
/// machine's slowdown as a reference burst reads it right after (the
/// program's set-up cannot be interleaved with bursts as a run's slices are,
/// and a burst before it would start from whatever the process did last, not
/// from caches a set-up has just been through).
pub fn set_up(spec: &Spec, inputs: &Inputs, traced: bool, dir: &Path) -> Result<Ready, GdprError> {
    let mut reference = Reference::new();
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let sut = Sut::build(spec.backend, traced, spec.wire, &spec.corpus(), dir)?;
    if let Some(preroll) = &inputs.preroll {
        for op in &preroll.ops {
            // Outcomes are the customer mix's own (erased keys, other
            // subjects' records); only a store-side error is a set-up failure.
            if let Err(e @ (GdprError::Store(_) | GdprError::ShardMisroute { .. })) =
                sut.engine.execute(&op.session, &op.query)
            {
                return Err(e);
            }
        }
    }
    let mut conns = Vec::new();
    if let Some(addr) = sut.addr() {
        for _ in 0..spec.clients {
            conns.push(
                WireConn::connect(addr).map_err(|e| GdprError::Store(format!("connect: {e}")))?,
            );
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    Ok(Ready {
        sut,
        conns,
        setup_s: elapsed_s / reference.burst(),
        dir: dir.to_path_buf(),
    })
}

/// The model of a freshly set-up deployment: the corpus, then the writes of
/// the pre-roll (its reads change nothing, and the model answers a
/// predicate read by scanning, so they are skipped).
fn fresh_oracle(spec: &Spec, inputs: &Inputs) -> Oracle {
    let corpus = spec.corpus();
    let mut oracle = Oracle::new();
    oracle.load((0..corpus.records).map(|i| record_of(i, &corpus)));
    if let Some(preroll) = &inputs.preroll {
        for op in preroll.ops.iter().filter(|op| op.query.is_write()) {
            let _ = oracle.apply(&op.session, &op.query);
        }
    }
    oracle
}

/// Run the gate on a freshly set-up deployment: the first `gate_blocks` of
/// client 0's stream, one op at a time, in lock-step with the oracle. On
/// `disk` the store is then dropped and reopened from its directory, and
/// every key the stream or the corpus named must be present or absent as
/// the model says, with the record count unchanged. Returns (attempted,
/// failed) and the space factor at this fixed point.
pub fn run_gate(spec: &Spec, inputs: &Inputs, ready: Ready) -> Result<(u64, u64, f64), GdprError> {
    let Ready {
        sut,
        mut conns,
        dir,
        ..
    } = ready;
    let mut oracle = fresh_oracle(spec, inputs);
    let stream = &inputs.streams[0];
    let ops = || (0..spec.gate_blocks.min(stream.blocks())).flat_map(|b| stream.block(b));
    let (mut attempted, mut failed) = match conns.first_mut() {
        Some(conn) => driver::gate(&mut oracle, ops(), |seq, op| {
            driver::call_wire(conn, seq, op)
        }),
        None => driver::gate(&mut oracle, ops(), |_, op| {
            sut.engine.execute(&op.session, &op.query)
        }),
    };
    if let Some(pages) = &sut.pages {
        // The WAL grows and is truncated in a sawtooth; fold it into the
        // data file so the space factor does not depend on where in a
        // checkpoint cycle the gate happened to stop.
        pages.checkpoint().map_err(crate::sut::store_err)?;
    }
    let space_factor = sut.engine.space_report().overhead_factor();

    if let Backend::Disk { pool_pages } = spec.backend {
        let count_before = sut.engine.record_count();
        drop(conns);
        drop(sut);
        let reopened = Sut::reopen_disk(pool_pages, false, &dir)?;
        if reopened.engine.record_count() != count_before || count_before != oracle.record_count() {
            eprintln!(
                "reopen: record count {} before, {} after, model {}",
                count_before,
                reopened.engine.record_count(),
                oracle.record_count()
            );
            failed += 1;
        }
        let corpus = spec.corpus();
        let created = ops().filter_map(|op| match &op.query {
            GdprQuery::CreateRecord(record) => Some(record.key.clone()),
            _ => None,
        });
        let regulator = Session::regulator();
        for key in (0..corpus.records).map(crate::sut::key_of).chain(created) {
            let probe = GdprQuery::VerifyDeletion(key);
            attempted += 1;
            if reopened.engine.execute(&regulator, &probe) != oracle.apply(&regulator, &probe) {
                failed += 1;
            }
        }
    }
    Ok((attempted, failed, space_factor))
}

/// Whatever a run left in a `disk` deployment must survive a restart: drop
/// it, reopen it from its directory and compare record counts. Returns
/// whether they agree and how long the reopen took, in ms.
pub fn reopen_after(
    ready: Ready,
    pool_pages: usize,
    traced: bool,
) -> Result<(bool, f64), GdprError> {
    let count = ready.sut.engine.record_count();
    let dir = ready.dir.clone();
    drop(ready);
    let started = Instant::now();
    let reopened = Sut::reopen_disk(pool_pages, traced, &dir)?;
    let reopen_ms = started.elapsed().as_secs_f64() * 1e3;
    let after = reopened.engine.record_count();
    if after != count {
        eprintln!("reopen after the run: {count} records before, {after} after");
    }
    Ok((after == count, reopen_ms))
}

/// One phase of one client per cursor, released together, each running until
/// its own boundary: over the wire when `bodies` holds the client's requests,
/// in-process otherwise.
pub fn run_clients(
    spec: &Spec,
    inputs: &Inputs,
    ready: &mut Ready,
    bodies: &[Vec<RequestBody>],
    cursors: &mut [usize],
    limit: Duration,
) -> Merged {
    let barrier = std::sync::Barrier::new(cursors.len());
    let phase_ops = AtomicU64::new(0);
    let slicing = Slicing {
        blocks: spec.slice_blocks,
        phase_ops: &phase_ops,
    };
    let engine = &ready.sut.engine;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut conns = ready.conns.iter_mut();
        for (client, cursor) in cursors.iter_mut().enumerate() {
            let stream = &inputs.streams[client];
            let conn = conns.next();
            let barrier = &barrier;
            let bodies = bodies.get(client);
            handles.push(scope.spawn(move || {
                barrier.wait();
                match (conn, bodies) {
                    (Some(conn), Some(bodies)) => {
                        let (len, window) = (stream.block_len, spec.window);
                        driver::run_wire(conn, bodies, len, cursor, limit, window, slicing)
                    }
                    _ => {
                        let until = Until::Elapsed(limit);
                        driver::run_in_process(engine, stream, cursor, until, slicing)
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    Tally::merge(tallies)
}

/// The wire clients' requests, built before the clock starts so the send
/// loop clones nothing.
pub fn wire_bodies(spec: &Spec, inputs: &Inputs) -> Vec<Vec<RequestBody>> {
    if !spec.wire {
        return Vec::new();
    }
    inputs
        .streams
        .iter()
        .map(|stream| {
            stream
                .ops
                .iter()
                .map(|op| RequestBody::Execute(op.session.clone(), op.query.clone()))
                .collect()
        })
        .collect()
}

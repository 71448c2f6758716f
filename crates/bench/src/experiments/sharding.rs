//! Shard scaling: the Figure 7 Redis-scale story extended to the sharded
//! engine. The paper's Figure 7 shows the single Redis degrading as
//! personal-data volume grows; here we hold the corpus fixed and grow the
//! *shard count* instead, measuring a multi-threaded point-op workload
//! (90% READ-DATA-BY-KEY / 10% UPDATE-DATA-BY-KEY — the key-scoped
//! operations that route to exactly one shard).
//!
//! With one shard, every client thread serializes on the single store's
//! lock — the reproduction of the real Redis's single-threaded ceiling.
//! With N shards, point ops on disjoint keys proceed in parallel, so
//! throughput should climb with N until the machine's cores (or the
//! unified audit trail's append lock) become the next ceiling. The
//! `shard_scaling` binary prints the ladder; the `sharding` criterion
//! bench measures the same batch at N = 1 vs 8.
//!
//! [`run_fanout_reads`] measures the other routing class, a predicate
//! read fanned out over four shards, at both ends of its size range.

use crate::report::{fmt_duration, fmt_ops, ExperimentTable};
use connectors::ShardedRedisConnector;
use gdpr_core::record::{Metadata, PersonalRecord};
use gdpr_core::{GdprConnector, GdprQuery, Session};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The default shard ladder.
pub const DEFAULT_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Fraction of point ops that are reads (the rest rectify the payload).
const READ_FRACTION: f64 = 0.9;

/// Record `i` of a corpus: an hour of TTL, one purpose.
fn record(i: usize, user: String, purpose: &str) -> PersonalRecord {
    PersonalRecord::new(
        format!("k{i:07}"),
        format!("payload-{i:07}"),
        Metadata::new(user, vec![purpose.to_string()], Duration::from_secs(3600)),
    )
}

fn point_record(i: usize) -> PersonalRecord {
    record(i, format!("user-{:04}", i % 1024), "ads")
}

/// Build an indexed sharded connector preloaded with `records` point-op
/// targets.
pub fn build_sharded(shards: usize, records: usize) -> Arc<ShardedRedisConnector> {
    let conn = Arc::new(ShardedRedisConnector::open(shards).expect("open sharded"));
    let controller = Session::controller();
    for i in 0..records {
        conn.execute(&controller, &GdprQuery::CreateRecord(point_record(i)))
            .expect("load");
    }
    conn
}

/// Run `ops` point operations split across `threads` client threads
/// against one connector; returns the wall-clock completion time.
pub fn run_point_ops(
    conn: &Arc<ShardedRedisConnector>,
    records: usize,
    ops: u64,
    threads: usize,
) -> Duration {
    let threads = threads.max(1);
    // Distribute the remainder so exactly `ops` operations execute —
    // reported throughput must match work actually done.
    let base = ops / threads as u64;
    let extra = ops % threads as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let conn = Arc::clone(conn);
            let quota = base + u64::from((t as u64) < extra);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5AAD ^ t as u64);
                let reader = Session::processor("ads");
                let controller = Session::controller();
                for _ in 0..quota {
                    let i = rng.gen_range(0usize..records.max(1));
                    let key = format!("k{i:07}");
                    if rng.gen_bool(READ_FRACTION) {
                        conn.execute(&reader, &GdprQuery::ReadDataByKey(key))
                            .expect("read");
                    } else {
                        conn.execute(
                            &controller,
                            &GdprQuery::UpdateDataByKey {
                                key,
                                data: format!("rewrite-{i:07}"),
                            },
                        )
                        .expect("update");
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// Measured `(shard_count, ops/s)` series.
pub type ShardSeries = Vec<(usize, f64)>;

/// The shard-scaling ladder: completion and throughput of the point-op
/// workload at each shard count, with speedup normalized to the first.
pub fn run_point_op_scaling(
    shard_counts: &[usize],
    records: usize,
    ops: u64,
    threads: usize,
) -> (ExperimentTable, ShardSeries) {
    let mut table = ExperimentTable::new(
        format!(
            "Shard scaling — point-op workload ({records} records, {ops} ops, {threads} threads)"
        ),
        &["shards", "completion", "ops/s", "speedup"],
    );
    let mut series = ShardSeries::new();
    let mut baseline: Option<f64> = None;
    for &shards in shard_counts {
        let conn = build_sharded(shards, records);
        // One warm-up slice keeps first-touch allocation out of the timing.
        run_point_ops(&conn, records, (ops / 10).max(1), threads);
        let completion = run_point_ops(&conn, records, ops, threads);
        let throughput = ops as f64 / completion.as_secs_f64().max(1e-9);
        let base = *baseline.get_or_insert(throughput);
        table.push_row(vec![
            shards.to_string(),
            fmt_duration(completion),
            fmt_ops(throughput),
            format!("{:.2}x", throughput / base.max(1e-9)),
        ]);
        series.push((shards, throughput));
    }
    (table, series)
}

/// Records behind the `fanout_read_*` rows: the `regulator-sharded` corpus
/// of the e2e benchmark.
pub const FANOUT_READ_RECORDS: usize = 20_000;

/// By-user reads timed per round of [`run_fanout_reads`].
const FANOUT_USER_READS: usize = 1_000;

/// Three records per user; three records in four carry `ads`.
fn fanout_record(i: usize) -> PersonalRecord {
    let purpose = if i.is_multiple_of(4) {
        "billing"
    } else {
        "ads"
    };
    record(i, format!("user-{:05}", i / 3), purpose)
}

/// One client's predicate reads on a 4-shard `redis-sharded` engine, at
/// the two sizes a fan-out comes in — the layer view of what the router
/// adds to a read that visits every shard:
///
/// * `fanout_read_usr_us` — one READ-METADATA-BY-USR matching 3 records,
///   mean over 1 000 users, best of seven rounds: the regulator's and the
///   customer's read, where the per-shard work is an index probe and a
///   three-key read.
/// * `fanout_read_pur_ms` — one READ-DATA-BY-PUR matching three records in
///   four (≈ 3 750 per shard), best of seven: the analytical-sized read
///   that running the shards on separate cores could overlap, with one
///   client and the other cores idle. The router visits the shards one
///   after another on the caller's thread, so this row is the number a
///   parallel fan-out has to beat.
///
/// Smaller is better on both.
pub fn run_fanout_reads() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let series = fanout_reads(FANOUT_READ_RECORDS, 7);
    let mut table = ExperimentTable::new(
        format!("Fanned-out predicate reads on redis-sharded ({FANOUT_READ_RECORDS} records, 4 shards, 1 client)"),
        &["metric", "value"],
    );
    for (metric, value) in &series {
        table.push_row(vec![metric.to_string(), format!("{value:.2}")]);
    }
    (table, series)
}

fn fanout_reads(records: usize, rounds: usize) -> Vec<(&'static str, f64)> {
    let conn = ShardedRedisConnector::open(4).expect("open sharded");
    let controller = Session::controller();
    for i in 0..records {
        conn.execute(&controller, &GdprQuery::CreateRecord(fanout_record(i)))
            .expect("load");
    }
    let best_secs = |session: &Session, queries: &[GdprQuery]| {
        let pass = || {
            let started = Instant::now();
            for query in queries {
                std::hint::black_box(conn.execute(session, query).expect("predicate read"));
            }
            started.elapsed().as_secs_f64()
        };
        pass(); // warm-up
        (0..rounds).map(|_| pass()).fold(f64::INFINITY, f64::min)
    };
    let users = (records / 3).clamp(1, FANOUT_USER_READS);
    let by_user: Vec<GdprQuery> = (0..users)
        .map(|u| GdprQuery::ReadMetadataByUser(format!("user-{u:05}")))
        .collect();
    let by_purpose = [GdprQuery::ReadDataByPurpose("ads".into())];
    vec![
        (
            "fanout_read_usr_us",
            best_secs(&Session::regulator(), &by_user) * 1e6 / users as f64,
        ),
        (
            "fanout_read_pur_ms",
            best_secs(&Session::processor("ads"), &by_purpose) * 1e3,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim at toy scale: with more client threads than
    /// shards-1 can serve in parallel, eight shards must not be slower
    /// than one (the generous bound absorbs CI noise; release runs show
    /// a clear win — see the README's shard-count note). On a contended
    /// few-core test box one measurement is mostly scheduler noise, so
    /// the first of three attempts clearing the bound passes.
    #[test]
    fn point_ops_scale_with_shard_count() {
        let _gate = crate::timing_gate();
        let mut observed = Vec::new();
        for _ in 0..3 {
            let (table, series) = run_point_op_scaling(&[1, 8], 2_000, 12_000, 4);
            assert_eq!(table.rows.len(), 2);
            let (_, one) = series[0];
            let (_, eight) = series[1];
            if eight > one * 0.9 {
                return;
            }
            observed.push(series);
        }
        panic!("8 shards consistently slower than 1: {observed:?}");
    }

    /// Routing correctness under the bench workload: every preloaded key
    /// answers, and updates land (spot check).
    #[test]
    fn bench_workload_routes_correctly() {
        let conn = build_sharded(4, 64);
        run_point_ops(&conn, 64, 500, 2);
        assert_eq!(conn.record_count(), 64);
        let reader = Session::processor("ads");
        for i in 0..64 {
            conn.execute(&reader, &GdprQuery::ReadDataByKey(format!("k{i:07}")))
                .unwrap();
        }
        conn.verify_placement().unwrap();
    }

    /// The `bench_report` rows exist and are measurements; what they
    /// should read is the report's business, not a unit test's.
    #[test]
    fn fanout_reads_report_two_rows() {
        let series = fanout_reads(2_000, 2);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }
}

//! Batched vs per-record metadata-index maintenance — the write-side cost
//! the roadmap's "batched index maintenance" item targets.
//!
//! Every engine write keeps the `MetadataIndex` consistent. Before the
//! batch API, each record of a multi-record operation (group update,
//! group delete, TTL purge, backfill, shard rebalance) paid its own
//! write-lock round-trip on the index; `IndexBatch` +
//! `MetadataIndex::apply` coalesce the whole group under one acquisition,
//! with batch construction happening entirely outside the lock.
//!
//! Uncontended, a parking-lot lock round-trip costs nanoseconds against
//! microseconds of indexing work per record, so batching has nothing to
//! save there and its op buffering makes the idle row a net cost at
//! large stream sizes — the honest baseline. The win appears exactly
//! where the paper's workloads live: **concurrent readers**. A
//! per-record writer re-enters the lock queue after every record,
//! waiting out a reader critical section each time (and GDPR predicate
//! reads hold the read lock while they clone their candidate key sets);
//! the batched writer waits once. The contended rows measure maintenance
//! streams racing the same predicate-reader mix the engine serves.

use crate::report::ExperimentTable;
use gdpr_core::{
    GdprConnector, GdprQuery, IndexBatch, MetadataField, MetadataIndex, MetadataUpdate,
    RecordPredicate, Session,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::datagen;
use workload::gdpr::stable_corpus;

/// One comparison row: the same logical write stream, per record vs
/// batched.
#[derive(Debug, Clone)]
pub struct WriteBatchPoint {
    pub workload: &'static str,
    /// Concurrent predicate-reader threads during the stream.
    pub readers: usize,
    pub per_record: Duration,
    pub batched: Duration,
}

impl WriteBatchPoint {
    /// How many times cheaper the batched path is.
    pub fn speedup(&self) -> f64 {
        self.per_record.as_secs_f64() / self.batched.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Time `body` over `rounds` runs, returning the mean.
fn timed(rounds: usize, mut body: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..rounds {
        body();
    }
    start.elapsed() / rounds.max(1) as u32
}

/// Index-maintenance stream (`records` upserts, re-indexing the same
/// keys each round against one live index) applied one lock round-trip
/// per record vs one batch apply, while `readers` threads run the
/// engine's predicate reads against the same index.
pub fn run_micro(records: usize, rounds: usize, readers: usize) -> WriteBatchPoint {
    let config = stable_corpus(records);
    let corpus: Vec<_> = (0..records)
        .map(|i| datagen::record_of(i, &config))
        .collect();
    let index = Arc::new(MetadataIndex::new());
    for record in &corpus {
        index.upsert(record, 0, false);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            let user = corpus[0].metadata.user.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // The reads the engine actually serves: a point-ish
                    // inverted lookup and a negative predicate whose
                    // candidate set is cloned under the read lock.
                    let _ = index.keys_for(&RecordPredicate::User(user.clone()));
                    let _ = index.keys_for(&RecordPredicate::DecisionEligible);
                }
            })
        })
        .collect();

    // Both paths consume *owned* record streams built outside the timed
    // region, exactly as the engine hands them over (records are moved,
    // never copied, and dropped as they are indexed). The batched timed
    // body includes batch *construction* — the engine's batched routes
    // build the batch as part of the same operation, so excluding it
    // would overstate the gain an engine caller sees.
    let mut streams: Vec<Vec<_>> = (0..rounds.max(1)).map(|_| corpus.clone()).collect();
    let per_record = timed(rounds, || {
        for record in streams.pop().expect("one stream per round") {
            index.upsert(&record, 0, false);
        }
    });
    let mut streams: Vec<Vec<_>> = (0..rounds.max(1)).map(|_| corpus.clone()).collect();
    let batched = timed(rounds, || {
        let mut batch = IndexBatch::new();
        for record in streams.pop().expect("one stream per round") {
            batch.upsert(record, 0, false);
        }
        index.apply(batch);
    });

    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        let _ = handle.join();
    }

    WriteBatchPoint {
        workload: if readers == 0 {
            "maintenance stream, idle index"
        } else {
            "maintenance stream vs predicate readers"
        },
        readers,
        per_record,
        batched,
    }
}

/// End-to-end group writes on the indexed engine (these routes now
/// coalesce their index maintenance): mean latency of a group metadata
/// update and a group delete over one user's whole record set.
pub fn run_engine(records: usize, samples: usize) -> Vec<(&'static str, Duration, usize)> {
    let config = stable_corpus(records);
    let conn = connectors::RedisConnector::with_metadata_index(
        kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
    )
    .expect("attach index");
    let controller = Session::controller();
    for i in 0..records {
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(datagen::record_of(i, &config)),
        )
        .expect("load corpus");
    }
    let user = datagen::record_of(records / 2, &config).metadata.user;
    let group = conn
        .execute(&controller, &GdprQuery::ReadMetadataByUser(user.clone()))
        .expect("probe")
        .cardinality();

    let update = GdprQuery::UpdateMetadataByUser {
        user: user.clone(),
        update: MetadataUpdate::Add(MetadataField::Sharing, "batch-corp".into()),
    };
    let group_update = timed(samples, || {
        conn.execute(&controller, &update).expect("group update");
    });

    // Group delete + reload per sample so every round deletes the same set.
    let reload: Vec<_> = conn
        .execute(&controller, &GdprQuery::ReadMetadataByUser(user.clone()))
        .expect("snapshot")
        .as_metadata()
        .unwrap()
        .to_vec();
    let group_delete = timed(samples, || {
        conn.execute(&controller, &GdprQuery::DeleteByUser(user.clone()))
            .expect("group delete");
        for (key, metadata) in &reload {
            let record =
                gdpr_core::PersonalRecord::new(key.clone(), "reload".to_string(), metadata.clone());
            conn.execute(&controller, &GdprQuery::CreateRecord(record))
                .expect("reload");
        }
    });

    vec![
        ("update-metadata-by-usr", group_update, group),
        ("delete-record-by-usr (incl. reload)", group_delete, group),
    ]
}

/// The experiment table: the maintenance stream uncontended and racing
/// predicate readers, plus end-to-end group write latencies.
pub fn run(records: usize, rounds: usize) -> (ExperimentTable, Vec<WriteBatchPoint>) {
    let points = vec![run_micro(records, rounds, 0), run_micro(records, rounds, 2)];
    let mut table = ExperimentTable::new(
        format!("Batched vs per-record index maintenance ({records} records)"),
        &["workload", "readers", "per-record", "batched", "speedup"],
    );
    for point in &points {
        table.push_row(vec![
            point.workload.to_string(),
            point.readers.to_string(),
            format!("{:.2?}", point.per_record),
            format!("{:.2?}", point.batched),
            format!("{:.2}x", point.speedup()),
        ]);
    }
    for (name, latency, group) in run_engine(records, rounds) {
        table.push_row(vec![
            format!("{name} [group of {group}]"),
            "0".to_string(),
            "-".to_string(),
            format!("{latency:.2?}"),
            "-".to_string(),
        ]);
    }
    (table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Under the read contention the engine actually serves, one batched
    /// apply must beat per-record maintenance outright: the per-record
    /// writer re-queues behind a reader critical section for every record,
    /// the batched writer once. (Uncontended, the two paths tie modulo
    /// noise — the bench reports that row; only the contended row gates.)
    #[test]
    fn batched_maintenance_beats_per_record_under_read_contention() {
        let _gate = crate::timing_gate();
        let mut last = run_micro(8_000, 3, 2);
        for _ in 0..2 {
            if last.speedup() >= 1.3 {
                break;
            }
            last = run_micro(8_000, 3, 2);
        }
        assert!(
            last.speedup() >= 1.3,
            "contended batch apply should be measurably cheaper: per-record {:?} vs batched {:?} ({:.2}x)",
            last.per_record,
            last.batched,
            last.speedup()
        );
    }

    /// The batched engine paths leave the index and store in the same
    /// state as before the batch API: a group update reindexes every
    /// member, a group delete scrubs them all.
    #[test]
    fn engine_group_writes_keep_index_consistent() {
        let records = 600;
        let config = stable_corpus(records);
        let conn = connectors::RedisConnector::with_metadata_index(
            kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap(),
        )
        .unwrap();
        let controller = Session::controller();
        for i in 0..records {
            conn.execute(
                &controller,
                &GdprQuery::CreateRecord(datagen::record_of(i, &config)),
            )
            .unwrap();
        }
        let user = datagen::record_of(records / 2, &config).metadata.user;
        let index = conn.metadata_index().unwrap();
        let group = index
            .keys_for(&RecordPredicate::User(user.clone()))
            .unwrap();
        assert!(!group.is_empty());

        conn.execute(
            &controller,
            &GdprQuery::UpdateMetadataByUser {
                user: user.clone(),
                update: MetadataUpdate::Add(MetadataField::Sharing, "batch-corp".into()),
            },
        )
        .unwrap();
        let shared = index
            .keys_for(&RecordPredicate::SharedWith("batch-corp".into()))
            .unwrap();
        assert_eq!(shared, group, "every group member must be reindexed");

        conn.execute(&controller, &GdprQuery::DeleteByUser(user.clone()))
            .unwrap();
        for key in &group {
            assert!(
                index.fully_absent(key),
                "{key} must leave every index structure after the group delete"
            );
        }
    }
}

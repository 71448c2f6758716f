//! What one group write costs the page store: an erase-by-user of
//! [`ERASED`] records scattered over [`RECORDS`] (a subject's records
//! share no key locality, as in the generated corpus), on a pool a tenth
//! the size of the data — the `controller-disk` shape of the e2e
//! benchmark, measured at the layer that benchmark's traced replay cannot
//! see (its `TracedStore` does not forward `RecordStore::apply`).
//!
//! `group_erase_200_commits` is the WAL generation delta around the
//! erase and `group_erase_200_wal_bytes_per_record` the WAL growth per
//! erased record (auto-checkpoint off, WAL empty beforehand, so the growth
//! is everything the erase appended); both repeat exactly from run to run.
//! `group_erase_200_ms` is the engine-level latency of the erase,
//! predicate resolution and verifying fetches included, the best of
//! [`ROUNDS`] freshly loaded stores. All three are smaller-is-better.

use crate::report::ExperimentTable;
use connectors::DiskConnector;
use gdpr_core::{GdprConnector, GdprQuery, GdprResponse, Session};
use pagestore::{PageStore, PageStoreConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use workload::datagen;
use workload::gdpr::stable_corpus;

pub const RECORDS: usize = 4_000;
pub const ERASED: usize = 200;
const POOL_PAGES: usize = 32;
const SUBJECT: &str = "erased-subject";
const ROUNDS: usize = 3;

/// Load a fresh store and erase the subject once: (erase latency in ms,
/// commits, WAL bytes per erased record).
fn erase_once() -> (f64, f64, f64) {
    let dir = std::env::temp_dir().join(format!("gdpr-group-erase-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = PageStoreConfig {
        pool_pages: POOL_PAGES,
        checkpoint_frames: usize::MAX,
        ..PageStoreConfig::default()
    };
    let store = PageStore::open(&dir, config, clock::wall()).expect("open pagestore");
    let conn = DiskConnector::with_metadata_index(store.clone()).expect("open connector");
    let controller = Session::controller();
    let corpus = stable_corpus(RECORDS);
    // The subject owns the first ERASED records of a seeded shuffle.
    let mut rng = SmallRng::seed_from_u64(16);
    let mut order: Vec<usize> = (0..RECORDS).collect();
    for i in (1..RECORDS).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut owned = vec![false; RECORDS];
    for &i in &order[..ERASED] {
        owned[i] = true;
    }
    for (i, &owned) in owned.iter().enumerate() {
        let mut record = datagen::record_of(i, &corpus);
        if owned {
            record.metadata.user = SUBJECT.to_string();
        }
        conn.execute(&controller, &GdprQuery::CreateRecord(record))
            .expect("load");
    }
    store.checkpoint().expect("checkpoint after load");

    let wal_len = || {
        std::fs::metadata(dir.join("wal.log"))
            .expect("wal.log")
            .len()
    };
    let (wal_before, generation_before) = (wal_len(), store.generation());
    let started = Instant::now();
    let response = conn
        .execute(&controller, &GdprQuery::DeleteByUser(SUBJECT.to_string()))
        .expect("erase-by-user");
    let elapsed = started.elapsed();
    assert_eq!(response, GdprResponse::Deleted(ERASED));

    let measured = (
        elapsed.as_secs_f64() * 1e3,
        (store.generation() - generation_before) as f64,
        (wal_len() - wal_before) as f64 / ERASED as f64,
    );
    drop((conn, store));
    let _ = std::fs::remove_dir_all(&dir);
    measured
}

/// Run the suite; returns the table and `(metric, value)` pairs.
pub fn run() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let rounds: Vec<(f64, f64, f64)> = (0..ROUNDS).map(|_| erase_once()).collect();
    let (_, commits, wal_bytes_per_record) = rounds[0];
    let best_ms = rounds.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let series = vec![
        ("group_erase_200_ms", best_ms),
        ("group_erase_200_commits", commits),
        ("group_erase_200_wal_bytes_per_record", wal_bytes_per_record),
    ];

    let mut table = ExperimentTable::new(
        format!(
            "Pagestore erase-by-user of {ERASED} of {RECORDS} records, \
             {POOL_PAGES}-page pool (smaller is better)"
        ),
        &["metric", "value"],
    );
    for (metric, value) in &series {
        table.push_row(vec![metric.to_string(), format!("{value:.3}")]);
    }
    (table, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round, not [`run`]'s three: this binary's timing-ratio tests
    /// run beside it.
    #[test]
    fn group_erase_is_one_commit() {
        let (ms, commits, wal_bytes_per_record) = erase_once();
        assert_eq!(commits, 1.0);
        assert!(ms > 0.0 && wal_bytes_per_record > 0.0);
    }
}

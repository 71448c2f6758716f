//! What one group write costs the page store, on a pool a tenth the size
//! of the data — the `controller-disk` shape of the e2e benchmark,
//! measured at the layer that benchmark's traced replay cannot see (its
//! `TracedStore` does not forward `RecordStore::apply`). Two writes, each
//! on a freshly loaded store of [`RECORDS`] records:
//!
//! * **erase** — an erase-by-user of [`ERASED`] records scattered over the
//!   store (a subject's records share no key locality, as in the
//!   generated corpus). `group_erase_200_commits` is the WAL generation
//!   delta around the erase and `group_erase_200_wal_bytes_per_record`
//!   the WAL growth per erased record (auto-checkpoint off, WAL empty
//!   beforehand, so the growth is everything the erase appended).
//! * **consent update** — `update-metadata-by-pur` adding one sharing
//!   party to every record declaring [`UPDATED_PURPOSE`] (≈ a quarter of
//!   the store: the G7 consent case that dominates `controller-disk`).
//!   `group_update_pur_commits` is its generation delta,
//!   `group_update_pur_decodes` the internal-page decodes the buffer pool
//!   made during it ([`pagestore::PoolStats::decodes`]: one per internal
//!   page image, not one per descent) and
//!   `group_update_pur_internal_pages` the internal pages the tree had,
//!   the bound the decodes must stay under.
//! * **repeated consent update** — the same update applied a second time
//!   to the same store, when every match already lists the party: the
//!   engine counts the matches and writes none of them.
//!   `group_update_pur_repeat_commits` is its generation delta and
//!   `group_update_pur_repeat_wal_bytes` its WAL growth, both 0.
//! * **TTL purge with nothing due** — a DELETE-RECORD-BY-TTL on a loaded
//!   store, after one warming purge (every record's TTL is an hour or
//!   more, so neither finds anything due). `purge_nothing_due_page_reads`
//!   is the pages the buffer pool served or missed during it
//!   ([`pagestore::PoolStats`] `hits + misses`): 0, because the warming
//!   purge left the store a deadline floor above the clock.
//!
//! `…_ms` is the engine-level latency of the write, predicate resolution
//! and verifying fetches included, the best of [`ROUNDS`] freshly loaded
//! stores; every other row repeats exactly from run to run. All rows are
//! smaller-is-better.

use crate::report::ExperimentTable;
use connectors::registry::ScratchDir;
use connectors::DiskConnector;
use gdpr_core::{GdprConnector, GdprQuery, GdprResponse, MetadataField, MetadataUpdate, Session};
use pagestore::page::T_INTERNAL;
use pagestore::{PageStore, PageStoreConfig, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use workload::datagen::{self, THIRD_PARTIES};
use workload::gdpr::stable_corpus;

pub const RECORDS: usize = 4_000;
pub const ERASED: usize = 200;
/// A vocabulary purpose: about a quarter of the corpus declares it.
const UPDATED_PURPOSE: &str = "ads";
const POOL_PAGES: usize = 32;
const SUBJECT: &str = "erased-subject";
const ROUNDS: usize = 3;

/// A store loaded with the corpus — the subject owning the first
/// [`ERASED`] records of a seeded shuffle — checkpointed, so its WAL is
/// empty and its data file holds the whole tree.
struct Loaded {
    store: Arc<PageStore>,
    conn: DiskConnector,
    /// Declared last, so it is removed after the store has dropped.
    dir: ScratchDir,
}

impl Loaded {
    fn new() -> Loaded {
        let dir = ScratchDir::new("group-write");
        let config = PageStoreConfig {
            pool_pages: POOL_PAGES,
            checkpoint_frames: usize::MAX,
            ..PageStoreConfig::default()
        };
        let store = PageStore::open(&dir, config, clock::wall()).expect("open pagestore");
        let conn = DiskConnector::with_metadata_index(store.clone()).expect("open connector");
        let corpus = stable_corpus(RECORDS);
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
            conn.execute(&Session::controller(), &GdprQuery::CreateRecord(record))
                .expect("load");
        }
        store.checkpoint().expect("checkpoint after load");
        Loaded { dir, store, conn }
    }

    fn wal_len(&self) -> u64 {
        std::fs::metadata(self.dir.join("wal.log"))
            .expect("wal.log")
            .len()
    }

    /// Internal pages in the (checkpointed) data file.
    fn internal_pages(&self) -> usize {
        let pages = std::fs::read(self.dir.join("pages.db")).expect("pages.db");
        let tree = pages.chunks(PAGE_SIZE).skip(1);
        tree.filter(|page| page[0] == T_INTERNAL).count()
    }

    /// Pages the buffer pool has served or missed since the store opened.
    fn page_reads(&self) -> u64 {
        let stats = self.store.pool_stats();
        stats.hits + stats.misses
    }

    /// Run `query` as the controller: (its response, latency in ms).
    fn timed(&self, query: &GdprQuery) -> (GdprResponse, f64) {
        let started = Instant::now();
        let response = self
            .conn
            .execute(&Session::controller(), query)
            .expect("group write");
        (response, started.elapsed().as_secs_f64() * 1e3)
    }
}

/// Erase the subject on a fresh store: (latency in ms, commits, WAL bytes
/// per erased record).
fn erase_once() -> (f64, f64, f64) {
    let loaded = Loaded::new();
    let (wal_before, generation_before) = (loaded.wal_len(), loaded.store.generation());
    let (response, ms) = loaded.timed(&GdprQuery::DeleteByUser(SUBJECT.to_string()));
    assert_eq!(response, GdprResponse::Deleted(ERASED));
    (
        ms,
        (loaded.store.generation() - generation_before) as f64,
        (loaded.wal_len() - wal_before) as f64 / ERASED as f64,
    )
}

/// One consent update on a fresh store, then the same update again.
struct Update {
    ms: f64,
    commits: u64,
    decodes: u64,
    internal_pages: usize,
    /// The second application: every match already lists the party.
    repeat_ms: f64,
    repeat_commits: u64,
    repeat_wal_bytes: u64,
}

fn update_once() -> Update {
    let loaded = Loaded::new();
    let internal_pages = loaded.internal_pages();
    let (generation_before, decodes_before) =
        (loaded.store.generation(), loaded.store.pool_stats().decodes);
    let update = GdprQuery::UpdateMetadataByPurpose {
        purpose: UPDATED_PURPOSE.to_string(),
        update: MetadataUpdate::Add(MetadataField::Sharing, THIRD_PARTIES[0].to_string()),
    };
    let (response, ms) = loaded.timed(&update);
    assert!(matches!(response, GdprResponse::Updated(n) if n > RECORDS / 8));
    let commits = loaded.store.generation() - generation_before;
    let decodes = loaded.store.pool_stats().decodes - decodes_before;
    let (wal_before, generation_before) = (loaded.wal_len(), loaded.store.generation());
    let (repeat, repeat_ms) = loaded.timed(&update);
    assert_eq!(repeat, response, "a repeat counts the same matches");
    Update {
        ms,
        commits,
        decodes,
        internal_pages,
        repeat_ms,
        repeat_commits: loaded.store.generation() - generation_before,
        repeat_wal_bytes: loaded.wal_len() - wal_before,
    }
}

/// A TTL purge with nothing due on a fresh store, after one warming
/// purge: (latency in ms, pages read).
fn purge_nothing_due_once() -> (f64, u64) {
    let loaded = Loaded::new();
    let (warming, _) = loaded.timed(&GdprQuery::DeleteExpired);
    assert_eq!(warming, GdprResponse::Deleted(0));
    let reads_before = loaded.page_reads();
    let (response, ms) = loaded.timed(&GdprQuery::DeleteExpired);
    assert_eq!(response, GdprResponse::Deleted(0));
    (ms, loaded.page_reads() - reads_before)
}

fn best(ms: impl Iterator<Item = f64>) -> f64 {
    ms.fold(f64::INFINITY, f64::min)
}

/// Run the suite; returns the table and `(metric, value)` pairs.
pub fn run() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let erases: Vec<(f64, f64, f64)> = (0..ROUNDS).map(|_| erase_once()).collect();
    let updates: Vec<Update> = (0..ROUNDS).map(|_| update_once()).collect();
    let purges: Vec<(f64, u64)> = (0..ROUNDS).map(|_| purge_nothing_due_once()).collect();
    let (_, commits, wal_bytes_per_record) = erases[0];
    let update = &updates[0];
    // (metric, value, unit) — simpledb's benchmark-row shape.
    let rows = [
        ("group_erase_200_ms", best(erases.iter().map(|r| r.0)), "ms"),
        ("group_erase_200_commits", commits, "count"),
        (
            "group_erase_200_wal_bytes_per_record",
            wal_bytes_per_record,
            "B",
        ),
        (
            "group_update_pur_ms",
            best(updates.iter().map(|u| u.ms)),
            "ms",
        ),
        ("group_update_pur_commits", update.commits as f64, "count"),
        ("group_update_pur_decodes", update.decodes as f64, "count"),
        (
            "group_update_pur_internal_pages",
            update.internal_pages as f64,
            "count",
        ),
        (
            "group_update_pur_repeat_ms",
            best(updates.iter().map(|u| u.repeat_ms)),
            "ms",
        ),
        (
            "group_update_pur_repeat_commits",
            update.repeat_commits as f64,
            "count",
        ),
        (
            "group_update_pur_repeat_wal_bytes",
            update.repeat_wal_bytes as f64,
            "B",
        ),
        (
            "purge_nothing_due_ms",
            best(purges.iter().map(|p| p.0)),
            "ms",
        ),
        ("purge_nothing_due_page_reads", purges[0].1 as f64, "count"),
    ];

    let mut table = ExperimentTable::new(
        format!(
            "Pagestore group writes on {RECORDS} records, {POOL_PAGES}-page pool: \
             erase-by-user of {ERASED}, consent update of purpose {UPDATED_PURPOSE}, \
             TTL purge with nothing due (smaller is better)"
        ),
        &["metric", "value", "unit"],
    );
    for (metric, value, unit) in &rows {
        table.push_row(vec![
            metric.to_string(),
            format!("{value:.3}"),
            unit.to_string(),
        ]);
    }
    let series = rows.iter().map(|&(metric, value, _)| (metric, value));
    (table, series.collect())
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

    /// A consent update is one commit, and its descents decode each
    /// internal page image at most once — the same count every run. The
    /// same update applied again changes no record, so it commits nothing
    /// and appends no WAL byte.
    #[test]
    fn group_update_is_one_commit_and_its_decodes_repeat() {
        let (first, second) = (update_once(), update_once());
        assert_eq!(first.commits, 1);
        assert_eq!((first.repeat_commits, first.repeat_wal_bytes), (0, 0));
        assert_eq!(first.decodes, second.decodes, "decodes must repeat");
        assert!(
            first.decodes as usize <= first.internal_pages,
            "{} decodes of {} internal pages",
            first.decodes,
            first.internal_pages
        );
    }

    /// Once a purge has walked the store, a TTL purge with nothing due
    /// reads no page.
    #[test]
    fn a_purge_with_nothing_due_reads_no_page() {
        let (_, page_reads) = purge_nothing_due_once();
        assert_eq!(page_reads, 0);
    }
}

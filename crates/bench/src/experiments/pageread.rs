//! What reading a committed page costs the page store — the read half of
//! `controller-disk`, whose data is ten times its buffer pool, so most
//! page reads miss. Three rows, all smaller-is-better:
//!
//! * `page_checksum_ns` — the checksum of one 4 KiB page, which every page
//!   read from disk verifies and every page written stamps;
//! * `leaf_cells_ns` — locating every cell of a full 25-cell leaf in its
//!   image ([`pagestore::page::leaf_cells`]), which every read descent
//!   pays once per leaf;
//! * `cold_get_ns_per_key` — [`PageStore::get_each`] of every key of a
//!   sealed [`RECORDS`]-record store with a [`POOL_PAGES`]-page pool, keys
//!   sorted, on a freshly opened store: descents, pool misses, checksums,
//!   cell walks and value opens, per key.
//!
//! The microbenchmarks report the best of five batches; the cold
//! read the best of five reopens.

use crate::report::ExperimentTable;
use connectors::registry::ScratchDir;
use pagestore::page::{self, CellRef, Leaf, LeafEntry, ValueRef, PAGE_SIZE, PAYLOAD};
use pagestore::{PageStore, PageStoreConfig};
use std::hint::black_box;
use std::time::Instant;
use workload::datagen;
use workload::gdpr::stable_corpus;

pub const RECORDS: usize = 4_000;
pub const POOL_PAGES: usize = 32;
const ROUNDS: usize = 5;
const MICRO_ITERS: u32 = 20_000;
/// Cells in the measured leaf: what a full leaf of the corpus holds.
const LEAF_CELLS: usize = 25;

/// Best ns per call of `f` over [`ROUNDS`] batches of [`MICRO_ITERS`].
fn best_ns(mut f: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..MICRO_ITERS {
                f();
            }
            started.elapsed().as_nanos() as f64 / MICRO_ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A full leaf of [`LEAF_CELLS`] cells, each with a deadline and a value
/// the size of a sealed corpus record.
fn full_leaf() -> Leaf {
    let entries: Vec<LeafEntry> = (0..LEAF_CELLS)
        .map(|i| LeafEntry {
            key: format!("key-{i:016}").into_bytes(),
            deadline_ms: Some(1 << 40 | i as u64),
            value: ValueRef::Inline(vec![i as u8; 128]),
        })
        .collect();
    let leaf = Leaf { next: 9, entries };
    debug_assert!(page::leaf_size(&leaf) <= PAYLOAD);
    leaf
}

fn checksum_ns() -> f64 {
    let payload: Vec<u8> = (0..PAYLOAD as u32).map(|i| (i * 13 + 5) as u8).collect();
    best_ns(|| {
        black_box(page::page_checksum(black_box(7), black_box(&payload)));
    })
}

fn leaf_cells_ns() -> f64 {
    let image = page::serialize_leaf(3, &full_leaf());
    let mut cells: Vec<CellRef> = Vec::new();
    best_ns(|| {
        page::leaf_cells(3, black_box(&image), &mut cells).expect("a valid leaf");
        black_box(&cells);
    })
}

/// A checkpointed store of the corpus's wire texts, sealed at rest, in a
/// fresh directory; returns the directory and the keys, sorted.
fn load() -> (ScratchDir, Vec<String>) {
    let dir = ScratchDir::new("page-read");
    let store = open(&dir);
    let corpus = stable_corpus(RECORDS);
    let mut keys = Vec::with_capacity(RECORDS);
    for i in 0..RECORDS {
        let record = datagen::record_of(i, &corpus);
        let text = gdpr_core::wire::serialize(&record);
        store
            .insert(&record.key, text.as_bytes(), None)
            .expect("load");
        keys.push(record.key);
    }
    store.checkpoint().expect("checkpoint after load");
    keys.sort_unstable();
    (dir, keys)
}

fn open(dir: &std::path::Path) -> std::sync::Arc<PageStore> {
    let config = PageStoreConfig {
        pool_pages: POOL_PAGES,
        ..PageStoreConfig::default()
    };
    PageStore::open(dir, config, clock::wall()).expect("open pagestore")
}

/// One sorted `get_each` of every key on a freshly opened store: (ns per
/// key, values read, value bytes read).
fn cold_get_once(dir: &std::path::Path, keys: &[String]) -> (f64, usize, usize) {
    let store = open(dir);
    let (mut found, mut bytes) = (0, 0);
    let started = Instant::now();
    store
        .get_each(keys, |_, value| {
            found += 1;
            bytes += value.len();
        })
        .expect("cold read");
    let ns = started.elapsed().as_nanos() as f64 / keys.len() as f64;
    (ns, found, bytes)
}

/// Run the suite; returns the table and `(metric, value)` pairs.
pub fn run() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let (dir, keys) = load();
    let cold = (0..ROUNDS)
        .map(|_| {
            let (ns, found, _) = cold_get_once(&dir, &keys);
            assert_eq!(found, keys.len(), "every key holds a record");
            ns
        })
        .fold(f64::INFINITY, f64::min);
    drop(dir);
    let rows = [
        ("page_checksum_ns", checksum_ns(), "ns"),
        ("leaf_cells_ns", leaf_cells_ns(), "ns"),
        ("cold_get_ns_per_key", cold, "ns"),
    ];
    let mut table = ExperimentTable::new(
        format!(
            "Pagestore page reads: one {PAGE_SIZE}-byte page checksum, one {LEAF_CELLS}-cell \
             leaf walk, a cold sorted read of {RECORDS} sealed records on a {POOL_PAGES}-page \
             pool (smaller is better)"
        ),
        &["metric", "value", "unit"],
    );
    for (metric, value, unit) in &rows {
        table.push_row(vec![
            metric.to_string(),
            format!("{value:.1}"),
            unit.to_string(),
        ]);
    }
    let series = rows.iter().map(|&(metric, value, _)| (metric, value));
    (table, series.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_measured_leaf_is_full_and_walks_to_every_cell() {
        let leaf = full_leaf();
        assert!(page::leaf_size(&leaf) > PAYLOAD - 200, "nearly full");
        let image = page::serialize_leaf(3, &leaf);
        let mut cells = Vec::new();
        assert_eq!(page::leaf_cells(3, &image, &mut cells).unwrap(), 9);
        assert_eq!(cells.len(), LEAF_CELLS);
    }

    /// The cold read returns every record, opened: each value is a wire
    /// text longer than its sealed form's header.
    #[test]
    fn a_cold_read_returns_every_record() {
        let (dir, keys) = load();
        let (ns, found, bytes) = cold_get_once(&dir, &keys);
        assert_eq!(found, RECORDS);
        assert!(ns > 0.0 && bytes > 16 * RECORDS);
        assert!(checksum_ns() > 0.0 && leaf_cells_ns() > 0.0);
    }
}

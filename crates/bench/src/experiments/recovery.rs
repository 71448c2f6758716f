//! Restore-vs-rebuild: what the persistent metadata-index snapshot buys
//! at restart time.
//!
//! Reopening an indexed engine without a snapshot pays the O(n) backfill:
//! a full scan of the store, decrypting and parsing every record just to
//! recover index terms. The snapshot replaces that with an O(index) load
//! of a compact checksummed image — no record payloads, no decryption, no
//! wire parsing. This experiment measures both open paths over the same
//! live store (encryption at rest on, as in the paper's compliant
//! configuration), plus the two honest rows: a *stale* image (one write
//! landed after the stamp) must fall back to the full rebuild, and the
//! snapshot write itself costs one index export.
//!
//! The acceptance bar from the roadmap: at 100 K records, restore ≥ 10×
//! faster than rebuild.

use crate::report::{fmt_duration, ExperimentTable};
use connectors::RedisConnector;
use gdpr_core::wire;
use kvstore::{KvConfig, KvStore};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::datagen;
use workload::gdpr::stable_corpus;

/// One measured recovery comparison.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    pub records: usize,
    pub index_entries: usize,
    pub snapshot_bytes: u64,
    /// O(n) open: scan-decrypt-parse backfill.
    pub rebuild: Duration,
    /// O(index) open: snapshot restore.
    pub restore: Duration,
    /// Open against a stale image (falls back to the rebuild).
    pub stale_fallback: Duration,
    /// Writing the snapshot image.
    pub snapshot_write: Duration,
}

impl RecoveryPoint {
    /// How many times faster the snapshot restore is than the rebuild.
    pub fn speedup(&self) -> f64 {
        self.rebuild.as_secs_f64() / self.restore.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Populate a store with `records` corpus records (sealed at rest) and
/// measure the two open paths against it.
pub fn run_micro(records: usize) -> RecoveryPoint {
    let dir = std::env::temp_dir().join(format!(
        "gdpr-recovery-bench-{}-{records}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("metaindex.snap");
    let _ = std::fs::remove_file(&path);

    // The paper's fully compliant store: encryption at rest AND in
    // transit, plus audit logging of reads — the deployment the indexed
    // variants exist in. A restart rebuild pays all of it 100 K times
    // over (every scanned record is a logged, transit-sealed, at-rest
    // decrypted GET); the snapshot restore touches none of it.
    let store = KvStore::open(KvConfig::gdpr_compliant_in_memory()).expect("open kvstore");
    // GDPRbench-shaped records (1 KB payloads): the rebuild decrypts and
    // parses every byte of them; the snapshot holds keys and metadata
    // terms only, so its size — and the restore time — is independent of
    // the payloads.
    let config = workload::datagen::CorpusConfig {
        data_len: 1024,
        ..stable_corpus(records)
    };
    for i in 0..records {
        let record = datagen::record_of(i, &config);
        store
            .set(
                format!("rec:{}", record.key).as_bytes(),
                wire::serialize(&record).as_bytes(),
            )
            .expect("load record");
    }

    // The compliant store audit-logs every read into its (memory-backed)
    // AOF, so each scan round would otherwise grow the process by the
    // whole logged keyspace; the log's content is irrelevant here (the
    // generation counter is tracked independently), so drop it between
    // rounds to keep the measurements about the open paths, not about
    // allocator pressure.
    let clear_aof = |store: &Arc<KvStore>| {
        if let Some(buf) = store.aof_memory_buffer() {
            let mut buf = buf.lock();
            buf.clear();
            buf.shrink_to_fit();
        }
    };
    clear_aof(&store);

    // Each open path is timed as the minimum of a few rounds: a restart
    // measurement is exactly the kind of one-shot a noisy machine
    // distorts (first-touch page faults, allocator growth), and the
    // minimum is the standard de-noised estimator for deterministic work.
    const ROUNDS: usize = 3;
    let min_of = |body: &mut dyn FnMut() -> Duration| {
        (0..ROUNDS)
            .map(|_| {
                clear_aof(&store);
                body()
            })
            .min()
            .expect("rounds > 0")
    };

    // O(n): the backfill open path every restart pays without a snapshot.
    let mut index_entries = 0;
    let rebuild = min_of(&mut || {
        let start = Instant::now();
        let rebuilt =
            RedisConnector::with_metadata_index(Arc::clone(&store)).expect("backfill open");
        let elapsed = start.elapsed();
        index_entries = rebuilt.metadata_index().expect("index").len();
        elapsed
    });

    // Write the image (first snapshot-aware open rebuilds again — not
    // timed — then persists).
    let writer =
        RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).expect("open");
    let snapshot_write = min_of(&mut || {
        let start = Instant::now();
        writer.write_index_snapshot().expect("write snapshot");
        start.elapsed()
    });
    drop(writer);
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();

    // O(index): the restore open path.
    let restore = min_of(&mut || {
        let start = Instant::now();
        let restored =
            RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).expect("open");
        let elapsed = start.elapsed();
        assert!(
            restored
                .index_recovery()
                .is_some_and(gdpr_core::IndexRecovery::is_restored),
            "a matching snapshot must take the restore path"
        );
        assert_eq!(
            restored.metadata_index().expect("index").len(),
            index_entries
        );
        elapsed
    });

    // Honest row: one write behind the stamp makes the image stale — the
    // open must detect it and pay the rebuild, never serve the old index.
    let smuggled = datagen::record_of(records, &config);
    store
        .set(
            format!("rec:{}", smuggled.key).as_bytes(),
            wire::serialize(&smuggled).as_bytes(),
        )
        .expect("smuggle record");
    clear_aof(&store);
    let start = Instant::now();
    let stale =
        RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).expect("open");
    let stale_fallback = start.elapsed();
    assert!(
        stale.index_recovery().is_some_and(|r| !r.is_restored()),
        "a stale snapshot must force the rebuild"
    );
    assert_eq!(
        stale.metadata_index().expect("index").len(),
        index_entries + 1,
        "the rebuild must pick up the smuggled record"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    RecoveryPoint {
        records,
        index_entries,
        snapshot_bytes,
        rebuild,
        restore,
        stale_fallback,
        snapshot_write,
    }
}

/// The experiment: restore-vs-rebuild at `records` scale.
pub fn run(records: usize) -> (ExperimentTable, RecoveryPoint) {
    let point = run_micro(records);
    let mut table = ExperimentTable::new(
        format!(
            "Index recovery at {} records ({} index entries, snapshot {} KiB)",
            point.records,
            point.index_entries,
            point.snapshot_bytes / 1024
        ),
        &["open path", "time", "vs rebuild"],
    );
    table.push_row(vec![
        "rebuild (O(n) scan-decrypt-parse)".into(),
        fmt_duration(point.rebuild),
        "1.00x".into(),
    ]);
    table.push_row(vec![
        "restore (O(index) snapshot load)".into(),
        fmt_duration(point.restore),
        format!("{:.2}x faster", point.speedup()),
    ]);
    table.push_row(vec![
        "stale snapshot (falls back to rebuild)".into(),
        fmt_duration(point.stale_fallback),
        format!(
            "{:.2}x",
            point.rebuild.as_secs_f64() / point.stale_fallback.as_secs_f64().max(f64::MIN_POSITIVE)
        ),
    ]);
    table.push_row(vec![
        "snapshot write (export + fsync + rename)".into(),
        fmt_duration(point.snapshot_write),
        String::new(),
    ]);
    (table, point)
}

// ---------------------------------------------------------------------------
// The same comparison over the disk-native pagestore backend
// ---------------------------------------------------------------------------

/// One measured pagestore restart comparison. The store-recovery rows
/// (WAL replay vs checkpointed reopen) have no kvstore analogue — the
/// paged store's restart cost is the committed-but-unflushed WAL tail,
/// not an AOF replay of the whole history.
#[derive(Debug, Clone)]
pub struct DiskRecoveryPoint {
    pub records: usize,
    pub index_entries: usize,
    pub snapshot_bytes: u64,
    /// Reopen with a ~10% write burst still in the WAL (frame replay).
    pub wal_reopen: Duration,
    /// Committed frames that reopen replayed.
    pub wal_frames: usize,
    /// Reopen right after a checkpoint (empty WAL; meta page only).
    pub checkpointed_reopen: Duration,
    /// O(n) index backfill at open: scan, unseal, parse every record.
    pub rebuild: Duration,
    /// O(index) index restore from the snapshot image.
    pub restore: Duration,
    /// Writing the snapshot image.
    pub snapshot_write: Duration,
}

impl DiskRecoveryPoint {
    /// How many times faster the snapshot restore is than the rebuild.
    pub fn speedup(&self) -> f64 {
        self.rebuild.as_secs_f64() / self.restore.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Populate a paged store with `records` corpus records (sealed at rest)
/// and measure both restart axes against it: store recovery (WAL replay
/// vs checkpointed) and index recovery (snapshot restore vs scan
/// rebuild).
pub fn run_disk_micro(records: usize) -> DiskRecoveryPoint {
    use connectors::DiskConnector;
    use pagestore::{PageStore, PageStoreConfig};

    let dir = std::env::temp_dir().join(format!(
        "gdpr-recovery-disk-{}-{records}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("metaindex.snap");

    let config = PageStoreConfig::default();
    let open = || PageStore::open(&dir, config.clone(), clock::wall()).expect("open pagestore");
    let corpus = workload::datagen::CorpusConfig {
        data_len: 1024,
        ..stable_corpus(records)
    };

    // Load through the engine (scan variant — no index yet), then
    // checkpoint so the load burst is in the data file, not the WAL.
    // The store handle lives in a slot so the reopen rounds can drop the
    // only handle before opening the files again.
    let mut slot = Some(open());
    {
        let loader = DiskConnector::new(Arc::clone(slot.as_ref().unwrap()));
        workload::gdpr::load_corpus(&loader, &corpus).expect("load corpus");
    }
    slot.as_ref()
        .unwrap()
        .checkpoint()
        .expect("checkpoint after load");

    // A ~10% rewrite burst lands in the WAL: the committed-but-unflushed
    // tail every crash-restart replays.
    let burst = (records / 10).max(1);
    for i in 0..burst {
        let record = datagen::record_of(i, &corpus);
        slot.as_ref()
            .unwrap()
            .upsert(
                &record.key,
                wire::serialize(&record).as_bytes(),
                pagestore::Deadline::At(None),
            )
            .expect("burst rewrite");
    }

    const ROUNDS: usize = 3;
    let reopen_rounds = |slot: &mut Option<Arc<PageStore>>| {
        (0..ROUNDS)
            .map(|_| {
                drop(slot.take());
                let start = Instant::now();
                *slot = Some(open());
                start.elapsed()
            })
            .min()
            .expect("rounds > 0")
    };

    // Store recovery, axis 1: reopen replaying the burst's WAL frames.
    // Replay applies frames to the pool without checkpointing, so every
    // round replays the same tail.
    let wal_reopen = reopen_rounds(&mut slot);
    let wal_frames = slot.as_ref().unwrap().recovery().wal_frames;
    assert!(wal_frames > 0, "the write burst must be replayed");
    let store = slot.take().expect("store handle");

    // Index recovery, axis 2: O(n) backfill vs O(index) snapshot load.
    let mut index_entries = 0;
    let rebuild = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let rebuilt =
                DiskConnector::with_metadata_index(Arc::clone(&store)).expect("backfill open");
            let elapsed = start.elapsed();
            index_entries = rebuilt.metadata_index().expect("index").len();
            elapsed
        })
        .min()
        .expect("rounds > 0");

    let writer =
        DiskConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).expect("open");
    let snapshot_write = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            writer.write_index_snapshot().expect("write snapshot");
            start.elapsed()
        })
        .min()
        .expect("rounds > 0");
    drop(writer);
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();

    let restore = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let restored = DiskConnector::with_metadata_index_snapshot(Arc::clone(&store), &path)
                .expect("open");
            let elapsed = start.elapsed();
            assert!(
                restored
                    .index_recovery()
                    .is_some_and(gdpr_core::IndexRecovery::is_restored),
                "a generation-matched snapshot must take the restore path"
            );
            assert_eq!(
                restored.metadata_index().expect("index").len(),
                index_entries
            );
            elapsed
        })
        .min()
        .expect("rounds > 0");

    // Store recovery, axis 1 again, after a checkpoint: the WAL is empty
    // and reopen reads only the meta page.
    store.checkpoint().expect("checkpoint");
    slot = Some(store);
    let checkpointed_reopen = reopen_rounds(&mut slot);
    let store = slot.take().expect("store handle");
    assert_eq!(store.recovery().wal_frames, 0, "checkpointed WAL is empty");
    assert_eq!(store.record_count(), records);

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    DiskRecoveryPoint {
        records,
        index_entries,
        snapshot_bytes,
        wal_reopen,
        wal_frames,
        checkpointed_reopen,
        rebuild,
        restore,
        snapshot_write,
    }
}

/// The pagestore experiment: both restart axes at `records` scale.
pub fn run_disk(records: usize) -> (ExperimentTable, DiskRecoveryPoint) {
    let point = run_disk_micro(records);
    let mut table = ExperimentTable::new(
        format!(
            "Pagestore restart at {} records ({} index entries, snapshot {} KiB, \
             {} WAL frames in the burst tail)",
            point.records,
            point.index_entries,
            point.snapshot_bytes / 1024,
            point.wal_frames
        ),
        &["restart path", "time", "vs index rebuild"],
    );
    table.push_row(vec![
        "store reopen, WAL tail replay".into(),
        fmt_duration(point.wal_reopen),
        String::new(),
    ]);
    table.push_row(vec![
        "store reopen, checkpointed (empty WAL)".into(),
        fmt_duration(point.checkpointed_reopen),
        String::new(),
    ]);
    table.push_row(vec![
        "index rebuild (O(n) scan-unseal-parse)".into(),
        fmt_duration(point.rebuild),
        "1.00x".into(),
    ]);
    table.push_row(vec![
        "index restore (O(index) snapshot load)".into(),
        fmt_duration(point.restore),
        format!("{:.2}x faster", point.speedup()),
    ]);
    table.push_row(vec![
        "snapshot write (export + fsync + rename)".into(),
        fmt_duration(point.snapshot_write),
        String::new(),
    ]);
    (table, point)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy-scale smoke: the restore path is taken, agrees with the
    /// rebuild, and the stale fallback catches the smuggled write. (The
    /// ≥10× speedup claim is asserted at 100 K in the release bin, not
    /// here — debug-build timings are noise.)
    #[test]
    fn restore_and_stale_fallback_behave() {
        let point = run_micro(1500);
        assert_eq!(point.records, 1500);
        assert!(point.index_entries > 0);
        assert!(point.snapshot_bytes > 0);
        assert!(point.restore > Duration::ZERO);
        assert!(point.rebuild > Duration::ZERO);
    }

    /// Pagestore flavour of the same smoke, plus the store-recovery axis:
    /// the burst tail replays, the checkpointed reopen sees an empty WAL,
    /// and the snapshot restore path is taken against the WAL-derived
    /// generation stamp.
    #[test]
    fn disk_restart_axes_behave() {
        let point = run_disk_micro(1200);
        assert_eq!(point.records, 1200);
        assert!(point.index_entries > 0);
        assert!(point.snapshot_bytes > 0);
        assert!(point.wal_frames > 0);
        assert!(point.restore > Duration::ZERO);
        assert!(point.rebuild > Duration::ZERO);
    }

    /// A write that lands after the snapshot stamp (here: directly on the
    /// pagestore, bumping its WAL generation) must force the reopen down
    /// the rebuild path — the image is stale the moment the commit
    /// sequence moves.
    #[test]
    fn disk_snapshot_goes_stale_on_any_commit() {
        use connectors::DiskConnector;
        use pagestore::{PageStore, PageStoreConfig};
        let dir = std::env::temp_dir().join(format!("gdpr-recovery-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PageStore::open(&dir, PageStoreConfig::default(), clock::wall()).unwrap();
        let corpus = stable_corpus(300);
        let path = dir.join("metaindex.snap");
        let writer = DiskConnector::with_metadata_index_snapshot(Arc::clone(&store), &path)
            .expect("first open");
        workload::gdpr::load_corpus(&writer, &corpus).expect("load corpus");
        writer.write_index_snapshot().expect("write snapshot");
        drop(writer);

        let restored =
            DiskConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
        assert!(
            restored
                .index_recovery()
                .is_some_and(gdpr_core::IndexRecovery::is_restored),
            "matching generation must restore"
        );
        drop(restored);

        let smuggled = datagen::record_of(corpus.records, &corpus);
        store
            .insert(&smuggled.key, wire::serialize(&smuggled).as_bytes(), None)
            .expect("smuggle commit");
        let stale = DiskConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
        assert!(
            stale.index_recovery().is_some_and(|r| !r.is_restored()),
            "a moved commit sequence must force the rebuild"
        );
        assert!(stale
            .metadata_index()
            .expect("index")
            .keys_by_user(&smuggled.metadata.user)
            .contains(&smuggled.key));
        drop(stale);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

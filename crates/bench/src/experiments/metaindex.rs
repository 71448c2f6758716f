//! Index-on vs index-off on the key-value backend: the paper's Figure 5
//! trade-off, isolated to single queries.
//!
//! The scan-based Redis connector answers READ-DATA-BY-USR and
//! READ-DATA-BY-PUR by walking the whole `rec:*` keyspace and parsing every
//! record — O(n) per query. With the engine's metadata index attached the
//! same queries resolve by inverted lookup plus per-match fetches —
//! O(matches). This module measures both paths on identical corpora so the
//! speedup is a number, not a claim; the `metaindex` criterion bench runs
//! the same comparison at 100 K records.

use crate::report::ExperimentTable;
use connectors::registry::{self, Posture, ScratchDir};
use gdpr_core::response::DataRows;
use gdpr_core::{
    wire, GdprConnector, GdprQuery, GdprResponse, MetadataIndex, PersonalRecord, Session,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::datagen;
use workload::gdpr::{load_corpus, stable_corpus};

/// Mean per-query latency of both paths for one query class.
#[derive(Debug, Clone)]
pub struct IndexedVsScan {
    pub query: &'static str,
    pub scan: Duration,
    pub indexed: Duration,
}

impl IndexedVsScan {
    /// How many times faster the indexed path is.
    pub fn speedup(&self) -> f64 {
        self.scan.as_secs_f64() / self.indexed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Build the two connectors over identical corpora. Plain store config
/// (no encryption/logging) so the measurement isolates scan-vs-index.
pub fn build_pair(
    records: usize,
) -> (
    Arc<connectors::RedisConnector>,
    Arc<connectors::RedisConnector>,
) {
    let corpus = stable_corpus(records);
    let scan = Arc::new(connectors::RedisConnector::new(
        kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
    ));
    load_corpus(scan.as_ref(), &corpus).expect("load scan corpus");
    let indexed = Arc::new(
        connectors::RedisConnector::with_metadata_index(
            kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
        )
        .expect("attach index"),
    );
    load_corpus(indexed.as_ref(), &corpus).expect("load indexed corpus");
    (scan, indexed)
}

/// The same pair over the disk-native pagestore backend: the scan path
/// walks B-tree leaves, unseals and parses every record per query
/// (through a buffer pool it may well overflow); the indexed path is the
/// same inverted lookup as on the kvstore. Both over one scratch
/// directory, which outlives neither, default pool (256 pages).
pub fn build_disk_pair(
    records: usize,
) -> (
    ScratchDir,
    Arc<connectors::DiskConnector>,
    Arc<connectors::DiskConnector>,
) {
    use pagestore::{PageStore, PageStoreConfig};
    let dir = ScratchDir::new("metaindex");
    let open = |tag: &str| {
        PageStore::open(dir.join(tag), PageStoreConfig::default(), clock::wall())
            .expect("open pagestore")
    };
    let corpus = stable_corpus(records);
    let scan = Arc::new(connectors::DiskConnector::new(open("scan")));
    load_corpus(scan.as_ref(), &corpus).expect("load scan corpus");
    let indexed = Arc::new(
        connectors::DiskConnector::with_metadata_index(open("indexed")).expect("attach index"),
    );
    load_corpus(indexed.as_ref(), &corpus).expect("load indexed corpus");
    (dir, scan, indexed)
}

fn mean_latency(
    conn: &dyn GdprConnector,
    session: &Session,
    query: &GdprQuery,
    samples: usize,
) -> Duration {
    // One warm-up execution keeps first-touch costs out of the mean.
    conn.execute(session, query).expect("warmup");
    let start = Instant::now();
    for _ in 0..samples {
        conn.execute(session, query).expect("query");
    }
    start.elapsed() / samples.max(1) as u32
}

/// Measure the two metadata query classes of the acceptance comparison on
/// both connector variants.
pub fn run(records: usize, samples: usize) -> (ExperimentTable, Vec<IndexedVsScan>) {
    let (scan_conn, index_conn) = build_pair(records);
    measure(
        scan_conn.as_ref(),
        index_conn.as_ref(),
        records,
        samples,
        "Redis",
    )
}

/// The same comparison on the disk-native pagestore backend.
pub fn run_disk(records: usize, samples: usize) -> (ExperimentTable, Vec<IndexedVsScan>) {
    let (_dir, scan_conn, index_conn) = build_disk_pair(records);
    measure(
        scan_conn.as_ref(),
        index_conn.as_ref(),
        records,
        samples,
        "disk",
    )
}

fn measure(
    scan_conn: &dyn GdprConnector,
    index_conn: &dyn GdprConnector,
    records: usize,
    samples: usize,
    backend: &str,
) -> (ExperimentTable, Vec<IndexedVsScan>) {
    let corpus = stable_corpus(records);
    let probe = datagen::record_of(records / 2, &corpus);
    let user = probe.metadata.user.clone();
    // Two purpose probes with opposite selectivity: a *cohort* purpose
    // matches COHORT_SIZE records (the bounded-purpose shape the corpus
    // models for G5.1b group operations), while a *vocabulary* purpose like
    // "ads" matches a large constant fraction of the corpus. The index
    // turns O(n) into O(matches), so the first is the headline speedup and
    // the second its honest lower bound (matches ≈ n/4 caps the gain).
    let cohort_purpose = datagen::cohort_purpose_of(records / 2);
    let broad_purpose = probe
        .metadata
        .purposes
        .iter()
        .find(|p| !p.starts_with("cohort-"))
        .expect("records declare at least one vocabulary purpose")
        .clone();

    let cases: Vec<(&'static str, Session, GdprQuery)> = vec![
        (
            "read-data-by-usr",
            Session::customer(user.clone()),
            GdprQuery::ReadDataByUser(user),
        ),
        (
            "read-data-by-pur (cohort)",
            Session::processor(cohort_purpose.clone()),
            GdprQuery::ReadDataByPurpose(cohort_purpose),
        ),
        (
            "read-data-by-pur (broad)",
            Session::processor(broad_purpose.clone()),
            GdprQuery::ReadDataByPurpose(broad_purpose),
        ),
    ];

    let mut table = ExperimentTable::new(
        format!("Metadata index vs full scan on the {backend} backend ({records} records)"),
        &["query", "scan", "indexed", "speedup"],
    );
    let mut points = Vec::new();
    for (name, session, query) in cases {
        let scan = mean_latency(scan_conn, &session, &query, samples);
        let indexed = mean_latency(index_conn, &session, &query, samples);
        let point = IndexedVsScan {
            query: name,
            scan,
            indexed,
        };
        table.push_row(vec![
            name.to_string(),
            format!("{scan:.2?}"),
            format!("{indexed:.2?}"),
            format!("{:.1}x", point.speedup()),
        ]);
        points.push(point);
    }
    (table, points)
}

/// Records behind the `pred_read_*` rows: the `processor-mem` corpus of
/// the e2e benchmark.
pub const PRED_READ_RECORDS: usize = 20_000;

/// The processor's broad predicate reads on `redis-mi`, at the layer the
/// e2e benchmark's traced replay cannot see (its `TracedStore` forwards
/// none of `RecordStore::fetch_many`, `scan_each` and `fetch_view`, so its
/// ledger shows the index path's per-key default loop, and point reads
/// that build a record, where the served engine walks the store for a
/// broad predicate and borrows a point read's text):
///
/// * `pred_read_obj_20k_us` / `pred_read_dec_20k_us` — one
///   READ-DATA-BY-OBJ / READ-DATA-BY-DEC (nearly every record matches:
///   the engine walks the store), and `pred_read_pur_20k_us` — one
///   READ-DATA-BY-PUR of a purpose a quarter of the records declare (the
///   engine names the candidates); one client, best of seven; smaller is
///   better.
/// * `pred_read_clients2_speedup` — by-obj reads per second with two
///   clients over one client's (30 reads per client, best of three each):
///   what a second reader gains when the batches are answered under the
///   store's shared lock. Bigger is better; 2.0 is the ceiling on two
///   cores.
///
/// and the layers under each candidate of those reads, best of `rounds`
/// passes, smaller is better:
///
/// * `record_view_parse_ns` — one `RecordView::from_bytes` over a stored
///   text of the corpus, whose only non-ASCII bytes are its `∅` markers,
///   so the reader proves it UTF-8 without `str::from_utf8`;
/// * `record_view_parse_nonascii_ns` — the same over the corpus with a
///   non-ASCII user in every record (`USR=user000123é`): the texts the
///   markers cannot prove, which pay the full `str::from_utf8`;
/// * `kv_read_ns_per_key` — one key of a `KvStore::read_each` over 512
///   present `rec:` keys stored without a TTL, storage keys built and
///   values borrowed as `RedisStore::fetch_many` does, with no parse;
/// * `kv_read_cold_ns_per_key` — the same read over every record of the
///   corpus, each stored with its TTL (`SET … EX`, so every key carries a
///   deadline, as the processor's do), in sorted key order: the shape of a
///   candidate list whose keys do not stay in cache;
/// * `kv_walk_ns_per_record` — one `KvStore::read_prefix` walk over the
///   same store, per record walked, values borrowed as
///   `RedisStore::scan_each` does, with no parse: what a broad read pays
///   the store instead;
/// * `kv_read_compliant_ns_per_key` / `kv_walk_compliant_ns_per_record` —
///   `kv_read_ns_per_key`'s read, and a walk, over the same 512 keys in
///   a compliant store (`registry::kv_config(Posture::COMPLIANT)`): each
///   chunk of the read also appends its `MGET` frame to the at-rest-sealed AOF and seals
///   the `MGET` and its reply in transit.
///
/// and what a point write pays the index, on one shard's index of the
/// `customer-wire` corpus (see [`index_churn`]):
///
/// * `index_churn_remove_ns` / `index_churn_create_ns` — one
///   `MetadataIndex::remove` of a random indexed key / the `upsert` that
///   re-creates it;
///
/// and what it pays the key-value store, in commands and AOF frames (see
/// [`write_costs`]): `kv_create_frames`, `kv_update_by_key_frames`,
/// `kv_update_by_key_commands`.
pub fn run_pred_reads() -> (ExperimentTable, Vec<(&'static str, f64)>) {
    let mut series = pred_reads(PRED_READ_RECORDS, 7, 30);
    series.extend(index_churn(CHURN_RECORDS, 7));
    series.extend(write_costs());
    let mut table = ExperimentTable::new(
        format!("Broad predicate reads on redis-mi ({PRED_READ_RECORDS} records)"),
        &["metric", "value"],
    );
    for (metric, value) in &series {
        table.push_row(vec![metric.to_string(), format!("{value:.2}")]);
    }
    (table, series)
}

fn pred_reads(records: usize, rounds: usize, reads_per_client: usize) -> Vec<(&'static str, f64)> {
    let conn = connectors::RedisConnector::with_metadata_index(
        kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore"),
    )
    .expect("attach index");
    let corpus = stable_corpus(records);
    load_corpus(&conn, &corpus).expect("load corpus");
    let records: Vec<PersonalRecord> = (0..records)
        .map(|i| datagen::record_of(i, &corpus))
        .collect();
    let stored: Vec<(Arc<str>, String)> = records
        .iter()
        .map(|record| (record.key.as_str().into(), wire::serialize(record)))
        .collect();
    let accented: Vec<(Arc<str>, String)> = records
        .iter()
        .map(|record| {
            let mut record = record.clone();
            record.metadata.user.push('é');
            (record.key.as_str().into(), wire::serialize(&record))
        })
        .collect();
    let purpose = datagen::PURPOSES[0];
    let session = Session::processor(purpose);
    let by_obj = GdprQuery::ReadDataNotObjecting(purpose.into());
    let by_dec = GdprQuery::ReadDataDecisionEligible;
    let by_pur = GdprQuery::ReadDataByPurpose(purpose.into());
    let read = |query: &GdprQuery| {
        std::hint::black_box(conn.execute(&session, query).expect("predicate read"));
    };

    let best_us = |query: &GdprQuery| {
        read(query); // warm-up
        let once = || {
            let started = Instant::now();
            read(query);
            started.elapsed().as_secs_f64() * 1e6
        };
        (0..rounds).map(|_| once()).fold(f64::INFINITY, f64::min)
    };
    let reads_per_sec = |clients: usize| {
        let once = || {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| (0..reads_per_client).for_each(|_| read(&by_obj)));
                }
            });
            (clients * reads_per_client) as f64 / started.elapsed().as_secs_f64()
        };
        (0..3).map(|_| once()).fold(0.0, f64::max)
    };
    let (cold, cold_keys) = ttl_store(&records);
    let stock = chunk_store(&stored, kvstore::KvConfig::default());
    let compliant = chunk_store(&stored, registry::kv_config(Posture::COMPLIANT));
    vec![
        ("pred_read_obj_20k_us", best_us(&by_obj)),
        ("pred_read_dec_20k_us", best_us(&by_dec)),
        ("pred_read_pur_20k_us", best_us(&by_pur)),
        (
            "pred_read_clients2_speedup",
            reads_per_sec(2) / reads_per_sec(1),
        ),
        (
            "record_view_parse_ns",
            record_view_parse_ns(&stored, rounds),
        ),
        (
            "record_view_parse_nonascii_ns",
            record_view_parse_ns(&accented, rounds),
        ),
        (
            "data_response_ns_per_row",
            data_response_ns_per_row(&records, rounds),
        ),
        (
            "kv_read_ns_per_key",
            read_each_ns_per_key(&stock.0, &stock.1, rounds * 10),
        ),
        (
            "kv_read_cold_ns_per_key",
            read_each_ns_per_key(&cold, &cold_keys, rounds),
        ),
        (
            "kv_walk_ns_per_record",
            kv_walk_ns_per_record(&cold, rounds),
        ),
        (
            "kv_read_compliant_ns_per_key",
            read_each_ns_per_key(&compliant.0, &compliant.1, rounds * 10),
        ),
        (
            "kv_walk_compliant_ns_per_record",
            kv_walk_ns_per_record(&compliant.0, rounds * 10),
        ),
    ]
}

/// Nanoseconds per item of `pass`, which handles `items` items: the best
/// of `rounds` passes after a warm-up one.
fn best_ns_per(items: usize, rounds: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let started = Instant::now();
        pass();
        best = best.min(started.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    best
}

fn record_view_parse_ns(stored: &[(Arc<str>, String)], rounds: usize) -> f64 {
    best_ns_per(stored.len(), rounds, || {
        for (_, text) in stored {
            let view = wire::RecordView::from_bytes(std::hint::black_box(text.as_bytes()));
            std::hint::black_box(view.expect("a stored text parses"));
        }
    })
}

/// What a predicate read pays per matched row to hand its rows back:
/// build a `Data` response from every record's `(key, data)`, sized for
/// the rows as the engine sizes it, and drop it.
fn data_response_ns_per_row(records: &[PersonalRecord], rounds: usize) -> f64 {
    best_ns_per(records.len(), rounds, || {
        let mut rows = DataRows::with_capacity(records.len(), 0);
        for record in std::hint::black_box(records) {
            rows.push(&record.key, &record.data);
        }
        drop(std::hint::black_box(GdprResponse::Data(rows)));
    })
}

/// The storage key `RedisStore` keeps a record under.
fn rec_key(key: &Arc<str>, buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"rec:");
    buf.extend_from_slice(key.as_bytes());
}

/// A store opened with `config` holding the first [`READ_CHUNK`] of
/// `stored` under their `rec:` keys, without a TTL, and their keys.
///
/// [`READ_CHUNK`]: kvstore::server::READ_CHUNK
fn chunk_store(
    stored: &[(Arc<str>, String)],
    config: kvstore::KvConfig,
) -> (Arc<kvstore::KvStore>, Vec<Arc<str>>) {
    let store = kvstore::KvStore::open(config).expect("open kvstore");
    let batch = &stored[..stored.len().min(kvstore::server::READ_CHUNK)];
    let mut buf = Vec::new();
    for (key, text) in batch {
        buf.clear();
        rec_key(key, &mut buf);
        store.set(&buf, text.as_bytes()).expect("load kvstore");
    }
    let keys: Vec<Arc<str>> = batch.iter().map(|(key, _)| Arc::clone(key)).collect();
    (store, keys)
}

/// A store holding every record under its `rec:` key with its TTL, and
/// the records' keys in sorted order.
fn ttl_store(records: &[PersonalRecord]) -> (Arc<kvstore::KvStore>, Vec<Arc<str>>) {
    let store = kvstore::KvStore::open(kvstore::KvConfig::default()).expect("open kvstore");
    let mut keys: Vec<Arc<str>> = Vec::with_capacity(records.len());
    let mut buf = Vec::new();
    for record in records {
        let key: Arc<str> = record.key.as_str().into();
        let ttl = record.metadata.ttl.expect("every corpus record has a TTL");
        buf.clear();
        rec_key(&key, &mut buf);
        let text = wire::serialize(record);
        store
            .set_ex(&buf, text.as_bytes(), ttl)
            .expect("load kvstore");
        keys.push(key);
    }
    keys.sort_unstable();
    (store, keys)
}

/// Nanoseconds per record of one `read_prefix` walk over `store`'s `rec:`
/// keys, values borrowed and only their lengths summed: the best of
/// `rounds` passes.
fn kv_walk_ns_per_record(store: &kvstore::KvStore, rounds: usize) -> f64 {
    best_ns_per(store.dbsize(), rounds, || {
        let mut bytes = 0;
        let walked = store.read_prefix(b"rec:", |_, value| {
            bytes += value.len();
            Ok::<_, std::convert::Infallible>(())
        });
        assert!(matches!(walked, Ok(Ok(()))));
        std::hint::black_box(bytes);
    })
}

/// Nanoseconds per key of one `read_each` over `keys`, values borrowed and
/// only their lengths summed: the best of `rounds` passes.
fn read_each_ns_per_key(store: &kvstore::KvStore, keys: &[Arc<str>], rounds: usize) -> f64 {
    best_ns_per(keys.len(), rounds, || {
        let mut bytes = 0;
        let read = store.read_each(keys, rec_key, |value| {
            bytes += value.len();
            Ok::<_, std::convert::Infallible>(())
        });
        assert!(matches!(read, Ok(Ok(()))));
        std::hint::black_box(bytes);
    })
}

/// What one point write through the engine costs a `redis-mi` store with
/// an AOF attached, counted from its `KvStats` around the call, on a
/// TTL-carrying record (as every corpus record is):
///
/// * `kv_create_frames` — the AOF frames one CREATE-RECORD appends;
/// * `kv_update_by_key_frames` / `kv_update_by_key_commands` — the AOF
///   frames and store commands of one UPDATE-DATA-BY-KEY: its point read
///   and its rewrite.
///
/// A frame is counted twice, as a generation step (`mutations`) and as an
/// appended frame (`aof_records`), and the two must agree.
pub fn write_costs() -> Vec<(&'static str, f64)> {
    let config = kvstore::KvConfig {
        aof: kvstore::config::Storage::Memory,
        fsync: kvstore::FsyncPolicy::Never,
        ..Default::default()
    };
    let kv = kvstore::KvStore::open(config).expect("open kvstore");
    let conn =
        connectors::RedisConnector::with_metadata_index(Arc::clone(&kv)).expect("attach index");
    let record = datagen::record_of(0, &stable_corpus(1));
    assert!(
        record.metadata.ttl.is_some(),
        "a corpus record carries a TTL"
    );
    let user = Session::customer(record.metadata.user.clone());
    let update = GdprQuery::UpdateDataByKey {
        key: record.key.clone(),
        data: "rectified".into(),
    };
    // (commands, frames) the store runs for `query`.
    let cost = |session: &Session, query: &GdprQuery| {
        let stats = kv.stats();
        let counts = || {
            let frames = stats.mutations.load(Ordering::Relaxed);
            let appended = stats.aof_records.load(Ordering::Relaxed);
            assert_eq!(frames, appended, "every generation step is one frame");
            (stats.commands.load(Ordering::Relaxed), frames)
        };
        let before = counts();
        conn.execute(session, query).expect("point write");
        let after = counts();
        ((after.0 - before.0) as f64, (after.1 - before.1) as f64)
    };
    let (_, create_frames) = cost(&Session::controller(), &GdprQuery::CreateRecord(record));
    let (update_commands, update_frames) = cost(&user, &update);
    vec![
        ("kv_create_frames", create_frames),
        ("kv_update_by_key_frames", update_frames),
        ("kv_update_by_key_commands", update_commands),
    ]
}

/// The corpus behind the `index_churn_*` rows: `customer-wire`'s.
pub const CHURN_RECORDS: usize = 100_000;

/// Keys removed and re-created per churn round.
const CHURN_KEYS: usize = 2_000;

/// Index maintenance under point writes, at the layer the e2e ledger's
/// `metaindex.remove_ns` cannot see (the ledger removes keys in key order
/// from a shrinking index, so the sets it walks stay in cache). The
/// index holds shard 0 of four of `stable_corpus(records)` — one
/// `customer-wire` shard, about 25 000 keys. Each round takes
/// [`CHURN_KEYS`] keys at random and removes and re-creates each in
/// turn, leaving the index as it found it: the remove meets a cold key,
/// the create the lines its remove just touched. The rows are the best
/// of `rounds` rounds, in nanoseconds per call: `index_churn_remove_ns`
/// and `index_churn_create_ns`.
pub fn index_churn(records: usize, rounds: usize) -> Vec<(&'static str, f64)> {
    let corpus = stable_corpus(records);
    let shard: Vec<PersonalRecord> = (0..records)
        .map(|i| datagen::record_of(i, &corpus))
        .filter(|record| gdpr_core::shard_of(&record.key, 4) == 0)
        .collect();
    let index = MetadataIndex::new();
    for record in &shard {
        index.upsert(record, 0, false);
    }
    // xorshift64*: a fixed stream, so every build churns the same keys.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    };
    let mut order: Vec<usize> = (0..shard.len()).collect();
    let picks = CHURN_KEYS.min(shard.len());
    let (mut remove_ns, mut create_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds.max(1) {
        // A partial Fisher-Yates: the first `picks` slots are the sample.
        for i in 0..picks {
            let j = i + below(order.len() - i);
            order.swap(i, j);
        }
        let (mut removing, mut creating) = (Duration::ZERO, Duration::ZERO);
        for record in order[..picks].iter().map(|&i| &shard[i]) {
            let started = Instant::now();
            std::hint::black_box(index.remove(&record.key));
            let removed = Instant::now();
            index.upsert(record, 0, false);
            creating += removed.elapsed();
            removing += removed - started;
        }
        let ns_per_call = |total: Duration| total.as_nanos() as f64 / picks.max(1) as f64;
        remove_ns = remove_ns.min(ns_per_call(removing));
        create_ns = create_ns.min(ns_per_call(creating));
    }
    assert_eq!(index.len(), shard.len(), "a churn round restores the index");
    vec![
        ("index_churn_remove_ns", remove_ns),
        ("index_churn_create_ns", create_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `bench_report` rows exist and are measurements; what they
    /// should read is the report's business, not a unit test's.
    #[test]
    fn pred_reads_report_twelve_rows() {
        let series = pred_reads(2_000, 2, 3);
        assert_eq!(series.len(), 12);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    /// A TTL-carrying create is one `SET` frame; an update by key is a
    /// point read and one `SET` frame.
    #[test]
    fn write_costs_are_one_frame_per_write() {
        let series = write_costs();
        assert_eq!(
            series,
            [
                ("kv_create_frames", 1.0),
                ("kv_update_by_key_frames", 1.0),
                ("kv_update_by_key_commands", 2.0),
            ]
        );
    }

    #[test]
    fn index_churn_reports_two_rows() {
        let series = index_churn(4_000, 2);
        let names: Vec<&str> = series.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["index_churn_remove_ns", "index_churn_create_ns"]);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    /// The acceptance bar, at a scale small enough for the test suite: on
    /// selective predicates (a user's records, a bounded purpose) the
    /// indexed path must beat the full-scan path by ≥10×; on the broad
    /// vocabulary purpose — where matches ≈ n/4 bound the possible gain —
    /// it must still win outright. (At the criterion bench's 100 K records
    /// the selective gaps are far larger; 20 K already clears 10× with a
    /// wide margin because the scan parses every record per query.)
    #[test]
    fn indexed_reads_beat_scans_by_an_order_of_magnitude() {
        let _gate = crate::timing_gate();
        let (_, points) = run(20_000, 5);
        for point in points {
            let required = if point.query.contains("broad") {
                1.0
            } else {
                10.0
            };
            assert!(
                point.speedup() >= required,
                "{}: expected ≥{required}x, got {:.1}x (scan {:?}, indexed {:?})",
                point.query,
                point.speedup(),
                point.scan,
                point.indexed
            );
        }
    }

    /// The disk backend clears the same bar on its selective predicates:
    /// the scan path pays a full leaf walk with per-record unseal+parse
    /// per query, the indexed path only the inverted lookup plus
    /// O(matches) point fetches. The broad vocabulary purpose is the
    /// honest selectivity crossover: matches ≈ n/4 random descents
    /// through the buffer pool run neck-and-neck with one sequential
    /// leaf walk (~0.7–1.0×; a planner would pick the scan here), so the
    /// bound only pins that the indexed path isn't pathological, not
    /// that it wins. Smaller corpus than the kvstore test — the scan
    /// rounds are real page I/O.
    #[test]
    fn disk_indexed_reads_beat_scans() {
        let _gate = crate::timing_gate();
        let (_, points) = run_disk(8_000, 3);
        for point in points {
            let required = if point.query.contains("broad") {
                0.25
            } else {
                10.0
            };
            assert!(
                point.speedup() >= required,
                "{}: expected ≥{required}x, got {:.1}x (scan {:?}, indexed {:?})",
                point.query,
                point.speedup(),
                point.scan,
                point.indexed
            );
        }
    }

    /// Scan and indexed paths agree record-for-record on the disk
    /// backend too.
    #[test]
    fn disk_paths_agree_on_the_corpus() {
        let records = 2_000;
        let (_dir, scan_conn, index_conn) = build_disk_pair(records);
        let corpus = stable_corpus(records);
        let probe = datagen::record_of(17, &corpus);
        let user = probe.metadata.user.clone();
        let purpose = probe.metadata.purposes[0].clone();
        for (session, query) in [
            (
                Session::customer(user.clone()),
                GdprQuery::ReadDataByUser(user),
            ),
            (
                Session::processor(purpose.clone()),
                GdprQuery::ReadDataByPurpose(purpose),
            ),
        ] {
            let mut scan = scan_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            let mut indexed = index_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            scan.sort();
            indexed.sort();
            assert_eq!(scan, indexed, "divergence on {query:?}");
            assert!(!scan.is_empty(), "probe query should match something");
        }
    }

    /// Both paths return identical result sets on the benchmark corpus.
    #[test]
    fn both_paths_agree_on_the_corpus() {
        let records = 2_000;
        let (scan_conn, index_conn) = build_pair(records);
        let corpus = stable_corpus(records);
        let probe = datagen::record_of(17, &corpus);
        let user = probe.metadata.user.clone();
        let purpose = probe.metadata.purposes[0].clone();
        for (session, query) in [
            (
                Session::customer(user.clone()),
                GdprQuery::ReadDataByUser(user),
            ),
            (
                Session::processor(purpose.clone()),
                GdprQuery::ReadDataByPurpose(purpose),
            ),
        ] {
            let mut scan = scan_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            let mut indexed = index_conn
                .execute(&session, &query)
                .unwrap()
                .as_data()
                .unwrap()
                .to_vec();
            scan.sort();
            indexed.sort();
            assert_eq!(scan, indexed, "divergence on {query:?}");
            assert!(!scan.is_empty(), "probe query should match something");
        }
    }
}

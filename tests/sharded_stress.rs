//! Concurrency stress for the sharded compliance engine: a multi-threaded
//! mixed workload (creates, rectifications, metadata updates, deletions,
//! cross-shard reads) against `ShardedRedisConnector`, asserting the three
//! properties a concurrency topology must not cost:
//!
//! * **no lost updates** — every write a thread performed is visible
//!   afterwards, with the last-written payload;
//! * **no cross-user visibility leaks** — a customer's reads, issued
//!   concurrently with other users' writes, only ever surface that
//!   customer's records (per-shard locking must not let a record transit
//!   through another user's result set);
//! * **audit-log completeness** — the unified trail holds exactly one
//!   event per executed query, whatever thread or shard ran it.

use gdprbench_repro::connectors::ShardedRedisConnector;
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{
    GdprConnector, GdprQuery, GdprResponse, MetadataField, MetadataUpdate, Session,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 4;
const READERS: usize = 2;
const KEYS_PER_WRITER: usize = 120;
const SHARDS: usize = 8;

fn user_of(thread: usize) -> String {
    format!("user-{thread}")
}

fn purpose_of(thread: usize) -> String {
    format!("pur-{thread}")
}

fn key_of(thread: usize, i: usize) -> String {
    format!("u{thread}-k{i:04}")
}

fn record(thread: usize, i: usize) -> PersonalRecord {
    PersonalRecord::new(
        key_of(thread, i),
        format!("v0-{thread}-{i}"),
        Metadata::new(
            user_of(thread),
            vec![purpose_of(thread)],
            Duration::from_secs(3600),
        ),
    )
}

#[test]
fn concurrent_mixed_workload_preserves_compliance_invariants() {
    let conn = Arc::new(ShardedRedisConnector::open(SHARDS).unwrap());
    let issued = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Writer t owns the disjoint key range u{t}-k*: creates every key,
    // rectifies half, registers objections on a third, deletes every
    // fourth. All through the shared connector, all concurrently.
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let conn = Arc::clone(&conn);
            let issued = Arc::clone(&issued);
            std::thread::spawn(move || {
                let controller = Session::controller();
                let customer = Session::customer(user_of(t));
                let mut ops = 0usize;
                for i in 0..KEYS_PER_WRITER {
                    conn.execute(&controller, &GdprQuery::CreateRecord(record(t, i)))
                        .unwrap();
                    ops += 1;
                }
                for i in 0..KEYS_PER_WRITER {
                    if i % 2 == 0 {
                        conn.execute(
                            &customer,
                            &GdprQuery::UpdateDataByKey {
                                key: key_of(t, i),
                                data: format!("final-{t}-{i}"),
                            },
                        )
                        .unwrap();
                        ops += 1;
                    }
                    if i % 3 == 0 {
                        conn.execute(
                            &customer,
                            &GdprQuery::UpdateMetadataByKey {
                                key: key_of(t, i),
                                update: MetadataUpdate::Add(
                                    MetadataField::Objections,
                                    "spam".to_string(),
                                ),
                            },
                        )
                        .unwrap();
                        ops += 1;
                    }
                }
                for i in 0..KEYS_PER_WRITER {
                    if i % 4 == 0 {
                        conn.execute(&customer, &GdprQuery::DeleteByKey(key_of(t, i)))
                            .unwrap();
                        ops += 1;
                    }
                }
                issued.fetch_add(ops, Ordering::SeqCst);
            })
        })
        .collect();

    // Readers hammer cross-shard fan-out queries concurrently with the
    // writers and assert the visibility invariant on every response.
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let conn = Arc::clone(&conn);
            let issued = Arc::clone(&issued);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ops = 0usize;
                let mut t = r;
                while !stop.load(Ordering::SeqCst) {
                    t = (t + 1) % WRITERS;
                    let prefix = format!("u{t}-");
                    let customer = Session::customer(user_of(t));
                    let resp = conn
                        .execute(&customer, &GdprQuery::ReadDataByUser(user_of(t)))
                        .unwrap();
                    ops += 1;
                    for (key, _) in resp.as_data().unwrap() {
                        assert!(
                            key.starts_with(&prefix),
                            "cross-user leak: {key} surfaced for {}",
                            user_of(t)
                        );
                    }
                    let processor = Session::processor(purpose_of(t));
                    let resp = conn
                        .execute(&processor, &GdprQuery::ReadDataByPurpose(purpose_of(t)))
                        .unwrap();
                    ops += 1;
                    for (key, _) in resp.as_data().unwrap() {
                        assert!(
                            key.starts_with(&prefix),
                            "purpose leak: {key} surfaced for {}",
                            purpose_of(t)
                        );
                    }
                }
                issued.fetch_add(ops, Ordering::SeqCst);
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }

    // No lost updates: every surviving key is present with the payload its
    // owning thread wrote last; every deleted key is verifiably gone.
    let regulator = Session::regulator();
    for t in 0..WRITERS {
        let resp = conn
            .execute(
                &Session::customer(user_of(t)),
                &GdprQuery::ReadDataByUser(user_of(t)),
            )
            .unwrap();
        let mut got: Vec<(String, String)> = resp.as_data().unwrap().to_vec();
        got.sort();
        let mut want: Vec<(String, String)> = (0..KEYS_PER_WRITER)
            .filter(|i| i % 4 != 0)
            .map(|i| {
                let data = if i % 2 == 0 {
                    format!("final-{t}-{i}")
                } else {
                    format!("v0-{t}-{i}")
                };
                (key_of(t, i), data)
            })
            .collect();
        want.sort();
        assert_eq!(got, want, "thread {t} lost an update");

        for i in (0..KEYS_PER_WRITER).step_by(4) {
            assert_eq!(
                conn.execute(&regulator, &GdprQuery::VerifyDeletion(key_of(t, i)))
                    .unwrap(),
                GdprResponse::DeletionVerified(true),
                "deleted key resurfaced"
            );
        }
    }

    // Objections took effect atomically with their records: the processor
    // view under objection-carrying metadata stays self-consistent.
    for t in 0..WRITERS {
        let resp = conn
            .execute(
                &Session::processor(purpose_of(t)),
                &GdprQuery::ReadDataByPurpose(purpose_of(t)),
            )
            .unwrap();
        // Objections were to "spam", not pur-t, so everything live shows.
        assert_eq!(
            resp.cardinality(),
            KEYS_PER_WRITER - KEYS_PER_WRITER.div_ceil(4),
            "thread {t} purpose view"
        );
    }

    // Audit-log completeness: one event per executed query. The final
    // verification queries above are audited too, so count them.
    let post_ops = WRITERS // ReadDataByUser per writer
        + WRITERS * KEYS_PER_WRITER.div_ceil(4) // VerifyDeletion sweeps
        + WRITERS; // ReadDataByPurpose per writer
    let expected = issued.load(Ordering::SeqCst) + post_ops;
    assert_eq!(
        conn.audit().len(),
        expected,
        "audit trail must record every query exactly once"
    );

    // The workload really spread across shards.
    let populated = (0..conn.shard_count())
        .filter(|&i| conn.store(i).dbsize() > 0)
        .count();
    assert!(
        populated >= SHARDS / 2,
        "workload unexpectedly concentrated: {populated}/{SHARDS} shards populated"
    );
}

/// Batched predicate reads beside everything that can invalidate their
/// candidates. Two readers alternate READ-DATA-BY-OBJ / -DEC while a third
/// thread registers objections and opt-outs, erases by key and moves the
/// simulated clock past a tenth of the TTLs — so candidate keys go stale
/// between index and store, MGETs fall from the store's shared lock to its
/// exclusive one to reap, and reaps call back into the index the other
/// reader is consulting. At 1 and 8 shards:
///
/// * every record a read returns satisfied the predicate at some point of
///   the run (metadata only ever moves *toward* objecting / opted out, so
///   that is: in its initial state) and carries its own payload;
/// * nothing deadlocks — the run finishes inside a wall-clock bound;
/// * at quiescence the reads return exactly the surviving matches and
///   every shard's index equals a scan of its store.
#[test]
fn predicate_reads_race_rewrites_erasures_and_expiry() {
    use gdprbench_repro::gdpr_core::{GdprError, RecordPredicate, RecordStore};
    use std::sync::{mpsc, Barrier};

    const RECORDS: usize = 600;
    const MIN_READS: usize = 6;
    fn objects_at_start(i: usize) -> bool {
        i % 4 == 1
    }
    fn opted_out_at_start(i: usize) -> bool {
        i % 6 == 2
    }
    fn short_lived(i: usize) -> bool {
        i % 10 == 3
    }
    fn gets_objection(i: usize) -> bool {
        i % 3 == 1
    }
    fn gets_opt_out(i: usize) -> bool {
        i % 5 == 1
    }
    fn gets_erased(i: usize) -> bool {
        i % 7 == 1
    }
    fn gone(i: usize) -> bool {
        gets_erased(i) || short_lived(i)
    }
    fn key(i: usize) -> String {
        format!("k{i:04}")
    }
    let queries = [
        GdprQuery::ReadDataNotObjecting("ads".into()),
        GdprQuery::ReadDataDecisionEligible,
    ];
    // What each query may ever return, and what it must return at the end.
    let ever: [fn(usize) -> bool; 2] = [|i| !objects_at_start(i), |i| !opted_out_at_start(i)];
    let finally: [fn(usize) -> bool; 2] = [
        |i| !gone(i) && !objects_at_start(i) && !gets_objection(i),
        |i| !gone(i) && !opted_out_at_start(i) && !gets_opt_out(i),
    ];

    for shards in [1, SHARDS] {
        let sim = clock::sim();
        let conn = Arc::new(
            ShardedRedisConnector::open_with_clock(shards, Default::default(), sim.clone())
                .unwrap(),
        );
        let controller = Session::controller();
        let processor = Session::processor("any");
        for i in 0..RECORDS {
            let ttl = if short_lived(i) { 10 } else { 3600 };
            let mut m = Metadata::new("neo", vec!["ads".into()], Duration::from_secs(ttl));
            if objects_at_start(i) {
                m.objections.push("ads".into());
            }
            if opted_out_at_start(i) {
                m.decisions.push(Metadata::DEC_OPT_OUT.into());
            }
            let record = PersonalRecord::new(key(i), format!("data-{i}"), m);
            conn.execute(&controller, &GdprQuery::CreateRecord(record))
                .unwrap();
        }

        let start = Arc::new(Barrier::new(3));
        let stop = Arc::new(AtomicBool::new(false));
        let reads: Arc<[AtomicUsize; 2]> = Arc::default();
        let (done, finished) = mpsc::channel();
        let mut threads = Vec::new();
        for r in 0..2 {
            let (conn, start, stop) = (Arc::clone(&conn), Arc::clone(&start), Arc::clone(&stop));
            let (reads, done) = (Arc::clone(&reads), done.clone());
            let (queries, processor) = (queries.clone(), processor.clone());
            threads.push(std::thread::spawn(move || {
                start.wait();
                for turn in r.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let q = turn % 2;
                    let resp = conn.execute(&processor, &queries[q]).unwrap();
                    for (key, data) in resp.as_data().unwrap() {
                        let i: usize = key[1..].parse().unwrap();
                        assert!(ever[q](i), "{key} never satisfied {:?}", queries[q]);
                        assert_eq!(*data, format!("data-{i}"));
                    }
                    reads[r].fetch_add(1, Ordering::SeqCst);
                }
                done.send(()).unwrap();
            }));
        }
        {
            let (conn, start, stop, sim) = (
                Arc::clone(&conn),
                Arc::clone(&start),
                Arc::clone(&stop),
                sim.clone(),
            );
            let reads = Arc::clone(&reads);
            threads.push(std::thread::spawn(move || {
                start.wait();
                let add = |field, value: &str| MetadataUpdate::Add(field, value.to_string());
                for i in 0..RECORDS {
                    if i == RECORDS / 2 {
                        sim.advance(Duration::from_secs(11));
                    }
                    let lapsed = short_lived(i) && i >= RECORDS / 2;
                    let mut script = Vec::new();
                    if gets_objection(i) {
                        let update = add(MetadataField::Objections, "ads");
                        script.push(GdprQuery::UpdateMetadataByKey {
                            key: key(i),
                            update,
                        });
                    }
                    if gets_opt_out(i) {
                        let update = add(MetadataField::Decisions, Metadata::DEC_OPT_OUT);
                        script.push(GdprQuery::UpdateMetadataByKey {
                            key: key(i),
                            update,
                        });
                    }
                    if gets_erased(i) {
                        script.push(GdprQuery::DeleteByKey(key(i)));
                    }
                    for query in script {
                        match conn.execute(&controller, &query) {
                            Ok(_) => assert!(!lapsed, "{query:?} found a lapsed record"),
                            Err(GdprError::NotFound(_)) if lapsed => {}
                            Err(e) => panic!("{query:?}: {e}"),
                        }
                    }
                }
                // The readers overlapped the whole script and then some.
                while reads.iter().any(|n| n.load(Ordering::SeqCst) < MIN_READS) {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::SeqCst);
                done.send(()).unwrap();
            }));
        }
        for _ in 0..threads.len() {
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("a thread panicked, or the run deadlocked");
        }
        for thread in threads {
            thread.join().unwrap();
        }

        for (q, query) in queries.iter().enumerate() {
            let resp = conn.execute(&processor, query).unwrap();
            let mut got: Vec<String> = resp
                .as_data()
                .unwrap()
                .iter()
                .map(|p| p.0.clone())
                .collect();
            got.sort();
            let want: Vec<String> = (0..RECORDS).filter(|&i| finally[q](i)).map(key).collect();
            assert_eq!(got, want, "{shards} shard(s): {query:?} at quiescence");
        }
        let preds = [
            RecordPredicate::User("neo".into()),
            RecordPredicate::AllowsPurpose("ads".into()),
            RecordPredicate::NotObjecting("ads".into()),
            RecordPredicate::DecisionEligible,
        ];
        let mut live = 0;
        for shard in conn.shards() {
            let records = shard.store().scan().unwrap();
            let index = shard.metadata_index().unwrap();
            assert_eq!(index.len(), records.len());
            live += records.len();
            for pred in &preds {
                let mut want: Vec<Arc<str>> = records
                    .iter()
                    .filter(|r| pred.matches(r))
                    .map(|r| r.key.as_str().into())
                    .collect();
                want.sort();
                assert_eq!(
                    index.keys_for(pred).unwrap(),
                    want,
                    "{shards} shard(s): {pred:?}"
                );
            }
        }
        assert_eq!(live, (0..RECORDS).filter(|&i| !gone(i)).count());
    }
}

//! Cross-connector conformance: every binding must expose identical GDPR
//! semantics, whatever its storage layout, shard topology, or transport.
//! Every scenario here runs against the Redis-shaped connector (baseline
//! and metadata-index variants), the PostgreSQL-shaped connector
//! (likewise), the hash-partitioned `redis-sharded` router — whose shard
//! count comes from `GDPR_SHARDS` (CI runs the suite at 1 and 8), so a
//! shard-count-dependent semantic can never land — and, since the network
//! front-end, against *every one of those again over loopback TCP*
//! (`gdpr-server` + `RemoteConnector`), so a transport-dependent semantic
//! cannot land either.

use crate::{PostgresConnector, RedisConnector, RemoteConnector, ShardedRedisConnector};
use gdpr_core::query::{GdprQuery, MetadataField, MetadataUpdate};
use gdpr_core::record::{Metadata, PersonalRecord};
use gdpr_core::response::GdprResponse;
use gdpr_core::role::Session;
use gdpr_core::{EngineHandle, GdprConnector, GdprError};
use std::sync::Arc;
use std::time::Duration;

fn open_kv() -> Arc<kvstore::KvStore> {
    kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap()
}

/// `n` stores sharing one clock instance — the sharded engine requires a
/// single clock so timestamps and TTL deadlines are comparable fleet-wide.
fn open_kv_fleet(n: usize) -> Vec<Arc<kvstore::KvStore>> {
    let clock = clock::wall();
    (0..n)
        .map(|_| {
            kvstore::KvStore::open_with_clock(kvstore::KvConfig::default(), clock.clone()).unwrap()
        })
        .collect()
}

/// One fresh instance of every in-process connector variant — the list
/// itself lives in [`crate::registry`], so a new backend lands in this
/// suite by registering there.
fn engine_handles() -> Vec<EngineHandle> {
    crate::registry::engine_handles()
}

/// Wrap a fresh engine instance behind an in-process `gdpr-server` on an
/// ephemeral loopback port — the same engine variants, driven over real
/// sockets through the wire codec.
fn served(engine: EngineHandle) -> Box<dyn GdprConnector> {
    let config = gdpr_server::ServerConfig {
        workers: 2,
        queue_depth: 32,
        ..Default::default()
    };
    Box::new(RemoteConnector::serve_in_process_with(engine, 2, config).unwrap())
}

/// The full conformance fleet: every registry variant in-process, then
/// every one again over loopback TCP.
fn connectors() -> Vec<Box<dyn GdprConnector>> {
    let mut out: Vec<Box<dyn GdprConnector>> = engine_handles()
        .into_iter()
        .map(|conn| Box::new(conn) as Box<dyn GdprConnector>)
        .collect();
    out.extend(engine_handles().into_iter().map(served));
    out
}

fn record(key: &str, user: &str, purposes: &[&str], data: &str) -> PersonalRecord {
    PersonalRecord::new(
        key,
        data,
        Metadata::new(
            user,
            purposes.iter().map(|s| s.to_string()).collect(),
            Duration::from_secs(3600),
        ),
    )
}

fn seed(conn: &dyn GdprConnector) {
    seed_as(conn, &gdpr_core::tenant::TenantId::default());
}

/// The same five-record corpus, created by one tenant's controller —
/// multi-tenant scenarios seed every tenant with *identical* logical
/// keys, so any cross-tenant leakage doubles cardinalities or resolves
/// the wrong tenant's record and fails loudly.
fn seed_as(conn: &dyn GdprConnector, tenant: &gdpr_core::tenant::TenantId) {
    let controller = Session::controller().with_tenant(tenant.clone());
    let specs = [
        ("ph-1", "neo", &["ads", "2fa"][..], "111-111"),
        ("ph-2", "neo", &["2fa"][..], "222-222"),
        ("ph-3", "trinity", &["ads"][..], "333-333"),
        ("ph-4", "trinity", &["analytics"][..], "444-444"),
        ("ph-5", "morpheus", &["ads"][..], "555-555"),
    ];
    for (key, user, purposes, data) in specs {
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(record(key, user, purposes, data)),
        )
        .unwrap();
    }
}

#[test]
fn create_then_duplicate_rejected() {
    for conn in connectors() {
        let controller = Session::controller();
        let r = record("dup-1", "neo", &["ads"], "x");
        assert_eq!(
            conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
                .unwrap(),
            GdprResponse::Created,
            "{}",
            conn.name()
        );
        assert!(matches!(
            conn.execute(&controller, &GdprQuery::CreateRecord(r)),
            Err(GdprError::AlreadyExists(_))
        ));
        assert_eq!(conn.record_count(), 1);
    }
}

#[test]
fn customer_reads_own_data_only() {
    for conn in connectors() {
        seed(conn.as_ref());
        let neo = Session::customer("neo");
        let resp = conn
            .execute(&neo, &GdprQuery::ReadDataByUser("neo".into()))
            .unwrap();
        let mut keys: Vec<_> = resp
            .as_data()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        assert_eq!(keys, vec!["ph-1", "ph-2"], "{}", conn.name());
        // Cross-user access denied statically.
        assert!(matches!(
            conn.execute(&neo, &GdprQuery::ReadDataByUser("trinity".into())),
            Err(GdprError::AccessDenied { .. })
        ));
        // Key-scoped access to someone else's record denied per-record.
        assert!(matches!(
            conn.execute(&neo, &GdprQuery::ReadMetadataByKey("ph-3".into())),
            Err(GdprError::AccessDenied { .. })
        ));
    }
}

#[test]
fn processor_reads_by_purpose_with_objections_respected() {
    for conn in connectors() {
        seed(conn.as_ref());
        let ads = Session::processor("ads");
        let resp = conn
            .execute(&ads, &GdprQuery::ReadDataByPurpose("ads".into()))
            .unwrap();
        let mut keys: Vec<_> = resp
            .as_data()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        assert_eq!(keys, vec!["ph-1", "ph-3", "ph-5"], "{}", conn.name());

        // neo objects to ads on ph-1 → it must drop out.
        let neo = Session::customer("neo");
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "ph-1".into(),
                update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
            },
        )
        .unwrap();
        let resp = conn
            .execute(&ads, &GdprQuery::ReadDataByPurpose("ads".into()))
            .unwrap();
        let mut keys: Vec<_> = resp
            .as_data()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        assert_eq!(
            keys,
            vec!["ph-3", "ph-5"],
            "{}: objection must filter",
            conn.name()
        );

        // Purpose-scoped key read: ph-1 is no longer visible to 'ads'.
        assert!(matches!(
            conn.execute(&ads, &GdprQuery::ReadDataByKey("ph-1".into())),
            Err(GdprError::AccessDenied { .. })
        ));
        assert!(conn
            .execute(&ads, &GdprQuery::ReadDataByKey("ph-3".into()))
            .is_ok());
    }
}

#[test]
fn right_to_be_forgotten_erases_and_verifies() {
    for conn in connectors() {
        seed(conn.as_ref());
        let trinity = Session::customer("trinity");
        let resp = conn
            .execute(&trinity, &GdprQuery::DeleteByUser("trinity".into()))
            .unwrap();
        assert_eq!(resp, GdprResponse::Deleted(2), "{}", conn.name());
        assert_eq!(conn.record_count(), 3);

        let regulator = Session::regulator();
        assert_eq!(
            conn.execute(&regulator, &GdprQuery::VerifyDeletion("ph-3".into()))
                .unwrap(),
            GdprResponse::DeletionVerified(true)
        );
        assert_eq!(
            conn.execute(&regulator, &GdprQuery::VerifyDeletion("ph-1".into()))
                .unwrap(),
            GdprResponse::DeletionVerified(false)
        );
    }
}

#[test]
fn rectification_updates_data() {
    for conn in connectors() {
        seed(conn.as_ref());
        let neo = Session::customer("neo");
        conn.execute(
            &neo,
            &GdprQuery::UpdateDataByKey {
                key: "ph-1".into(),
                data: "999-999".into(),
            },
        )
        .unwrap();
        let resp = conn
            .execute(&neo, &GdprQuery::ReadDataByUser("neo".into()))
            .unwrap();
        let data: Vec<_> = resp.as_data().unwrap().to_vec();
        assert!(data.contains(&("ph-1".to_string(), "999-999".to_string())));
        // A customer cannot rectify someone else's record.
        assert!(matches!(
            conn.execute(
                &neo,
                &GdprQuery::UpdateDataByKey {
                    key: "ph-3".into(),
                    data: "hack".into()
                }
            ),
            Err(GdprError::AccessDenied { .. })
        ));
    }
}

#[test]
fn portability_includes_metadata() {
    for conn in connectors() {
        seed(conn.as_ref());
        let neo = Session::customer("neo");
        let resp = conn
            .execute(&neo, &GdprQuery::ReadMetadataByUser("neo".into()))
            .unwrap();
        let metadata = resp.as_metadata().unwrap();
        assert_eq!(metadata.len(), 2, "{}", conn.name());
        let ph1 = metadata.iter().find(|(k, _)| k == "ph-1").unwrap();
        assert_eq!(ph1.1.user, "neo");
        assert_eq!(ph1.1.purposes, vec!["ads", "2fa"]);
        assert_eq!(ph1.1.ttl, Some(Duration::from_secs(3600)));
        assert_eq!(ph1.1.source, "first-party");
    }
}

#[test]
fn purpose_completion_deletes_group() {
    for conn in connectors() {
        seed(conn.as_ref());
        let controller = Session::controller();
        let resp = conn
            .execute(&controller, &GdprQuery::DeleteByPurpose("ads".into()))
            .unwrap();
        assert_eq!(resp, GdprResponse::Deleted(3), "{}", conn.name());
        assert_eq!(conn.record_count(), 2);
    }
}

#[test]
fn controller_manages_sharing_metadata_by_user() {
    for conn in connectors() {
        seed(conn.as_ref());
        let controller = Session::controller();
        conn.execute(
            &controller,
            &GdprQuery::UpdateMetadataByUser {
                user: "neo".into(),
                update: MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into()),
            },
        )
        .unwrap();
        let regulator = Session::regulator();
        let resp = conn
            .execute(
                &regulator,
                &GdprQuery::ReadMetadataBySharedWith("x-corp".into()),
            )
            .unwrap();
        assert_eq!(resp.as_metadata().unwrap().len(), 2, "{}", conn.name());
    }
}

#[test]
fn decision_opt_out_excludes_from_eligible_set() {
    for conn in connectors() {
        seed(conn.as_ref());
        let neo = Session::customer("neo");
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "ph-2".into(),
                update: MetadataUpdate::Add(MetadataField::Decisions, Metadata::DEC_OPT_OUT.into()),
            },
        )
        .unwrap();
        let processor = Session::processor("2fa");
        let resp = conn
            .execute(&processor, &GdprQuery::ReadDataDecisionEligible)
            .unwrap();
        let keys: Vec<_> = resp
            .as_data()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert!(!keys.contains(&"ph-2".to_string()), "{}", conn.name());
        assert_eq!(keys.len(), 4);
    }
}

#[test]
fn regulator_gets_logs_but_never_data() {
    for conn in connectors() {
        seed(conn.as_ref());
        let neo = Session::customer("neo");
        conn.execute(&neo, &GdprQuery::ReadDataByUser("neo".into()))
            .unwrap();
        let regulator = Session::regulator();
        let resp = conn
            .execute(
                &regulator,
                &GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            )
            .unwrap();
        match resp {
            GdprResponse::Logs(lines) => {
                assert!(
                    lines.iter().any(|l| l.operation == "read-data-by-usr"),
                    "{}: audit trail must contain the customer read",
                    conn.name()
                );
                // Seed creates must be in the trail too.
                assert!(lines.iter().any(|l| l.operation == "create-record"));
            }
            other => panic!("expected logs, got {other:?}"),
        }
        assert!(matches!(
            conn.execute(&regulator, &GdprQuery::ReadDataByUser("neo".into())),
            Err(GdprError::AccessDenied { .. })
        ));
    }
}

/// A batch — what a pipelined wire burst becomes — answers exactly as the
/// same ops through `execute` one at a time: writes to one key and the
/// point and fan-out reads between them stay ordered, a failing op fails
/// at its own position only, and a GET-SYSTEM-LOGS inside the batch sees
/// every batch predecessor — here more of them than one audit chunk holds — and
/// nothing after itself. On every variant in-process and over the wire,
/// which must also leave line-identical audit trails.
#[test]
fn log_read_mid_batch_sees_its_predecessors() {
    let controller = Session::controller();
    let regulator = Session::regulator();
    let logs = GdprQuery::GetSystemLogs {
        from_ms: 0,
        to_ms: u64::MAX,
    };
    let mut batch = vec![
        (
            controller.clone(),
            GdprQuery::CreateRecord(record("b-1", "neo", &["ads"], "v1")),
        ),
        (
            controller.clone(),
            GdprQuery::UpdateDataByKey {
                key: "b-1".into(),
                data: "v2".into(),
            },
        ),
        (
            Session::processor("ads"),
            GdprQuery::ReadDataByKey("b-1".into()),
        ),
        (
            controller.clone(),
            GdprQuery::CreateRecord(record("b-1", "neo", &["ads"], "v3")),
        ),
        (
            Session::customer("neo"),
            GdprQuery::ReadDataByUser("trinity".into()),
        ),
        (
            Session::customer("neo"),
            GdprQuery::ReadDataByUser("neo".into()),
        ),
        (controller.clone(), GdprQuery::DeleteByKey("b-1".into())),
        (regulator.clone(), GdprQuery::VerifyDeletion("b-1".into())),
    ];
    batch.extend((0..gdpr_core::audit::CHUNK_LINES).map(|i| {
        let probe = GdprQuery::VerifyDeletion(format!("gone-{i}"));
        (regulator.clone(), probe)
    }));
    let before = batch.len();
    batch.push((regulator.clone(), logs.clone()));
    batch.push((regulator.clone(), GdprQuery::GetSystemFeatures));

    // Timestamps are wall-clock and differ between instances.
    let untimed = |lines: &gdpr_core::response::LogLines| -> Vec<(String, String, String)> {
        lines
            .iter()
            .map(|l| (l.actor.clone(), l.operation.to_string(), l.detail.clone()))
            .collect()
    };
    let mut trails = Vec::new();
    for (conn, sequential) in connectors().into_iter().zip(connectors()) {
        let name = conn.name().to_string();
        let results = conn.execute_batch(batch.clone());
        assert_eq!(results.len(), batch.len(), "{name}");
        for (i, ((session, query), result)) in batch.iter().zip(&results).enumerate() {
            match (result, sequential.execute(session, query)) {
                (Ok(GdprResponse::Logs(got)), Ok(GdprResponse::Logs(want))) => {
                    assert_eq!(untimed(got), untimed(&want), "{name}: op {i}")
                }
                (got, want) => assert_eq!(got, &want, "{name}: op {i}"),
            }
        }
        assert_eq!(
            results[2],
            Ok(GdprResponse::Data(vec![("b-1".into(), "v2".into())])),
            "{name}: the read must see both writes before it"
        );
        assert!(matches!(results[3], Err(GdprError::AlreadyExists(_))));
        assert!(matches!(results[4], Err(GdprError::AccessDenied { .. })));
        assert_eq!(results[5], results[2], "{name}: a fan-out mid-batch");
        assert_eq!(results[6], Ok(GdprResponse::Deleted(1)), "{name}");
        assert_eq!(results[7], Ok(GdprResponse::DeletionVerified(true)));
        match results[before].as_ref().unwrap() {
            GdprResponse::Logs(lines) => {
                assert_eq!(lines.len(), before, "{name}");
                assert_eq!(lines[1].operation, "update-data-by-key");
                assert_eq!(
                    lines[before - 1].detail,
                    format!("key=gone-{} [ok] n=1", gdpr_core::audit::CHUNK_LINES - 1)
                );
            }
            other => panic!("{name}: expected logs, got {other:?}"),
        }
        match conn.execute(&regulator, &logs).unwrap() {
            GdprResponse::Logs(lines) => {
                assert_eq!(lines.len(), before + 2, "{name}");
                trails.push((name, untimed(&lines)));
            }
            other => panic!("{name}: expected logs, got {other:?}"),
        }
    }
    let (in_process, over_tcp) = trails.split_at(trails.len() / 2);
    assert_eq!(in_process, over_tcp);
}

#[test]
fn features_report_and_space_report() {
    for conn in connectors() {
        seed(conn.as_ref());
        let controller = Session::controller();
        let resp = conn
            .execute(&controller, &GdprQuery::GetSystemFeatures)
            .unwrap();
        assert!(matches!(resp, GdprResponse::Features(_)));
        let space = conn.space_report();
        assert!(space.personal_data_bytes > 0, "{}", conn.name());
        assert!(
            space.overhead_factor() > 1.0,
            "{}: metadata explosion means total > personal ({:?})",
            conn.name(),
            space
        );
    }
}

/// Pin the canonical READ-DATA-BY-PUR semantics for every backend:
/// a record is readable under a purpose iff the purpose was declared at
/// collection (G5.1b) AND the subject has not objected to it (G21) —
/// `purpose ∈ PUR ∧ purpose ∉ OBJ`. Merely declaring the purpose is not
/// enough once an objection lands, and an objection to a purpose the
/// record never declared changes nothing. The shared engine implements
/// this exactly once (`RecordPredicate::AllowsPurpose`), so no backend can
/// quietly diverge again.
#[test]
fn read_data_by_purpose_requires_declaration_and_no_objection() {
    for conn in connectors() {
        let controller = Session::controller();
        let mut declared = record("r-declared", "neo", &["ads"], "d1");
        let mut objected = record("r-objected", "neo", &["ads"], "d2");
        objected.metadata.objections.push("ads".into());
        // Objects to "ads" without ever declaring it: must stay invisible
        // to the ads processor, and its objection must not hide r-declared.
        let mut unrelated = record("r-unrelated", "neo", &["2fa"], "d3");
        unrelated.metadata.objections.push("ads".into());
        for r in [&mut declared, &mut objected, &mut unrelated] {
            conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
                .unwrap();
        }

        let ads = Session::processor("ads");
        let resp = conn
            .execute(&ads, &GdprQuery::ReadDataByPurpose("ads".into()))
            .unwrap();
        let keys: Vec<_> = resp
            .as_data()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            vec!["r-declared"],
            "{}: declared ∧ ¬objected is the canonical semantics",
            conn.name()
        );
    }
}

/// The engine's metadata index must stay consistent with the store across
/// the whole record lifecycle, including store-side TTL expiration (both
/// the lazy-on-access path and the active expiration cycle invalidate
/// index entries via the expiry listener).
#[test]
fn redis_index_invalidated_by_store_expiry() {
    let sim = clock::sim();
    let store = kvstore::KvStore::open_with_clock(
        kvstore::KvConfig {
            expiration: kvstore::ExpirationMode::Strict,
            ..Default::default()
        },
        sim.clone(),
    )
    .unwrap();
    let redis = RedisConnector::with_metadata_index(store).unwrap();
    let controller = Session::controller();
    let mut r = record("exp-1", "neo", &["ads"], "d");
    r.metadata.sharing.push("x-corp".into());
    r.metadata.objections.push("spam".into());
    r.metadata.ttl = Some(Duration::from_secs(10));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(r))
        .unwrap();

    let index = Arc::clone(redis.metadata_index().unwrap());
    assert_eq!(index.keys_by_user("neo"), vec!["exp-1"]);
    assert_eq!(index.deadline_of("exp-1"), Some(10_000));

    // Active cycle reaps the key; the listener must scrub all four
    // inverted indexes and the deadline set.
    sim.advance(Duration::from_secs(11));
    assert_eq!(redis.store().run_expiration_cycle().reaped, 1);
    assert!(
        index.fully_absent("exp-1"),
        "expiry must invalidate the index"
    );

    // Lazy path: a fresh expired key reaped on access is scrubbed too.
    let mut r2 = record("exp-2", "trinity", &["2fa"], "d");
    r2.metadata.ttl = Some(Duration::from_secs(5));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(r2))
        .unwrap();
    sim.advance(Duration::from_secs(6));
    assert!(matches!(
        redis.execute(
            &Session::customer("trinity"),
            &GdprQuery::ReadMetadataByKey("exp-2".into())
        ),
        Err(GdprError::NotFound(_))
    ));
    assert!(
        index.fully_absent("exp-2"),
        "lazy reap must invalidate the index"
    );
    assert!(index.is_empty());
}

/// A lazy expiration during a keyspace scan must not hide live records:
/// reaping swap-removes keys in the key index, so a scan that interleaves
/// GETs with cursor batches would move an unvisited tail key into an
/// already-visited slot and skip it. The scan collects the full cursor
/// walk before fetching.
#[test]
fn scan_survives_lazy_expiry_mid_walk() {
    let sim = clock::sim();
    let store =
        kvstore::KvStore::open_with_clock(kvstore::KvConfig::default(), sim.clone()).unwrap();
    let redis = RedisConnector::new(store);
    let controller = Session::controller();
    // First-inserted key expires; it sits in the first SCAN batch, and its
    // lazy reap relocates the last key of the keyspace into its slot.
    let mut doomed = record("doomed", "neo", &["ads"], "d");
    doomed.metadata.ttl = Some(Duration::from_secs(5));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(doomed))
        .unwrap();
    let live = 600; // > one SCAN batch (512), so the tail is beyond batch 1
    for i in 0..live {
        redis
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record(&format!("k{i:04}"), "neo", &["ads"], "d")),
            )
            .unwrap();
    }
    sim.advance(Duration::from_secs(6));
    let resp = redis
        .execute(
            &Session::customer("neo"),
            &GdprQuery::ReadDataByUser("neo".into()),
        )
        .unwrap();
    assert_eq!(
        resp.cardinality(),
        live,
        "every live record must survive a scan that lazily reaps an expired key"
    );
}

/// A stored value that is not a record fails every read path that meets
/// it. The scans used to skip what they could not parse: `record_count`
/// counted the record and `fetch` refused it, but erase-by-user on the
/// unindexed variants, the index backfill and the space report never saw it
/// — personal data no GDPR query could reach.
#[test]
fn unreadable_record_fails_every_read_path() {
    use gdpr_core::RecordStore;
    let kv = open_kv();
    let redis = RedisConnector::new(Arc::clone(&kv));
    let dir = snapshot_scratch_dir("disk-garbage");
    let pages = pagestore::PageStore::open(&dir, Default::default(), clock::wall()).unwrap();
    let disk = crate::DiskConnector::new(Arc::clone(&pages));
    seed(&redis);
    seed(&disk);
    // Planted behind the engine.
    kv.set(b"rec:bad", b"garbage").unwrap();
    pages.insert("bad", b"garbage", None).unwrap();

    let stores: [&dyn RecordStore; 2] = [redis.engine().store(), disk.engine().store()];
    for store in stores {
        let name = store.name();
        let invalid = |result: Result<(), GdprError>| {
            assert!(
                matches!(result, Err(GdprError::InvalidRecord(_))),
                "{name}: {result:?}"
            );
        };
        assert_eq!(store.record_count(), 6, "{name}: the count sees it");
        invalid(store.scan().map(|_| ()));
        invalid(store.fetch("bad").map(|_| ()));
        let keys = ["bad".into(), "ph-1".into()];
        invalid(store.fetch_many(&keys, &mut |_| {}));
    }
    for conn in [&redis as &dyn GdprConnector, &disk] {
        let erased = conn.execute(
            &Session::controller(),
            &GdprQuery::DeleteByUser("neo".into()),
        );
        assert!(
            matches!(erased, Err(GdprError::InvalidRecord(_))),
            "{}: an erase that cannot see every record must not claim success",
            conn.name()
        );
    }
}

/// Metadata rewrites must not erode the record's expiry deadline: the
/// store preserves the exact millisecond deadline across a rewrite, not a
/// seconds-truncated remaining TTL (which would also truncate a sub-second
/// remainder to an instant expiry).
#[test]
fn metadata_update_preserves_exact_ttl_deadline() {
    let sim = clock::sim();
    let store =
        kvstore::KvStore::open_with_clock(kvstore::KvConfig::default(), sim.clone()).unwrap();
    let redis = RedisConnector::new(Arc::clone(&store));
    let controller = Session::controller();
    let mut r = record("r1", "neo", &["ads"], "d");
    r.metadata.ttl = Some(Duration::from_secs(10));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(r))
        .unwrap();

    // Rewrite with 1.5s remaining: a seconds-granular TTL round-trip would
    // re-arm with 1s (or even 0s), killing the record early.
    sim.advance(Duration::from_millis(8_500));
    redis
        .execute(
            &Session::customer("neo"),
            &GdprQuery::UpdateMetadataByKey {
                key: "r1".into(),
                update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
            },
        )
        .unwrap();
    assert_eq!(
        store.expiry_at(b"rec:r1").map(|t| t.as_millis()),
        Some(10_000),
        "rewrite must keep the original absolute deadline"
    );
    sim.advance(Duration::from_millis(1_400)); // t = 9.9s < 10s
    assert!(
        redis
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadMetadataByKey("r1".into())
            )
            .is_ok(),
        "record must live out its full declared TTL"
    );
    sim.advance(Duration::from_millis(200)); // t = 10.1s
    assert!(matches!(
        redis.execute(
            &Session::customer("neo"),
            &GdprQuery::ReadMetadataByKey("r1".into())
        ),
        Err(GdprError::NotFound(_))
    ));
}

/// Index backfill over a pre-populated store must adopt the store's
/// *remaining* deadlines, not re-arm records with their full declared TTL
/// (which would retain personal data up to twice as long).
#[test]
fn index_backfill_adopts_remaining_deadlines() {
    let sim = clock::sim();
    let store =
        kvstore::KvStore::open_with_clock(kvstore::KvConfig::default(), sim.clone()).unwrap();
    {
        let plain = RedisConnector::new(Arc::clone(&store));
        let mut r = record("old-1", "neo", &["ads"], "d");
        r.metadata.ttl = Some(Duration::from_secs(10));
        plain
            .execute(&Session::controller(), &GdprQuery::CreateRecord(r))
            .unwrap();
    }
    sim.advance(Duration::from_secs(9));
    let indexed = RedisConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let index = Arc::clone(indexed.metadata_index().unwrap());
    assert_eq!(
        index.deadline_of("old-1"),
        Some(10_000),
        "backfill must keep the store's deadline, not now + declared TTL"
    );
    sim.advance(Duration::from_secs(2)); // t = 11s: past the true deadline
    assert_eq!(
        indexed
            .execute(&Session::controller(), &GdprQuery::DeleteExpired)
            .unwrap(),
        GdprResponse::Deleted(1),
        "DELETE-RECORD-BY-TTL must see the pre-existing record as due"
    );
    assert!(index.fully_absent("old-1"));
}

/// Indexed and scan-based Redis answer every predicate query identically.
#[test]
fn redis_index_and_scan_agree_on_all_predicates() {
    let scan_conn =
        RedisConnector::new(kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap());
    let index_conn = RedisConnector::with_metadata_index(
        kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap(),
    )
    .unwrap();
    seed(&scan_conn);
    seed(&index_conn);
    let neo = Session::customer("neo");
    let controller = Session::controller();
    for conn in [&scan_conn, &index_conn] {
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "ph-1".into(),
                update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
            },
        )
        .unwrap();
        conn.execute(
            &controller,
            &GdprQuery::UpdateMetadataByUser {
                user: "morpheus".into(),
                update: MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into()),
            },
        )
        .unwrap();
    }

    let queries: Vec<(Session, GdprQuery)> = vec![
        (neo.clone(), GdprQuery::ReadDataByUser("neo".into())),
        (
            Session::processor("ads"),
            GdprQuery::ReadDataByPurpose("ads".into()),
        ),
        (
            Session::processor("x"),
            GdprQuery::ReadDataNotObjecting("ads".into()),
        ),
        (Session::processor("x"), GdprQuery::ReadDataDecisionEligible),
        (
            Session::regulator(),
            GdprQuery::ReadMetadataByUser("neo".into()),
        ),
        (
            Session::regulator(),
            GdprQuery::ReadMetadataBySharedWith("x-corp".into()),
        ),
    ];
    for (session, query) in queries {
        let mut scan = scan_conn.execute(&session, &query).unwrap();
        let mut indexed = index_conn.execute(&session, &query).unwrap();
        for resp in [&mut scan, &mut indexed] {
            if let GdprResponse::Data(pairs) = resp {
                pairs.sort();
            }
            if let GdprResponse::Metadata(pairs) = resp {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
        assert_eq!(scan, indexed, "divergence on {query:?}");
    }
}

/// Full index coverage: every `RecordPredicate` variant — including the
/// two negative predicates — is answerable by the engine's metadata index
/// (`keys_for` returns `Some`), on the unsharded indexed variant and on
/// every shard of the sharded one, and the index-resolved negative
/// predicates return exactly what the scan-based connector returns.
#[test]
fn negative_predicates_resolve_via_index_on_every_indexed_variant() {
    use gdpr_core::RecordPredicate;
    let shards = gdpr_core::shard_count_from_env();
    let scan_conn = RedisConnector::new(open_kv());
    let index_conn = RedisConnector::with_metadata_index(open_kv()).unwrap();
    let sharded_conn = ShardedRedisConnector::with_metadata_index(open_kv_fleet(shards)).unwrap();
    let conns: [&dyn GdprConnector; 3] = [&scan_conn, &index_conn, &sharded_conn];
    let neo = Session::customer("neo");
    for conn in conns {
        seed(conn);
        // An objection and a G22 opt-out so the negative predicates have
        // something to subtract.
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "ph-1".into(),
                update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
            },
        )
        .unwrap();
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "ph-2".into(),
                update: MetadataUpdate::Add(MetadataField::Decisions, Metadata::DEC_OPT_OUT.into()),
            },
        )
        .unwrap();
    }

    let all_predicates = [
        RecordPredicate::User("neo".into()),
        RecordPredicate::DeclaredPurpose("ads".into()),
        RecordPredicate::AllowsPurpose("ads".into()),
        RecordPredicate::NotObjecting("ads".into()),
        RecordPredicate::DecisionEligible,
        RecordPredicate::SharedWith("x-corp".into()),
    ];
    for pred in &all_predicates {
        assert!(
            index_conn
                .metadata_index()
                .unwrap()
                .keys_for(pred)
                .is_some(),
            "redis-mi: {pred:?} must be index-answerable"
        );
        for shard in 0..shards {
            assert!(
                sharded_conn.shards()[shard]
                    .metadata_index()
                    .unwrap()
                    .keys_for(pred)
                    .is_some(),
                "redis-sharded shard {shard}: {pred:?} must be index-answerable"
            );
        }
    }

    // The index-resolved negatives return exactly the scan results.
    for query in [
        GdprQuery::ReadDataNotObjecting("ads".into()),
        GdprQuery::ReadDataDecisionEligible,
    ] {
        let session = Session::processor("x");
        let mut results: Vec<Vec<(String, String)>> = conns
            .iter()
            .map(|conn| {
                let mut pairs = conn
                    .execute(&session, &query)
                    .unwrap()
                    .as_data()
                    .unwrap()
                    .to_vec();
                pairs.sort();
                pairs
            })
            .collect();
        let scan = results.remove(0);
        assert!(!scan.is_empty(), "probe must match something");
        for (variant, indexed) in results.into_iter().enumerate() {
            assert_eq!(indexed, scan, "variant {variant} diverges on {query:?}");
        }
    }
}

/// Expiry deadlines are inclusive — `deadline == now` is already expired
/// — and every purge path agrees at the boundary instant: the metadata
/// index's deadline set, the key-value store's strict reaper behind both
/// the indexed and the scan-based connector, and the relational sweep
/// daemon delete the same set one millisecond apart.
#[test]
fn expiry_boundary_is_inclusive_on_every_purge_path() {
    let controller = Session::controller();
    let sim = clock::sim();
    let open_strict = || {
        kvstore::KvStore::open_with_clock(
            kvstore::KvConfig {
                expiration: kvstore::ExpirationMode::Strict,
                ..Default::default()
            },
            sim.clone(),
        )
        .unwrap()
    };
    let indexed = RedisConnector::with_metadata_index(open_strict()).unwrap();
    let scan = RedisConnector::new(open_strict());
    let db =
        relstore::Database::open_with_clock(relstore::RelConfig::default(), sim.clone()).unwrap();
    let pg = PostgresConnector::new(db).unwrap();
    let conns: [&dyn GdprConnector; 3] = [&indexed, &scan, &pg];
    for conn in conns {
        let mut r = record("b-1", "neo", &["ads"], "d");
        r.metadata.ttl = Some(Duration::from_secs(10));
        conn.execute(&controller, &GdprQuery::CreateRecord(r))
            .unwrap();
    }

    // One millisecond before the deadline (t = 9.999s on the sim clock):
    // nothing is due anywhere.
    sim.advance(Duration::from_millis(9_999));
    assert!(indexed
        .metadata_index()
        .unwrap()
        .expired_keys(9_999)
        .is_empty());
    for conn in conns {
        assert_eq!(
            conn.execute(&controller, &GdprQuery::DeleteExpired)
                .unwrap(),
            GdprResponse::Deleted(0),
            "{}: not yet due at deadline − 1ms",
            conn.name()
        );
    }

    // At exactly the deadline (t = 10.000s): every path reaps the record.
    sim.advance(Duration::from_millis(1));
    assert_eq!(
        indexed.metadata_index().unwrap().expired_keys(10_000),
        vec!["b-1".into()],
        "the index treats deadline == now as expired"
    );
    for conn in conns {
        assert_eq!(
            conn.execute(&controller, &GdprQuery::DeleteExpired)
                .unwrap(),
            GdprResponse::Deleted(1),
            "{}: due at the boundary instant",
            conn.name()
        );
        assert_eq!(
            conn.execute(
                &Session::regulator(),
                &GdprQuery::VerifyDeletion("b-1".into())
            )
            .unwrap(),
            GdprResponse::DeletionVerified(true)
        );
    }
    assert!(indexed.metadata_index().unwrap().is_empty());
}

/// Regression (write-path consistency): DELETE-RECORD-BY-TTL on an
/// indexed engine must not trust the index alone. A record written behind
/// the engine (the store saw it, the index never did) and a record whose
/// index entry was wiped by `clear()` both carry store-side deadlines —
/// the purge unions the index's due set with the store's own purge, so
/// neither outlives its TTL.
#[test]
fn purge_reaps_store_side_deadlines_the_index_never_learned() {
    let sim = clock::sim();
    let store = kvstore::KvStore::open_with_clock(
        kvstore::KvConfig {
            expiration: kvstore::ExpirationMode::Strict,
            ..Default::default()
        },
        sim.clone(),
    )
    .unwrap();
    let redis = RedisConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let controller = Session::controller();

    // One record through the engine (indexed), one smuggled in behind it.
    let mut known = record("known", "neo", &["ads"], "d");
    known.metadata.ttl = Some(Duration::from_secs(5));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(known))
        .unwrap();
    let mut behind = record("behind", "trinity", &["ads"], "d");
    behind.metadata.ttl = Some(Duration::from_secs(5));
    store
        .set_ex(
            b"rec:behind",
            gdpr_core::wire::serialize(&behind).as_bytes(),
            Duration::from_secs(5),
        )
        .unwrap();
    let index = Arc::clone(redis.metadata_index().unwrap());
    assert!(index.fully_absent("behind"), "the index never learned it");

    sim.advance(Duration::from_secs(6));
    assert_eq!(
        redis
            .execute(&controller, &GdprQuery::DeleteExpired)
            .unwrap(),
        GdprResponse::Deleted(2),
        "the purge must union index dues with store-side dues"
    );
    for key in ["known", "behind"] {
        assert_eq!(
            redis
                .execute(
                    &Session::regulator(),
                    &GdprQuery::VerifyDeletion(key.into())
                )
                .unwrap(),
            GdprResponse::DeletionVerified(true),
            "{key} must be gone"
        );
    }

    // Same hole via clear(): the store still tracks the deadline after the
    // index forgets everything.
    let mut r = record("post-clear", "neo", &["ads"], "d");
    r.metadata.ttl = Some(Duration::from_secs(5));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(r))
        .unwrap();
    index.clear();
    sim.advance(Duration::from_secs(6));
    assert_eq!(
        redis
            .execute(&controller, &GdprQuery::DeleteExpired)
            .unwrap(),
        GdprResponse::Deleted(1),
        "a cleared index must not shield store-side deadlines"
    );
    assert_eq!(redis.record_count(), 0);
}

/// Regression (write-path consistency): a group metadata update that is
/// invalid for *any* matching record mutates *nothing* — on every
/// connector variant, every shard topology, and over the wire. The poison
/// record's only purpose is the one being removed (G5.1b forbids emptying
/// the purpose list), so validation fails while other matches would
/// succeed; before validate-all-then-commit, matches processed earlier
/// (or living on earlier shards) were rewritten and reindexed although
/// the caller saw `Err`.
#[test]
fn group_update_never_partially_commits() {
    for conn in connectors() {
        let controller = Session::controller();
        // Several healthy matches so sharded variants hold matches on more
        // than one shard, plus one poison record.
        for i in 0..6 {
            conn.execute(
                &controller,
                &GdprQuery::CreateRecord(record(&format!("gh-{i}"), "neo", &["ads", "2fa"], "d")),
            )
            .unwrap();
        }
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(record("gh-poison", "neo", &["ads"], "d")),
        )
        .unwrap();

        let result = conn.execute(
            &controller,
            &GdprQuery::UpdateMetadataByPurpose {
                purpose: "ads".into(),
                update: MetadataUpdate::Remove(MetadataField::Purposes, "ads".into()),
            },
        );
        assert!(
            matches!(result, Err(GdprError::InvalidRecord(_))),
            "{}: removing the poison record's last purpose must fail the group",
            conn.name()
        );
        // No partial commit: all seven records still declare "ads".
        let resp = conn
            .execute(&controller, &GdprQuery::DeleteByPurpose("ads".into()))
            .unwrap();
        assert_eq!(
            resp,
            GdprResponse::Deleted(7),
            "{}: every record must still declare the purpose after the failed update",
            conn.name()
        );
    }
}

#[test]
fn metadata_index_variant_reports_more_space() {
    let pg =
        PostgresConnector::new(relstore::Database::open(relstore::RelConfig::default()).unwrap())
            .unwrap();
    let pg_mi = PostgresConnector::with_metadata_indices(
        relstore::Database::open(relstore::RelConfig::default()).unwrap(),
    )
    .unwrap();
    seed(&pg);
    seed(&pg_mi);
    let base = pg.space_report();
    let mi = pg_mi.space_report();
    assert_eq!(base.personal_data_bytes, mi.personal_data_bytes);
    assert!(
        mi.total_bytes > base.total_bytes,
        "metadata indices must cost space: {mi:?} vs {base:?}"
    );
}

#[test]
fn expired_records_vanish() {
    // Redis: lazy-on-access hides expired keys immediately.
    let sim = clock::sim();
    let store =
        kvstore::KvStore::open_with_clock(kvstore::KvConfig::default(), sim.clone()).unwrap();
    let redis = RedisConnector::new(store);
    let controller = Session::controller();
    let mut r = record("exp-1", "neo", &["ads"], "d");
    r.metadata.ttl = Some(Duration::from_secs(10));
    redis
        .execute(&controller, &GdprQuery::CreateRecord(r))
        .unwrap();
    sim.advance(Duration::from_secs(11));
    assert!(matches!(
        redis.execute(
            &Session::customer("neo"),
            &GdprQuery::ReadMetadataByKey("exp-1".into())
        ),
        Err(GdprError::NotFound(_))
    ));

    // Postgres: the sweep daemon removes them.
    let sim = clock::sim();
    let db =
        relstore::Database::open_with_clock(relstore::RelConfig::default(), sim.clone()).unwrap();
    let pg = PostgresConnector::new(db).unwrap();
    let mut r = record("exp-1", "neo", &["ads"], "d");
    r.metadata.ttl = Some(Duration::from_secs(10));
    pg.execute(&controller, &GdprQuery::CreateRecord(r))
        .unwrap();
    sim.advance(Duration::from_secs(11));
    let daemon = pg.ttl_daemon();
    assert_eq!(daemon.sweep_once().unwrap(), 1);
    assert_eq!(pg.record_count(), 0);
    assert_eq!(
        pg.execute(
            &Session::regulator(),
            &GdprQuery::VerifyDeletion("exp-1".into())
        )
        .unwrap(),
        GdprResponse::DeletionVerified(true)
    );
}

#[test]
fn delete_expired_query_purges() {
    // Redis strict mode reaps in one cycle via DELETE-RECORD-BY-TTL.
    let sim = clock::sim();
    let store = kvstore::KvStore::open_with_clock(
        kvstore::KvConfig {
            expiration: kvstore::ExpirationMode::Strict,
            ..Default::default()
        },
        sim.clone(),
    )
    .unwrap();
    let redis = RedisConnector::new(store);
    let controller = Session::controller();
    for i in 0..10 {
        let mut r = record(&format!("e{i}"), "u", &["ads"], "d");
        r.metadata.ttl = Some(Duration::from_secs(5));
        redis
            .execute(&controller, &GdprQuery::CreateRecord(r))
            .unwrap();
    }
    sim.advance(Duration::from_secs(6));
    let resp = redis
        .execute(&controller, &GdprQuery::DeleteExpired)
        .unwrap();
    assert_eq!(resp, GdprResponse::Deleted(10));

    // Postgres equivalent.
    let sim = clock::sim();
    let db =
        relstore::Database::open_with_clock(relstore::RelConfig::default(), sim.clone()).unwrap();
    let pg = PostgresConnector::new(db).unwrap();
    for i in 0..10 {
        let mut r = record(&format!("e{i}"), "u", &["ads"], "d");
        r.metadata.ttl = Some(Duration::from_secs(5));
        pg.execute(&controller, &GdprQuery::CreateRecord(r))
            .unwrap();
    }
    sim.advance(Duration::from_secs(6));
    let resp = pg.execute(&controller, &GdprQuery::DeleteExpired).unwrap();
    assert_eq!(resp, GdprResponse::Deleted(10));
}

/// The sharded router answers every predicate query identically whether
/// its shards resolve by per-shard metadata index or by per-shard scan,
/// and identically to the unsharded connector — index/scan equivalence
/// holds *per shard* and survives the merge.
#[test]
fn sharded_index_and_scan_agree_on_all_predicates() {
    let scan_conn = ShardedRedisConnector::new(open_kv_fleet(3)).unwrap();
    let index_conn = ShardedRedisConnector::with_metadata_index(open_kv_fleet(3)).unwrap();
    let unsharded = RedisConnector::new(open_kv());
    let conns: [&dyn GdprConnector; 3] = [&scan_conn, &index_conn, &unsharded];
    for conn in conns {
        seed(conn);
    }
    let neo = Session::customer("neo");
    let controller = Session::controller();
    for conn in conns {
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "ph-1".into(),
                update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
            },
        )
        .unwrap();
        conn.execute(
            &controller,
            &GdprQuery::UpdateMetadataByUser {
                user: "morpheus".into(),
                update: MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into()),
            },
        )
        .unwrap();
    }

    let queries: Vec<(Session, GdprQuery)> = vec![
        (neo, GdprQuery::ReadDataByUser("neo".into())),
        (
            Session::processor("ads"),
            GdprQuery::ReadDataByPurpose("ads".into()),
        ),
        (
            Session::processor("x"),
            GdprQuery::ReadDataNotObjecting("ads".into()),
        ),
        (Session::processor("x"), GdprQuery::ReadDataDecisionEligible),
        (
            Session::regulator(),
            GdprQuery::ReadMetadataByUser("neo".into()),
        ),
        (
            Session::regulator(),
            GdprQuery::ReadMetadataBySharedWith("x-corp".into()),
        ),
    ];
    for (session, query) in queries {
        let mut responses: Vec<GdprResponse> = conns
            .iter()
            .map(|conn| conn.execute(&session, &query).unwrap())
            .collect();
        for resp in &mut responses {
            if let GdprResponse::Data(pairs) = resp {
                pairs.sort();
            }
            if let GdprResponse::Metadata(pairs) = resp {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
        assert_eq!(responses[0], responses[1], "scan vs indexed on {query:?}");
        assert_eq!(
            responses[1], responses[2],
            "sharded vs unsharded on {query:?}"
        );
    }
}

/// TTL expiry under sharding is shard-local: a lazy or active reap on one
/// shard scrubs exactly that shard's inverted indexes and deadline set —
/// it never strands a dead key there, and never touches (or strands keys
/// in) any other shard's index.
#[test]
fn sharded_ttl_expiry_scrubs_only_the_owning_shard() {
    let sim = clock::sim();
    let shards = 3;
    let stores: Vec<_> = (0..shards)
        .map(|_| {
            kvstore::KvStore::open_with_clock(
                kvstore::KvConfig {
                    expiration: kvstore::ExpirationMode::Strict,
                    ..Default::default()
                },
                sim.clone(),
            )
            .unwrap()
        })
        .collect();
    let conn = ShardedRedisConnector::with_metadata_index(stores).unwrap();
    let index = |shard: usize| conn.shards()[shard].metadata_index().unwrap();
    let controller = Session::controller();
    // Enough keys that every shard owns some; all expire at t=10s.
    let mut keys_of_shard: Vec<Vec<String>> = vec![Vec::new(); shards];
    for i in 0..24 {
        let key = format!("ttl-{i}");
        let mut r = record(&key, "neo", &["ads"], "d");
        r.metadata.ttl = Some(Duration::from_secs(10));
        conn.execute(&controller, &GdprQuery::CreateRecord(r))
            .unwrap();
        keys_of_shard[gdpr_core::shard_of(&key, shards)].push(key);
    }
    for (i, keys) in keys_of_shard.iter().enumerate() {
        assert!(!keys.is_empty(), "shard {i} owns no keys; widen the corpus");
        assert_eq!(index(i).len(), keys.len());
    }

    sim.advance(Duration::from_secs(11));
    // Active cycle on shard 0 ONLY.
    let reaped = conn.store(0).run_expiration_cycle().reaped;
    assert_eq!(reaped, keys_of_shard[0].len());
    for key in &keys_of_shard[0] {
        assert!(
            index(0).fully_absent(key),
            "{key} must leave shard 0's index"
        );
        for other in 1..shards {
            assert!(
                index(other).fully_absent(key),
                "{key} must never appear in shard {other}'s index"
            );
        }
    }
    // Other shards' indexes are untouched: their (expired but unreaped)
    // keys are still indexed until their own shard reaps them.
    for (other, keys) in keys_of_shard.iter().enumerate().skip(1) {
        assert_eq!(
            index(other).len(),
            keys.len(),
            "shard {other}'s index must not be scrubbed by shard 0's cycle"
        );
    }

    // Lazy path on shard 1: a point read reaps on access and scrubs only
    // shard 1's index.
    let probe = &keys_of_shard[1][0];
    assert!(matches!(
        conn.execute(
            &Session::customer("neo"),
            &GdprQuery::ReadMetadataByKey(probe.clone())
        ),
        Err(GdprError::NotFound(_))
    ));
    assert!(index(1).fully_absent(probe));

    // DELETE-RECORD-BY-TTL drains every shard's deadline set; all indexes
    // end empty with nothing stranded anywhere.
    conn.execute(&controller, &GdprQuery::DeleteExpired)
        .unwrap();
    for i in 0..shards {
        assert!(index(i).is_empty(), "shard {i}'s index must end empty");
    }
    assert_eq!(conn.record_count(), 0);
}

/// The sharded router keeps one audit stream: a fanned-out query is one
/// event, point ops audit once, and shards contribute no fragments.
#[test]
fn sharded_audit_stream_is_unified_and_ordered() {
    let conn = ShardedRedisConnector::with_metadata_index(open_kv_fleet(4)).unwrap();
    seed(&conn); // 5 creates
    let neo = Session::customer("neo");
    conn.execute(&neo, &GdprQuery::ReadDataByUser("neo".into()))
        .unwrap(); // 1 fan-out
    let _ = conn.execute(&neo, &GdprQuery::ReadDataByUser("trinity".into())); // 1 denied
    assert_eq!(conn.audit().len(), 7);
    let lines = conn.audit().lines_between(0, u64::MAX);
    assert_eq!(lines.len(), 7);
    // Execution order is preserved: creates first, then the reads.
    assert!(lines.iter().take(5).all(|l| l.operation == "create-record"));
    assert_eq!(lines[5].operation, "read-data-by-usr");
    assert!(lines[6].detail.contains("access denied"));
    // GET-SYSTEM-LOGS serves the same unified stream.
    let resp = conn
        .execute(
            &Session::regulator(),
            &GdprQuery::GetSystemLogs {
                from_ms: 0,
                to_ms: u64::MAX,
            },
        )
        .unwrap();
    assert_eq!(resp.cardinality(), 7);
}

/// The acceptance bar for the network layer: serve the *same* engine
/// instance that stays reachable in-process, mirror a workload through
/// both paths, and require every response — successes, GDPR errors, audit
/// logs, features, space, counts — to compare equal. Any codec lossiness
/// or transport-dependent semantic fails here, for every variant.
#[test]
fn remote_view_is_byte_equivalent_to_in_process() {
    for local in engine_handles() {
        let remote = RemoteConnector::serve_in_process(Arc::clone(&local) as EngineHandle, 2)
            .expect("serve");
        assert_eq!(remote.name(), local.name());
        seed(&local);

        let neo = Session::customer("neo");
        let queries: Vec<(Session, GdprQuery)> = vec![
            (neo.clone(), GdprQuery::ReadDataByUser("neo".into())),
            (neo.clone(), GdprQuery::ReadMetadataByUser("neo".into())),
            (
                Session::processor("ads"),
                GdprQuery::ReadDataByPurpose("ads".into()),
            ),
            (
                Session::regulator(),
                GdprQuery::VerifyDeletion("ph-1".into()),
            ),
            (Session::controller(), GdprQuery::GetSystemFeatures),
            // Denied: errors must roundtrip exactly too.
            (neo.clone(), GdprQuery::ReadDataByUser("trinity".into())),
        ];
        for (session, query) in &queries {
            // Responses normalize result-set order (the engine returns
            // store order, which both paths share) — compare raw.
            let direct = local.execute(session, query);
            let over_wire = remote.execute(session, query);
            assert_eq!(
                over_wire,
                direct,
                "{}: remote diverges on {query:?}",
                local.name()
            );
        }

        // Audit-log payloads roundtrip exactly. The trail grows with every
        // audited query (including GET-SYSTEM-LOGS itself), so the remote
        // read — issued second — must be the local lines plus exactly the
        // local read's own audit event.
        let logs_query = GdprQuery::GetSystemLogs {
            from_ms: 0,
            to_ms: u64::MAX,
        };
        let local_logs = match local.execute(&Session::regulator(), &logs_query).unwrap() {
            GdprResponse::Logs(lines) => lines,
            other => panic!("expected logs, got {other:?}"),
        };
        let remote_logs = match remote.execute(&Session::regulator(), &logs_query).unwrap() {
            GdprResponse::Logs(lines) => lines,
            other => panic!("expected logs, got {other:?}"),
        };
        assert_eq!(remote_logs.len(), local_logs.len() + 1, "{}", local.name());
        assert_eq!(
            remote_logs.to_vec()[..local_logs.len()],
            local_logs.to_vec()
        );
        assert_eq!(
            remote_logs.iter().next_back().unwrap().operation,
            "get-system-logs"
        );

        // A write through the wire lands in the one shared engine.
        remote
            .execute(&neo, &GdprQuery::DeleteByKey("ph-1".into()))
            .unwrap();
        assert!(matches!(
            local.execute(&neo, &GdprQuery::ReadMetadataByKey("ph-1".into())),
            Err(GdprError::NotFound(_))
        ));
        assert_eq!(remote.record_count(), local.record_count());
        assert_eq!(remote.space_report(), local.space_report());
        assert_eq!(remote.features(), local.features());
    }
}

/// The same acceptance bar for the *encrypted* transport, pinned
/// explicitly (not via `GDPR_ENCRYPT`) so it runs in every suite
/// invocation: one engine instance reachable in-process, over plaintext
/// TCP, and over the encrypted transport — all three views must agree on
/// every response, and the cipher boundary must reject a mismatched key.
#[test]
fn encrypted_transport_is_byte_equivalent_to_plaintext_and_in_process() {
    let local: EngineHandle = Arc::new(RedisConnector::with_metadata_index(open_kv()).unwrap());
    let plain_config = gdpr_server::ServerConfig {
        workers: 2,
        queue_depth: 32,
        encrypt: None,
        ..Default::default()
    };
    let enc_config = gdpr_server::ServerConfig {
        encrypt: Some("conformance-psk".to_string()),
        ..plain_config.clone()
    };
    let plain =
        RemoteConnector::serve_in_process_with(Arc::clone(&local) as EngineHandle, 2, plain_config)
            .unwrap();
    let encrypted =
        RemoteConnector::serve_in_process_with(Arc::clone(&local) as EngineHandle, 2, enc_config)
            .unwrap();
    assert!(encrypted.clients().iter().all(|c| c.is_encrypted()));
    assert!(plain.clients().iter().all(|c| !c.is_encrypted()));
    seed(&local);

    let neo = Session::customer("neo");
    let queries: Vec<(Session, GdprQuery)> = vec![
        (neo.clone(), GdprQuery::ReadDataByUser("neo".into())),
        (neo.clone(), GdprQuery::ReadMetadataByUser("neo".into())),
        (
            Session::processor("ads"),
            GdprQuery::ReadDataByPurpose("ads".into()),
        ),
        (Session::controller(), GdprQuery::GetSystemFeatures),
        // Errors must cross the cipher boundary exactly too.
        (neo.clone(), GdprQuery::ReadDataByUser("trinity".into())),
    ];
    for (session, query) in &queries {
        let direct = local.execute(session, query);
        let over_plain = plain.execute(session, query);
        let over_cipher = encrypted.execute(session, query);
        assert_eq!(over_plain, direct, "plaintext diverges on {query:?}");
        assert_eq!(over_cipher, direct, "encrypted diverges on {query:?}");
    }
    // Pipelined batches cross sealed too.
    let batch: Vec<(Session, GdprQuery)> = (0..20)
        .map(|_| (neo.clone(), GdprQuery::ReadDataByUser("neo".into())))
        .collect();
    let plain_batch = plain.execute_batch(batch.clone());
    let cipher_batch = encrypted.execute_batch(batch);
    assert_eq!(cipher_batch, plain_batch);
    assert_eq!(encrypted.record_count(), local.record_count());
    assert_eq!(encrypted.space_report(), local.space_report());
    assert_eq!(encrypted.features(), local.features());

    let enc_addr = encrypted.server().unwrap().local_addr().to_string();
    let stats = encrypted.server().unwrap().stats();
    assert_eq!(
        stats
            .handshakes_completed
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    // Wrong pre-shared key: the handshake completes (randoms are
    // unauthenticated) but the first sealed op fails on both sides.
    let wrong = crate::GdprClient::connect_encrypted(&enc_addr, Some("not-the-psk")).unwrap();
    assert!(wrong.ping(b"x").is_err());
    // Plaintext client against the encrypted endpoint: rejected, and
    // reported as a handshake failure — not a protocol error.
    let downgrade = crate::GdprClient::connect_plain(&enc_addr).unwrap();
    assert!(downgrade.ping(b"x").is_err());
    // Encrypted client against the plaintext endpoint: loud refusal.
    let plain_addr = plain.server().unwrap().local_addr().to_string();
    let err = crate::GdprClient::connect_encrypted(&plain_addr, None)
        .err()
        .expect("handshake against a plaintext server must fail");
    assert!(
        err.to_string().contains("downgrade"),
        "downgrade rejection must be loud, got: {err}"
    );
}

// ---- multi-tenant isolation ----

/// Drive two tenants holding *identical* logical corpora through one
/// connector and require that no predicate read, erasure, purge, audit
/// query, or metrics report ever crosses the tenant boundary. Tenant
/// names are parameters so callers sharing one engine (the encrypted /
/// plaintext pair) can use disjoint tenants per transport.
fn assert_tenant_isolation(conn: &dyn GdprConnector, acme_name: &str, zeta_name: &str) {
    use gdpr_core::tenant::TenantId;
    let acme = TenantId::new(acme_name).unwrap();
    let zeta = TenantId::new(zeta_name).unwrap();
    let name = conn.name().to_string();
    seed_as(conn, &acme);
    seed_as(conn, &zeta);

    // Predicate reads resolve only the caller's tenant: both tenants hold
    // the same keys, so leakage doubles the cardinality.
    let neo_acme = Session::customer("neo").with_tenant(acme.clone());
    let resp = conn
        .execute(&neo_acme, &GdprQuery::ReadDataByUser("neo".into()))
        .unwrap();
    let mut keys: Vec<_> = resp
        .as_data()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    assert_eq!(keys, vec!["ph-1", "ph-2"], "{name}: predicate read leaked");
    let ads_acme = Session::processor("ads").with_tenant(acme.clone());
    assert_eq!(
        conn.execute(&ads_acme, &GdprQuery::ReadDataByPurpose("ads".into()))
            .unwrap()
            .cardinality(),
        3,
        "{name}: purpose read crossed the tenant boundary"
    );

    // Erasure in one tenant leaves the other's record untouched.
    conn.execute(&neo_acme, &GdprQuery::DeleteByKey("ph-1".into()))
        .unwrap();
    assert!(
        matches!(
            conn.execute(&neo_acme, &GdprQuery::ReadMetadataByKey("ph-1".into())),
            Err(GdprError::NotFound(_))
        ),
        "{name}: erased record still visible in its own tenant"
    );
    let neo_zeta = Session::customer("neo").with_tenant(zeta.clone());
    conn.execute(&neo_zeta, &GdprQuery::ReadMetadataByKey("ph-1".into()))
        .unwrap_or_else(|e| panic!("{name}: erasure crossed into the other tenant: {e}"));

    // User-scoped purge stays inside the tenant.
    let controller_acme = Session::controller().with_tenant(acme.clone());
    assert_eq!(
        conn.execute(
            &controller_acme,
            &GdprQuery::DeleteByUser("morpheus".into())
        )
        .unwrap(),
        GdprResponse::Deleted(1),
        "{name}"
    );
    let ads_zeta = Session::processor("ads").with_tenant(zeta.clone());
    conn.execute(&ads_zeta, &GdprQuery::ReadDataByKey("ph-5".into()))
        .unwrap_or_else(|e| panic!("{name}: purge crossed into the other tenant: {e}"));
    assert!(matches!(
        conn.execute(&ads_acme, &GdprQuery::ReadDataByKey("ph-5".into())),
        Err(GdprError::NotFound(_))
    ));

    // Deletion verification answers for the caller's tenant only: ph-5 is
    // erased in acme but alive in zeta.
    let regulator_acme = Session::regulator().with_tenant(acme.clone());
    let regulator_zeta = Session::regulator().with_tenant(zeta.clone());
    assert_eq!(
        conn.execute(&regulator_acme, &GdprQuery::VerifyDeletion("ph-5".into()))
            .unwrap(),
        GdprResponse::DeletionVerified(true),
        "{name}"
    );
    assert_eq!(
        conn.execute(&regulator_zeta, &GdprQuery::VerifyDeletion("ph-5".into()))
            .unwrap(),
        GdprResponse::DeletionVerified(false),
        "{name}"
    );

    // One zeta-only operation the acme trail must never show.
    conn.execute(
        &regulator_zeta,
        &GdprQuery::ReadMetadataByUser("trinity".into()),
    )
    .unwrap();

    // GET-SYSTEM-LOGS returns only the caller's trail. Acme ran exactly
    // 12 audited ops (5 creates, 2 reads, 1 erasure + failed re-read,
    // 1 purge + failed read, 1 verification); zeta ran 9 (5 creates,
    // 2 reads, 1 verification, 1 metadata read). A trail query audits
    // itself *after* dispatch, so neither count includes its own query.
    let logs = |resp: gdpr_core::error::GdprResult<GdprResponse>| match resp.unwrap() {
        GdprResponse::Logs(lines) => lines,
        other => panic!("expected logs, got {other:?}"),
    };
    let acme_logs = logs(conn.execute(
        &regulator_acme,
        &GdprQuery::GetSystemLogs {
            from_ms: 0,
            to_ms: u64::MAX,
        },
    ));
    assert_eq!(acme_logs.len(), 12, "{name}: acme trail wrong size");
    assert!(
        acme_logs
            .iter()
            .all(|l| l.operation != "read-metadata-by-usr"),
        "{name}: zeta's audit lines leaked into acme's trail"
    );
    let zeta_logs = logs(conn.execute(
        &regulator_zeta,
        &GdprQuery::GetSystemLogs {
            from_ms: 0,
            to_ms: u64::MAX,
        },
    ));
    assert_eq!(zeta_logs.len(), 9, "{name}: zeta trail wrong size");
    assert_eq!(
        zeta_logs.iter().next_back().unwrap().operation,
        "read-metadata-by-usr",
        "{name}"
    );

    // Per-tenant metrics: each tenant's table counts its own ops only.
    let acme_ops = conn
        .op_telemetry_for(&acme)
        .unwrap_or_else(|| panic!("{name}: no telemetry for acme"));
    let zeta_ops = conn
        .op_telemetry_for(&zeta)
        .unwrap_or_else(|| panic!("{name}: no telemetry for zeta"));
    assert_eq!(acme_ops.get("create-record").map(|o| o.total()), Some(5));
    assert_eq!(zeta_ops.get("create-record").map(|o| o.total()), Some(5));
    assert_eq!(
        acme_ops.get("delete-record-by-usr").map(|o| o.total()),
        Some(1),
        "{name}"
    );
    assert!(
        zeta_ops
            .get("delete-record-by-usr")
            .is_none_or(|o| o.total() == 0),
        "{name}: acme's purge counted in zeta's metrics"
    );
}

/// The tenant-isolation invariant across the whole fleet: every engine
/// variant in-process and again over loopback TCP, at whatever shard
/// count `GDPR_SHARDS` selects (CI pins 1 and 8).
#[test]
fn tenants_are_fully_isolated_on_every_connector() {
    for conn in connectors() {
        assert_tenant_isolation(conn.as_ref(), "acme", "zeta");
    }
}

/// The same invariant over the encrypted transport, sharing one engine
/// with a plaintext endpoint: isolation must hold per transport (disjoint
/// tenant pairs), and the sealed channel must carry the tenant header
/// as faithfully as plaintext does.
#[test]
fn tenants_are_fully_isolated_over_the_encrypted_transport() {
    let local: EngineHandle = Arc::new(RedisConnector::with_metadata_index(open_kv()).unwrap());
    let plain_config = gdpr_server::ServerConfig {
        workers: 2,
        queue_depth: 32,
        encrypt: None,
        ..Default::default()
    };
    let enc_config = gdpr_server::ServerConfig {
        encrypt: Some("tenant-psk".to_string()),
        ..plain_config.clone()
    };
    let plain =
        RemoteConnector::serve_in_process_with(Arc::clone(&local) as EngineHandle, 2, plain_config)
            .unwrap();
    let encrypted =
        RemoteConnector::serve_in_process_with(Arc::clone(&local) as EngineHandle, 2, enc_config)
            .unwrap();
    assert!(encrypted.clients().iter().all(|c| c.is_encrypted()));
    assert_tenant_isolation(&encrypted, "enc-acme", "enc-zeta");
    assert_tenant_isolation(&plain, "pt-acme", "pt-zeta");
    // Both transports see the same engine: a tenant written over the
    // sealed channel is readable in-process under that tenant.
    use gdpr_core::tenant::TenantId;
    let enc_acme = TenantId::new("enc-acme").unwrap();
    let neo = Session::customer("neo").with_tenant(enc_acme);
    let resp = local
        .execute(&neo, &GdprQuery::ReadDataByUser("neo".into()))
        .unwrap();
    assert_eq!(resp.cardinality(), 1); // ph-2 survives the isolation run
}

// ---- restart equivalence (index snapshot recovery) ----

/// A unique scratch directory per call (tests run concurrently).
fn snapshot_scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gdpr-conformance-snap-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn aof_kv_config() -> kvstore::KvConfig {
    kvstore::KvConfig {
        aof: kvstore::config::Storage::Memory,
        fsync: kvstore::FsyncPolicy::Never,
        ..Default::default()
    }
}

/// An op mix touching every index dimension: creates (one TTL'd), an
/// objection, a group sharing update, a rectification, an erasure.
fn restart_op_mix(conn: &dyn GdprConnector) {
    let controller = Session::controller();
    seed(conn);
    let mut ttl_record = record("ph-ttl", "morpheus", &["analytics"], "666-666");
    ttl_record.metadata.ttl = Some(Duration::from_secs(300));
    conn.execute(&controller, &GdprQuery::CreateRecord(ttl_record))
        .unwrap();
    conn.execute(
        &Session::customer("neo"),
        &GdprQuery::UpdateMetadataByKey {
            key: "ph-1".into(),
            update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
        },
    )
    .unwrap();
    conn.execute(
        &controller,
        &GdprQuery::UpdateMetadataByUser {
            user: "trinity".into(),
            update: MetadataUpdate::Add(MetadataField::Sharing, "y-corp".into()),
        },
    )
    .unwrap();
    conn.execute(
        &Session::customer("neo"),
        &GdprQuery::UpdateDataByKey {
            key: "ph-2".into(),
            data: "222-999".into(),
        },
    )
    .unwrap();
    conn.execute(
        &Session::customer("morpheus"),
        &GdprQuery::DeleteByKey("ph-5".into()),
    )
    .unwrap();
}

/// The read battery both engines must answer byte-identically. Audit
/// logs are engine state, not index state, and are deliberately absent —
/// a restarted engine starts a fresh trail.
fn restart_battery() -> Vec<(Session, GdprQuery)> {
    let mut battery: Vec<(Session, GdprQuery)> = vec![
        (
            Session::processor("ads"),
            GdprQuery::ReadDataByPurpose("ads".into()),
        ),
        (
            Session::processor("analytics"),
            GdprQuery::ReadDataNotObjecting("ads".into()),
        ),
        (
            Session::processor("analytics"),
            GdprQuery::ReadDataDecisionEligible,
        ),
        (
            Session::regulator(),
            GdprQuery::ReadMetadataBySharedWith("y-corp".into()),
        ),
        (
            Session::regulator(),
            GdprQuery::VerifyDeletion("ph-5".into()),
        ),
        (
            Session::regulator(),
            GdprQuery::VerifyDeletion("ph-1".into()),
        ),
        (Session::controller(), GdprQuery::GetSystemFeatures),
        // Denied queries must deny identically too.
        (
            Session::customer("neo"),
            GdprQuery::ReadDataByUser("trinity".into()),
        ),
        (
            Session::customer("neo"),
            GdprQuery::ReadMetadataByKey("ph-3".into()),
        ),
    ];
    for user in ["neo", "trinity", "morpheus"] {
        battery.push((
            Session::customer(user),
            GdprQuery::ReadDataByUser(user.into()),
        ));
        battery.push((
            Session::customer(user),
            GdprQuery::ReadMetadataByUser(user.into()),
        ));
    }
    battery
}

fn assert_restart_equivalent(
    original: &dyn GdprConnector,
    restarted: &dyn GdprConnector,
    ctx: &str,
) {
    for (session, query) in restart_battery() {
        assert_eq!(
            restarted.execute(&session, &query),
            original.execute(&session, &query),
            "{ctx}: restarted engine diverges on {query:?}"
        );
    }
    assert_eq!(restarted.record_count(), original.record_count(), "{ctx}");
}

/// Restart equivalence, sharded: run the op mix, snapshot on close,
/// replay every shard AOF and reopen against the images — every shard
/// must come back through the O(index) restore (pinning that the
/// equality below is the snapshot's doing, not a rebuild's), and every
/// response must be byte-identical to the never-restarted engine, both
/// in-process and over loopback TCP. `GDPR_SHARDS` sets the topology (CI
/// runs 1 and 8).
#[test]
fn restart_equivalence_sharded_and_remote() {
    let shards = gdpr_core::shard_count_from_env();
    let dir = snapshot_scratch_dir("sharded");
    let sim = clock::sim();
    let fleet: Vec<Arc<kvstore::KvStore>> = (0..shards)
        .map(|_| kvstore::KvStore::open_with_clock(aof_kv_config(), sim.clone()).unwrap())
        .collect();
    let original =
        ShardedRedisConnector::with_metadata_index_snapshots(fleet.clone(), &dir).unwrap();
    restart_op_mix(&original);
    assert!(
        original.engine().close().unwrap() > 0,
        "close persists the images"
    );

    let restarted_fleet: Vec<Arc<kvstore::KvStore>> = fleet
        .iter()
        .map(|store| {
            let aof = store.aof_memory_buffer().unwrap().lock().clone();
            kvstore::KvStore::replay(aof_kv_config(), &aof, sim.clone()).unwrap()
        })
        .collect();
    let restarted =
        ShardedRedisConnector::with_metadata_index_snapshots(restarted_fleet, &dir).unwrap();
    for shard in 0..shards {
        assert!(
            restarted.shards()[shard]
                .index_recovery()
                .unwrap()
                .is_restored(),
            "shard {shard} must recover through the snapshot, got {:?}",
            restarted.shards()[shard].index_recovery()
        );
    }
    assert_restart_equivalent(&original, &restarted, "sharded in-process");

    // The same restarted engine over real sockets.
    let remote = served(Arc::new(restarted));
    assert_restart_equivalent(&original, remote.as_ref(), "sharded over TCP");
}

/// Restart equivalence, unsharded `redis-mi` — once over the stock
/// write-only AOF and once over a `log_reads` one, whose GET / MGET /
/// EXISTS / SCAN frames (everything `RedisStore` issues) must replay to the
/// identical generation, or the image's stamp would stop matching.
#[test]
fn restart_equivalence_redis_mi() {
    for log_reads in [false, true] {
        let config = kvstore::KvConfig {
            log_reads,
            ..aof_kv_config()
        };
        let dir = snapshot_scratch_dir("mi");
        let path = dir.join("metaindex.snap");
        let sim = clock::sim();
        let store = kvstore::KvStore::open_with_clock(config.clone(), sim.clone()).unwrap();
        let original =
            RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
        restart_op_mix(&original);
        assert!(original.engine().close().unwrap() > 0);

        let aof = store.aof_memory_buffer().unwrap().lock().clone();
        let mut logged: Vec<String> = kvstore::aof::decode_log(&aof, None)
            .unwrap()
            .iter()
            .map(|parts| String::from_utf8_lossy(&parts[0]).into_owned())
            .collect();
        logged.sort();
        logged.dedup();
        if log_reads {
            assert_eq!(
                logged,
                ["DEL", "EXISTS", "EXPIREAT", "GET", "MGET", "SCAN", "SET"]
            );
        } else {
            assert_eq!(logged, ["DEL", "EXPIREAT", "SET"]);
        }
        let replayed = kvstore::KvStore::replay(config, &aof, sim.clone()).unwrap();
        assert_eq!(
            replayed.mutation_generation(),
            store.mutation_generation(),
            "log_reads = {log_reads}"
        );
        let restarted = RedisConnector::with_metadata_index_snapshot(replayed, &path).unwrap();
        assert!(
            restarted.index_recovery().unwrap().is_restored(),
            "got {:?}",
            restarted.index_recovery()
        );
        assert_restart_equivalent(&original, &restarted, "redis-mi in-process");
        let remote = served(Arc::new(restarted));
        assert_restart_equivalent(&original, remote.as_ref(), "redis-mi over TCP");
    }
}

/// A page-store config for restart tests: pool far smaller than the
/// dataset (recovery must page through eviction, not RAM residency) and
/// auto-checkpoint disabled so the reopen is forced through the WAL
/// replay path rather than a clean data file.
fn disk_restart_config() -> pagestore::PageStoreConfig {
    pagestore::PageStoreConfig {
        pool_pages: 4,
        checkpoint_frames: usize::MAX,
        ..Default::default()
    }
}

/// Restart equivalence for the `disk` variant through **WAL recovery**:
/// run the op mix, then reopen the directory with *no* graceful close —
/// no checkpoint, no index snapshot. The reopened store must come up by
/// replaying the WAL (asserted), rebuild its metadata index from the
/// recovered tree, and answer the whole battery byte-identically to the
/// never-restarted engine, in-process and over loopback TCP.
#[test]
fn restart_equivalence_disk_wal_recovery() {
    let dir = snapshot_scratch_dir("disk-wal");
    let sim = clock::sim();
    let store =
        pagestore::PageStore::open(dir.join("store"), disk_restart_config(), sim.clone()).unwrap();
    let original = crate::DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    restart_op_mix(&original);
    let generation = store.generation();
    drop(store); // simulate the crash: no close(), no checkpoint

    let reopened =
        pagestore::PageStore::open(dir.join("store"), disk_restart_config(), sim.clone()).unwrap();
    assert!(
        reopened.recovery().wal_frames > 0,
        "reopen must take the WAL recovery path, got {}",
        reopened.recovery()
    );
    assert_eq!(
        reopened.generation(),
        generation,
        "WAL replay must reproduce the commit sequence"
    );
    let restarted = crate::DiskConnector::with_metadata_index(reopened).unwrap();
    assert_restart_equivalent(&original, &restarted, "disk in-process");
    let remote = served(Arc::new(restarted));
    assert_restart_equivalent(&original, remote.as_ref(), "disk over TCP");
}

/// Restart equivalence for `disk-sharded` with index snapshots: persist
/// the per-shard index images, crash without checkpoint, and require
/// every shard to come back through BOTH the WAL replay (store level) and
/// the O(index) snapshot restore (engine level) — the generation stamp in
/// each image must match the generation the shard's WAL reproduces.
/// `GDPR_SHARDS` sets the topology (CI runs 1 and 8).
#[test]
fn restart_equivalence_disk_sharded_wal_and_snapshots() {
    let shards = gdpr_core::shard_count_from_env();
    let dir = snapshot_scratch_dir("disk-sharded");
    let snaps = dir.join("snaps");
    std::fs::create_dir_all(&snaps).unwrap();
    let sim = clock::sim();
    let fleet = crate::disk::open_store_fleet(
        dir.join("stores"),
        shards,
        disk_restart_config(),
        sim.clone(),
    )
    .unwrap();
    let original =
        crate::ShardedDiskConnector::with_metadata_index_snapshots(fleet.clone(), &snaps).unwrap();
    restart_op_mix(&original);
    assert!(
        original.write_index_snapshots().unwrap() > 0,
        "snapshots persist without a checkpoint"
    );
    drop(fleet); // crash: WAL is the only durable mutation record

    let refleet = crate::disk::open_store_fleet(
        dir.join("stores"),
        shards,
        disk_restart_config(),
        sim.clone(),
    )
    .unwrap();
    // At high shard counts some shards never saw a mutation — those come
    // up empty legitimately; every shard that committed must replay.
    let mut replayed = 0;
    for (i, store) in refleet.iter().enumerate() {
        if store.generation() > 0 {
            assert!(
                store.recovery().wal_frames > 0,
                "shard {i} committed but did not replay its WAL, got {}",
                store.recovery()
            );
            replayed += 1;
        }
    }
    assert!(replayed > 0, "the op mix must land on at least one shard");
    let restarted =
        crate::ShardedDiskConnector::with_metadata_index_snapshots(refleet, &snaps).unwrap();
    for shard in 0..shards {
        assert!(
            restarted.shards()[shard]
                .index_recovery()
                .unwrap()
                .is_restored(),
            "shard {shard} must recover through the snapshot, got {:?}",
            restarted.shards()[shard].index_recovery()
        );
    }
    assert_restart_equivalent(&original, &restarted, "disk-sharded in-process");
    let remote = served(Arc::new(restarted));
    assert_restart_equivalent(&original, remote.as_ref(), "disk-sharded over TCP");
}

/// The conformance read battery under hard eviction pressure: a 2-page
/// buffer pool (~1–2% of the dataset's page footprint) serving ~1000
/// records. Every access faults pages in and out; after **every** engine
/// op the pin count must be back at zero (a leaked pin under pressure
/// would wedge eviction fleet-wide), and every read must still be exact.
#[test]
fn disk_conformance_under_eviction_pressure() {
    let dir = snapshot_scratch_dir("disk-evict");
    let config = pagestore::PageStoreConfig {
        pool_pages: 2,
        ..Default::default()
    };
    let store = pagestore::PageStore::open(&dir, config, clock::wall()).unwrap();
    let conn = crate::DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let controller = Session::controller();

    seed(&conn);
    let users = ["neo", "trinity", "morpheus"];
    let mut per_user = [2usize, 2, 1]; // the seeded corpus
    for i in 0..1000 {
        let user = users[i % 3];
        per_user[i % 3] += 1;
        let mut r = record(&format!("evict-{i:04}"), user, &["ads"], &"x".repeat(256));
        if i % 7 == 0 {
            r.metadata.ttl = Some(Duration::from_secs(3600));
        }
        conn.execute(&controller, &GdprQuery::CreateRecord(r))
            .unwrap();
        assert_eq!(store.pinned_pages(), 0, "pin leak after create {i}");
    }
    assert_eq!(conn.record_count(), 1005);

    // Point reads for every key, by a processor on the declared purpose.
    let ads = Session::processor("ads");
    for i in 0..1000 {
        let resp = conn
            .execute(&ads, &GdprQuery::ReadDataByKey(format!("evict-{i:04}")))
            .unwrap();
        assert_eq!(resp.cardinality(), 1, "evict-{i:04} must read back exactly");
        assert_eq!(store.pinned_pages(), 0, "pin leak after read {i}");
    }
    // Predicate reads across the whole dataset.
    for (i, user) in users.iter().copied().enumerate() {
        let resp = conn
            .execute(
                &Session::customer(user),
                &GdprQuery::ReadDataByUser(user.to_string()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), per_user[i], "{user}");
        assert_eq!(store.pinned_pages(), 0, "pin leak after user read");
    }
    // The standard battery (including denied queries) leaks no pins either.
    for (session, query) in restart_battery() {
        let _ = conn.execute(&session, &query);
        assert_eq!(store.pinned_pages(), 0, "pin leak on {query:?}");
    }
    let stats = store.pool_stats();
    assert_eq!(stats.capacity, 2);
    assert!(
        stats.evictions > 1000,
        "the battery must churn the pool, got {stats:?}"
    );

    // An erase-by-user over far more leaves than the pool holds is one
    // page-store transaction: the commit sequence advances once per group
    // write, not once per erased record.
    let generation = store.generation();
    let resp = conn
        .execute(&controller, &GdprQuery::DeleteByUser("neo".into()))
        .unwrap();
    assert_eq!(resp, GdprResponse::Deleted(per_user[0]));
    assert_eq!(store.generation(), generation + 1, "one commit per erase");
    assert_eq!(store.pinned_pages(), 0, "pin leak after group erase");
}

#[test]
fn postgres_mi_uses_index_scans_for_metadata_queries() {
    let db = relstore::Database::open(relstore::RelConfig::default()).unwrap();
    let pg = PostgresConnector::with_metadata_indices(Arc::clone(&db)).unwrap();
    seed(&pg);
    let before = db
        .table(crate::postgres::TABLE)
        .unwrap()
        .read()
        .plan_stats();
    pg.execute(
        &Session::customer("neo"),
        &GdprQuery::ReadDataByUser("neo".into()),
    )
    .unwrap();
    let after = db
        .table(crate::postgres::TABLE)
        .unwrap()
        .read()
        .plan_stats();
    assert!(after.index_scans > before.index_scans);
    assert_eq!(
        after.seq_scans, before.seq_scans,
        "usr query must not seq-scan"
    );
}

//! The paper's *strict interpretation* of GDPR (§1): deletions are
//! synchronous and real-time, every interaction is audited, and purpose/
//! objection checks gate every processing read. These tests pin those
//! semantics so a future "optimization" cannot quietly relax them.

use gdprbench_repro::connectors::registry::{self, Deployed, Deployment, Posture};
use gdprbench_repro::connectors::{PostgresConnector, RedisConnector};
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, GdprResponse, Session};
use std::time::Duration;

fn connectors() -> Vec<Deployed> {
    let compliant = Deployment {
        posture: Posture::COMPLIANT,
        ..Deployment::default()
    };
    ["redis", "postgres"]
        .into_iter()
        .map(|name| registry::build(name, &compliant).unwrap())
        .collect()
}

fn record(key: &str, user: &str) -> PersonalRecord {
    PersonalRecord::new(
        key,
        "payload",
        Metadata::new(user, vec!["billing".into()], Duration::from_secs(3600)),
    )
}

/// RTBF is synchronous: the very next query observes the deletion. (Google
/// Cloud's 180-day asynchronous deletion would fail this test — that is the
/// point of the strict interpretation.)
#[test]
fn deletion_is_observable_immediately() {
    for conn in connectors() {
        conn.execute(
            &Session::controller(),
            &GdprQuery::CreateRecord(record("k", "neo")),
        )
        .unwrap();
        let neo = Session::customer("neo");
        conn.execute(&neo, &GdprQuery::DeleteByKey("k".into()))
            .unwrap();
        // No settling time, no background pass: gone now.
        assert_eq!(
            conn.execute(
                &Session::regulator(),
                &GdprQuery::VerifyDeletion("k".into())
            )
            .unwrap(),
            GdprResponse::DeletionVerified(true),
            "{}",
            conn.name()
        );
        assert!(conn
            .execute(&neo, &GdprQuery::ReadMetadataByKey("k".into()))
            .is_err());
    }
}

/// Every read is audited — the "read becomes read+write" cost the paper
/// highlights (G30). Even denied attempts leave a trace.
#[test]
fn audit_trail_captures_reads_and_denials() {
    for conn in connectors() {
        conn.execute(
            &Session::controller(),
            &GdprQuery::CreateRecord(record("k", "neo")),
        )
        .unwrap();
        let before = match conn
            .execute(
                &Session::regulator(),
                &GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            )
            .unwrap()
        {
            GdprResponse::Logs(lines) => lines.len(),
            _ => unreachable!(),
        };
        // One successful read, one denied read.
        conn.execute(
            &Session::customer("neo"),
            &GdprQuery::ReadDataByUser("neo".into()),
        )
        .unwrap();
        let _ = conn.execute(
            &Session::customer("smith"),
            &GdprQuery::ReadDataByUser("neo".into()),
        );
        let lines = match conn
            .execute(
                &Session::regulator(),
                &GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            )
            .unwrap()
        {
            GdprResponse::Logs(lines) => lines,
            _ => unreachable!(),
        };
        // +2 query events +1 for the first GetSystemLogs itself.
        assert_eq!(lines.len(), before + 3, "{}", conn.name());
        assert!(
            lines.iter().any(|l| l.detail.contains("access denied")),
            "{}: denials must be audited",
            conn.name()
        );
    }
}

/// G5(1b) + G21: a processing read returns exactly the records whose
/// declared purposes include the session purpose minus objections —
/// verified record-by-record against ground truth.
#[test]
fn purpose_and_objection_gating_is_exact() {
    for conn in connectors() {
        let controller = Session::controller();
        let mut expected: Vec<String> = Vec::new();
        for i in 0..40 {
            let mut r = record(&format!("k{i:02}"), &format!("u{i:02}"));
            r.metadata.purposes = match i % 4 {
                0 => vec!["ads".into()],
                1 => vec!["ads".into(), "billing".into()],
                2 => vec!["billing".into()],
                _ => vec!["analytics".into()],
            };
            if i % 8 == 0 {
                r.metadata.objections = vec!["ads".into()];
            }
            let allowed = r.metadata.allows_purpose("ads");
            if allowed {
                expected.push(r.key.clone());
            }
            conn.execute(&controller, &GdprQuery::CreateRecord(r))
                .unwrap();
        }
        let resp = conn
            .execute(
                &Session::processor("ads"),
                &GdprQuery::ReadDataByPurpose("ads".into()),
            )
            .unwrap();
        let mut got: Vec<String> = resp
            .as_data()
            .unwrap()
            .iter()
            .map(|(k, _)| k.to_string())
            .collect();
        got.sort();
        expected.sort();
        assert_eq!(got, expected, "{}", conn.name());
    }
}

/// The TTL machinery enforces G5(1e) without any explicit delete: records
/// past their declared retention vanish (lazily on Redis access paths,
/// via a sweep on PostgreSQL).
#[test]
fn retention_limits_are_enforced() {
    // Redis with a simulated clock.
    let sim = gdprbench_repro::clock::sim();
    let store = gdprbench_repro::kvstore::KvStore::open_with_clock(
        gdprbench_repro::kvstore::KvConfig {
            expiration: gdprbench_repro::kvstore::ExpirationMode::Strict,
            ..Default::default()
        },
        sim.clone(),
    )
    .unwrap();
    let conn = RedisConnector::new(store);
    let mut r = record("k", "neo");
    r.metadata.ttl = Some(Duration::from_secs(30));
    conn.execute(&Session::controller(), &GdprQuery::CreateRecord(r))
        .unwrap();
    sim.advance(Duration::from_secs(31));
    // No cycle has run yet, but lazy expire-on-access already hides it.
    assert!(conn
        .execute(
            &Session::customer("neo"),
            &GdprQuery::ReadMetadataByKey("k".into())
        )
        .is_err());

    // PostgreSQL with a simulated clock and one sweep.
    let sim = gdprbench_repro::clock::sim();
    let db = gdprbench_repro::relstore::Database::open_with_clock(
        gdprbench_repro::relstore::RelConfig::default(),
        sim.clone(),
    )
    .unwrap();
    let conn = PostgresConnector::new(db).unwrap();
    let mut r = record("k", "neo");
    r.metadata.ttl = Some(Duration::from_secs(30));
    conn.execute(&Session::controller(), &GdprQuery::CreateRecord(r))
        .unwrap();
    sim.advance(Duration::from_secs(31));
    assert_eq!(conn.ttl_daemon().sweep_once().unwrap(), 1);
    assert_eq!(conn.record_count(), 0);
}

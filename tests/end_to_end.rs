//! Cross-crate integration: the full personal-data lifecycle through the
//! public API, on every connector variant.

use gdprbench_repro::connectors::registry::{self, Deployed, Deployment, Posture};
use gdprbench_repro::connectors::RedisConnector;
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{
    GdprConnector, GdprError, GdprQuery, GdprResponse, MetadataField, MetadataUpdate, Session,
};
use std::time::Duration;

/// The compliant deployments of each backend family.
fn all_connectors() -> Vec<Deployed> {
    let compliant = Deployment {
        posture: Posture::COMPLIANT,
        ..Deployment::default()
    };
    ["redis", "postgres", "postgres-mi"]
        .into_iter()
        .map(|name| registry::build(name, &compliant).unwrap())
        .collect()
}

fn record(key: &str, user: &str, purposes: &[&str]) -> PersonalRecord {
    PersonalRecord::new(
        key,
        format!("payload-{key}"),
        Metadata::new(
            user,
            purposes.iter().map(|s| s.to_string()).collect(),
            Duration::from_secs(86_400),
        ),
    )
}

/// The complete lifecycle: collect → process → object → rectify → port →
/// share → investigate → erase → verify, on every connector.
#[test]
fn full_personal_data_lifecycle() {
    for conn in all_connectors() {
        let name = conn.name().to_string();
        let controller = Session::controller();
        let neo = Session::customer("neo");
        let regulator = Session::regulator();

        // Collection.
        for (key, purposes) in [("r1", vec!["ads", "billing"]), ("r2", vec!["billing"])] {
            conn.execute(
                &controller,
                &GdprQuery::CreateRecord(record(key, "neo", &purposes)),
            )
            .unwrap();
        }
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(record("r3", "smith", &["ads"])),
        )
        .unwrap();

        // Processing under purpose.
        let ads = Session::processor("ads");
        let visible = conn
            .execute(&ads, &GdprQuery::ReadDataByPurpose("ads".into()))
            .unwrap();
        assert_eq!(visible.cardinality(), 2, "{name}");

        // Objection narrows processing.
        conn.execute(
            &neo,
            &GdprQuery::UpdateMetadataByKey {
                key: "r1".into(),
                update: MetadataUpdate::Add(MetadataField::Objections, "ads".into()),
            },
        )
        .unwrap();
        let visible = conn
            .execute(&ads, &GdprQuery::ReadDataByPurpose("ads".into()))
            .unwrap();
        assert_eq!(visible.cardinality(), 1, "{name}: objection must bite");

        // Rectification.
        conn.execute(
            &neo,
            &GdprQuery::UpdateDataByKey {
                key: "r2".into(),
                data: "corrected".into(),
            },
        )
        .unwrap();

        // Portability: all of neo's data with metadata.
        let data = conn
            .execute(&neo, &GdprQuery::ReadDataByUser("neo".into()))
            .unwrap();
        assert_eq!(data.cardinality(), 2, "{name}");
        assert!(data
            .as_data()
            .unwrap()
            .iter()
            .any(|row| row == ("r2", "corrected")));
        let meta = conn
            .execute(&neo, &GdprQuery::ReadMetadataByUser("neo".into()))
            .unwrap();
        assert_eq!(meta.cardinality(), 2, "{name}");

        // Sharing management + regulator investigation.
        conn.execute(
            &controller,
            &GdprQuery::UpdateMetadataByUser {
                user: "neo".into(),
                update: MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into()),
            },
        )
        .unwrap();
        let shared = conn
            .execute(
                &regulator,
                &GdprQuery::ReadMetadataBySharedWith("x-corp".into()),
            )
            .unwrap();
        assert_eq!(shared.cardinality(), 2, "{name}");

        // Erasure + verification.
        conn.execute(&neo, &GdprQuery::DeleteByUser("neo".into()))
            .unwrap();
        assert_eq!(conn.record_count(), 1, "{name}");
        assert_eq!(
            conn.execute(&regulator, &GdprQuery::VerifyDeletion("r1".into()))
                .unwrap(),
            GdprResponse::DeletionVerified(true),
            "{name}"
        );

        // The audit trail saw the whole story.
        let logs = conn
            .execute(
                &regulator,
                &GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            )
            .unwrap();
        let lines = match logs {
            GdprResponse::Logs(lines) => lines,
            other => panic!("{name}: expected logs, got {other:?}"),
        };
        for op in [
            "create-record",
            "read-data-by-pur",
            "update-metadata-by-key",
            "update-data-by-key",
            "read-data-by-usr",
            "delete-record-by-usr",
            "verify-deletion",
        ] {
            assert!(
                lines.iter().any(|l| l.operation == op),
                "{name}: audit trail missing {op}"
            );
        }
    }
}

/// Role boundaries hold identically everywhere.
#[test]
fn acl_matrix_is_uniform_across_connectors() {
    for conn in all_connectors() {
        let name = conn.name().to_string();
        let controller = Session::controller();
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(record("r1", "neo", &["ads"])),
        )
        .unwrap();

        let denied: Vec<(Session, GdprQuery)> = vec![
            (
                Session::customer("smith"),
                GdprQuery::ReadDataByUser("neo".into()),
            ),
            (
                Session::customer("smith"),
                GdprQuery::DeleteByKey("r1".into()),
            ),
            (
                Session::processor("billing"),
                GdprQuery::ReadDataByKey("r1".into()),
            ),
            (
                Session::processor("ads"),
                GdprQuery::DeleteByKey("r1".into()),
            ),
            (Session::regulator(), GdprQuery::ReadDataByKey("r1".into())),
            (
                Session::controller(),
                GdprQuery::ReadDataByUser("neo".into()),
            ),
        ];
        for (session, query) in denied {
            let result = conn.execute(&session, &query);
            assert!(
                matches!(result, Err(GdprError::AccessDenied { .. })),
                "{name}: {} as {} should be denied, got {result:?}",
                query.name(),
                session.role
            );
        }
        // The record is untouched by all the denied attempts.
        assert_eq!(conn.record_count(), 1, "{name}");
    }
}

/// GET-SYSTEM-FEATURES reflects configuration truthfully.
#[test]
fn feature_reports_match_configuration() {
    // A bare store is not compliant...
    let bare = RedisConnector::new(
        gdprbench_repro::kvstore::KvStore::open(gdprbench_repro::kvstore::KvConfig::default())
            .unwrap(),
    );
    assert!(!bare.features().is_fully_compliant());
    assert!(!bare.features().gaps().is_empty());

    // ...the retrofitted ones are.
    for conn in all_connectors() {
        assert!(
            conn.features().is_fully_compliant(),
            "{}: {:?}",
            conn.name(),
            conn.features()
        );
        let resp = conn
            .execute(&Session::controller(), &GdprQuery::GetSystemFeatures)
            .unwrap();
        assert!(matches!(resp, GdprResponse::Features(f) if f.is_fully_compliant()));
    }
}

/// The "metadata explosion" invariant: for benchmark-shaped records, stored
/// bytes far exceed personal-data bytes on every connector.
#[test]
fn space_overhead_exceeds_one_everywhere() {
    for conn in all_connectors() {
        let controller = Session::controller();
        for i in 0..200 {
            let r = gdprbench_repro::workload::datagen::record_of(
                i,
                &gdprbench_repro::workload::datagen::CorpusConfig::default(),
            );
            conn.execute(&controller, &GdprQuery::CreateRecord(r))
                .unwrap();
        }
        let space = conn.space_report();
        assert!(space.personal_data_bytes >= 200 * 10);
        assert!(space.overhead_factor() > 1.0, "{}: {space:?}", conn.name());
    }
}

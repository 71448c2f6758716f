//! Networked smoke against an *external* `gdpr-serve` process, named by
//! `GDPR_REMOTE_ADDR` (the CI `networked` job builds release, starts the
//! server in the background, and points this test at it). Without the env
//! var the test is a no-op, so plain `cargo test` stays hermetic.
//!
//! Unlike the in-process suites, the server here outlives the test and
//! keeps state between runs — every key is salted with the process id so
//! reruns against a warm server stay correct.

use gdprbench_repro::connectors::GdprClient;
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{GdprError, GdprQuery, GdprResponse, Session};
use std::time::Duration;

fn external_addr() -> Option<String> {
    std::env::var("GDPR_REMOTE_ADDR")
        .ok()
        .filter(|a| !a.is_empty())
}

/// Connect with retries: CI starts the server moments before the test.
fn connect(addr: &str) -> GdprClient {
    let mut last = None;
    for _ in 0..50 {
        match GdprClient::connect(addr) {
            Ok(client) => return client,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
    panic!("cannot reach gdpr-serve at {addr}: {last:?}");
}

#[test]
fn external_server_round_trips_the_full_lifecycle() {
    let Some(addr) = external_addr() else {
        eprintln!("GDPR_REMOTE_ADDR not set; skipping external-server smoke");
        return;
    };
    let client = connect(&addr);

    // Framing liveness.
    assert_eq!(client.ping(b"smoke").unwrap(), b"smoke");
    let name = client.server_name().unwrap();
    assert!(!name.is_empty());

    let salt = std::process::id();
    let user = format!("smoke-user-{salt}");
    let controller = Session::controller();

    // Create → point read → predicate read → erase → verify.
    for i in 0..10 {
        let key = format!("smoke-{salt}-{i}");
        let mut metadata = Metadata::new(
            user.clone(),
            vec!["smoke-test".to_string()],
            Duration::from_secs(3600),
        );
        metadata.sharing.push("smoke-corp".to_string());
        assert_eq!(
            client
                .execute(
                    &controller,
                    &GdprQuery::CreateRecord(PersonalRecord::new(
                        &key,
                        format!("data-{i}"),
                        metadata,
                    )),
                )
                .unwrap(),
            GdprResponse::Created
        );
    }
    let customer = Session::customer(user.clone());
    let resp = client
        .execute(&customer, &GdprQuery::ReadDataByUser(user.clone()))
        .unwrap();
    assert_eq!(resp.cardinality(), 10);

    // Errors roundtrip as GDPR errors.
    assert!(matches!(
        client.execute(
            &customer,
            &GdprQuery::ReadDataByUser("someone-else".to_string())
        ),
        Err(GdprError::AccessDenied { .. })
    ));

    // Pipelined burst stays ordered against a real remote process.
    let reads: Vec<(Session, GdprQuery)> = (0..10)
        .map(|i| {
            (
                Session::processor("smoke-test"),
                GdprQuery::ReadDataByKey(format!("smoke-{salt}-{i}")),
            )
        })
        .collect();
    for (i, result) in client.pipeline(&reads).unwrap().into_iter().enumerate() {
        match result.unwrap() {
            GdprResponse::Data(pairs) => {
                assert_eq!(pairs.iter().next().unwrap().1, format!("data-{i}"))
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    // Right to be forgotten, then the regulator verifies over the wire.
    assert_eq!(
        client
            .execute(&customer, &GdprQuery::DeleteByUser(user.clone()))
            .unwrap(),
        GdprResponse::Deleted(10)
    );
    assert_eq!(
        client
            .execute(
                &Session::regulator(),
                &GdprQuery::VerifyDeletion(format!("smoke-{salt}-0"))
            )
            .unwrap(),
        GdprResponse::DeletionVerified(true)
    );

    // The audit trail recorded this session's operations.
    match client
        .execute(
            &Session::regulator(),
            &GdprQuery::GetSystemLogs {
                from_ms: 0,
                to_ms: u64::MAX,
            },
        )
        .unwrap()
    {
        GdprResponse::Logs(lines) => {
            assert!(lines
                .iter()
                .any(|l| l.operation == "delete-record-by-usr" && l.detail.contains(&user)));
        }
        other => panic!("expected logs, got {other:?}"),
    }

    let stats = client.conn_stats().unwrap();
    assert!(stats.requests > 20);
    assert!(stats.errors >= 1, "the denied read counts as a GDPR error");
}

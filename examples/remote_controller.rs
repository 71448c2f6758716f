//! A controller's erasure workflow over the network: start a `gdpr-server`
//! on a loopback port, drive the whole flow through a `GdprClient`, and
//! prove the audit trail (G30) is identical to the same workflow run
//! against an in-process engine — the wire is transparent to compliance.
//!
//! ```sh
//! cargo run --example remote_controller
//! ```

use gdprbench_repro::connectors::{GdprClient, RedisConnector};
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{EngineHandle, GdprConnector, GdprQuery, GdprResponse, Session};
use gdprbench_repro::gdpr_server::{GdprServer, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// The workflow under comparison: the controller collects records for two
/// subjects, one subject exercises Article 17, the controller completes a
/// purpose (G5.1b group deletion), and the regulator verifies.
fn erasure_workflow(
    execute: &dyn Fn(
        &Session,
        &GdprQuery,
    ) -> Result<GdprResponse, gdprbench_repro::gdpr_core::GdprError>,
) -> Result<gdprbench_repro::gdpr_core::response::LogLines, Box<dyn std::error::Error>> {
    let controller = Session::controller();
    for (key, user, purposes) in [
        ("rec-1", "trinity", vec!["billing", "ads"]),
        ("rec-2", "trinity", vec!["ads"]),
        ("rec-3", "morpheus", vec!["billing"]),
    ] {
        execute(
            &controller,
            &GdprQuery::CreateRecord(PersonalRecord::new(
                key,
                format!("data-of-{user}"),
                Metadata::new(
                    user,
                    purposes.into_iter().map(String::from).collect(),
                    Duration::from_secs(3600),
                ),
            )),
        )?;
    }

    // Article 17: trinity erases everything about her.
    let trinity = Session::customer("trinity");
    let deleted = execute(&trinity, &GdprQuery::DeleteByUser("trinity".into()))?;
    assert_eq!(deleted, GdprResponse::Deleted(2));

    // Purpose completion: billing is done; its group goes too (G5.1b).
    let deleted = execute(&controller, &GdprQuery::DeleteByPurpose("billing".into()))?;
    assert_eq!(deleted, GdprResponse::Deleted(1));

    // The regulator verifies erasure and pulls the audit trail.
    let regulator = Session::regulator();
    for key in ["rec-1", "rec-2", "rec-3"] {
        assert_eq!(
            execute(&regulator, &GdprQuery::VerifyDeletion(key.into()))?,
            GdprResponse::DeletionVerified(true),
            "{key} must be gone"
        );
    }
    match execute(
        &regulator,
        &GdprQuery::GetSystemLogs {
            from_ms: 0,
            to_ms: u64::MAX,
        },
    )? {
        GdprResponse::Logs(lines) => Ok(lines),
        other => Err(format!("expected logs, got {other:?}").into()),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Both engines run on one simulated clock so audit timestamps are
    // comparable: what's under test is the transport, not the wall clock.
    let sim = gdprbench_repro::clock::sim();
    let open = || {
        gdprbench_repro::kvstore::KvStore::open_with_clock(
            gdprbench_repro::kvstore::KvConfig::default(),
            sim.clone(),
        )
        .map(|store| RedisConnector::with_metadata_index(store).unwrap())
    };

    // ---------- the networked run ----------
    let served: EngineHandle = Arc::new(open()?);
    let server = GdprServer::bind(served, "127.0.0.1:0", ServerConfig::default())?;
    println!("[server] gdpr-server listening on {}", server.local_addr());
    let client = GdprClient::connect(&server.local_addr().to_string())?;
    println!(
        "[client] connected; server names the engine {:?}",
        client.server_name()?
    );
    let remote_logs = erasure_workflow(&|session, query| client.execute(session, query))?;
    println!(
        "[client] erasure workflow done over TCP: {} audit events, {} records left",
        remote_logs.len(),
        client.record_count()?
    );
    let stats = client.conn_stats()?;
    println!(
        "[client] connection stats: {} requests, {} GDPR errors, {}B in, {}B out",
        stats.requests, stats.errors, stats.bytes_in, stats.bytes_out
    );

    // ---------- the in-process control run ----------
    let local = open()?;
    let local_logs = erasure_workflow(&|session, query| local.execute(session, query))?;

    // The wire must leave no trace in the compliance record: same events,
    // same order, same outcomes, same cardinalities.
    assert_eq!(
        remote_logs, local_logs,
        "the audit trail over TCP must match the in-process run"
    );
    println!(
        "[verify] audit trails match line-for-line ({} events) — the network layer is \
         compliance-transparent",
        local_logs.len()
    );

    server.shutdown();
    println!("[server] graceful shutdown complete");
    Ok(())
}

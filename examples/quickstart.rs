//! Quickstart: open a GDPR-compliant store, write a personal-data record,
//! and act on it as each of the four GDPR roles.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gdprbench_repro::connectors::RedisConnector;
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, Session};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fully compliant in-memory store: strict timely deletion, audit
    // logging of every operation (reads included), encryption at rest and
    // in transit.
    let store = RedisConnector::open_compliant()?;

    // --- Controller: collect a record, with the seven GDPR metadata
    //     attributes the paper calls "metadata explosion". ---
    let controller = Session::controller();
    let record = PersonalRecord::new(
        "ph-1x4b",
        "123-456-7890",
        Metadata::new(
            "neo",
            vec!["ads".into(), "2fa".into()],
            Duration::from_secs(365 * 24 * 3600), // TTL=365days
        ),
    );
    store.execute(&controller, &GdprQuery::CreateRecord(record))?;
    println!("controller: created ph-1x4b for user neo (purposes: ads, 2fa)");

    // --- Processor: read the data under a declared purpose (G28). ---
    let processor = Session::processor("ads");
    let response = store.execute(&processor, &GdprQuery::ReadDataByPurpose("ads".into()))?;
    println!("processor(ads): sees {} record(s)", response.cardinality());

    // --- Customer: object to 'ads' (G21) — the processor loses access. ---
    let neo = Session::customer("neo");
    store.execute(
        &neo,
        &GdprQuery::UpdateMetadataByKey {
            key: "ph-1x4b".into(),
            update: gdprbench_repro::gdpr_core::MetadataUpdate::Add(
                gdprbench_repro::gdpr_core::MetadataField::Objections,
                "ads".into(),
            ),
        },
    )?;
    let response = store.execute(&processor, &GdprQuery::ReadDataByPurpose("ads".into()))?;
    println!(
        "processor(ads) after neo's objection: sees {} record(s)",
        response.cardinality()
    );

    // --- Customer: the right to be forgotten (G17). ---
    store.execute(&neo, &GdprQuery::DeleteByUser("neo".into()))?;
    println!("customer neo: requested erasure of all records");

    // --- Regulator: verify the deletion really happened, then pull the
    //     audit trail (G30/G33). ---
    let regulator = Session::regulator();
    let verified = store.execute(&regulator, &GdprQuery::VerifyDeletion("ph-1x4b".into()))?;
    println!("regulator: deletion verified -> {verified:?}");
    let logs = store.execute(
        &regulator,
        &GdprQuery::GetSystemLogs {
            from_ms: 0,
            to_ms: u64::MAX,
        },
    )?;
    println!(
        "regulator: audit trail holds {} entries:",
        logs.cardinality()
    );
    if let gdprbench_repro::gdpr_core::GdprResponse::Logs(lines) = &logs {
        for line in lines.iter() {
            println!(
                "  [{:>6}ms] {:<22} {:<24} {}",
                line.timestamp_ms, line.actor, line.operation, line.detail
            );
        }
    }

    // --- And the capability report the store would hand an auditor. ---
    let features = store.features();
    println!(
        "feature report: fully compliant = {} ({:?} gaps)",
        features.is_fully_compliant(),
        features.gaps()
    );
    Ok(())
}

//! A regulator's investigation (the paper's Regulator workload, §4.2.2),
//! modelled on the EDPB's first-year statistics: a customer complaint, a
//! metadata audit, a deletion check, and a system-log pull — against a
//! store that has real activity on it.
//!
//! ```sh
//! cargo run --example regulator_investigation
//! ```

use gdprbench_repro::connectors::registry::{self, Posture};
use gdprbench_repro::connectors::PostgresConnector;
use gdprbench_repro::gdpr_core::{
    GdprConnector, GdprQuery, GdprResponse, MetadataField, MetadataUpdate, Session,
};
use gdprbench_repro::workload::datagen::{record_of, CorpusConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A metadata-indexed compliant store with a realistic corpus on it.
    let db = gdprbench_repro::relstore::Database::open(registry::rel_config(Posture::COMPLIANT))?;
    let store = PostgresConnector::with_metadata_indices(std::sync::Arc::clone(&db))?;
    let corpus = CorpusConfig {
        records: 500,
        users: 40,
        ..Default::default()
    };
    let controller = Session::controller();
    for i in 0..corpus.records {
        store.execute(&controller, &GdprQuery::CreateRecord(record_of(i, &corpus)))?;
    }

    // Generate some activity worth investigating: a processor reads under a
    // purpose, the controller shares a user's records with a third party.
    let complainant = record_of(7, &corpus).metadata.user;
    let processor = Session::processor("ads");
    store.execute(&processor, &GdprQuery::ReadDataByPurpose("ads".into()))?;
    store.execute(
        &controller,
        &GdprQuery::UpdateMetadataByUser {
            user: complainant.clone(),
            update: MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into()),
        },
    )?;

    let regulator = Session::regulator();
    println!("--- investigating complaint by {complainant} ---\n");

    // 1. What does the controller hold on the complainant, and under what
    //    terms? (read-metadata-by-usr: 46% of the regulator workload)
    let response = store.execute(
        &regulator,
        &GdprQuery::ReadMetadataByUser(complainant.clone()),
    )?;
    if let GdprResponse::Metadata(items) = &response {
        println!("records concerning {complainant}: {}", items.len());
        // The rows are lent from the response: the lists iterate their
        // items, no `Metadata` is built.
        for row in items.iter().take(3) {
            let purposes: Vec<&str> = row.purposes().collect();
            let shared_with: Vec<&str> = row.sharing().collect();
            println!(
                "  {}: purposes={purposes:?} ttl={:?} shared-with={shared_with:?} source={}",
                row.key(),
                row.ttl(),
                row.source()
            );
        }
        if items.len() > 3 {
            println!("  ... and {} more", items.len() - 3);
        }
    }

    // 2. Which of the complainant's records were shared with x-corp?
    //    (third-party sharing investigation, G13.1)
    let response = store.execute(
        &regulator,
        &GdprQuery::ReadMetadataBySharedWith("x-corp".into()),
    )?;
    println!("\nrecords shared with x-corp: {}", response.cardinality());

    // 3. Did a previously requested erasure actually happen? (verify-deletion:
    //    23% of the regulator workload)
    let customer = Session::customer(complainant.clone());
    let key = record_of(7, &corpus).key;
    store.execute(&customer, &GdprQuery::DeleteByKey(key.clone()))?;
    let verdict = store.execute(&regulator, &GdprQuery::VerifyDeletion(key.clone()))?;
    println!("\nverify-deletion of {key}: {verdict:?}");

    // 4. Pull the system logs for the investigation window (get-system-logs:
    //    31% of the regulator workload). Regulators see metadata and logs,
    //    never personal data.
    let logs = store.execute(
        &regulator,
        &GdprQuery::GetSystemLogs {
            from_ms: 0,
            to_ms: u64::MAX,
        },
    )?;
    println!("\nsystem log entries in window: {}", logs.cardinality());
    if let GdprResponse::Logs(lines) = &logs {
        for line in lines.iter().rev().take(5) {
            println!("  {} {} {}", line.actor, line.operation, line.detail);
        }
    }
    let data_attempt = store.execute(&regulator, &GdprQuery::ReadDataByUser(complainant));
    println!("\nregulator tries to read raw personal data -> {data_attempt:?}");

    // What the metadata indices bought: how the planner answered all of it.
    let plans = db.table("personal_data")?.read().plan_stats();
    println!(
        "\nplanner: {} index scans, {} sequential scans",
        plans.index_scans, plans.seq_scans
    );
    Ok(())
}

//! Breach notification under GDPR Articles 33/34: within 72 hours of
//! discovery, a controller must report the approximate number of data
//! subjects and records affected. The paper identifies this as the reason
//! compliant stores audit every access — which is why this report can be
//! computed from the audit trail alone.
//!
//! Scenario: a processor credential is compromised between two points in
//! time; the controller replays the audit window to identify what the
//! attacker could have touched.
//!
//! ```sh
//! cargo run --example breach_notification
//! ```

use gdprbench_repro::clock::Clock;
use gdprbench_repro::connectors::RedisConnector;
use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, Session};
use gdprbench_repro::workload::datagen::{record_of, CorpusConfig};
use std::collections::HashSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = gdprbench_repro::clock::sim();
    let store = gdprbench_repro::kvstore::KvStore::open_with_clock(
        gdprbench_repro::kvstore::KvConfig::default(),
        sim.clone(),
    )?;
    let conn = RedisConnector::new(store);

    let corpus = CorpusConfig {
        records: 200,
        users: 25,
        ..Default::default()
    };
    let controller = Session::controller();
    for i in 0..corpus.records {
        conn.execute(&controller, &GdprQuery::CreateRecord(record_of(i, &corpus)))?;
    }

    // Normal traffic before the breach.
    sim.advance(std::time::Duration::from_secs(60));
    let legit = Session::processor("billing");
    conn.execute(&legit, &GdprQuery::ReadDataByPurpose("billing".into()))?;

    // ---- the breach window opens ----
    sim.advance(std::time::Duration::from_secs(60));
    let window_start = sim.now().as_millis();
    let attacker = Session::processor("ads"); // stolen processor credential
    let mut touched_keys: HashSet<String> = HashSet::new();
    for query in [
        GdprQuery::ReadDataByPurpose("ads".into()),
        GdprQuery::ReadDataNotObjecting("ads".into()),
    ] {
        if let Ok(resp) = conn.execute(&attacker, &query) {
            if let Some(data) = resp.as_data() {
                touched_keys.extend(data.iter().map(|(k, _)| k.clone()));
            }
        }
    }
    // The attacker also probes records it has no purpose for — denied, but
    // the denials are audited too.
    let _ = conn.execute(
        &attacker,
        &GdprQuery::ReadMetadataByUser("user000001".into()),
    );
    sim.advance(std::time::Duration::from_secs(60));
    let window_end = sim.now().as_millis();
    // ---- the breach window closes ----

    // The controller reconstructs the blast radius from the audit trail
    // (G33.3a: "approximate number of customers and personal data records
    // affected").
    let logs = conn.execute(
        &controller,
        &GdprQuery::GetSystemLogs {
            from_ms: window_start,
            to_ms: window_end,
        },
    )?;
    let lines = match &logs {
        gdprbench_repro::gdpr_core::GdprResponse::Logs(lines) => lines.clone(),
        _ => unreachable!(),
    };
    println!("audit entries in breach window: {}", lines.len());
    for line in lines.iter() {
        println!("  {} {} {}", line.actor, line.operation, line.detail);
    }

    // Affected subjects: owners of every record the compromised session
    // could read. (We recompute ownership from the corpus; a production
    // controller would join the audit trail against the record store.)
    let affected_users: HashSet<String> = (0..corpus.records)
        .map(|i| record_of(i, &corpus))
        .filter(|r| touched_keys.contains(&r.key))
        .map(|r| r.metadata.user)
        .collect();
    println!("\n=== Article 33 notification draft ===");
    println!("breach window   : {window_start}ms - {window_end}ms");
    println!("records affected: {}", touched_keys.len());
    println!("subjects affected: {}", affected_users.len());
    println!("(report due within 72 hours of discovery)");
    Ok(())
}

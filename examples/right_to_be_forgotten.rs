//! The right to be forgotten (GDPR Article 17), end to end, on both stores —
//! including the part the paper stresses: *timeliness*.
//!
//! A customer's records must actually disappear, promptly, and a regulator
//! must be able to confirm it. On Redis-shaped stores this involves the
//! expiration machinery (Figure 3a's subject); on PostgreSQL-shaped ones,
//! the TTL sweep daemon. This example runs the flow against a simulated
//! clock so TTL expiry is also demonstrated without waiting.
//!
//! ```sh
//! cargo run --example right_to_be_forgotten
//! ```

use gdprbench_repro::connectors::{PostgresConnector, RedisConnector};
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, GdprResponse, Session};
use std::sync::Arc;
use std::time::Duration;

fn seed(conn: &dyn GdprConnector) -> Result<(), Box<dyn std::error::Error>> {
    let controller = Session::controller();
    for (key, user, ttl_secs) in [
        ("ph-001", "trinity", 3600u64),
        ("ph-002", "trinity", 60), // expires soon
        ("ph-003", "morpheus", 3600),
    ] {
        let record = PersonalRecord::new(
            key,
            format!("data-of-{user}"),
            Metadata::new(user, vec!["billing".into()], Duration::from_secs(ttl_secs)),
        );
        conn.execute(&controller, &GdprQuery::CreateRecord(record))?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = gdprbench_repro::clock::sim();

    // ---------- Redis-shaped store ----------
    let store = gdprbench_repro::kvstore::KvStore::open_with_clock(
        gdprbench_repro::kvstore::KvConfig {
            expiration: gdprbench_repro::kvstore::ExpirationMode::Strict,
            ..Default::default()
        },
        sim.clone(),
    )?;
    let redis = RedisConnector::new(store);
    seed(&redis)?;
    println!("[redis] loaded {} records", redis.record_count());

    // Explicit erasure request by the data subject.
    let trinity = Session::customer("trinity");
    let deleted = redis.execute(&trinity, &GdprQuery::DeleteByKey("ph-001".into()))?;
    println!(
        "[redis] trinity erased ph-001 -> {deleted:?} (synchronous, per strict interpretation)"
    );

    // TTL-driven erasure: advance past ph-002's 60s TTL; one strict
    // expiration cycle reaps it.
    sim.advance(Duration::from_secs(61));
    let reaped = redis.store().run_expiration_cycle().reaped;
    println!("[redis] after 61s, strict expiration cycle reaped {reaped} record(s)");

    // The regulator confirms both are gone and morpheus' record is not.
    let regulator = Session::regulator();
    for key in ["ph-001", "ph-002", "ph-003"] {
        let verdict = redis.execute(&regulator, &GdprQuery::VerifyDeletion(key.into()))?;
        println!("[redis] verify-deletion {key}: {verdict:?}");
    }

    // ---------- PostgreSQL-shaped store ----------
    let sim = gdprbench_repro::clock::sim();
    let config = gdprbench_repro::relstore::RelConfig {
        wal: gdprbench_repro::relstore::Storage::Memory,
        ..Default::default()
    };
    let db = gdprbench_repro::relstore::Database::open_with_clock(config.clone(), sim.clone())?;
    let pg = Arc::new(PostgresConnector::new(Arc::clone(&db))?);
    seed(pg.as_ref())?;
    println!("[postgres] loaded {} records", pg.record_count());

    let deleted = pg.execute(&trinity, &GdprQuery::DeleteByUser("trinity".into()))?;
    if let GdprResponse::Deleted(n) = deleted {
        println!("[postgres] trinity erased all her records -> {n} deleted");
    }

    // The 1-second sweep daemon handles TTL expiry; we drive one sweep
    // against the simulated clock.
    sim.advance(Duration::from_secs(3601));
    let swept = pg.ttl_daemon().sweep_once()?;
    println!("[postgres] TTL sweep after expiry reaped {swept} record(s)");
    println!("[postgres] record count now {}", pg.record_count());

    // An erasure has to survive a crash: rebuild from the write-ahead log.
    let wal = db.wal_memory_buffer().expect("memory WAL").lock().clone();
    let recovered = gdprbench_repro::relstore::Database::recover(config, &wal, sim)?;
    let rows = recovered.table("personal_data")?.read().row_count();
    println!(
        "[postgres] rebuilt from the WAL after a crash: {rows} record(s) — the erasures replay too"
    );
    Ok(())
}

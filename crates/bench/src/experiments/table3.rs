//! Table 3: storage space overhead — the measurable face of metadata
//! explosion.
//!
//! The paper loads 10 MB of raw personal data (10-byte payloads with ~25
//! bytes of metadata attributes each) and reports total-store-size ÷
//! personal-data-size: 3.5× for both stores in default configuration,
//! rising to 5.95× once PostgreSQL indexes every metadata column.

use crate::report::ExperimentTable;
use connectors::registry::{self, ScratchDir};
use workload::gdpr::{load_corpus, stable_corpus};

/// One measured row.
#[derive(Debug, Clone)]
pub struct SpaceRow {
    pub connector: String,
    pub personal_mb: f64,
    pub total_mb: f64,
    pub factor: f64,
}

/// Load `records` personal records into each connector variant and report
/// space factors.
pub fn run(records: usize) -> (ExperimentTable, Vec<SpaceRow>) {
    let mut table = ExperimentTable::new(
        format!("Table 3 — storage space overhead ({records} records, 10 B personal data each)"),
        &["connector", "personal data", "total DB", "space factor"],
    );
    let mut rows = Vec::new();
    for db in ["redis", "postgres", "postgres-mi"] {
        let scratch = ScratchDir::new("table3");
        let handle = registry::build(db, &super::compliant_in(&scratch)).expect("open");
        let corpus = stable_corpus(records);
        load_corpus(handle.as_ref(), &corpus).expect("load");
        let space = handle.space_report();
        let personal_mb = space.personal_data_bytes as f64 / 1e6;
        let total_mb = space.total_bytes as f64 / 1e6;
        let factor = space.overhead_factor();
        table.push_row(vec![
            db.to_string(),
            format!("{personal_mb:.2} MB"),
            format!("{total_mb:.2} MB"),
            format!("{factor:.2}x"),
        ]);
        rows.push(SpaceRow {
            connector: db.to_string(),
            personal_mb,
            total_mb,
            factor,
        });
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_explosion_and_index_cost() {
        let (_, rows) = run(2000);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.factor > 1.5,
                "{}: space factor must reflect metadata explosion, got {:.2}",
                row.connector,
                row.factor
            );
        }
        let pg = rows.iter().find(|r| r.connector == "postgres").unwrap();
        let pg_mi = rows.iter().find(|r| r.connector == "postgres-mi").unwrap();
        assert!(
            pg_mi.factor > pg.factor * 1.2,
            "metadata indices must add space: {:.2} -> {:.2}",
            pg.factor,
            pg_mi.factor
        );
        assert!(
            (pg.personal_mb - pg_mi.personal_mb).abs() < 1e-6,
            "personal data is identical across variants"
        );
    }
}

//! Table 1: the GDPR article → database attribute/action map, plus a live
//! compliance assessment of both connectors against it.

use crate::report::ExperimentTable;
use connectors::registry::{self, ScratchDir};
use gdpr_core::articles::{articles_satisfied_by, ARTICLE_MAP};
use gdpr_core::GdprConnector;

/// Render the article map (the paper's Table 1).
pub fn article_map_table() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Table 1 — GDPR articles mapped to database attributes and actions",
        &["article", "clause", "attributes", "actions"],
    );
    for req in ARTICLE_MAP {
        let mut attrs: Vec<&str> = req.attributes.iter().map(|a| a.name()).collect();
        if req.involves_ttl {
            attrs.push("TTL");
        }
        let actions: Vec<String> = req
            .actions
            .iter()
            .map(|a| a.feature().name().to_string())
            .collect();
        table.push_row(vec![
            format!("G{}", req.article),
            req.clause.to_string(),
            if attrs.is_empty() {
                "—".into()
            } else {
                attrs.join(", ")
            },
            actions.join(", "),
        ]);
    }
    table
}

/// Assess the compliant connectors against the article map.
pub fn compliance_table() -> ExperimentTable {
    let scratch = ScratchDir::new("table1");
    let compliant = super::compliant_in(&scratch);
    let redis = registry::build("redis", &compliant).expect("open");
    let pg = registry::build("postgres-mi", &compliant).expect("open");

    let mut table = ExperimentTable::new(
        "Compliance coverage (articles satisfied out of Table 1's 12 rows)",
        &["connector", "satisfied", "gaps"],
    );
    for (name, report) in [
        ("redis (compliant)", redis.features()),
        ("postgres-mi (compliant)", pg.features()),
    ] {
        let satisfied = articles_satisfied_by(&report);
        let gaps: Vec<String> = report.gaps().iter().map(|g| g.name().to_string()).collect();
        table.push_row(vec![
            name.to_string(),
            format!("{}/12", satisfied.len()),
            if gaps.is_empty() {
                "none".into()
            } else {
                gaps.join(", ")
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn article_table_has_twelve_rows() {
        let t = article_map_table();
        assert_eq!(t.rows.len(), 12);
        assert_eq!(t.cell(0, "article"), Some("G5"));
        assert!(t.cell(1, "actions").unwrap().contains("timely-deletion"));
    }

    #[test]
    fn compliant_connectors_cover_all_articles() {
        let t = compliance_table();
        for row in 0..t.rows.len() {
            assert_eq!(t.cell(row, "satisfied"), Some("12/12"), "row {row}: {t:?}");
        }
    }
}

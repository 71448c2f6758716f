//! Access control: which role may issue which query over whose records —
//! the matrix drawn in Figure 1 of the paper, enforced.
//!
//! Two layers cooperate:
//!
//! 1. [`authorize`] — a static check of (role, query-class, query scope)
//!    before execution. Customers may only target their own user id;
//!    processors may only read under their session's purpose.
//! 2. [`record_visible`] — a per-record check applied by connectors after
//!    lookup, covering the cases a static check cannot (a customer asking
//!    for a *key* that belongs to someone else; a processor touching a
//!    record whose purposes or objections exclude its processing purpose,
//!    G28(3c)/G21).

use crate::error::{GdprError, GdprResult};
use crate::query::GdprQuery;
use crate::role::{Role, Session};
use crate::wire::RecordView;

/// The outcome of a successful static authorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclDecision {
    /// The connector must additionally verify per-record ownership or
    /// purpose via [`record_visible`] before acting.
    pub requires_record_check: bool,
}

fn deny(session: &Session, query: &GdprQuery, reason: &str) -> GdprError {
    GdprError::AccessDenied {
        role: session.role.name().to_string(),
        query: query.name().to_string(),
        reason: reason.to_string(),
    }
}

/// Statically authorize `query` under `session`.
pub fn authorize(session: &Session, query: &GdprQuery) -> GdprResult<AclDecision> {
    use GdprQuery::*;
    let ok = AclDecision {
        requires_record_check: false,
    };
    let ok_checked = AclDecision {
        requires_record_check: true,
    };

    match session.role {
        // The controller administers the store: collection, deletion, and
        // metadata management (Figure 1's create/delete/update arrow), plus
        // metadata reads and log access for breach notification (G33).
        Role::Controller => match query {
            CreateRecord(_)
            | DeleteByKey(_)
            | DeleteByPurpose(_)
            | DeleteExpired
            | DeleteByUser(_)
            | UpdateDataByKey { .. }
            | UpdateMetadataByKey { .. }
            | UpdateMetadataByPurpose { .. }
            | UpdateMetadataByUser { .. }
            | ReadMetadataByKey(_)
            | ReadMetadataByUser(_)
            | ReadMetadataBySharedWith(_)
            | GetSystemLogs { .. }
            | GetSystemFeatures
            | VerifyDeletion(_) => Ok(ok),
            ReadDataByKey(_)
            | ReadDataByPurpose(_)
            | ReadDataByUser(_)
            | ReadDataNotObjecting(_)
            | ReadDataDecisionEligible => Err(deny(
                session,
                query,
                "controllers manage personal data but processing reads require a processor purpose (G28)",
            )),
        },

        // Customers exercise rights over their own records only (G15-G22).
        Role::Customer => {
            let me = session
                .user
                .as_deref()
                .ok_or_else(|| deny(session, query, "customer session lacks a user id"))?;
            let scoped_to_me = |target: &str, q: &GdprQuery| -> GdprResult<AclDecision> {
                if target == me {
                    Ok(ok)
                } else {
                    Err(deny(session, q, "customers may only target their own records"))
                }
            };
            match query {
                ReadDataByUser(u) | ReadMetadataByUser(u) | DeleteByUser(u) => {
                    scoped_to_me(u, query)
                }
                UpdateMetadataByUser { user, .. } => scoped_to_me(user, query),
                // Key-scoped rights: ownership is checked per record.
                ReadMetadataByKey(_)
                | UpdateDataByKey { .. }
                | UpdateMetadataByKey { .. }
                | DeleteByKey(_) => Ok(ok_checked),
                GetSystemFeatures => Ok(ok),
                _ => Err(deny(session, query, "not a customer right")),
            }
        }

        // Processors read personal data under a declared purpose (G28), and
        // may register automated-decision use (G22.3).
        Role::Processor => {
            let purpose = session
                .purpose
                .as_deref()
                .ok_or_else(|| deny(session, query, "processor session lacks a purpose"))?;
            match query {
                ReadDataByKey(_) => Ok(ok_checked),
                ReadDataByPurpose(p) => {
                    if p == purpose {
                        Ok(ok)
                    } else {
                        Err(deny(
                            session,
                            query,
                            "processors may only read under their session purpose (G28.3c)",
                        ))
                    }
                }
                ReadDataNotObjecting(_) | ReadDataDecisionEligible => Ok(ok),
                UpdateMetadataByKey { update, .. } => {
                    // Only registering an automated decision is permitted.
                    use crate::query::{MetadataField, MetadataUpdate};
                    match update {
                        MetadataUpdate::Add(MetadataField::Decisions, _) => Ok(ok_checked),
                        _ => Err(deny(
                            session,
                            query,
                            "processors may only register automated-decision use (G22.3)",
                        )),
                    }
                }
                GetSystemFeatures => Ok(ok),
                _ => Err(deny(session, query, "processors only read personal data")),
            }
        }

        // Regulators see metadata and logs — never personal data (§4.2.2).
        Role::Regulator => match query {
            ReadMetadataByKey(_)
            | ReadMetadataByUser(_)
            | ReadMetadataBySharedWith(_)
            | GetSystemLogs { .. }
            | GetSystemFeatures
            | VerifyDeletion(_) => Ok(ok),
            _ => Err(deny(
                session,
                query,
                "regulators access GDPR metadata and logs only",
            )),
        },
    }
}

/// Per-record visibility: may `session` act on `record`? One rule over the
/// borrowed shape — a parsed record is checked through
/// [`crate::record::PersonalRecord::view`].
pub fn record_visible(session: &Session, record: &RecordView<'_>) -> bool {
    match session.role {
        Role::Controller | Role::Regulator => true,
        Role::Customer => session
            .user
            .as_deref()
            .is_some_and(|user| record.user == user),
        Role::Processor => session
            .purpose
            .as_deref()
            .is_some_and(|p| record.purposes.contains(p) && !record.objections.contains(p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{MetadataField, MetadataUpdate};
    use crate::record::{Metadata, PersonalRecord};
    use std::time::Duration;

    fn record_for(user: &str, purposes: &[&str]) -> PersonalRecord {
        PersonalRecord::new(
            "k1",
            "data",
            Metadata::new(
                user,
                purposes.iter().map(|s| s.to_string()).collect(),
                Duration::from_secs(60),
            ),
        )
    }

    #[test]
    fn controller_manages_but_does_not_process() {
        let s = Session::controller();
        assert!(authorize(&s, &GdprQuery::CreateRecord(record_for("u", &[]))).is_ok());
        assert!(authorize(&s, &GdprQuery::DeleteExpired).is_ok());
        assert!(authorize(
            &s,
            &GdprQuery::UpdateMetadataByUser {
                user: "u".into(),
                update: MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into()),
            }
        )
        .is_ok());
        assert!(authorize(&s, &GdprQuery::ReadDataByKey("k".into())).is_err());
        assert!(authorize(&s, &GdprQuery::ReadDataByPurpose("ads".into())).is_err());
    }

    #[test]
    fn customer_scoped_to_self() {
        let s = Session::customer("neo");
        assert!(authorize(&s, &GdprQuery::ReadDataByUser("neo".into())).is_ok());
        assert!(authorize(&s, &GdprQuery::ReadDataByUser("smith".into())).is_err());
        assert!(authorize(&s, &GdprQuery::DeleteByUser("neo".into())).is_ok());
        assert!(authorize(&s, &GdprQuery::DeleteByUser("smith".into())).is_err());
        // Key-scoped rights need the record check.
        let d = authorize(&s, &GdprQuery::DeleteByKey("k1".into())).unwrap();
        assert!(d.requires_record_check);
        // Customers cannot run processor/controller queries.
        assert!(authorize(&s, &GdprQuery::CreateRecord(record_for("neo", &[]))).is_err());
        assert!(authorize(&s, &GdprQuery::ReadDataByPurpose("ads".into())).is_err());
        assert!(authorize(
            &s,
            &GdprQuery::GetSystemLogs {
                from_ms: 0,
                to_ms: 1
            }
        )
        .is_err());
    }

    #[test]
    fn processor_purpose_scoping() {
        let s = Session::processor("ads");
        assert!(authorize(&s, &GdprQuery::ReadDataByPurpose("ads".into())).is_ok());
        assert!(authorize(&s, &GdprQuery::ReadDataByPurpose("sales".into())).is_err());
        assert!(authorize(&s, &GdprQuery::ReadDataDecisionEligible).is_ok());
        assert!(authorize(&s, &GdprQuery::DeleteByKey("k".into())).is_err());
        assert!(authorize(&s, &GdprQuery::ReadMetadataByUser("u".into())).is_err());
        // DEC registration is the one permitted write.
        assert!(authorize(
            &s,
            &GdprQuery::UpdateMetadataByKey {
                key: "k".into(),
                update: MetadataUpdate::Add(MetadataField::Decisions, "scoring".into()),
            }
        )
        .is_ok());
        assert!(authorize(
            &s,
            &GdprQuery::UpdateMetadataByKey {
                key: "k".into(),
                update: MetadataUpdate::Add(MetadataField::Purposes, "sales".into()),
            }
        )
        .is_err());
    }

    #[test]
    fn regulator_sees_metadata_not_data() {
        let s = Session::regulator();
        assert!(authorize(&s, &GdprQuery::ReadMetadataByUser("u".into())).is_ok());
        assert!(authorize(
            &s,
            &GdprQuery::GetSystemLogs {
                from_ms: 0,
                to_ms: 9
            }
        )
        .is_ok());
        assert!(authorize(&s, &GdprQuery::VerifyDeletion("k".into())).is_ok());
        assert!(authorize(&s, &GdprQuery::ReadDataByUser("u".into())).is_err());
        assert!(authorize(&s, &GdprQuery::DeleteByKey("k".into())).is_err());
    }

    #[test]
    fn sessions_missing_identity_are_rejected() {
        let bad_customer = Session {
            role: Role::Customer,
            user: None,
            purpose: None,
            tenant: Default::default(),
        };
        assert!(authorize(&bad_customer, &GdprQuery::ReadDataByUser("u".into())).is_err());
        let bad_processor = Session {
            role: Role::Processor,
            user: None,
            purpose: None,
            tenant: Default::default(),
        };
        assert!(authorize(&bad_processor, &GdprQuery::ReadDataByKey("k".into())).is_err());
    }

    #[test]
    fn record_visibility() {
        let record = record_for("neo", &["ads"]);
        let record = record.view();
        assert!(record_visible(&Session::controller(), &record));
        assert!(record_visible(&Session::regulator(), &record));
        assert!(record_visible(&Session::customer("neo"), &record));
        assert!(!record_visible(&Session::customer("smith"), &record));
        assert!(record_visible(&Session::processor("ads"), &record));
        assert!(!record_visible(&Session::processor("sales"), &record));
    }

    #[test]
    fn objection_blocks_processor_visibility() {
        let mut record = record_for("neo", &["ads"]);
        record.metadata.objections.push("ads".into());
        assert!(!record_visible(&Session::processor("ads"), &record.view()));
    }
}

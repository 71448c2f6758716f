//! The correctness oracle (§4.2.3): a shadow model of the personal-data
//! store that computes the response every GDPR query *should* produce.
//!
//! The benchmark's correctness metric is the percentage of responses that
//! match the oracle's. The oracle is an independent, trivially-auditable
//! implementation over a hash map — it shares the ACL and metadata
//! semantics with `gdpr_core` but none of the storage machinery of the
//! connectors under test.

use gdpr_core::acl::{authorize, record_visible};
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::query::{GdprQuery, MetadataUpdate};
use gdpr_core::record::PersonalRecord;
use gdpr_core::response::{GdprResponse, MetadataRow};
use gdpr_core::role::Session;
use std::collections::BTreeMap;

/// The shadow model.
#[derive(Default)]
pub struct Oracle {
    records: BTreeMap<String, PersonalRecord>,
}

impl Oracle {
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Load the oracle with the same corpus the store was loaded with.
    pub fn load(&mut self, records: impl IntoIterator<Item = PersonalRecord>) {
        for r in records {
            self.records.insert(r.key.clone(), r);
        }
    }

    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Apply a query to the model, returning the expected response.
    pub fn apply(&mut self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        use GdprQuery::*;
        let decision = authorize(session, query)?;
        let visible = |r: &PersonalRecord| -> bool {
            !decision.requires_record_check || record_visible(session, &r.view())
        };
        let denied = |r: &PersonalRecord, q: &GdprQuery| -> GdprError {
            let _ = r;
            GdprError::AccessDenied {
                role: session.role.name().to_string(),
                query: q.name().to_string(),
                reason: "record not visible to this session".to_string(),
            }
        };

        Ok(match query {
            CreateRecord(record) => {
                if self.records.contains_key(&record.key) {
                    return Err(GdprError::AlreadyExists(record.key.clone()));
                }
                self.records.insert(record.key.clone(), record.clone());
                GdprResponse::Created
            }
            DeleteByKey(key) => {
                let record = self
                    .records
                    .get(key)
                    .ok_or_else(|| GdprError::NotFound(key.clone()))?;
                if !visible(record) {
                    return Err(denied(record, query));
                }
                self.records.remove(key);
                GdprResponse::Deleted(1)
            }
            DeleteByPurpose(purpose) => {
                let before = self.records.len();
                self.records
                    .retain(|_, r| !r.metadata.purposes.iter().any(|p| p == purpose));
                GdprResponse::Deleted(before - self.records.len())
            }
            DeleteExpired => {
                // Expiry timing belongs to the store's clock domain; the
                // model does not track it. The comparator treats any count
                // as matching (see `responses_match`).
                GdprResponse::Deleted(0)
            }
            DeleteByUser(user) => {
                let before = self.records.len();
                self.records.retain(|_, r| r.metadata.user != *user);
                GdprResponse::Deleted(before - self.records.len())
            }
            ReadDataByKey(key) => {
                let record = self
                    .records
                    .get(key)
                    .ok_or_else(|| GdprError::NotFound(key.clone()))?;
                if !visible(record) {
                    return Err(denied(record, query));
                }
                GdprResponse::Data([(&record.key, &record.data)].into_iter().collect())
            }
            ReadDataByPurpose(purpose) => GdprResponse::Data(
                self.records
                    .values()
                    .filter(|r| r.metadata.allows_purpose(purpose))
                    .map(|r| (&r.key, &r.data))
                    .collect(),
            ),
            ReadDataByUser(user) => GdprResponse::Data(
                self.records
                    .values()
                    .filter(|r| r.metadata.user == *user)
                    .map(|r| (&r.key, &r.data))
                    .collect(),
            ),
            ReadDataNotObjecting(usage) => GdprResponse::Data(
                self.records
                    .values()
                    .filter(|r| !r.metadata.objections.iter().any(|o| o == usage))
                    .map(|r| (&r.key, &r.data))
                    .collect(),
            ),
            ReadDataDecisionEligible => GdprResponse::Data(
                self.records
                    .values()
                    .filter(|r| r.metadata.allows_automated_decisions())
                    .map(|r| (&r.key, &r.data))
                    .collect(),
            ),
            ReadMetadataByKey(key) => {
                let record = self
                    .records
                    .get(key)
                    .ok_or_else(|| GdprError::NotFound(key.clone()))?;
                if !visible(record) {
                    return Err(denied(record, query));
                }
                GdprResponse::Metadata([(&record.key, &record.metadata)].into_iter().collect())
            }
            ReadMetadataByUser(user) => GdprResponse::Metadata(
                self.records
                    .values()
                    .filter(|r| r.metadata.user == *user)
                    .map(|r| (&r.key, &r.metadata))
                    .collect(),
            ),
            ReadMetadataBySharedWith(party) => GdprResponse::Metadata(
                self.records
                    .values()
                    .filter(|r| r.metadata.sharing.iter().any(|s| s == party))
                    .map(|r| (&r.key, &r.metadata))
                    .collect(),
            ),
            UpdateDataByKey { key, data } => {
                let record = self
                    .records
                    .get_mut(key)
                    .ok_or_else(|| GdprError::NotFound(key.clone()))?;
                if decision.requires_record_check && !record_visible(session, &record.view()) {
                    return Err(GdprError::AccessDenied {
                        role: session.role.name().to_string(),
                        query: query.name().to_string(),
                        reason: "record not visible to this session".to_string(),
                    });
                }
                record.data = data.clone();
                GdprResponse::Updated(1)
            }
            UpdateMetadataByKey { key, update } => {
                let record = self
                    .records
                    .get_mut(key)
                    .ok_or_else(|| GdprError::NotFound(key.clone()))?;
                if decision.requires_record_check && !record_visible(session, &record.view()) {
                    return Err(GdprError::AccessDenied {
                        role: session.role.name().to_string(),
                        query: query.name().to_string(),
                        reason: "record not visible to this session".to_string(),
                    });
                }
                update.apply(&mut record.metadata)?;
                GdprResponse::Updated(1)
            }
            UpdateMetadataByPurpose { purpose, update } => {
                self.update_where(update, |r| r.metadata.purposes.iter().any(|p| p == purpose))?
            }
            UpdateMetadataByUser { user, update } => {
                self.update_where(update, |r| r.metadata.user == *user)?
            }
            GetSystemLogs { .. } => GdprResponse::Logs(Default::default()),
            GetSystemFeatures => GdprResponse::Features(Default::default()),
            VerifyDeletion(key) => GdprResponse::DeletionVerified(!self.records.contains_key(key)),
        })
    }

    /// A group metadata update, validate-all-then-commit like the engine:
    /// an update invalid for any matching record changes none of them.
    fn update_where(
        &mut self,
        update: &MetadataUpdate,
        matches: impl Fn(&PersonalRecord) -> bool,
    ) -> GdprResult<GdprResponse> {
        let mut updated = Vec::new();
        for record in self.records.values().filter(|r| matches(r)) {
            let mut metadata = record.metadata.clone();
            update.apply(&mut metadata)?;
            updated.push((record.key.clone(), metadata));
        }
        let n = updated.len();
        for (key, metadata) in updated {
            self.records.get_mut(&key).expect("a matched key").metadata = metadata;
        }
        Ok(GdprResponse::Updated(n))
    }
}

/// Compare a store response against the oracle's expectation.
///
/// List responses compare order-insensitively (stores return rows in
/// whatever order their access path yields). Queries whose results depend
/// on store-local state the model cannot see — expiry timing, log contents,
/// feature reports — are checked for *shape* only.
pub fn responses_match(
    query: &GdprQuery,
    expected: &GdprResult<GdprResponse>,
    actual: &GdprResult<GdprResponse>,
) -> bool {
    use GdprQuery::*;
    match (expected, actual) {
        (Err(e), Err(a)) => std::mem::discriminant(e) == std::mem::discriminant(a),
        (Ok(e), Ok(a)) => match query {
            DeleteExpired => matches!(a, GdprResponse::Deleted(_)),
            GetSystemLogs { .. } => matches!(a, GdprResponse::Logs(_)),
            GetSystemFeatures => matches!(a, GdprResponse::Features(_)),
            _ => match (e, a) {
                (GdprResponse::Data(e), GdprResponse::Data(a)) => {
                    let mut e: Vec<(&str, &str)> = e.iter().collect();
                    let mut a: Vec<(&str, &str)> = a.iter().collect();
                    e.sort_unstable();
                    a.sort_unstable();
                    e == a
                }
                (GdprResponse::Metadata(e), GdprResponse::Metadata(a)) => {
                    let mut e: Vec<MetadataRow<'_>> = e.iter().collect();
                    let mut a: Vec<MetadataRow<'_>> = a.iter().collect();
                    e.sort_unstable();
                    a.sort_unstable();
                    e == a
                }
                (e, a) => e == a,
            },
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{record_of, CorpusConfig};
    use gdpr_core::response::DataRows;

    fn oracle_with(n: usize) -> (Oracle, CorpusConfig) {
        let config = CorpusConfig {
            records: n,
            users: 10,
            ..Default::default()
        };
        let mut o = Oracle::new();
        o.load((0..n).map(|i| record_of(i, &config)));
        (o, config)
    }

    #[test]
    fn model_tracks_creates_and_deletes() {
        let (mut o, config) = oracle_with(50);
        assert_eq!(o.record_count(), 50);
        let controller = Session::controller();
        let fresh = record_of(1000, &config);
        o.apply(&controller, &GdprQuery::CreateRecord(fresh.clone()))
            .unwrap();
        assert_eq!(o.record_count(), 51);
        assert!(matches!(
            o.apply(&controller, &GdprQuery::CreateRecord(fresh)),
            Err(GdprError::AlreadyExists(_))
        ));
        let user = record_of(0, &config).metadata.user;
        let resp = o
            .apply(&controller, &GdprQuery::DeleteByUser(user.clone()))
            .unwrap();
        let GdprResponse::Deleted(n) = resp else {
            panic!()
        };
        assert!(n > 0);
    }

    #[test]
    fn oracle_agrees_with_both_connectors() {
        use gdpr_core::GdprConnector;
        let (mut o, config) = oracle_with(100);
        let redis = connectors::RedisConnector::new(
            kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap(),
        );
        let pg = connectors::PostgresConnector::new(
            relstore::Database::open(relstore::RelConfig::default()).unwrap(),
        )
        .unwrap();
        crate::gdpr::load_corpus(&redis, &config).unwrap();
        crate::gdpr::load_corpus(&pg, &config).unwrap();

        let user = record_of(3, &config).metadata.user.clone();
        let key = record_of(7, &config).key.clone();
        let purpose = record_of(7, &config).metadata.purposes[0].clone();
        let queries: Vec<(Session, GdprQuery)> = vec![
            (
                Session::customer(user.clone()),
                GdprQuery::ReadDataByUser(user.clone()),
            ),
            (
                Session::regulator(),
                GdprQuery::ReadMetadataByUser(user.clone()),
            ),
            (
                Session::processor(purpose.clone()),
                GdprQuery::ReadDataByPurpose(purpose.clone()),
            ),
            (
                Session::processor("ads"),
                GdprQuery::ReadDataNotObjecting("ads".into()),
            ),
            (
                Session::processor("ads"),
                GdprQuery::ReadDataDecisionEligible,
            ),
            (Session::controller(), GdprQuery::DeleteByPurpose(purpose)),
            (Session::regulator(), GdprQuery::VerifyDeletion(key)),
            (Session::controller(), GdprQuery::DeleteByUser(user)),
        ];
        for (session, query) in queries {
            let expected = o.apply(&session, &query);
            let got_redis = redis.execute(&session, &query);
            let got_pg = pg.execute(&session, &query);
            assert!(
                responses_match(&query, &expected, &got_redis),
                "redis diverges on {}: {expected:?} vs {got_redis:?}",
                query.name()
            );
            assert!(
                responses_match(&query, &expected, &got_pg),
                "postgres diverges on {}: {expected:?} vs {got_pg:?}",
                query.name()
            );
        }
    }

    #[test]
    fn mismatches_are_detected() {
        let q = GdprQuery::ReadDataByUser("u".into());
        let a: GdprResult<GdprResponse> =
            Ok(GdprResponse::Data([("k1", "d1")].into_iter().collect()));
        let b: GdprResult<GdprResponse> = Ok(GdprResponse::Data(DataRows::default()));
        assert!(!responses_match(&q, &a, &b));
        // Order-insensitive equality.
        let c: GdprResult<GdprResponse> = Ok(GdprResponse::Data(
            [("k1", "d1"), ("k2", "d2")].into_iter().collect(),
        ));
        let d: GdprResult<GdprResponse> = Ok(GdprResponse::Data(
            [("k2", "d2"), ("k1", "d1")].into_iter().collect(),
        ));
        assert!(responses_match(&q, &c, &d));
        // Same error kind matches.
        let e: GdprResult<GdprResponse> = Err(GdprError::NotFound("x".into()));
        let f: GdprResult<GdprResponse> = Err(GdprError::NotFound("x".into()));
        assert!(responses_match(&q, &e, &f));
        let g: GdprResult<GdprResponse> = Err(GdprError::Store("boom".into()));
        assert!(!responses_match(&q, &e, &g));
    }

    #[test]
    fn shape_only_queries_tolerate_store_state() {
        let q = GdprQuery::DeleteExpired;
        let expected: GdprResult<GdprResponse> = Ok(GdprResponse::Deleted(0));
        let actual: GdprResult<GdprResponse> = Ok(GdprResponse::Deleted(17));
        assert!(responses_match(&q, &expected, &actual));
    }
}

//! The GDPR query taxonomy (§3.3 of the paper): every control- and data-path
//! operation the four roles may issue against a personal-data store.

use crate::error::{GdprError, GdprResult};
use crate::record::{Metadata, PersonalRecord};
use crate::wire::{self, ListView, RecordView};
use std::fmt::Write;
use std::time::Duration;

/// A metadata attribute that can be targeted by an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataField {
    Purposes,
    Objections,
    Decisions,
    Sharing,
    Source,
    User,
}

impl MetadataField {
    pub fn name(&self) -> &'static str {
        match self {
            MetadataField::Purposes => "PUR",
            MetadataField::Objections => "OBJ",
            MetadataField::Decisions => "DEC",
            MetadataField::Sharing => "SHR",
            MetadataField::Source => "SRC",
            MetadataField::User => "USR",
        }
    }
}

/// A single metadata mutation.
///
/// An update *matches* a record through its query's predicate and
/// *changes* it only where [`MetadataUpdate::leaves_unchanged`] is false:
/// adding a sharing party most matches already list changes none of them.
/// The engine counts every match (`Updated(n)`) but writes only the
/// records that change. Skipping the rest keeps a group update's
/// validate-all-then-commit whole: a record the update leaves as it is
/// cannot fail it, so every match that could is still validated before
/// any is written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetadataUpdate {
    /// Add a value to a list attribute (e.g. record a new objection, G21;
    /// register an automated decision, G22.3; add a sharing entry, G13.3).
    Add(MetadataField, String),
    /// Remove a value from a list attribute (e.g. withdraw consent for a
    /// purpose, G7.3). Removing a record's *last* declared purpose is
    /// rejected: personal data must be held for a specified purpose
    /// (G5.1b), so a record with an empty PUR list is uncollectable —
    /// the lawful operation at that point is erasure, not an update. This
    /// makes the failure *data-dependent* (the same update can be valid
    /// for one matching record and invalid for another), which is why
    /// group updates validate every match before committing any.
    Remove(MetadataField, String),
    /// Replace a scalar attribute (USR or SRC).
    SetScalar(MetadataField, String),
    /// Change the record's time-to-live.
    SetTtl(Duration),
}

impl MetadataUpdate {
    /// Apply to a metadata block.
    pub fn apply(&self, m: &mut Metadata) -> GdprResult<()> {
        match self {
            MetadataUpdate::Add(field, value) => {
                let list = list_of(m, *field)?;
                if !list.contains(value) {
                    list.push(value.clone());
                }
                Ok(())
            }
            MetadataUpdate::Remove(field, value) => {
                let list = list_of(m, *field)?;
                if *field == MetadataField::Purposes
                    && list.iter().all(|v| v == value)
                    && !list.is_empty()
                {
                    // Content-independent message: group updates surface
                    // this error identically whatever record (or shard)
                    // trips it, so responses stay shard-count invariant.
                    return Err(GdprError::InvalidRecord(
                        "cannot remove the last declared purpose (G5.1b): \
                         a record with no purpose must be erased, not updated"
                            .to_string(),
                    ));
                }
                list.retain(|v| v != value);
                Ok(())
            }
            MetadataUpdate::SetScalar(field, value) => {
                match field {
                    MetadataField::User => m.user = value.clone(),
                    MetadataField::Source => m.source = value.clone(),
                    other => {
                        return Err(GdprError::InvalidRecord(format!(
                            "{} is not a scalar attribute",
                            other.name()
                        )))
                    }
                }
                Ok(())
            }
            MetadataUpdate::SetTtl(ttl) => {
                m.ttl = Some(*ttl);
                Ok(())
            }
        }
    }

    /// Refuse a value no record could store and read back: an `Add` or
    /// `Remove` item that [`wire::check_item`] refuses, a `SetScalar` value
    /// [`wire::check_scalar`] refuses, a TTL [`wire::check_ttl`] refuses.
    /// The verdict depends on the update alone, so every record of a
    /// group — on every shard — gets the same one, and
    /// [`Self::validation_is_data_dependent`] need not count it.
    pub(crate) fn check_value(&self) -> GdprResult<()> {
        match self {
            MetadataUpdate::Add(field, value) | MetadataUpdate::Remove(field, value) => {
                wire::check_item(field.name(), value)
            }
            MetadataUpdate::SetScalar(field, value) => wire::check_scalar(field.name(), value),
            MetadataUpdate::SetTtl(ttl) => wire::check_ttl(Some(*ttl)),
        }
    }

    /// Would [`Self::apply`] succeed on the record `view` shows and leave
    /// it exactly as it is? True only for an `Add` of an item the list
    /// already holds, a `Remove` of an item it does not hold, and a
    /// `SetScalar` of USR / SRC to the value it already has. Never for
    /// `SetTtl`, whose rewrite re-arms the deadline even at the same TTL,
    /// and never for a field `apply` rejects — so `true` means `apply` is
    /// `Ok` and a no-op, and a record it holds for can be skipped without
    /// being read out of the view, validated, rewritten or re-indexed.
    ///
    /// Conservative like [`Self::validation_is_data_dependent`]: both
    /// matches are exhaustive, and a `false` for a record the update would
    /// in fact leave alone costs one redundant rewrite, never a skipped
    /// change or a skipped failure. The list test is the view's own
    /// [`crate::wire::ListView::contains`], the one `apply` sees through
    /// [`RecordView::metadata`].
    pub fn leaves_unchanged(&self, view: &RecordView<'_>) -> bool {
        match self {
            MetadataUpdate::Add(field, value) => {
                list_view(view, *field).is_some_and(|list| list.contains(value))
            }
            MetadataUpdate::Remove(field, value) => {
                list_view(view, *field).is_some_and(|list| !list.contains(value))
            }
            MetadataUpdate::SetScalar(field, value) => match field {
                MetadataField::User => view.user == value.as_str(),
                MetadataField::Source => view.source == value.as_str(),
                MetadataField::Purposes
                | MetadataField::Objections
                | MetadataField::Decisions
                | MetadataField::Sharing => false,
            },
            MetadataUpdate::SetTtl(_) => false,
        }
    }

    /// Can [`Self::apply`] succeed on one record yet fail on another?
    /// The sharded router runs its cross-shard pre-validation only where
    /// a later shard could fail after an earlier one committed; for
    /// update shapes whose failures depend on the update alone, every
    /// record of a group fails identically and shard-local
    /// validate-all-then-commit is already all-or-nothing.
    ///
    /// Deliberately conservative: the match is exhaustive (adding a
    /// variant forces a decision here), only shapes *proven*
    /// record-independent return `false`, and all of `Remove` answers
    /// `true` — today only `Remove(Purposes)` actually is (the G5.1b
    /// last-purpose guard above), but claiming independence for the
    /// other fields would turn a future guard on them into silent
    /// cross-shard partial commits, whereas over-claiming dependence
    /// costs only a redundant validation read.
    pub fn validation_is_data_dependent(&self) -> bool {
        match self {
            // Add never fails on list fields and fails identically on
            // scalar ones; SetScalar mirrors that; SetTtl never fails.
            MetadataUpdate::Add(..) | MetadataUpdate::SetScalar(..) | MetadataUpdate::SetTtl(_) => {
                false
            }
            MetadataUpdate::Remove(..) => true,
        }
    }
}

fn list_of(m: &mut Metadata, field: MetadataField) -> GdprResult<&mut Vec<String>> {
    Ok(match field {
        MetadataField::Purposes => &mut m.purposes,
        MetadataField::Objections => &mut m.objections,
        MetadataField::Decisions => &mut m.decisions,
        MetadataField::Sharing => &mut m.sharing,
        other => {
            return Err(GdprError::InvalidRecord(format!(
                "{} is not a list attribute",
                other.name()
            )))
        }
    })
}

/// [`list_of`] over a borrowed record: `None` where `apply` rejects the
/// field.
fn list_view<'a>(view: &RecordView<'a>, field: MetadataField) -> Option<ListView<'a>> {
    match field {
        MetadataField::Purposes => Some(view.purposes),
        MetadataField::Objections => Some(view.objections),
        MetadataField::Decisions => Some(view.decisions),
        MetadataField::Sharing => Some(view.sharing),
        MetadataField::Source | MetadataField::User => None,
    }
}

/// A GDPR query. Grouping and naming follow §3.3 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum GdprQuery {
    /// CREATE-RECORD (G24): controller inserts a record with metadata.
    CreateRecord(PersonalRecord),

    /// DELETE-RECORD-BY-KEY (G17): erase one record.
    DeleteByKey(String),
    /// DELETE-RECORD-BY-PUR (G5.1b): erase records of a completed purpose.
    DeleteByPurpose(String),
    /// DELETE-RECORD-BY-TTL (G5.1e): purge expired records.
    DeleteExpired,
    /// DELETE-RECORD-BY-USR: erase all records of one person.
    DeleteByUser(String),

    /// READ-DATA-BY-KEY (G28): processor fetches one data item.
    ReadDataByKey(String),
    /// READ-DATA-BY-PUR (G28): data usable for a purpose.
    ReadDataByPurpose(String),
    /// READ-DATA-BY-USR (G20): all of a person's data (portability).
    ReadDataByUser(String),
    /// READ-DATA-BY-OBJ (G21.3): data *not* objecting to a usage.
    ReadDataNotObjecting(String),
    /// READ-DATA-BY-DEC (G22): data eligible for automated decision-making.
    ReadDataDecisionEligible,

    /// READ-METADATA-BY-KEY (G15): metadata of one record.
    ReadMetadataByKey(String),
    /// READ-METADATA-BY-USR (G15): metadata of a person's records.
    ReadMetadataByUser(String),
    /// READ-METADATA-BY-SHR (G13.1): records shared with a third party.
    ReadMetadataBySharedWith(String),

    /// UPDATE-DATA-BY-KEY (G16): rectify the data payload.
    UpdateDataByKey { key: String, data: String },

    /// UPDATE-METADATA-BY-KEY (G18.1, G7.3): mutate one record's metadata.
    UpdateMetadataByKey { key: String, update: MetadataUpdate },
    /// UPDATE-METADATA-BY-PUR (G13.3): mutate metadata of a purpose group.
    UpdateMetadataByPurpose {
        purpose: String,
        update: MetadataUpdate,
    },
    /// UPDATE-METADATA-BY-USR (G22.3): mutate metadata of a person's records.
    UpdateMetadataByUser {
        user: String,
        update: MetadataUpdate,
    },

    /// GET-SYSTEM-LOGS (G33, G34): audit log for a time range (ms).
    GetSystemLogs { from_ms: u64, to_ms: u64 },
    /// GET-SYSTEM-FEATURES (G24, G25): supported security capabilities.
    GetSystemFeatures,
    /// verify-deletion: regulator confirms a key is really gone (G17).
    VerifyDeletion(String),
}

impl GdprQuery {
    /// The benchmark name of this query class.
    pub fn name(&self) -> &'static str {
        use GdprQuery::*;
        match self {
            CreateRecord(_) => "create-record",
            DeleteByKey(_) => "delete-record-by-key",
            DeleteByPurpose(_) => "delete-record-by-pur",
            DeleteExpired => "delete-record-by-ttl",
            DeleteByUser(_) => "delete-record-by-usr",
            ReadDataByKey(_) => "read-data-by-key",
            ReadDataByPurpose(_) => "read-data-by-pur",
            ReadDataByUser(_) => "read-data-by-usr",
            ReadDataNotObjecting(_) => "read-data-by-obj",
            ReadDataDecisionEligible => "read-data-by-dec",
            ReadMetadataByKey(_) => "read-metadata-by-key",
            ReadMetadataByUser(_) => "read-metadata-by-usr",
            ReadMetadataBySharedWith(_) => "read-metadata-by-shr",
            UpdateDataByKey { .. } => "update-data-by-key",
            UpdateMetadataByKey { .. } => "update-metadata-by-key",
            UpdateMetadataByPurpose { .. } => "update-metadata-by-pur",
            UpdateMetadataByUser { .. } => "update-metadata-by-usr",
            GetSystemLogs { .. } => "get-system-logs",
            GetSystemFeatures => "get-system-features",
            VerifyDeletion(_) => "verify-deletion",
        }
    }

    /// The audit-trail scope detail for this query (key, user, purpose...),
    /// allocated once with room for the outcome the trail appends to it
    /// (` [ok] n=3`).
    pub fn detail(&self) -> String {
        use GdprQuery::*;
        let scoped = |tag: &str, value: &str| {
            let mut detail = String::with_capacity(tag.len() + value.len() + 24);
            detail.push_str(tag);
            detail.push_str(value);
            detail
        };
        match self {
            CreateRecord(r) => scoped("key=", &r.key),
            DeleteByKey(k) | ReadDataByKey(k) | ReadMetadataByKey(k) | VerifyDeletion(k) => {
                scoped("key=", k)
            }
            DeleteByPurpose(p) | ReadDataByPurpose(p) => scoped("pur=", p),
            DeleteExpired => scoped("ttl", ""),
            DeleteByUser(u) | ReadDataByUser(u) | ReadMetadataByUser(u) => scoped("usr=", u),
            ReadDataNotObjecting(o) => scoped("obj=", o),
            ReadDataDecisionEligible => scoped("dec", ""),
            ReadMetadataBySharedWith(s) => scoped("shr=", s),
            UpdateDataByKey { key, .. } | UpdateMetadataByKey { key, .. } => scoped("key=", key),
            UpdateMetadataByPurpose { purpose, .. } => scoped("pur=", purpose),
            UpdateMetadataByUser { user, .. } => scoped("usr=", user),
            GetSystemLogs { from_ms, to_ms } => {
                // Two `u64`s of up to 20 digits and the outcome.
                let mut detail = String::with_capacity(72);
                let _ = write!(detail, "range={from_ms}..{to_ms}");
                detail
            }
            GetSystemFeatures => scoped("features", ""),
        }
    }

    /// Does the query mutate the store?
    pub fn is_write(&self) -> bool {
        use GdprQuery::*;
        matches!(
            self,
            CreateRecord(_)
                | DeleteByKey(_)
                | DeleteByPurpose(_)
                | DeleteExpired
                | DeleteByUser(_)
                | UpdateDataByKey { .. }
                | UpdateMetadataByKey { .. }
                | UpdateMetadataByPurpose { .. }
                | UpdateMetadataByUser { .. }
        )
    }

    /// Refuse a write whose record would not read back as written
    /// ([`wire::check_storable`]): a created record, a data update's data,
    /// or an update's value. It depends on the query alone, so the engine
    /// checks it after authorization and before any store call.
    pub(crate) fn check_storable(&self) -> GdprResult<()> {
        use GdprQuery::*;
        match self {
            CreateRecord(record) => wire::check_storable(record),
            UpdateDataByKey { data, .. } => wire::check_data(data),
            UpdateMetadataByKey { update, .. }
            | UpdateMetadataByPurpose { update, .. }
            | UpdateMetadataByUser { update, .. } => update.check_value(),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_add_and_remove_on_lists() {
        let mut m = Metadata::default();
        MetadataUpdate::Add(MetadataField::Objections, "ads".into())
            .apply(&mut m)
            .unwrap();
        MetadataUpdate::Add(MetadataField::Objections, "ads".into())
            .apply(&mut m)
            .unwrap();
        assert_eq!(m.objections, vec!["ads"], "add must be idempotent");
        MetadataUpdate::Remove(MetadataField::Objections, "ads".into())
            .apply(&mut m)
            .unwrap();
        assert!(m.objections.is_empty());
    }

    #[test]
    fn removing_last_purpose_is_rejected() {
        let mut m = Metadata {
            purposes: vec!["ads".into(), "2fa".into()],
            ..Metadata::default()
        };
        MetadataUpdate::Remove(MetadataField::Purposes, "ads".into())
            .apply(&mut m)
            .unwrap();
        assert_eq!(m.purposes, vec!["2fa"]);
        // The same update is invalid once it would empty the list — the
        // failure is data-dependent, and must not mutate the record.
        assert!(matches!(
            MetadataUpdate::Remove(MetadataField::Purposes, "2fa".into()).apply(&mut m),
            Err(GdprError::InvalidRecord(_))
        ));
        assert_eq!(m.purposes, vec!["2fa"], "rejected update must not apply");
        // Removing a purpose the record never declared stays a no-op.
        MetadataUpdate::Remove(MetadataField::Purposes, "analytics".into())
            .apply(&mut m)
            .unwrap();
        assert_eq!(m.purposes, vec!["2fa"]);
    }

    #[test]
    fn update_scalars_and_ttl() {
        let mut m = Metadata::default();
        MetadataUpdate::SetScalar(MetadataField::Source, "third-party".into())
            .apply(&mut m)
            .unwrap();
        assert_eq!(m.source, "third-party");
        MetadataUpdate::SetTtl(Duration::from_secs(60))
            .apply(&mut m)
            .unwrap();
        assert_eq!(m.ttl, Some(Duration::from_secs(60)));
    }

    #[test]
    fn update_type_errors() {
        let mut m = Metadata::default();
        assert!(MetadataUpdate::Add(MetadataField::User, "x".into())
            .apply(&mut m)
            .is_err());
        assert!(
            MetadataUpdate::SetScalar(MetadataField::Purposes, "x".into())
                .apply(&mut m)
                .is_err()
        );
    }

    /// The no-op shapes, on the stored text and on the parsed record.
    #[test]
    fn leaves_unchanged_only_where_apply_is_a_no_op() {
        use MetadataField::*;
        let text = "k;d;PUR=ads,2fa;TTL=1days;USR=neo;OBJ=∅;DEC=∅;SHR=x-corp;SRC=first-party;";
        let record = crate::wire::parse(text).unwrap();
        let cases = [
            (MetadataUpdate::Add(Sharing, "x-corp".into()), true),
            (MetadataUpdate::Add(Sharing, "y-corp".into()), false),
            (MetadataUpdate::Add(Objections, "ads".into()), false),
            (MetadataUpdate::Remove(Objections, "ads".into()), true),
            (MetadataUpdate::Remove(Purposes, "sales".into()), true),
            (MetadataUpdate::Remove(Purposes, "ads".into()), false),
            (MetadataUpdate::SetScalar(User, "neo".into()), true),
            (
                MetadataUpdate::SetScalar(Source, "first-party".into()),
                true,
            ),
            (
                MetadataUpdate::SetScalar(Source, "third-party".into()),
                false,
            ),
            (MetadataUpdate::SetTtl(Duration::from_secs(86_400)), false),
            // Rejected by `apply`, so never a no-op.
            (MetadataUpdate::Add(User, "neo".into()), false),
            (MetadataUpdate::Remove(Source, "x".into()), false),
            (MetadataUpdate::SetScalar(Sharing, "x-corp".into()), false),
        ];
        for (update, no_op) in cases {
            let stored = RecordView::parse(text).unwrap();
            assert_eq!(update.leaves_unchanged(&stored), no_op, "{update:?}");
            assert_eq!(update.leaves_unchanged(&record.view()), no_op, "{update:?}");
        }
    }

    #[test]
    fn names_cover_the_paper_taxonomy() {
        let q = GdprQuery::DeleteExpired;
        assert_eq!(q.name(), "delete-record-by-ttl");
        assert_eq!(GdprQuery::GetSystemFeatures.name(), "get-system-features");
        assert_eq!(
            GdprQuery::ReadDataNotObjecting("ads".into()).name(),
            "read-data-by-obj"
        );
    }

    #[test]
    fn write_classification() {
        assert!(GdprQuery::DeleteByUser("u".into()).is_write());
        assert!(!GdprQuery::ReadDataByKey("k".into()).is_write());
    }
}

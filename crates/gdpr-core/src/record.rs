//! Personal data records and their GDPR metadata — the paper's "metadata
//! explosion" made concrete (§3.1).
//!
//! Every record pairs a `<Key>` and `<Data>` with seven metadata attributes:
//!
//! | attr | article(s) | meaning |
//! |------|-----------|---------|
//! | PUR  | G5(1b)    | purposes the data may be used for |
//! | TTL  | G5(1e), G13(2a) | how long it may be kept |
//! | USR  | G15       | the person it concerns |
//! | OBJ  | G21       | purposes the person has objected to |
//! | DEC  | G15(1), G22 | automated decisions it was used in |
//! | SHR  | G13, G14  | third parties it has been shared with |
//! | SRC  | G13, G14  | how it was originally procured |

use crate::wire::{ListView, RecordView};
use std::time::Duration;

/// The seven-attribute GDPR metadata block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metadata {
    /// Purposes the data was collected for (PUR).
    pub purposes: Vec<String>,
    /// Time-to-live from creation (TTL). `None` means the record has no
    /// expiry — note that a compliant controller must set one (G5.1e).
    pub ttl: Option<Duration>,
    /// The data subject the record concerns (USR).
    pub user: String,
    /// Purposes the subject has objected to (OBJ) — a per-record blacklist.
    pub objections: Vec<String>,
    /// Automated decisions this record participated in (DEC). The special
    /// marker [`Metadata::DEC_OPT_OUT`] records a G22 withdrawal.
    pub decisions: Vec<String>,
    /// Third parties the record has been shared with (SHR).
    pub sharing: Vec<String>,
    /// Origin of the record (SRC), e.g. `first-party`.
    pub source: String,
}

impl Metadata {
    /// DEC marker meaning the subject has withdrawn from automated
    /// decision-making entirely (G22).
    pub const DEC_OPT_OUT: &'static str = "opt-out";

    /// A minimal compliant metadata block.
    pub fn new(user: impl Into<String>, purposes: Vec<String>, ttl: Duration) -> Metadata {
        Metadata {
            purposes,
            ttl: Some(ttl),
            user: user.into(),
            objections: Vec::new(),
            decisions: Vec::new(),
            sharing: Vec::new(),
            source: "first-party".to_string(),
        }
    }

    /// May this record be used for `purpose`? True only when the purpose was
    /// declared at collection (G5.1b) and the subject has not objected
    /// (G21).
    pub fn allows_purpose(&self, purpose: &str) -> bool {
        self.purposes.iter().any(|p| p == purpose) && !self.objections.iter().any(|o| o == purpose)
    }

    /// May this record feed automated decision-making (G22)?
    pub fn allows_automated_decisions(&self) -> bool {
        !self.decisions.iter().any(|d| d == Self::DEC_OPT_OUT)
    }

    /// Approximate metadata footprint in bytes (the Table 3 numerator's
    /// metadata share).
    pub fn size_bytes(&self) -> usize {
        let lists = [
            &self.purposes,
            &self.objections,
            &self.decisions,
            &self.sharing,
        ];
        lists
            .iter()
            .map(|l| l.iter().map(String::len).sum::<usize>() + l.len())
            .sum::<usize>()
            + self.user.len()
            + self.source.len()
            + 8 // TTL
    }
}

/// One personal data record: key, data, and GDPR metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonalRecord {
    /// Unique identifier (e.g. `ph-1x4b`).
    pub key: String,
    /// The personal data payload (e.g. `123-456-7890`).
    pub data: String,
    /// The seven-attribute metadata block.
    pub metadata: Metadata,
}

impl PersonalRecord {
    pub fn new(key: impl Into<String>, data: impl Into<String>, metadata: Metadata) -> Self {
        PersonalRecord {
            key: key.into(),
            data: data.into(),
            metadata,
        }
    }

    /// The record as the borrowed shape [`RecordView::parse`] reads off the
    /// wire text, so one predicate body serves both.
    pub fn view(&self) -> RecordView<'_> {
        let m = &self.metadata;
        RecordView {
            key: &self.key,
            data: &self.data,
            purposes: ListView::Items(&m.purposes),
            ttl: m.ttl,
            user: &m.user,
            objections: ListView::Items(&m.objections),
            decisions: ListView::Items(&m.decisions),
            sharing: ListView::Items(&m.sharing),
            source: &m.source,
        }
    }

    /// Bytes of personal data proper (the Table 3 denominator).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Total record footprint: key + data + metadata.
    pub fn total_bytes(&self) -> usize {
        self.key.len() + self.data.len() + self.metadata.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> Metadata {
        Metadata {
            purposes: vec!["ads".into(), "2fa".into()],
            ttl: Some(Duration::from_secs(365 * 24 * 3600)),
            user: "neo".into(),
            objections: vec!["ads".into()],
            decisions: vec![],
            sharing: vec!["dex-corp".into()],
            source: "first-party".into(),
        }
    }

    #[test]
    fn purpose_check_requires_declaration_and_no_objection() {
        let m = meta();
        assert!(m.allows_purpose("2fa"));
        assert!(
            !m.allows_purpose("ads"),
            "objection must veto a declared purpose"
        );
        assert!(
            !m.allows_purpose("analytics"),
            "undeclared purpose is never allowed"
        );
    }

    #[test]
    fn decision_opt_out() {
        let mut m = meta();
        assert!(m.allows_automated_decisions());
        m.decisions.push(Metadata::DEC_OPT_OUT.to_string());
        assert!(!m.allows_automated_decisions());
    }

    #[test]
    fn constructor_defaults() {
        let m = Metadata::new("trinity", vec!["2fa".into()], Duration::from_secs(60));
        assert_eq!(m.user, "trinity");
        assert_eq!(m.source, "first-party");
        assert!(m.objections.is_empty());
        assert_eq!(m.ttl, Some(Duration::from_secs(60)));
    }

    #[test]
    fn size_accounting() {
        let record = PersonalRecord::new("ph-1", "123-456-7890", meta());
        assert_eq!(record.data_bytes(), 12);
        assert!(record.total_bytes() > record.data_bytes());
        // Metadata overshadows the data itself — the paper's observation.
        assert!(record.metadata.size_bytes() > record.data_bytes());
    }
}

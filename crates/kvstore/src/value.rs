//! The value types a key can hold: string (every GDPR record and YCSB row)
//! and sorted set (the YCSB key index workload E scans through).

use crate::error::{KvError, KvResult};
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// A sorted set: members ordered by `(score, member)` plus a member→score
/// map (an update needs the old score to find the old entry), mirroring
/// Redis' dual representation.
///
/// Scores must not be NaN; the commands refuse one before it gets here.
#[derive(Default)]
pub struct ZSet {
    order: BTreeSet<(Score, Bytes)>,
    scores: HashMap<Bytes, f64>,
}

/// A score ordered by `partial_cmp`, so `-0.0` and `+0.0` tie and the
/// member breaks the tie. A total order only because NaN is refused.
#[derive(Clone, Copy, Debug)]
struct Score(f64);

impl PartialEq for Score {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl ZSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add or update a member. Returns `true` if the member was new.
    pub fn add(&mut self, member: Bytes, score: f64) -> bool {
        debug_assert!(!score.is_nan(), "NaN score reached a ZSet");
        match self.scores.insert(member.clone(), score) {
            Some(old) => {
                if old != score {
                    self.order.remove(&(Score(old), member.clone()));
                    self.order.insert((Score(score), member));
                }
                false
            }
            None => {
                self.order.insert((Score(score), member));
                true
            }
        }
    }

    pub fn len(&self) -> usize {
        self.scores.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Members with `min <= score <= max`, in score order, stopping after
    /// `limit` members.
    pub fn range_by_score_limit(&self, min: f64, max: f64, limit: usize) -> Vec<(Bytes, f64)> {
        self.order
            .range((Score(min), Bytes::new())..)
            .take_while(|(score, _)| score.0 <= max)
            .take(limit)
            .map(|(score, member)| (member.clone(), score.0))
            .collect()
    }

    /// Approximate heap footprint in bytes, for the space-overhead metric.
    pub fn memory_usage(&self) -> usize {
        self.scores
            .keys()
            .map(|m| m.len() + 8 + 48) // member + score + node overhead
            .sum()
    }
}

impl std::fmt::Debug for ZSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZSet").field("len", &self.len()).finish()
    }
}

/// A value stored at a key. The sorted set is boxed so that a value is two
/// words: every keyspace entry is as wide as the widest variant, and the
/// GDPR records are all strings.
pub enum Value {
    Str(Bytes),
    ZSet(Box<ZSet>),
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(b) => f.debug_tuple("Str").field(b).finish(),
            Value::ZSet(z) => z.fmt(f),
        }
    }
}

impl Value {
    pub fn as_str(&self) -> KvResult<&Bytes> {
        match self {
            Value::Str(b) => Ok(b),
            _ => Err(KvError::WrongType),
        }
    }

    pub fn as_zset(&self) -> KvResult<&ZSet> {
        match self {
            Value::ZSet(z) => Ok(z),
            _ => Err(KvError::WrongType),
        }
    }

    pub fn as_zset_mut(&mut self) -> KvResult<&mut ZSet> {
        match self {
            Value::ZSet(z) => Ok(z),
            _ => Err(KvError::WrongType),
        }
    }

    /// Approximate heap footprint in bytes, for the space-overhead metric
    /// (Table 3 of the paper).
    pub fn memory_usage(&self) -> usize {
        match self {
            Value::Str(b) => b.len(),
            Value::ZSet(z) => z.memory_usage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn all(z: &ZSet) -> Vec<(Bytes, f64)> {
        z.range_by_score_limit(f64::NEG_INFINITY, f64::INFINITY, usize::MAX)
    }

    #[test]
    fn zset_add_and_update() {
        let mut z = ZSet::new();
        assert!(z.is_empty());
        assert!(z.add(b("a"), 1.0));
        assert!(!z.add(b("a"), 2.0), "update is not an add");
        assert_eq!(all(&z), [(b("a"), 2.0)]);
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn zset_update_maintains_order() {
        let mut z = ZSet::new();
        z.add(b("a"), 1.0);
        z.add(b("b"), 2.0);
        z.add(b("a"), 3.0); // a moves after b
        assert_eq!(all(&z), [(b("b"), 2.0), (b("a"), 3.0)]);
    }

    #[test]
    fn zset_same_score_readd_is_noop() {
        let mut z = ZSet::new();
        z.add(b("a"), 1.0);
        assert!(!z.add(b("a"), 1.0));
        assert_eq!(z.range_by_score_limit(1.0, 1.0, usize::MAX).len(), 1);
    }

    #[test]
    fn wrong_type_errors() {
        let mut v = Value::Str(b("x"));
        assert_eq!(v.as_zset().unwrap_err(), KvError::WrongType);
        assert_eq!(v.as_zset_mut().unwrap_err(), KvError::WrongType);
        let mut v = Value::ZSet(Box::default());
        assert_eq!(v.as_str().unwrap_err(), KvError::WrongType);
        assert!(v.as_zset_mut().is_ok());
    }

    #[test]
    fn a_value_is_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn memory_usage_scales_with_content() {
        let small = Value::Str(b("ab"));
        let large = Value::Str(Bytes::from(vec![0u8; 1000]));
        assert!(large.memory_usage() > small.memory_usage());
        let mut z = ZSet::new();
        z.add(b("member"), 1.0);
        assert!(Value::ZSet(Box::new(z)).memory_usage() >= 6 + 8);
    }
}

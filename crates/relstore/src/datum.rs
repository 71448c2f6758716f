//! Datums: the typed values stored in table cells.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    /// Milliseconds since the engine clock's epoch — the expiry column type.
    Timestamp(u64),
    /// PostgreSQL `text[]` — the representation for multi-valued GDPR
    /// metadata (purposes, objections, sharing, decisions).
    TextArray(Vec<String>),
}

impl Datum {
    /// Type name for error messages, matching the [`crate::schema::ColumnType`] names.
    pub fn type_name(&self) -> &'static str {
        match self {
            Datum::Null => "null",
            Datum::Bool(_) => "bool",
            Datum::Int(_) => "int",
            Datum::Float(_) => "float",
            Datum::Text(_) => "text",
            Datum::Timestamp(_) => "timestamp",
            Datum::TextArray(_) => "text[]",
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_text_array(&self) -> Option<&[String]> {
        match self {
            Datum::TextArray(v) => Some(v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// SQL-style comparison: NULL compares as unknown (`None`); values of
    /// different types do not compare.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Float(a), Datum::Float(b)) => a.partial_cmp(b),
            (Datum::Int(a), Datum::Float(b)) => (*a as f64).partial_cmp(b),
            (Datum::Float(a), Datum::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            (Datum::Timestamp(a), Datum::Timestamp(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Approximate in-memory size, for the space-overhead metric.
    pub fn size_bytes(&self) -> usize {
        match self {
            Datum::Null => 1,
            Datum::Bool(_) => 1,
            Datum::Int(_) | Datum::Float(_) | Datum::Timestamp(_) => 8,
            Datum::Text(s) => 24 + s.len(),
            Datum::TextArray(v) => 24 + v.iter().map(|s| 24 + s.len()).sum::<usize>(),
        }
    }

    // --- binary encoding for the WAL ---

    /// Append a self-describing binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Datum::Null => out.push(0),
            Datum::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Datum::Int(n) => {
                out.push(2);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Datum::Float(x) => {
                out.push(3);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Datum::Text(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Timestamp(t) => {
                out.push(5);
                out.extend_from_slice(&t.to_le_bytes());
            }
            Datum::TextArray(v) => {
                out.push(6);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for s in v {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }

    /// Decode one datum from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Datum, String> {
        let tag = *buf.get(*pos).ok_or("truncated datum tag")?;
        *pos += 1;
        let take = |buf: &[u8], pos: &mut usize, n: usize| -> Result<Vec<u8>, String> {
            if buf.len() < *pos + n {
                return Err("truncated datum payload".into());
            }
            let bytes = buf[*pos..*pos + n].to_vec();
            *pos += n;
            Ok(bytes)
        };
        let take_u32 = |buf: &[u8], pos: &mut usize| -> Result<u32, String> {
            let bytes = take(buf, pos, 4)?;
            Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
        };
        Ok(match tag {
            0 => Datum::Null,
            1 => Datum::Bool(take(buf, pos, 1)?[0] != 0),
            2 => Datum::Int(i64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
            3 => Datum::Float(f64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
            4 => {
                let len = take_u32(buf, pos)? as usize;
                Datum::Text(String::from_utf8(take(buf, pos, len)?).map_err(|e| e.to_string())?)
            }
            5 => Datum::Timestamp(u64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
            6 => {
                let n = take_u32(buf, pos)? as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let len = take_u32(buf, pos)? as usize;
                    items.push(String::from_utf8(take(buf, pos, len)?).map_err(|e| e.to_string())?);
                }
                Datum::TextArray(items)
            }
            other => return Err(format!("unknown datum tag {other}")),
        })
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(n) => write!(f, "{n}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Text(s) => write!(f, "'{s}'"),
            Datum::Timestamp(t) => write!(f, "ts:{t}"),
            Datum::TextArray(v) => {
                write!(f, "{{")?;
                for (i, s) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A key that totally orders datums for B+Tree indexing. NULLs sort last
/// (as in PostgreSQL's default), mixed types sort by type tag.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Datum);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Bool(_) => 0,
                Datum::Int(_) => 1,
                Datum::Float(_) => 1, // numeric family compares cross-type
                Datum::Text(_) => 2,
                Datum::Timestamp(_) => 3,
                Datum::TextArray(_) => 4,
                Datum::Null => 5,
            }
        }
        match self.0.sql_cmp(&other.0) {
            Some(ord) => ord,
            None => match (&self.0, &other.0) {
                (Datum::Null, Datum::Null) => Ordering::Equal,
                (Datum::TextArray(a), Datum::TextArray(b)) => a.cmp(b),
                (a, b) => rank(a).cmp(&rank(b)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_same_types() {
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Datum::Text("a".into()).sql_cmp(&Datum::Text("a".into())),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Timestamp(5).sql_cmp(&Datum::Timestamp(4)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_mixed_types_is_none() {
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Text("1".into())), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let samples = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(-42),
            Datum::Float(3.25),
            Datum::Text("personal data: 123-456".into()),
            Datum::Text(String::new()),
            Datum::Timestamp(1_700_000_000_000),
            Datum::TextArray(vec!["ads".into(), "2fa".into()]),
            Datum::TextArray(vec![]),
        ];
        let mut buf = Vec::new();
        for d in &samples {
            d.encode(&mut buf);
        }
        let mut pos = 0;
        for d in &samples {
            let decoded = Datum::decode(&buf, &mut pos).unwrap();
            assert_eq!(&decoded, d);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Datum::decode(&[], &mut 0).is_err());
        assert!(Datum::decode(&[99], &mut 0).is_err());
        let mut buf = Vec::new();
        Datum::Text("hello".into()).encode(&mut buf);
        assert!(Datum::decode(&buf[..buf.len() - 1], &mut 0).is_err());
    }

    #[test]
    fn index_key_total_order() {
        let mut keys = [
            IndexKey(Datum::Null),
            IndexKey(Datum::Text("b".into())),
            IndexKey(Datum::Int(5)),
            IndexKey(Datum::Text("a".into())),
            IndexKey(Datum::Int(1)),
        ];
        keys.sort();
        // Ints before texts before null.
        assert_eq!(keys[0].0, Datum::Int(1));
        assert_eq!(keys[1].0, Datum::Int(5));
        assert_eq!(keys[2].0, Datum::Text("a".into()));
        assert_eq!(keys[3].0, Datum::Text("b".into()));
        assert_eq!(keys[4].0, Datum::Null);
    }

    #[test]
    fn size_bytes_sane() {
        assert!(Datum::Text("hello".into()).size_bytes() > 5);
        assert!(
            Datum::TextArray(vec!["a".into(), "b".into()]).size_bytes()
                > Datum::Text("ab".into()).size_bytes()
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Datum::Null.to_string(), "NULL");
        assert_eq!(Datum::Int(3).to_string(), "3");
        assert_eq!(Datum::Text("x".into()).to_string(), "'x'");
        assert_eq!(
            Datum::TextArray(vec!["a".into(), "b".into()]).to_string(),
            "{a,b}"
        );
    }
}

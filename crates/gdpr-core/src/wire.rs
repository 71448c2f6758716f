//! The benchmark's record wire format (§4.2.1):
//!
//! ```text
//! ph-1x4b;123-456-7890;PUR=ads,2fa;TTL=365days;USR=neo;OBJ=∅;DEC=∅;SHR=∅;SRC=first-party;
//! ```
//!
//! Fields are `;`-separated, list values `,`-separated, `∅` denotes an empty
//! attribute. Key and data are ASCII; an attribute value may hold any text
//! but the separators.
//!
//! [`RecordView`] is the format's one reader: the nine fields borrowed from
//! the stored bytes, validated in one pass, with nothing allocated. The
//! pass proves the bytes UTF-8 from what it already counts: when every
//! byte ≥ 0x80 belongs to a `∅` value, the text is ASCII plus whole `∅`s,
//! and only a record with other non-ASCII bytes pays `str::from_utf8`.
//! Metadata fields are lent as those proven bytes ([`Text`],
//! [`ListView`]), made `&str` only on demand. [`parse`] is the view made
//! owned; the predicate reads never get that far — they test the view
//! ([`crate::store::RecordPredicate::matches_view`]) and copy out only the
//! fields the response carries.
//!
//! `check_storable` is the writer's side: the engine refuses a record
//! whose wire form would not read back as the same record.

use crate::error::{GdprError, GdprResult};
use crate::record::{Metadata, PersonalRecord};
use std::time::Duration;

/// The empty-attribute marker. (The paper prints U+2205 EMPTY SET; it is the
/// one non-ASCII codepoint in the format.)
pub const EMPTY: &str = "∅";

/// The attribute tags that open fields 2..9, in wire order. Arrays, so a
/// tag test is one 4-byte compare.
const TAGS: [[u8; 4]; 7] = [
    *b"PUR=", *b"TTL=", *b"USR=", *b"OBJ=", *b"DEC=", *b"SHR=", *b"SRC=",
];

/// [`EMPTY`]'s bytes, to match a value against.
const EMPTY_BYTES: [u8; 3] = [0xe2, 0x88, 0x85];

/// A scalar attribute (USR, SRC) of a [`RecordView`], or a list
/// attribute's wire value: bytes known to be UTF-8 — the reader proved
/// them, or they came from a `&str` — compared as bytes and made `&str`
/// only on demand.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Text<'a>(&'a [u8]);

impl<'a> Text<'a> {
    pub fn as_bytes(self) -> &'a [u8] {
        self.0
    }

    pub fn as_str(self) -> &'a str {
        std::str::from_utf8(self.0).expect("a Text is UTF-8 by construction")
    }

    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }
}

impl<'a> From<&'a str> for Text<'a> {
    fn from(text: &'a str) -> Self {
        Text(text.as_bytes())
    }
}

impl PartialEq<&str> for Text<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.0 == other.as_bytes()
    }
}

impl std::fmt::Debug for Text<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A list attribute of a [`RecordView`]: the `,`-separated wire text, or
/// the items of an already parsed record.
#[derive(Debug, Clone, Copy)]
pub enum ListView<'a> {
    /// The attribute's wire value; empty is the empty list.
    Wire(Text<'a>),
    Items(&'a [String]),
}

impl ListView<'_> {
    pub fn contains(self, item: &str) -> bool {
        match self {
            ListView::Wire(text) => {
                let mut items = text.as_bytes().split(|&b| b == b',');
                !text.is_empty() && items.any(|x| x == item.as_bytes())
            }
            ListView::Items(items) => items.iter().any(|x| x == item),
        }
    }

    fn to_vec(self) -> Vec<String> {
        match self {
            ListView::Wire(text) if text.is_empty() => Vec::new(),
            ListView::Wire(text) => text.as_str().split(',').map(str::to_string).collect(),
            ListView::Items(items) => items.to_vec(),
        }
    }
}

/// One record's nine wire fields, borrowed — from the stored bytes
/// ([`RecordView::from_bytes`]) or from a parsed record
/// ([`PersonalRecord::view`]). `∅` reads as the empty string / empty list.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    pub key: &'a str,
    pub data: &'a str,
    pub purposes: ListView<'a>,
    pub ttl: Option<Duration>,
    pub user: Text<'a>,
    pub objections: ListView<'a>,
    pub decisions: ListView<'a>,
    pub sharing: ListView<'a>,
    pub source: Text<'a>,
}

impl<'a> RecordView<'a> {
    /// [`Self::from_bytes`] over text already known to be UTF-8.
    pub fn parse(s: &'a str) -> GdprResult<RecordView<'a>> {
        RecordView::read(s.as_bytes(), true)
    }

    /// Split and validate a stored record without allocating — what every
    /// store's read path hands the engine.
    pub fn from_bytes(bytes: &'a [u8]) -> GdprResult<RecordView<'a>> {
        RecordView::read(bytes, false)
    }

    /// The format's one reader. Its refusals come in a fixed order:
    /// invalid UTF-8 first, then the first field at fault. [`Self::fields`]
    /// checks the fields on bytes; bytes it could not prove UTF-8 — a
    /// refusal, or a byte ≥ 0x80 outside a `∅` value — get the full
    /// `str::from_utf8` check, whose error comes before the field's.
    fn read(bytes: &'a [u8], utf8: bool) -> GdprResult<RecordView<'a>> {
        let read = RecordView::fields(bytes);
        if !utf8 && !matches!(read, Ok((_, true))) {
            std::str::from_utf8(bytes).map_err(invalid_utf8)?;
        }
        read.map(|(view, _)| view)
    }

    /// The view of `bytes`, and whether its bytes ≥ 0x80 are exactly its
    /// `∅` values' — three each, so the text is UTF-8 by construction. The
    /// one pass over the bytes is [`separators`]; the rest reads at the
    /// cuts. The attributes are read before key and data are checked, so
    /// that count can vouch for the two being ASCII; an attribute's refusal
    /// waits for theirs.
    fn fields(bytes: &'a [u8]) -> GdprResult<(RecordView<'a>, bool)> {
        let body = bytes.strip_suffix(b";").unwrap_or(bytes);
        let (cuts, high) = separators(body).ok_or_else(|| field_count(body))?;
        let key_data = std::str::from_utf8(&body[..cuts[1]]).map_err(invalid_utf8)?;
        let (key, data) = (&key_data[..cuts[0]], &key_data[cuts[0] + 1..]);
        if key.is_empty() {
            return Err(GdprError::InvalidRecord("empty key".into()));
        }
        let attributes = attributes(body, &cuts);
        let utf8 = matches!(attributes, Ok((_, _, empty)) if high == EMPTY_BYTES.len() * empty);
        if !utf8 || key_data.as_bytes().contains(&b',') {
            check_data(key)?;
            check_data(data)?;
        }
        let ([purposes, _, user, objections, decisions, sharing, source], ttl, _) = attributes?;
        let view = RecordView {
            key,
            data,
            purposes: ListView::Wire(purposes),
            ttl,
            user,
            objections: ListView::Wire(objections),
            decisions: ListView::Wire(decisions),
            sharing: ListView::Wire(sharing),
            source,
        };
        Ok((view, utf8))
    }

    /// The seven metadata attributes, owned.
    pub fn metadata(&self) -> Metadata {
        Metadata {
            purposes: self.purposes.to_vec(),
            ttl: self.ttl,
            user: self.user.as_str().to_string(),
            objections: self.objections.to_vec(),
            decisions: self.decisions.to_vec(),
            sharing: self.sharing.to_vec(),
            source: self.source.as_str().to_string(),
        }
    }

    pub fn to_record(&self) -> PersonalRecord {
        PersonalRecord::new(self.key, self.data, self.metadata())
    }
}

/// The seven attribute values of a record `cuts` cut (`∅` read as
/// empty), its TTL, and how many values were `∅`.
fn attributes<'a>(
    body: &'a [u8],
    cuts: &[usize; 8],
) -> GdprResult<([Text<'a>; 7], Option<Duration>, usize)> {
    let mut values = [Text(b""); 7];
    let (mut ttl, mut empty, mut start) = (None, 0, cuts[1] + 1);
    for (i, (value, tag)) in values.iter_mut().zip(&TAGS).enumerate() {
        let end = cuts.get(i + 2).copied().unwrap_or(body.len());
        let field = &body[start..end];
        start = end + 1;
        let mut rest = match field.split_first_chunk() {
            Some((head, rest)) if head == tag => rest,
            _ => {
                let name = String::from_utf8_lossy(&tag[..3]);
                let message = format!("field {} must be {name}=...", 2 + i);
                return Err(GdprError::InvalidRecord(message));
            }
        };
        if rest == EMPTY_BYTES {
            rest = b"";
            empty += 1;
        }
        if i == 1 {
            ttl = parse_ttl(rest)?;
        }
        *value = Text(rest);
    }
    Ok((values, ttl, empty))
}

fn invalid_utf8(e: std::str::Utf8Error) -> GdprError {
    GdprError::InvalidRecord(e.to_string())
}

/// The offsets of the eight `;` bytes that cut a record into its nine
/// fields, and the number of its bytes ≥ 0x80 — or `None` when more or
/// fewer `;` cut it. One pass, eight bytes at a time:
/// - XOR with `;;;;;;;;` makes each `;` a zero byte, and the exact
///   zero-byte test — no borrow crosses a byte — sets the high bit of
///   those bytes only;
/// - each byte's high bit, shifted to its low bit, is summed into the top
///   byte by one multiply (the baseline x86-64 target has no `popcnt`).
///
/// It runs on every record a predicate read tests; on the corpus's
/// ~124-byte records it takes ≈ 30 ns (2-core x86-64 box).
fn separators(bytes: &[u8]) -> Option<([usize; 8], usize)> {
    const SEMICOLONS: u64 = u64::from_le_bytes([b';'; 8]);
    const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let (mut cuts, mut found, mut high) = ([0; 8], 0, 0);
    let mut cut = |at: usize| {
        *cuts.get_mut(found)? = at;
        found += 1;
        Some(())
    };
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        high += (((word >> 7) & ONES).wrapping_mul(ONES) >> 56) as usize;
        let x = word ^ SEMICOLONS;
        let mut hits = !(((x & LOW7) + LOW7) | x | LOW7);
        while hits != 0 {
            cut(i * 8 + hits.trailing_zeros() as usize / 8)?;
            hits &= hits - 1;
        }
    }
    let tail = bytes.len() - words.remainder().len();
    for (i, &b) in words.remainder().iter().enumerate() {
        high += usize::from(b >= 0x80);
        if b == b';' {
            cut(tail + i)?;
        }
    }
    (found == 8).then_some((cuts, high))
}

fn field_count(body: &[u8]) -> GdprError {
    let fields = body.split(|&b| b == b';').count();
    GdprError::InvalidRecord(format!("expected 9 fields, got {fields}"))
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

/// The refusal naming the first character of `value` that `bad` holds
/// for.
fn illegal_in(value: &str, bad: impl Fn(char) -> bool) -> GdprError {
    let c = value
        .chars()
        .find(|&c| bad(c))
        .expect("the caller found one");
    GdprError::InvalidRecord(format!("illegal character {c:?} in field {value:?}"))
}

/// Refuse a record whose wire form would not read back as the same
/// record — one that, once stored, nothing could read or erase, or that
/// would read back changed:
/// - an empty key, or a key or data that is not ASCII or holds a `;` or
///   a `,`;
/// - a list item that is empty, `∅`, or holds a `;` or a `,`
///   ([`check_item`]);
/// - a USR or SRC value that is `∅` or holds a `;` ([`check_scalar`]);
/// - a TTL whose text would not parse ([`check_ttl`]).
///
/// The engine calls it before any store call. A TTL is stored in whole
/// milliseconds, as every store keeps its deadlines; the sub-millisecond
/// remainder [`format_ttl`] drops is not refused.
pub(crate) fn check_storable(record: &PersonalRecord) -> GdprResult<()> {
    if record.key.is_empty() {
        return Err(GdprError::InvalidRecord("empty key".into()));
    }
    check_data(&record.key)?;
    check_data(&record.data)?;
    let m = &record.metadata;
    for (name, list) in [
        ("PUR", &m.purposes),
        ("OBJ", &m.objections),
        ("DEC", &m.decisions),
        ("SHR", &m.sharing),
    ] {
        list.iter().try_for_each(|item| check_item(name, item))?;
    }
    check_scalar("USR", &m.user)?;
    check_scalar("SRC", &m.source)?;
    check_ttl(m.ttl)
}

/// A key or data value the format can carry: ASCII, without `;` or `,`.
/// The writer checks a record's with it, the reader a stored one's.
pub(crate) fn check_data(value: &str) -> GdprResult<()> {
    if value
        .bytes()
        .all(|b| b.is_ascii() && !matches!(b, b';' | b','))
    {
        return Ok(());
    }
    Err(illegal_in(value, |c| !c.is_ascii() || c == ';' || c == ','))
}

/// A list item that reads back as itself: not empty, not `∅` (either
/// would read back as no item when alone), without `;` or `,`.
pub(crate) fn check_item(attribute: &str, item: &str) -> GdprResult<()> {
    if item.is_empty() || item == EMPTY {
        return Err(GdprError::InvalidRecord(format!(
            "{attribute} item {item:?} would read back as no item"
        )));
    }
    if item.bytes().any(|b| matches!(b, b';' | b',')) {
        return Err(illegal_in(item, |c| c == ';' || c == ','));
    }
    Ok(())
}

/// A USR or SRC value that reads back as itself: not `∅`, without `;`.
pub(crate) fn check_scalar(attribute: &str, value: &str) -> GdprResult<()> {
    if value == EMPTY {
        return Err(GdprError::InvalidRecord(format!(
            "{attribute} value {value:?} would read back as empty"
        )));
    }
    if value.as_bytes().contains(&b';') {
        return Err(illegal_in(value, |c| c == ';'));
    }
    Ok(())
}

/// A TTL whose [`format_ttl`] text parses: one written in milliseconds
/// must fit a `u64` of them.
pub(crate) fn check_ttl(ttl: Option<Duration>) -> GdprResult<()> {
    match ttl {
        Some(ttl) if ttl.subsec_millis() != 0 && u64::try_from(ttl.as_millis()).is_err() => Err(
            GdprError::InvalidRecord(format!("TTL {ttl:?} does not fit u64 milliseconds")),
        ),
        _ => Ok(()),
    }
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
/// or `∅`) as the reader finds it, in bytes. Its messages show the bytes
/// as text: the reader reports them only for a record it has checked as
/// UTF-8.
pub fn parse_ttl(value: &[u8]) -> GdprResult<Option<Duration>> {
    if value.is_empty() || value == EMPTY_BYTES {
        return Ok(None);
    }
    let text = String::from_utf8_lossy;
    let invalid = |message: String| GdprError::InvalidRecord(message);
    let split_at = value
        .iter()
        .position(|b| !b.is_ascii_digit())
        .ok_or_else(|| invalid(format!("TTL {:?} missing unit", text(value))))?;
    let (digits, unit) = value.split_at(split_at);
    let n = digits
        .iter()
        .try_fold(0u64, |n, d| {
            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })
        .filter(|_| !digits.is_empty())
        .ok_or_else(|| invalid(format!("bad TTL count {:?}", text(digits))))?;
    let (per_unit, millis) = match unit {
        b"days" | b"day" => (86_400, false),
        b"hours" | b"hour" => (3_600, false),
        b"mins" | b"min" => (60, false),
        b"secs" | b"sec" => (1, false),
        b"ms" => (1, true),
        other => return Err(invalid(format!("unknown TTL unit {:?}", text(other)))),
    };
    let count = n
        .checked_mul(per_unit)
        .ok_or_else(|| invalid(format!("TTL {:?} overflows u64 seconds", text(value))))?;
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
            let d = parse_ttl(s.as_bytes()).unwrap().unwrap();
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
            assert_eq!(
                parse_ttl(text.as_bytes()).unwrap(),
                Some(ttl),
                "roundtrip {text}"
            );
        }
        assert_eq!(format_ttl(Duration::from_micros(1_500_700)), "1500ms");
        assert_eq!(format_ttl(Duration::from_micros(2_000_300)), "2secs");
        assert_eq!(parse_ttl(b"3000ms").unwrap(), Some(Duration::from_secs(3)));
        assert!(parse_ttl(b"ms").is_err());
        assert_eq!(
            parse_ttl(format!("{}ms", u64::MAX).as_bytes()).unwrap(),
            Some(Duration::from_millis(u64::MAX))
        );
    }

    #[test]
    fn ttl_parse_errors() {
        assert!(parse_ttl(b"days").is_err());
        assert!(parse_ttl(b"12").is_err());
        assert!(parse_ttl(b"12years").is_err());
        assert_eq!(parse_ttl("∅".as_bytes()).unwrap(), None);
    }

    /// A count whose seconds do not fit a `u64` is refused, never wrapped
    /// into a short TTL.
    #[test]
    fn ttl_counts_past_u64_seconds_are_refused() {
        assert_eq!(
            parse_ttl(b"213503982334601days").unwrap(),
            Some(Duration::from_secs(213_503_982_334_601 * 86_400))
        );
        for s in ["213503982334602days", "5124095576030432hours"] {
            assert!(
                matches!(parse_ttl(s.as_bytes()), Err(GdprError::InvalidRecord(_))),
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
    /// `{`, `»`'s `0xbb`), where a borrowing zero-byte test would misfire
    /// — and counts exactly the bytes ≥ 0x80 it counts, `0x80`, `0xff`
    /// and `0x7f` included.
    #[test]
    fn separators_match_a_byte_loop() {
        let alphabet = [b';', b':', b'{', 0xbb, b'a', b';', 0x80, 0xff, 0x7f, 0xe2];
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
                let high = bytes.iter().filter(|&&b| b >= 0x80).count();
                let want = (naive.len() == 8).then(|| (naive.try_into().unwrap(), high));
                assert_eq!(separators(&bytes), want, "{bytes:?}");
            }
        }
        assert_eq!(separators(b";;;;;;;;"), Some(([0, 1, 2, 3, 4, 5, 6, 7], 0)));
        assert_eq!(
            separators(b";:;:;:;:;:;:;:;:"),
            Some(([0, 2, 4, 6, 8, 10, 12, 14], 0))
        );
        let all_high = [[0xffu8; 8].as_slice(), b";;;;;;;;", &[0x80; 11]].concat();
        assert_eq!(separators(&all_high).map(|(_, high)| high), Some(19));
    }

    /// The reader takes the text as UTF-8 unchecked only where its high
    /// bytes are exactly its `∅` values'. Everything else is checked in
    /// full, and invalid UTF-8 is refused before any field error.
    #[test]
    fn utf8_is_proved_by_the_markers_or_checked() {
        let unproven = |bytes: &[u8]| !matches!(RecordView::fields(bytes), Ok((_, true)));
        assert!(!unproven(PAPER_EXAMPLE.as_bytes()));
        let accented = PAPER_EXAMPLE.replace("USR=neo", "USR=néo");
        assert!(unproven(accented.as_bytes()));
        assert_eq!(
            RecordView::from_bytes(accented.as_bytes()).unwrap().user,
            "néo"
        );
        // Two halves of a marker where one stood: the count no longer
        // matches, so the text is checked, and refused as UTF-8.
        let mut torn_bytes = PAPER_EXAMPLE.as_bytes().to_vec();
        let at = PAPER_EXAMPLE.find("OBJ=∅").unwrap() + 4;
        torn_bytes[at + 2] = b'x';
        assert!(unproven(&torn_bytes));
        let err = RecordView::from_bytes(&torn_bytes).unwrap_err().to_string();
        assert!(err.contains("invalid utf-8"), "{err}");
        // Invalid UTF-8 outranks a missing field.
        let err = RecordView::from_bytes(b"k;\xe2;").unwrap_err().to_string();
        assert!(err.contains("invalid utf-8"), "{err}");
        assert!(RecordView::parse("k;d")
            .unwrap_err()
            .to_string()
            .contains("expected 9 fields"));
    }

    /// What the engine refuses before a write is exactly what would not
    /// read back: every refused shape, made into a record anyway, reads
    /// back changed or not at all.
    #[test]
    fn unstorable_records_are_refused_and_would_not_read_back() {
        let base = parse(PAPER_EXAMPLE).unwrap();
        check_storable(&base).unwrap();
        let mut damaged: Vec<PersonalRecord> = Vec::new();
        for bad in ["a;b", "a,b", "∅", "é"] {
            let mut r = base.clone();
            r.data = bad.into();
            damaged.push(r);
            let mut r = base.clone();
            r.key = bad.into();
            damaged.push(r);
        }
        for bad in ["x;y", "x,y", "", "∅"] {
            let mut r = base.clone();
            r.metadata.sharing = vec![bad.into()];
            damaged.push(r);
        }
        for bad in ["n;eo", "∅"] {
            let mut r = base.clone();
            r.metadata.user = bad.into();
            damaged.push(r);
        }
        let mut r = base.clone();
        r.metadata.ttl = Some(Duration::new(u64::MAX, 1_000_000));
        damaged.push(r);
        for r in damaged {
            assert!(check_storable(&r).is_err(), "{r:?}");
            assert_ne!(parse(&serialize(&r)).ok(), Some(r.clone()), "{r:?}");
        }
        // A comma is a scalar's own character; `""` reads back as itself.
        let mut r = base.clone();
        r.metadata.user = "a,b".into();
        r.metadata.source = String::new();
        check_storable(&r).unwrap();
        assert_eq!(parse(&serialize(&r)).unwrap(), r);
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

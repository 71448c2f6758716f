//! Property-based tests over the codecs, core data structures, and the
//! compliance engine's metadata-index path.
//!
//! The crates.io `proptest` crate is unavailable in this offline build, so
//! properties run on a small seeded-case harness: each property executes
//! over many deterministic seeds and reports the failing seed on panic.
//! Shrinking is traded away; reproducibility is kept.

use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::wire::{self, RecordView};
use gdprbench_repro::gdpr_core::{GdprError, RecordPredicate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Run `body` once per seed, labelling panics with the seed that failed.
fn run_cases(cases: u64, body: impl Fn(&mut SmallRng)) {
    for seed in 0..cases {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed.wrapping_mul(0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property failed at seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// ASCII text safe for the §4.2.1 wire format (no `;`/`,`, non-empty).
fn field(rng: &mut SmallRng) -> String {
    const CHARS: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.:/+=@#-";
    let len = rng.gen_range(1usize..25);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0usize..CHARS.len())] as char)
        .collect()
}

fn key_field(rng: &mut SmallRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let len = rng.gen_range(1usize..17);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0usize..CHARS.len())] as char)
        .collect()
}

fn field_list(rng: &mut SmallRng, max: usize) -> Vec<String> {
    let mut v: Vec<String> = (0..rng.gen_range(0usize..max))
        .map(|_| field(rng))
        .collect();
    v.sort();
    v.dedup();
    v
}

fn byte_vec(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0usize..max.max(1));
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

fn arb_record(rng: &mut SmallRng) -> PersonalRecord {
    let ttl = rng
        .gen_bool(0.7)
        .then(|| Duration::from_secs(rng.gen_range(1u64..10_000_000)));
    PersonalRecord::new(
        key_field(rng),
        field(rng),
        Metadata {
            purposes: field_list(rng, 4),
            ttl,
            user: field(rng),
            objections: field_list(rng, 3),
            decisions: field_list(rng, 3),
            sharing: field_list(rng, 3),
            source: field(rng),
        },
    )
}

/// Wire-format roundtrip for arbitrary valid records. TTLs are rounded
/// to their coarsest exact unit by the format, so compare via re-format.
#[test]
fn wire_roundtrip() {
    run_cases(256, |rng| {
        let record = arb_record(rng);
        let encoded = wire::serialize(&record);
        let decoded = wire::parse(&encoded).unwrap();
        assert_eq!(decoded.key, record.key);
        assert_eq!(decoded.data, record.data);
        assert_eq!(decoded.metadata.user, record.metadata.user);
        assert_eq!(decoded.metadata.purposes, record.metadata.purposes);
        assert_eq!(decoded.metadata.objections, record.metadata.objections);
        assert_eq!(decoded.metadata.sharing, record.metadata.sharing);
        assert_eq!(decoded.metadata.ttl, record.metadata.ttl);
        // Serialization is stable (parse∘serialize is idempotent).
        assert_eq!(wire::serialize(&decoded), encoded);
    });
}

/// The wire parser never panics on arbitrary input.
#[test]
fn wire_parse_never_panics() {
    run_cases(512, |rng| {
        let len = rng.gen_range(0usize..200);
        let input: String = (0..len)
            .map(|_| {
                // Bias toward the format's separator characters to hit the
                // parser's edge cases, not just garbage rejection.
                match rng.gen_range(0u32..6) {
                    0 => ';',
                    1 => ',',
                    2 => '=',
                    _ => rng.gen_range(0x20u32..0x7F) as u8 as char,
                }
            })
            .collect();
        let _ = wire::parse(&input);
    });
}

/// The wire reader before `RecordView`: split into a `Vec`, build the
/// record field by field. Kept as the reference `RecordView::parse` must
/// agree with, results and error messages alike.
fn reference_parse(s: &str) -> Result<PersonalRecord, GdprError> {
    let invalid = |msg: String| Err(GdprError::InvalidRecord(msg));
    let s = s.strip_suffix(';').unwrap_or(s);
    let fields: Vec<&str> = s.split(';').collect();
    if fields.len() != 9 {
        return invalid(format!("expected 9 fields, got {}", fields.len()));
    }
    if fields[0].is_empty() {
        return invalid("empty key".into());
    }
    for field in &fields[..2] {
        if let Some(bad) = field.chars().find(|c| !c.is_ascii() || *c == ',') {
            return invalid(format!("illegal character {bad:?} in field {field:?}"));
        }
    }
    let list = |value: &str| -> Vec<String> {
        if value == wire::EMPTY || value.is_empty() {
            Vec::new()
        } else {
            value.split(',').map(str::to_string).collect()
        }
    };
    let scalar = |value: &str| {
        if value == wire::EMPTY {
            String::new()
        } else {
            value.to_string()
        }
    };
    let mut metadata = Metadata::default();
    for (i, expected) in ["PUR", "TTL", "USR", "OBJ", "DEC", "SHR", "SRC"]
        .iter()
        .enumerate()
    {
        let Some(value) = fields[2 + i]
            .strip_prefix(expected)
            .and_then(|rest| rest.strip_prefix('='))
        else {
            return invalid(format!("field {} must be {expected}=...", 2 + i));
        };
        match *expected {
            "PUR" => metadata.purposes = list(value),
            "TTL" => metadata.ttl = wire::parse_ttl(value.as_bytes())?,
            "USR" => metadata.user = scalar(value),
            "OBJ" => metadata.objections = list(value),
            "DEC" => metadata.decisions = list(value),
            "SHR" => metadata.sharing = list(value),
            _ => metadata.source = scalar(value),
        }
    }
    Ok(PersonalRecord::new(fields[0], fields[1], metadata))
}

/// A record with `∅` attributes more often than [`arb_record`] makes them.
fn sparse_record(rng: &mut SmallRng) -> PersonalRecord {
    let mut record = arb_record(rng);
    let m = &mut record.metadata;
    for list in [
        &mut m.purposes,
        &mut m.objections,
        &mut m.decisions,
        &mut m.sharing,
    ] {
        if rng.gen_bool(0.3) {
            list.clear();
        }
    }
    if rng.gen_bool(0.2) {
        m.user.clear();
    }
    if rng.gen_bool(0.2) {
        m.source.clear();
    }
    if rng.gen_bool(0.3) {
        m.decisions.push(Metadata::DEC_OPT_OUT.to_string());
    }
    record
}

/// `RecordView::parse` is the wire reader: on well-formed text (`∅`
/// attributes included) and on every way of damaging it, the view made
/// owned equals what the reference parser returns — record or error.
#[test]
fn record_view_parse_matches_the_reference_parser() {
    run_cases(512, |rng| {
        let record = sparse_record(rng);
        let text = wire::serialize(&record);
        let view = RecordView::parse(&text).unwrap();
        assert_eq!(wire::serialize(&view.to_record()), text, "roundtrip");

        let mut chars: Vec<char> = text.chars().collect();
        let at = rng.gen_range(0usize..chars.len());
        match rng.gen_range(0u32..6) {
            0 => {} // intact
            1 => {
                chars.remove(at);
            }
            2 => chars.insert(at, ';'),
            3 => chars.insert(at, ','),
            4 => chars.insert(at, 'é'),
            _ => chars[at] = ['=', 'X', '9', '∅'][rng.gen_range(0usize..4)],
        }
        let damaged: String = chars.into_iter().collect();
        assert_eq!(
            RecordView::parse(&damaged).map(|view| view.to_record()),
            reference_parse(&damaged),
            "{damaged:?}"
        );
        assert_eq!(wire::parse(&damaged), reference_parse(&damaged));
    });
}

/// [`reference_parse`] over stored bytes: invalid UTF-8 is refused first,
/// with `str::from_utf8`'s message.
fn reference_parse_bytes(bytes: &[u8]) -> Result<PersonalRecord, GdprError> {
    let text = std::str::from_utf8(bytes).map_err(|e| GdprError::InvalidRecord(e.to_string()))?;
    reference_parse(text)
}

/// The pieces [`byte_damaged_record`] splices into a record: the marker,
/// its truncations and its bytes alone, the separators, non-ASCII text.
const BYTE_PIECES: [&[u8]; 12] = [
    "∅".as_bytes(),
    b"\xe2",
    b"\xe2\x88",
    b"\x88\x85",
    b"\x85",
    b"\x80",
    b"\xff",
    b";",
    b",",
    "é".as_bytes(),
    "ü∅".as_bytes(),
    b"=",
];

/// A stored record's bytes, often non-ASCII where the format allows it
/// (USR, SRC and list values take the reader's `str::from_utf8` path),
/// then, most of the time, damaged: a piece of [`BYTE_PIECES`] put in or
/// over any byte, a byte dropped, or a `∅` cut short.
fn byte_damaged_record(rng: &mut SmallRng) -> Vec<u8> {
    let mut record = sparse_record(rng);
    let m = &mut record.metadata;
    match rng.gen_range(0u32..6) {
        0 => m.user.push('é'),
        1 => m.source = format!("ü{}", m.source),
        2 => m.sharing.push("∅x".into()),
        3 => m.purposes.push("naïve".into()),
        _ => {}
    }
    let mut bytes = wire::serialize(&record).into_bytes();
    for _ in 0..rng.gen_range(0u32..3) {
        let at = rng.gen_range(0usize..bytes.len());
        let piece = BYTE_PIECES[rng.gen_range(0usize..BYTE_PIECES.len())];
        match rng.gen_range(0u32..4) {
            0 => {
                bytes.splice(at..at, piece.iter().copied());
            }
            1 => {
                bytes.remove(at);
            }
            2 => {
                let end = (at + piece.len()).min(bytes.len());
                bytes.splice(at..end, piece.iter().copied());
            }
            _ => {
                // Cut a marker short: keep one or two of its three bytes.
                let marker = "∅".as_bytes();
                if let Some(i) = bytes.windows(3).position(|w| w == marker) {
                    bytes.drain(i + rng.gen_range(1usize..3)..i + 3);
                }
            }
        }
    }
    bytes
}

/// `RecordView::from_bytes` is the reader every store hands its bytes to:
/// on arbitrary bytes — invalid UTF-8, truncated markers, `∅` inside key,
/// data or list items, non-ASCII attribute values — it returns exactly
/// what the reference parser returns on the bytes made text: the same
/// record, or the same error with the same message.
#[test]
fn record_view_from_bytes_matches_the_reference_parser_on_bytes() {
    run_cases(4096, |rng| {
        let bytes = byte_damaged_record(rng);
        let read = RecordView::from_bytes(&bytes).map(|view| view.to_record());
        assert_eq!(read, reference_parse_bytes(&bytes), "{bytes:?}");
        if let Ok(text) = std::str::from_utf8(&bytes) {
            assert_eq!(wire::parse(text), read, "{text:?}");
        }
    });
}

/// A record the format may not carry: [`sparse_record`] with, often, a
/// separator, a lone `∅`, an empty item or a non-ASCII character put into
/// one of its fields, or a TTL whose milliseconds overflow a `u64`.
fn hostile_record(rng: &mut SmallRng) -> PersonalRecord {
    const BAD: [&str; 8] = [";", ",", "∅", "", "é", "a;b", "a,b", "x∅"];
    let mut record = sparse_record(rng);
    let bad = BAD[rng.gen_range(0usize..BAD.len())];
    let spliced = |text: &str| format!("{text}{bad}");
    let m = &mut record.metadata;
    match rng.gen_range(0u32..10) {
        0 => record.key = spliced(&record.key),
        1 => record.data = bad.into(),
        2 => m.user = bad.into(),
        3 => m.source = spliced(&m.source),
        4 => m.purposes.push(bad.into()),
        5 => m.sharing = vec![bad.into()],
        6 => m.objections.insert(0, spliced("obj")),
        7 => m.ttl = Some(Duration::new(u64::MAX - rng.gen_range(0u64..4), 1_000_000)),
        _ => {}
    }
    record
}

/// The engine acks only a create that reads back: for any record, the
/// create is refused as `InvalidRecord` with nothing stored, or the
/// record's wire form parses back to the record and reads back through
/// the engine.
#[test]
fn a_create_is_refused_or_reads_back_equal() {
    use gdprbench_repro::connectors::RedisConnector;
    use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, Session};
    use gdprbench_repro::kvstore::{KvConfig, KvStore};
    let conn =
        RedisConnector::with_metadata_index(KvStore::open(KvConfig::default()).unwrap()).unwrap();
    let (refused, acked) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    run_cases(1024, |rng| {
        let record = hostile_record(rng);
        let key = record.key.clone();
        let controller = Session::controller();
        let read = GdprQuery::ReadMetadataByKey(key.clone());
        match conn.execute(&controller, &GdprQuery::CreateRecord(record.clone())) {
            Err(GdprError::InvalidRecord(_)) => {
                refused.set(refused.get() + 1);
                let after = conn.execute(&controller, &read);
                assert!(matches!(after, Err(GdprError::NotFound(_))), "{after:?}");
            }
            created => {
                created.unwrap();
                acked.set(acked.get() + 1);
                assert_eq!(wire::parse(&wire::serialize(&record)), Ok(record.clone()));
                let resp = conn.execute(&controller, &read).unwrap();
                assert_eq!(
                    resp.as_metadata().unwrap().to_vec()[0].1,
                    record.metadata,
                    "{key}"
                );
                conn.execute(&controller, &GdprQuery::DeleteByKey(key))
                    .unwrap();
            }
        }
    });
    assert!(
        refused.get() > 100 && acked.get() > 100,
        "{refused:?} {acked:?}"
    );
}

/// One predicate body: evaluated over the stored text and over the parsed
/// record, every predicate gives the same answer.
#[test]
fn predicates_agree_on_text_and_parsed_views() {
    run_cases(512, |rng| {
        let record = sparse_record(rng);
        let text = wire::serialize(&record);
        let stored = RecordView::parse(&text).unwrap();
        let m = &record.metadata;
        // A term the record carries, when it carries one; else a stranger.
        let mut pick = |terms: &[String]| match terms.len() {
            0 => field(rng),
            n if rng.gen_bool(0.8) => terms[rng.gen_range(0usize..n)].clone(),
            _ => field(rng),
        };
        let user = pick(std::slice::from_ref(&m.user));
        let preds = [
            RecordPredicate::User(user),
            RecordPredicate::DeclaredPurpose(pick(&m.purposes)),
            RecordPredicate::AllowsPurpose(pick(&m.purposes)),
            RecordPredicate::AllowsPurpose(pick(&m.objections)),
            RecordPredicate::NotObjecting(pick(&m.objections)),
            RecordPredicate::DecisionEligible,
            RecordPredicate::SharedWith(pick(&m.sharing)),
        ];
        for pred in preds {
            let parsed = pred.matches(&record);
            assert_eq!(pred.matches_view(&stored), parsed, "{pred:?} on {text}");
            assert_eq!(pred.matches_view(&record.view()), parsed, "{pred:?}");
        }
        // The view's semantics are the record's own.
        for purpose in m.purposes.iter().chain(&m.objections) {
            assert_eq!(
                RecordPredicate::AllowsPurpose(purpose.clone()).matches_view(&stored),
                m.allows_purpose(purpose)
            );
        }
        assert_eq!(
            RecordPredicate::DecisionEligible.matches_view(&stored),
            m.allows_automated_decisions()
        );
    });
}

/// `MetadataUpdate::leaves_unchanged` is sound: wherever it holds for a
/// view — of the stored text or of the parsed record, `∅` attributes
/// included — `apply` on that view's metadata succeeds and changes
/// nothing. Every update shape runs against every field, with values the
/// record holds and values it does not.
#[test]
fn leaves_unchanged_implies_apply_is_an_ok_no_op() {
    use gdprbench_repro::gdpr_core::{MetadataField, MetadataUpdate};
    const FIELDS: [MetadataField; 6] = [
        MetadataField::Purposes,
        MetadataField::Objections,
        MetadataField::Decisions,
        MetadataField::Sharing,
        MetadataField::Source,
        MetadataField::User,
    ];
    let no_ops = std::cell::Cell::new(0usize);
    run_cases(512, |rng| {
        let record = sparse_record(rng);
        let text = wire::serialize(&record);
        let m = &record.metadata;
        // What the record holds, across every attribute, plus strangers.
        let values: Vec<String> = [&m.purposes, &m.objections, &m.decisions, &m.sharing]
            .into_iter()
            .flatten()
            .cloned()
            .chain([m.user.clone(), m.source.clone(), field(rng), String::new()])
            .collect();
        let mut updates: Vec<MetadataUpdate> = Vec::new();
        for field in FIELDS {
            for value in &values {
                updates.push(MetadataUpdate::Add(field, value.clone()));
                updates.push(MetadataUpdate::Remove(field, value.clone()));
                updates.push(MetadataUpdate::SetScalar(field, value.clone()));
            }
        }
        updates.extend(m.ttl.map(MetadataUpdate::SetTtl));
        updates.push(MetadataUpdate::SetTtl(Duration::from_secs(60)));
        let views = [RecordView::parse(&text).unwrap(), record.view()];
        for update in &updates {
            for view in &views {
                if !update.leaves_unchanged(view) {
                    continue;
                }
                let mut applied = view.metadata();
                assert_eq!(update.apply(&mut applied), Ok(()), "{update:?} on {text}");
                assert_eq!(applied, view.metadata(), "{update:?} on {text}");
                no_ops.set(no_ops.get() + 1);
            }
        }
    });
    assert!(no_ops.get() > 512, "the property must meet no-ops");
}

/// A metadata row pushed from a stored record's bytes, as a predicate read
/// pushes it, is the row of the parsed record's owned metadata — and so is
/// one pushed from the parsed record's view, whose lists are items.
#[test]
fn metadata_rows_from_views_match_the_parsed_metadata() {
    use gdprbench_repro::gdpr_core::response::MetadataRows;
    use gdprbench_repro::gdpr_core::wire::RecordView;
    run_cases(512, |rng| {
        let records: Vec<PersonalRecord> = (0..rng.gen_range(0usize..6))
            .map(|_| {
                let mut record = arb_record(rng);
                if rng.gen_bool(0.3) {
                    record.metadata.user.push('é');
                }
                record
            })
            .collect();
        let mut viewed = MetadataRows::with_capacity(records.len(), 0);
        let mut items = MetadataRows::default();
        let mut owned = Vec::new();
        for record in &records {
            let text = wire::serialize(record);
            let parsed = wire::parse(&text).unwrap();
            viewed.push_view(
                &parsed.key,
                &RecordView::from_bytes(text.as_bytes()).unwrap(),
            );
            items.push_view(&parsed.key, &parsed.view());
            owned.push((parsed.key.clone(), parsed.metadata));
        }
        assert_eq!(viewed.to_vec(), owned);
        assert_eq!(items, viewed);
        assert_eq!(MetadataRows::from(owned), viewed);
    });
}

/// `DataRows` behaves as the `Vec<(String, String)>` it replaced: rows
/// come back as built, `sort` orders as `Vec::sort`, rows pushed onto
/// built rows land where `Vec::extend` puts them, and `len` /
/// `cardinality` count rows. Strings are short and drawn from few letters
/// (multi-byte ones included), so keys tie and strings are often empty.
#[test]
fn data_rows_match_a_vec_model() {
    use gdprbench_repro::gdpr_core::response::DataRows;
    use gdprbench_repro::gdpr_core::GdprResponse;
    fn text(rng: &mut SmallRng) -> String {
        const CHARS: [char; 4] = ['a', 'b', 'é', '∅'];
        let len = rng.gen_range(0usize..4);
        (0..len).map(|_| CHARS[rng.gen_range(0usize..4)]).collect()
    }
    fn model(rng: &mut SmallRng) -> Vec<(String, String)> {
        let n = rng.gen_range(0usize..12);
        (0..n).map(|_| (text(rng), text(rng))).collect()
    }
    run_cases(512, |rng| {
        let (a, b) = (model(rng), model(rng));
        let rows = DataRows::from(a.clone());
        assert_eq!(rows.to_vec(), a);
        assert!(rows
            .iter()
            .eq(a.iter().map(|(k, d)| (k.as_str(), d.as_str()))));
        assert_eq!(rows, a.iter().map(|(k, d)| (k, d)).collect());

        let mut sorted = rows.clone();
        sorted.sort();
        let mut sorted_model = a.clone();
        sorted_model.sort();
        assert_eq!(sorted.to_vec(), sorted_model);
        assert_eq!(sorted, DataRows::from(sorted_model));

        let mut joined = rows.clone();
        b.iter().for_each(|(k, d)| joined.push(k, d));
        let mut joined_model = a.clone();
        joined_model.extend(b);
        assert_eq!(joined.to_vec(), joined_model);

        assert_eq!(joined.len(), joined_model.len());
        assert_eq!(joined.is_empty(), joined_model.is_empty());
        let resp = GdprResponse::Data(joined);
        assert_eq!(resp.cardinality(), joined_model.len());
    });
}

/// RESP command encoding roundtrips arbitrary binary parts.
#[test]
fn resp_roundtrip() {
    run_cases(256, |rng| {
        let parts: Vec<gdprbench_repro::kvstore::Bytes> = (0..rng.gen_range(1usize..8))
            .map(|_| gdprbench_repro::kvstore::Bytes::from(byte_vec(rng, 64)))
            .collect();
        let encoded = gdprbench_repro::kvstore::resp::encode_command(&parts);
        let (decoded, used) = gdprbench_repro::kvstore::resp::parse_command(&encoded).unwrap();
        assert_eq!(decoded, parts);
        assert_eq!(used, encoded.len());
    });
}

/// The RESP parser never panics on garbage.
#[test]
fn resp_parse_never_panics() {
    run_cases(512, |rng| {
        let input = byte_vec(rng, 128);
        let _ = gdprbench_repro::kvstore::resp::parse_command(&input);
    });
}

/// Datum binary codec roundtrips.
#[test]
fn datum_roundtrip() {
    use gdprbench_repro::relstore::Datum;
    run_cases(256, |rng| {
        let n = rng.gen::<u64>() as i64;
        let x = (rng.gen::<f64>() - 0.5) * rng.gen_range(1i64..1_000_000) as f64;
        for datum in [
            Datum::Null,
            Datum::Int(n),
            Datum::Float(x),
            Datum::Text(field(rng)),
            Datum::TextArray(field_list(rng, 5)),
            Datum::Timestamp(rng.gen::<u64>()),
        ] {
            let mut buf = Vec::new();
            datum.encode(&mut buf);
            let mut pos = 0;
            let decoded = Datum::decode(&buf, &mut pos).unwrap();
            assert_eq!(decoded, datum);
            assert_eq!(pos, buf.len());
        }
    });
}

/// relstore's secondary index agrees with a posting-list model: per key,
/// the rows in insertion order, a removal moving the last row into the
/// freed slot, a duplicate `(key, row)` ignored and an emptied key gone.
/// Covers non-unique keys, repeated array elements, removal order,
/// `lookup_range_limit` cut inside one posting list, and space that
/// returns to zero once every row is removed.
#[test]
fn btree_matches_model() {
    use gdprbench_repro::relstore::datum::Datum;
    use gdprbench_repro::relstore::heap::RowId;
    use gdprbench_repro::relstore::index::Index;
    use std::collections::BTreeMap;
    // Zero-padded, so text order is numeric order.
    let key = |k: u32| format!("k{k:03}");
    run_cases(128, |rng| {
        let mut index = Index::new("purposes_idx", 0, false, true);
        let mut model: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut rows: BTreeMap<u32, Vec<Datum>> = BTreeMap::new();
        for _ in 0..rng.gen_range(1usize..300) {
            let id = rng.gen_range(0u32..12);
            if rng.gen_bool(0.6) {
                // Up to three elements out of a small range: repeats within
                // a row and keys shared by many rows are both common.
                let elems: Vec<u32> = (0..rng.gen_range(1usize..4))
                    .map(|_| rng.gen_range(0u32..30))
                    .collect();
                for e in &elems {
                    let plist = model.entry(*e).or_default();
                    if !plist.contains(&id) {
                        plist.push(id);
                    }
                }
                let row = vec![Datum::TextArray(elems.iter().map(|e| key(*e)).collect())];
                index.insert(&row, RowId(id));
                rows.entry(id)
                    .or_default()
                    .push(row.into_iter().next().unwrap());
            } else if let Some(row) = rows.get_mut(&id).and_then(Vec::pop) {
                let Datum::TextArray(elems) = &row else {
                    unreachable!()
                };
                for e in elems {
                    let e: u32 = e[1..].parse().unwrap();
                    if let Some(plist) = model.get_mut(&e) {
                        if let Some(pos) = plist.iter().position(|r| *r == id) {
                            plist.swap_remove(pos);
                        }
                        if plist.is_empty() {
                            model.remove(&e);
                        }
                    }
                }
                index.remove(&[row], RowId(id));
            }
            let probe = rng.gen_range(0u32..30);
            let want = model.get(&probe).cloned().unwrap_or_default();
            let got: Vec<u32> = index
                .lookup(&Datum::Text(key(probe)))
                .into_iter()
                .map(|r| r.0)
                .collect();
            assert_eq!(got, want, "posting list of {}", key(probe));
        }
        // Space is key bytes plus 16 per (key, row) entry.
        let space: usize = model
            .iter()
            .map(|(k, plist)| plist.len() * (Datum::Text(key(*k)).size_bytes() + 16))
            .sum();
        assert_eq!(index.size_bytes(), space);
        for _ in 0..8 {
            let (lo, hi) = (rng.gen_range(0u32..32), rng.gen_range(0u32..32));
            let limit = rng.gen_range(0usize..16);
            let got: Vec<u32> = index
                .lookup_range_limit(&Datum::Text(key(lo)), &Datum::Text(key(hi)), limit)
                .into_iter()
                .map(|r| r.0)
                .collect();
            let want: Vec<u32> = model
                .iter()
                .filter(|(k, _)| (lo..=hi).contains(*k))
                .flat_map(|(_, plist)| plist.iter().copied())
                .take(limit)
                .collect();
            assert_eq!(got, want, "range {lo}..={hi} limit {limit}");
        }
        // Removing every row still held leaves nothing behind — space
        // included, whatever elements a row repeated.
        for (id, held) in rows {
            for row in held {
                index.remove(&[row], RowId(id));
            }
        }
        assert_eq!(index.size_bytes(), 0);
    });
}

/// kvstore's sorted set agrees with a sorted-`Vec` model: order is
/// `(score, member)` with `-0.0 == +0.0` (a tie the member breaks), an
/// update to an equal score keeps the stored score, and a range stops
/// after `limit` members.
#[test]
fn zset_matches_sorted_vec_model() {
    use gdprbench_repro::kvstore::value::ZSet;
    use gdprbench_repro::kvstore::Bytes;
    use std::cmp::Ordering;
    const SCORES: [f64; 8] = [
        f64::NEG_INFINITY,
        -3.0,
        -0.0,
        0.0,
        1.0,
        2.5,
        1e9,
        f64::INFINITY,
    ];
    fn order(a: &(f64, Bytes), b: &(f64, Bytes)) -> Ordering {
        a.0.partial_cmp(&b.0).unwrap().then_with(|| a.1.cmp(&b.1))
    }
    run_cases(128, |rng| {
        let mut zset = ZSet::new();
        let mut model: Vec<(f64, Bytes)> = Vec::new();
        for _ in 0..rng.gen_range(1usize..200) {
            let member = Bytes::from(format!("m{}", rng.gen_range(0u32..20)));
            let score = SCORES[rng.gen_range(0..SCORES.len())];
            let added = match model.iter().position(|(_, m)| *m == member) {
                Some(i) => {
                    if model[i].0 != score {
                        model[i].0 = score;
                    }
                    false
                }
                None => {
                    model.push((score, member.clone()));
                    true
                }
            };
            model.sort_by(order);
            assert_eq!(zset.add(member, score), added);
            assert_eq!(zset.len(), model.len());
        }
        for _ in 0..8 {
            let min = SCORES[rng.gen_range(0..SCORES.len())];
            let max = SCORES[rng.gen_range(0..SCORES.len())];
            let limit = rng.gen_range(0usize..8);
            let bits = |v: Vec<(Bytes, f64)>| -> Vec<(Bytes, u64)> {
                v.into_iter().map(|(m, s)| (m, s.to_bits())).collect()
            };
            let want: Vec<(Bytes, f64)> = model
                .iter()
                .filter(|(s, _)| min <= *s && *s <= max)
                .take(limit)
                .map(|(s, m)| (m.clone(), *s))
                .collect();
            assert_eq!(
                bits(zset.range_by_score_limit(min, max, limit)),
                bits(want),
                "range {min}..={max} limit {limit}"
            );
        }
    });
}

/// Sealed volume blocks always roundtrip and always detect single-bit
/// corruption.
#[test]
fn volume_roundtrip_and_corruption() {
    run_cases(256, |rng| {
        let data = byte_vec(rng, 256);
        let block = rng.gen::<u64>();
        let volume = gdprbench_repro::crypto::Volume::new(b"prop-key");
        let sealed = volume.seal(block, &data);
        let (got_block, got) = volume.open(&sealed).unwrap();
        assert_eq!(got_block, block);
        assert_eq!(got, data);
        let mut bad = sealed.clone();
        let flip_bit = rng.gen_range(0usize..64);
        let idx = flip_bit % bad.len().max(1);
        bad[idx] ^= 1 << (flip_bit % 8);
        assert!(volume.open(&bad).is_err());
    });
}

// ---------------------------------------------------------------------------
// GDPR wire-protocol codec properties (the gdpr-server network layer)
// ---------------------------------------------------------------------------

mod server_wire {
    use super::*;
    use gdprbench_repro::gdpr_core::compliance::{FeatureReport, FeatureSupport};
    use gdprbench_repro::gdpr_core::connector::SpaceReport;
    use gdprbench_repro::gdpr_core::response::LogLine;
    use gdprbench_repro::gdpr_core::tenant::TenantId;
    use gdprbench_repro::gdpr_core::{
        GdprError, GdprQuery, GdprResponse, MetadataField, MetadataUpdate, Session,
    };
    use gdprbench_repro::gdpr_server::wire::{
        decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
        RequestBody, ResponseBody, StatsSnapshot, MAX_FRAME,
    };

    fn arb_session(rng: &mut SmallRng) -> Session {
        match rng.gen_range(0u32..4) {
            0 => Session::controller(),
            1 => Session::customer(field(rng)),
            2 => Session::processor(field(rng)),
            _ => Session::regulator(),
        }
    }

    fn arb_tenant(rng: &mut SmallRng) -> TenantId {
        match rng.gen_range(0u32..3) {
            0 => TenantId::default(),
            1 => TenantId::new("acme").unwrap(),
            _ => TenantId::new("zeta-9").unwrap(),
        }
    }

    fn arb_duration(rng: &mut SmallRng) -> Duration {
        // Mix sub-second precision in: the codec must carry exact nanos.
        Duration::new(
            rng.gen_range(0u64..10_000_000),
            rng.gen_range(0u32..1_000_000_000),
        )
    }

    fn arb_field(rng: &mut SmallRng) -> MetadataField {
        [
            MetadataField::Purposes,
            MetadataField::Objections,
            MetadataField::Decisions,
            MetadataField::Sharing,
            MetadataField::Source,
            MetadataField::User,
        ][rng.gen_range(0usize..6)]
    }

    fn arb_update(rng: &mut SmallRng) -> MetadataUpdate {
        match rng.gen_range(0u32..4) {
            0 => MetadataUpdate::Add(arb_field(rng), field(rng)),
            1 => MetadataUpdate::Remove(arb_field(rng), field(rng)),
            2 => MetadataUpdate::SetScalar(arb_field(rng), field(rng)),
            _ => MetadataUpdate::SetTtl(arb_duration(rng)),
        }
    }

    /// Every `GdprQuery` variant, cycling deterministically through the
    /// taxonomy so each seed batch covers all 20.
    fn arb_query(rng: &mut SmallRng, variant: u32) -> GdprQuery {
        use GdprQuery::*;
        match variant % 20 {
            0 => CreateRecord(arb_record(rng)),
            1 => DeleteByKey(field(rng)),
            2 => DeleteByPurpose(field(rng)),
            3 => DeleteExpired,
            4 => DeleteByUser(field(rng)),
            5 => ReadDataByKey(field(rng)),
            6 => ReadDataByPurpose(field(rng)),
            7 => ReadDataByUser(field(rng)),
            8 => ReadDataNotObjecting(field(rng)),
            9 => ReadDataDecisionEligible,
            10 => ReadMetadataByKey(field(rng)),
            11 => ReadMetadataByUser(field(rng)),
            12 => ReadMetadataBySharedWith(field(rng)),
            13 => UpdateDataByKey {
                key: field(rng),
                data: field(rng),
            },
            14 => UpdateMetadataByKey {
                key: field(rng),
                update: arb_update(rng),
            },
            15 => UpdateMetadataByPurpose {
                purpose: field(rng),
                update: arb_update(rng),
            },
            16 => UpdateMetadataByUser {
                user: field(rng),
                update: arb_update(rng),
            },
            17 => GetSystemLogs {
                from_ms: rng.gen::<u64>(),
                to_ms: rng.gen::<u64>(),
            },
            18 => GetSystemFeatures,
            _ => VerifyDeletion(field(rng)),
        }
    }

    fn arb_support(rng: &mut SmallRng) -> FeatureSupport {
        [
            FeatureSupport::Native,
            FeatureSupport::Retrofitted,
            FeatureSupport::Unsupported,
        ][rng.gen_range(0usize..3)]
    }

    fn arb_feature_report(rng: &mut SmallRng) -> FeatureReport {
        FeatureReport {
            timely_deletion: arb_support(rng),
            monitoring_and_logging: arb_support(rng),
            metadata_indexing: arb_support(rng),
            encryption: arb_support(rng),
            access_control: arb_support(rng),
        }
    }

    /// Every `GdprResponse` variant — including empty result sets, large
    /// values, and audit-log payloads.
    fn arb_gdpr_response(rng: &mut SmallRng, variant: u32) -> GdprResponse {
        use GdprResponse::*;
        match variant % 8 {
            0 => Created,
            1 => Deleted(rng.gen::<u32>() as usize),
            2 => {
                let n = rng.gen_range(0usize..6);
                // Large values: the codec must not care about payload size.
                Data(
                    (0..n)
                        .map(|_| (field(rng), field(rng).repeat(rng.gen_range(1usize..500))))
                        .collect(),
                )
            }
            3 => {
                let n = rng.gen_range(0usize..6);
                Metadata(
                    (0..n)
                        .map(|_| (field(rng), arb_record(rng).metadata))
                        .collect(),
                )
            }
            4 => Updated(rng.gen::<u32>() as usize),
            5 => {
                let n = rng.gen_range(0usize..6);
                Logs(
                    (0..n)
                        .map(|_| LogLine {
                            timestamp_ms: rng.gen::<u64>(),
                            actor: field(rng),
                            operation: field(rng).into(),
                            detail: field(rng),
                        })
                        .collect::<Vec<_>>()
                        .into(),
                )
            }
            6 => Features(arb_feature_report(rng)),
            _ => DeletionVerified(rng.gen_bool(0.5)),
        }
    }

    /// Every `GdprError` variant.
    fn arb_error(rng: &mut SmallRng, variant: u32) -> GdprError {
        match variant % 7 {
            0 => GdprError::AccessDenied {
                role: field(rng),
                query: field(rng),
                reason: field(rng),
            },
            1 => GdprError::NotFound(field(rng)),
            2 => GdprError::AlreadyExists(field(rng)),
            3 => GdprError::InvalidRecord(field(rng)),
            4 => GdprError::Store(field(rng)),
            5 => GdprError::Unsupported(field(rng)),
            _ => GdprError::ShardMisroute {
                key: field(rng),
                found_in: rng.gen_range(0usize..64),
                owner: rng.gen_range(0usize..64),
                shard_count: rng.gen_range(1usize..64),
            },
        }
    }

    fn arb_request(rng: &mut SmallRng, variant: u32) -> RequestBody {
        match variant % 8 {
            v @ 0..=1 => {
                let qv = rng.gen::<u32>().wrapping_add(v);
                RequestBody::Execute(arb_session(rng), arb_query(rng, qv))
            }
            2 => RequestBody::Features,
            3 => RequestBody::SpaceReport,
            4 => RequestBody::RecordCount,
            5 => RequestBody::Name,
            6 => RequestBody::Ping(byte_vec(rng, 64)),
            _ => RequestBody::ConnStats,
        }
    }

    fn arb_response(rng: &mut SmallRng, variant: u32) -> ResponseBody {
        match variant % 9 {
            0..=2 => {
                let v = rng.gen::<u32>();
                ResponseBody::Response(arb_gdpr_response(rng, v))
            }
            3 => {
                let v = rng.gen::<u32>();
                ResponseBody::Error(arb_error(rng, v))
            }
            4 => ResponseBody::Protocol(field(rng)),
            5 => ResponseBody::Features(arb_feature_report(rng)),
            6 => ResponseBody::Space(SpaceReport {
                personal_data_bytes: rng.gen::<u32>() as usize,
                total_bytes: rng.gen::<u32>() as usize,
            }),
            7 => ResponseBody::Count(rng.gen::<u64>()),
            _ => {
                if rng.gen_bool(0.5) {
                    ResponseBody::Name(field(rng))
                } else {
                    ResponseBody::Stats(StatsSnapshot {
                        requests: rng.gen::<u64>(),
                        errors: rng.gen::<u64>(),
                        bytes_in: rng.gen::<u64>(),
                        bytes_out: rng.gen::<u64>(),
                        server_connections: rng.gen::<u64>(),
                        server_requests: rng.gen::<u64>(),
                    })
                }
            }
        }
    }

    /// Requests — every query variant under every session shape — roundtrip
    /// exactly through encode→decode, seq included.
    #[test]
    fn request_roundtrip_over_every_variant() {
        run_cases(256, |rng| {
            let variant = rng.gen::<u32>();
            let seq = rng.gen::<u64>();
            // Also force each opcode to appear, independent of rng bias.
            for v in [variant, variant % 8, (variant % 8) + 8] {
                let tenant = arb_tenant(rng);
                // The header tenant is injected into Execute sessions on
                // decode, so the reference body must carry it too.
                let body = match arb_request(rng, v) {
                    RequestBody::Execute(session, query) => {
                        RequestBody::Execute(session.with_tenant(tenant.clone()), query)
                    }
                    other => other,
                };
                let encoded = encode_request(seq, &tenant, &body);
                let (got_seq, got_tenant, got) = decode_request(&encoded).unwrap();
                assert_eq!(got_seq, seq);
                assert_eq!(got_tenant, tenant);
                assert_eq!(got, body);
            }
        });
    }

    /// Responses — every GDPR response, every error, every control answer —
    /// roundtrip exactly.
    #[test]
    fn response_roundtrip_over_every_variant() {
        run_cases(256, |rng| {
            let seq = rng.gen::<u64>();
            for v in 0..9u32 {
                let rv = rng.gen::<u32>().wrapping_add(v);
                let body = arb_response(rng, rv);
                let encoded = encode_response(seq, &body);
                let (got_seq, got) = decode_response(&encoded).unwrap();
                assert_eq!(got_seq, seq);
                assert_eq!(got, body);
            }
        });
    }

    /// Any text a wire string can carry: empty, or drawn from an alphabet
    /// of the record format's separators, its `∅` marker and non-ASCII
    /// letters as well as plain ones.
    fn any_text(rng: &mut SmallRng) -> String {
        const CHARS: [char; 8] = ['a', 'b', ',', ';', '∅', 'é', 'ß', ' '];
        let len = rng.gen_range(0usize..6);
        (0..len)
            .map(|_| CHARS[rng.gen_range(0usize..CHARS.len())])
            .collect()
    }

    fn any_list(rng: &mut SmallRng) -> Vec<String> {
        (0..rng.gen_range(0usize..4))
            .map(|_| any_text(rng))
            .collect()
    }

    /// A `Metadata` response of any metadata the codec carries — empty
    /// lists and items, items holding `,`, `∅` or non-ASCII text, missing
    /// and sub-second TTLs — decodes into `MetadataRows` that encode back
    /// to the very bytes the owned `encode_metadata` wrote, and hold the
    /// metadata that was written.
    #[test]
    fn metadata_rows_reencode_to_the_decoded_bytes() {
        use gdprbench_repro::gdpr_core::Metadata;
        use gdprbench_repro::gdpr_server::codec::{Reader, Writer};
        use gdprbench_repro::gdpr_server::wire::{
            decode_gdpr_response, encode_gdpr_response, encode_metadata,
        };
        run_cases(1_024, |rng| {
            let pairs: Vec<(String, Metadata)> = (0..rng.gen_range(0usize..5))
                .map(|_| {
                    let metadata = Metadata {
                        purposes: any_list(rng),
                        ttl: rng.gen_bool(0.7).then(|| arb_duration(rng)),
                        user: any_text(rng),
                        objections: any_list(rng),
                        decisions: any_list(rng),
                        sharing: any_list(rng),
                        source: any_text(rng),
                    };
                    (any_text(rng), metadata)
                })
                .collect();
            let mut w = Writer::new();
            w.u8(4);
            w.count(pairs.len());
            for (key, metadata) in &pairs {
                w.string(key);
                encode_metadata(&mut w, metadata);
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let decoded = decode_gdpr_response(&mut r).unwrap();
            r.finish().unwrap();
            let GdprResponse::Metadata(rows) = &decoded else {
                panic!("decoded {decoded:?}")
            };
            assert_eq!(rows.to_vec(), pairs);
            let mut again = Writer::new();
            encode_gdpr_response(&mut again, &decoded);
            assert_eq!(again.into_bytes(), bytes, "{pairs:?}");
        });
    }

    /// Every strict prefix of a valid payload is rejected as truncated —
    /// with an error, never a panic, and never a bogus success.
    #[test]
    fn truncated_frames_are_rejected() {
        run_cases(48, |rng| {
            let (seq, rv) = (rng.gen::<u64>(), rng.gen::<u32>());
            let request = encode_request(seq, &arb_tenant(rng), &arb_request(rng, rv));
            for cut in 0..request.len() {
                assert!(
                    decode_request(&request[..cut]).is_err(),
                    "request cut at {cut}/{} must fail",
                    request.len()
                );
            }
            let (seq, rv) = (rng.gen::<u64>(), rng.gen::<u32>());
            let response = encode_response(seq, &arb_response(rng, rv));
            for cut in 0..response.len() {
                assert!(
                    decode_response(&response[..cut]).is_err(),
                    "response cut at {cut}/{} must fail",
                    response.len()
                );
            }
        });
    }

    /// The decoders never panic on arbitrary bytes (and reject trailing
    /// garbage after a valid payload).
    #[test]
    fn wire_decoding_never_panics_on_garbage() {
        run_cases(512, |rng| {
            let garbage = byte_vec(rng, 160);
            let _ = decode_request(&garbage);
            let _ = decode_response(&garbage);
            let mut valid = encode_request(1, &TenantId::default(), &RequestBody::Name);
            valid.extend_from_slice(&byte_vec(rng, 8));
            if valid.len() > encode_request(1, &TenantId::default(), &RequestBody::Name).len() {
                assert!(
                    decode_request(&valid).is_err(),
                    "trailing garbage must be rejected"
                );
            }
        });
    }

    /// Frame I/O roundtrips pipelined sequences and flags mid-frame death.
    #[test]
    fn frame_stream_roundtrip() {
        run_cases(64, |rng| {
            let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1usize..6))
                .map(|_| {
                    let (seq, rv) = (rng.gen::<u64>(), rng.gen::<u32>());
                    encode_request(seq, &arb_tenant(rng), &arb_request(rng, rv))
                })
                .collect();
            let mut stream = Vec::new();
            for payload in &payloads {
                write_frame(&mut stream, payload).unwrap();
            }
            let mut cursor = std::io::Cursor::new(stream.clone());
            for payload in &payloads {
                assert_eq!(
                    &read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap(),
                    payload
                );
            }
            assert!(read_frame(&mut cursor, MAX_FRAME).unwrap().is_none());
            // Kill the stream mid-frame: that is an error, not clean EOF.
            if stream.len() > 5 {
                let cut = rng.gen_range(5usize..stream.len());
                let mut cursor = std::io::Cursor::new(&stream[..cut]);
                let mut result = Ok(Some(Vec::new()));
                while matches!(result, Ok(Some(_))) {
                    result = read_frame(&mut cursor, MAX_FRAME);
                }
                // Either the cut fell exactly on a frame boundary (clean
                // EOF) or the truncation must surface as an error.
                let frame_boundary = {
                    let mut at = 0usize;
                    let mut boundary = true;
                    while at < cut {
                        if cut - at < 4 {
                            boundary = false;
                            break;
                        }
                        let len =
                            u32::from_be_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
                        at += 4 + len;
                        if at > cut {
                            boundary = false;
                            break;
                        }
                    }
                    boundary
                };
                assert_eq!(frame_boundary, result.is_ok(), "cut at {cut}");
            }
        });
    }

    /// The nonblocking [`FrameDecoder`] agrees with the blocking
    /// `read_frame` on every stream, however the kernel fragments it:
    /// random chunking yields the same frames in the same order, and
    /// truncation at any point leaves the tail pending — never an error,
    /// never a bogus frame (the event loop must treat a partial frame as
    /// "wait for more", not as EOF or poison).
    #[test]
    fn frame_decoder_matches_blocking_reads_under_any_chunking() {
        use gdprbench_repro::gdpr_server::FrameDecoder;
        run_cases(64, |rng| {
            let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1usize..6))
                .map(|_| {
                    let (seq, rv) = (rng.gen::<u64>(), rng.gen::<u32>());
                    encode_request(seq, &arb_tenant(rng), &arb_request(rng, rv))
                })
                .collect();
            let mut stream = Vec::new();
            for payload in &payloads {
                write_frame(&mut stream, payload).unwrap();
            }
            // Deliver in random-size chunks (1..=32 bytes), draining after
            // each push.
            let mut decoder = FrameDecoder::new(MAX_FRAME);
            let mut got = Vec::new();
            let mut at = 0;
            while at < stream.len() {
                let step = rng.gen_range(1usize..33).min(stream.len() - at);
                decoder.push(&stream[at..at + step]);
                at += step;
                while let Some(frame) = decoder.next_frame().expect("valid lengths only") {
                    got.push(frame);
                }
            }
            assert_eq!(got, payloads);
            assert_eq!(decoder.buffered(), 0, "a clean stream leaves nothing");

            // Truncation anywhere: complete prefix frames decode, the cut
            // frame stays pending.
            let cut = rng.gen_range(0usize..stream.len() + 1);
            let mut decoder = FrameDecoder::new(MAX_FRAME);
            decoder.push(&stream[..cut]);
            let mut prefix = Vec::new();
            while let Some(frame) = decoder.next_frame().expect("valid lengths only") {
                prefix.push(frame);
            }
            let whole: Vec<&Vec<u8>> = payloads
                .iter()
                .scan(0usize, |end, p| {
                    *end += 4 + p.len();
                    Some((*end, p))
                })
                .filter(|(end, _)| *end <= cut)
                .map(|(_, p)| p)
                .collect();
            assert_eq!(prefix.iter().collect::<Vec<_>>(), whole, "cut at {cut}");
            // Feeding the rest completes the stream exactly.
            decoder.push(&stream[cut..]);
            let mut rest = Vec::new();
            while let Some(frame) = decoder.next_frame().expect("valid lengths only") {
                rest.push(frame);
            }
            assert_eq!(prefix.len() + rest.len(), payloads.len());
        });
    }
}

// ---------------------------------------------------------------------------
// Shared GDPR corpus generators (engine-index and sharding properties)
// ---------------------------------------------------------------------------

mod gdpr_gen {
    use super::*;
    use gdprbench_repro::gdpr_core::{GdprQuery, GdprResponse, Session};

    pub const USERS: [&str; 4] = ["neo", "trinity", "morpheus", "smith"];
    pub const PURPOSES: [&str; 4] = ["ads", "2fa", "analytics", "billing"];
    pub const PARTIES: [&str; 3] = ["x-corp", "y-corp", "z-corp"];

    pub fn pick<'a>(rng: &mut SmallRng, pool: &[&'a str]) -> &'a str {
        pool[rng.gen_range(0usize..pool.len())]
    }

    pub fn subset(rng: &mut SmallRng, pool: &[&str], max: usize) -> Vec<String> {
        let mut out: Vec<String> = (0..rng.gen_range(0usize..max + 1))
            .map(|_| pick(rng, pool).to_string())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    pub fn arb_gdpr_record(rng: &mut SmallRng, key: String) -> PersonalRecord {
        let mut purposes = subset(rng, &PURPOSES, 3);
        if purposes.is_empty() {
            purposes.push(pick(rng, &PURPOSES).to_string());
        }
        let ttl = rng
            .gen_bool(0.5)
            .then(|| Duration::from_secs(rng.gen_range(1u64..120)));
        PersonalRecord::new(
            key,
            field(rng),
            Metadata {
                purposes,
                ttl,
                user: pick(rng, &USERS).to_string(),
                objections: subset(rng, &PURPOSES, 2),
                decisions: if rng.gen_bool(0.2) {
                    vec![Metadata::DEC_OPT_OUT.to_string()]
                } else {
                    vec![]
                },
                sharing: subset(rng, &PARTIES, 2),
                source: "first-party".to_string(),
            },
        )
    }

    pub fn sorted(resp: GdprResponse) -> GdprResponse {
        match resp {
            GdprResponse::Data(mut pairs) => {
                pairs.sort();
                GdprResponse::Data(pairs)
            }
            GdprResponse::Metadata(mut rows) => {
                rows.sort();
                GdprResponse::Metadata(rows)
            }
            other => other,
        }
    }

    pub fn predicate_queries() -> Vec<(Session, GdprQuery)> {
        let mut queries = Vec::new();
        for user in USERS {
            queries.push((
                Session::customer(user),
                GdprQuery::ReadDataByUser(user.to_string()),
            ));
            queries.push((
                Session::regulator(),
                GdprQuery::ReadMetadataByUser(user.to_string()),
            ));
        }
        for purpose in PURPOSES {
            queries.push((
                Session::processor(purpose),
                GdprQuery::ReadDataByPurpose(purpose.to_string()),
            ));
            queries.push((
                Session::processor("any"),
                GdprQuery::ReadDataNotObjecting(purpose.to_string()),
            ));
        }
        for party in PARTIES {
            queries.push((
                Session::regulator(),
                GdprQuery::ReadMetadataBySharedWith(party.to_string()),
            ));
        }
        queries.push((
            Session::processor("any"),
            GdprQuery::ReadDataDecisionEligible,
        ));
        queries
    }
}

// ---------------------------------------------------------------------------
// Compliance-engine metadata index properties
// ---------------------------------------------------------------------------

mod engine_index {
    use super::gdpr_gen::*;
    use super::*;
    use gdprbench_repro::connectors::RedisConnector;
    use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, RecordPredicate, Session};
    use gdprbench_repro::kvstore::{ExpirationMode, KvConfig, KvStore};
    use std::sync::Arc;

    /// One predicate per `RecordPredicate` variant — the full closed set
    /// the index must answer.
    pub fn all_predicate_shapes() -> Vec<RecordPredicate> {
        vec![
            RecordPredicate::User(USERS[0].to_string()),
            RecordPredicate::DeclaredPurpose(PURPOSES[0].to_string()),
            RecordPredicate::AllowsPurpose(PURPOSES[0].to_string()),
            RecordPredicate::NotObjecting(PURPOSES[0].to_string()),
            RecordPredicate::DecisionEligible,
            RecordPredicate::SharedWith(PARTIES[0].to_string()),
        ]
    }

    /// Every predicate query returns the identical result set through the
    /// `MetadataIndex` and through a forced full scan, across creates,
    /// metadata updates, deletes, and TTL expirations.
    #[test]
    fn index_and_scan_always_agree() {
        run_cases(24, |rng| {
            let sim = clock::sim();
            let scan_conn = RedisConnector::new(
                KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap(),
            );
            let index_conn = RedisConnector::with_metadata_index(
                KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap(),
            )
            .unwrap();
            let controller = Session::controller();

            // Phase 1: a random corpus, mirrored into both stores.
            let n = rng.gen_range(5usize..40);
            let mut keys = Vec::new();
            for i in 0..n {
                let record = arb_gdpr_record(rng, format!("k{i}"));
                keys.push(record.key.clone());
                for conn in [&scan_conn, &index_conn] {
                    conn.execute(&controller, &GdprQuery::CreateRecord(record.clone()))
                        .unwrap();
                }
            }

            // Phase 2: random mutations (metadata updates and deletions).
            use gdprbench_repro::gdpr_core::{MetadataField, MetadataUpdate};
            for _ in 0..rng.gen_range(0usize..15) {
                let key = keys[rng.gen_range(0usize..keys.len())].clone();
                let update = match rng.gen_range(0u32..4) {
                    0 => Some(MetadataUpdate::Add(
                        MetadataField::Objections,
                        pick(rng, &PURPOSES).to_string(),
                    )),
                    1 => Some(MetadataUpdate::Add(
                        MetadataField::Sharing,
                        pick(rng, &PARTIES).to_string(),
                    )),
                    2 => Some(MetadataUpdate::SetTtl(Duration::from_secs(
                        rng.gen_range(1u64..120),
                    ))),
                    _ => None, // delete instead
                };
                for conn in [&scan_conn, &index_conn] {
                    let query = match &update {
                        Some(update) => GdprQuery::UpdateMetadataByKey {
                            key: key.clone(),
                            update: update.clone(),
                        },
                        None => GdprQuery::DeleteByKey(key.clone()),
                    };
                    // The record may already be deleted; both must agree.
                    let _ = conn.execute(&controller, &query);
                }
            }

            // Phase 3: let a random slice of TTLs expire.
            sim.advance(Duration::from_secs(rng.gen_range(0u64..130)));

            for (session, query) in predicate_queries() {
                let scan = sorted(scan_conn.execute(&session, &query).unwrap());
                let indexed = sorted(index_conn.execute(&session, &query).unwrap());
                assert_eq!(scan, indexed, "divergence on {query:?}");
            }

            // Whatever the mutation history, the indexed engine answers
            // every predicate variant — negatives included — from the
            // index, never by falling back to a scan.
            let index = index_conn.metadata_index().unwrap();
            for pred in all_predicate_shapes() {
                assert!(
                    index.keys_for(&pred).is_some(),
                    "{pred:?} must stay index-answerable"
                );
            }
        });
    }

    /// TTL expiration removes keys from all four inverted indexes and the
    /// deadline set, on both the active-cycle and lazy-access paths.
    #[test]
    fn ttl_expiration_scrubs_all_indexes() {
        run_cases(24, |rng| {
            let sim = clock::sim();
            let store = KvStore::open_with_clock(
                KvConfig {
                    expiration: ExpirationMode::Strict,
                    ..Default::default()
                },
                sim.clone(),
            )
            .unwrap();
            let conn = RedisConnector::with_metadata_index(Arc::clone(&store)).unwrap();
            let controller = Session::controller();

            let n = rng.gen_range(3usize..25);
            let mut records = Vec::new();
            for i in 0..n {
                let mut record = arb_gdpr_record(rng, format!("k{i}"));
                // Everyone gets a TTL; roughly half will be past due.
                record.metadata.ttl = Some(Duration::from_secs(rng.gen_range(1u64..100)));
                conn.execute(&controller, &GdprQuery::CreateRecord(record.clone()))
                    .unwrap();
                records.push(record);
            }

            let horizon = Duration::from_secs(50);
            sim.advance(horizon);
            let index = Arc::clone(conn.metadata_index().unwrap());
            if rng.gen_bool(0.5) {
                // Active path: one strict expiration cycle.
                store.run_expiration_cycle();
            } else {
                // Engine path: DELETE-RECORD-BY-TTL drains the deadline set.
                conn.execute(&controller, &GdprQuery::DeleteExpired)
                    .unwrap();
            }

            for record in &records {
                let expired = record.metadata.ttl.unwrap() <= horizon;
                if expired {
                    assert!(
                        index.fully_absent(&record.key),
                        "expired {} must leave user/purpose/objection/sharing \
                         indexes and the deadline set",
                        record.key
                    );
                } else {
                    assert!(
                        index
                            .keys_for(&RecordPredicate::User(record.metadata.user.clone()))
                            .unwrap()
                            .contains(&record.key.as_str().into()),
                        "live {} must stay indexed",
                        record.key
                    );
                }
            }
            let live = records
                .iter()
                .filter(|r| r.metadata.ttl.unwrap() > horizon)
                .count();
            assert_eq!(index.len(), live);
            assert_eq!(conn.record_count(), live);
        });
    }
}

// ---------------------------------------------------------------------------
// Metadata-index upsert properties
// ---------------------------------------------------------------------------

mod metaindex_diff {
    use super::gdpr_gen::*;
    use super::*;
    use gdprbench_repro::gdpr_core::{IndexBatch, MetadataIndex};

    /// Every predicate shape over every term of the generator vocabulary.
    fn predicates() -> Vec<RecordPredicate> {
        let mut preds = vec![RecordPredicate::DecisionEligible];
        preds.extend(USERS.map(|u| RecordPredicate::User(u.into())));
        for p in PURPOSES {
            preds.push(RecordPredicate::DeclaredPurpose(p.into()));
            preds.push(RecordPredicate::AllowsPurpose(p.into()));
            preds.push(RecordPredicate::NotObjecting(p.into()));
        }
        preds.extend(PARTIES.map(|s| RecordPredicate::SharedWith(s.into())));
        preds
    }

    /// Drop one random element, if any.
    fn drop_one(rng: &mut SmallRng, list: &mut Vec<String>) {
        if !list.is_empty() {
            list.remove(rng.gen_range(0usize..list.len()));
        }
    }

    /// One random metadata transition; adds may repeat a term the list
    /// already holds.
    fn mutate(rng: &mut SmallRng, m: &mut Metadata) {
        match rng.gen_range(0u32..9) {
            0 => m.user = pick(rng, &USERS).to_string(),
            1 => m.purposes.push(pick(rng, &PURPOSES).to_string()),
            2 => drop_one(rng, &mut m.purposes),
            3 => m.objections.push(pick(rng, &PURPOSES).to_string()),
            4 => drop_one(rng, &mut m.objections),
            5 => m.sharing.push(pick(rng, &PARTIES).to_string()),
            6 => drop_one(rng, &mut m.sharing),
            7 => {
                if m.decisions.is_empty() {
                    m.decisions.push(Metadata::DEC_OPT_OUT.to_string());
                } else {
                    m.decisions.clear();
                }
            }
            _ => {
                m.ttl = rng
                    .gen_bool(0.7)
                    .then(|| Duration::from_secs(rng.gen_range(1u64..120)))
            }
        }
    }

    /// An upsert that diffs the key's indexed terms leaves the index
    /// exactly as removing the key and indexing it afresh does: the
    /// per-key dump, every predicate's candidates and the footprint agree
    /// after every op — across user, purpose, objection and sharing
    /// changes (duplicates included), decision opt-out toggles, TTL
    /// changes with the deadline kept or re-armed, removals, and upserts
    /// of absent keys, through all three upsert entry points.
    #[test]
    fn a_diffing_upsert_equals_remove_plus_reinsert() {
        run_cases(96, |rng| {
            let diffing = MetadataIndex::new();
            let reference = MetadataIndex::new();
            let mut live: Vec<Option<PersonalRecord>> = vec![None; 5];
            for step in 0..rng.gen_range(1u64..80) {
                let now_ms = step * 1_000;
                let slot = rng.gen_range(0usize..live.len());
                let key = format!("k{slot}");
                if rng.gen_range(0u32..10) == 0 {
                    assert_eq!(diffing.remove(&key), reference.remove(&key));
                    live[slot] = None;
                } else {
                    let mut record = match live[slot].take() {
                        Some(record) => record,
                        None => arb_gdpr_record(rng, key.clone()),
                    };
                    for _ in 0..rng.gen_range(1u32..4) {
                        mutate(rng, &mut record.metadata);
                    }
                    let rearmed = record
                        .metadata
                        .ttl
                        .map(|ttl| clock::deadline_ms(now_ms, ttl));
                    let deadline = match rng.gen_range(0u32..3) {
                        0 => {
                            let keep = rng.gen_bool(0.5);
                            diffing.upsert(&record, now_ms, keep);
                            if keep {
                                reference.deadline_of(&key)
                            } else {
                                rearmed
                            }
                        }
                        1 => {
                            let keep = rng.gen_bool(0.5);
                            let mut batch = IndexBatch::new();
                            batch.upsert(record.clone(), now_ms, keep);
                            diffing.apply(batch);
                            if keep {
                                reference.deadline_of(&key)
                            } else {
                                rearmed
                            }
                        }
                        _ => {
                            let at = rng.gen_bool(0.7).then(|| rng.gen_range(0u64..200_000));
                            diffing.upsert_with_deadline(&record, at);
                            at
                        }
                    };
                    reference.remove(&key);
                    reference.upsert_with_deadline(&record, deadline);
                    live[slot] = Some(record);
                }

                assert_eq!(diffing.export_entries(), reference.export_entries());
                for pred in predicates() {
                    assert_eq!(
                        diffing.keys_for(&pred),
                        reference.keys_for(&pred),
                        "{pred:?}"
                    );
                }
                assert_eq!(diffing.size_bytes(), reference.size_bytes());
                assert_eq!(
                    diffing.expired_keys(u64::MAX),
                    reference.expired_keys(u64::MAX)
                );
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Shard-count invariance properties
// ---------------------------------------------------------------------------

mod sharded_invariance {
    use super::gdpr_gen::*;
    use super::*;
    use gdprbench_repro::connectors::{
        registry::ScratchDir, DiskConnector, RedisConnector, ShardedDiskConnector,
        ShardedRedisConnector,
    };
    use gdprbench_repro::gdpr_core::{
        GdprConnector, GdprError, GdprQuery, GdprResponse, MetadataField, MetadataUpdate,
        RecordStore, Session,
    };
    use gdprbench_repro::kvstore::{KvConfig, KvStore};
    use gdprbench_repro::pagestore::{PageStore, PageStoreConfig};

    /// The shard counts every property must be invariant over: the ISSUE's
    /// N ∈ {1, 2, 8} plus whatever `GDPR_SHARDS` the CI matrix pins.
    fn shard_counts() -> Vec<usize> {
        let mut counts = vec![1, 2, 8];
        let env_n = gdprbench_repro::gdpr_core::shard_count_from_env();
        if !counts.contains(&env_n) {
            counts.push(env_n);
        }
        counts
    }

    /// A labelled fleet: the unsharded engine (scan and indexed variants),
    /// an indexed `ShardedEngine` per shard count, the disk-native
    /// pagestore engine (unsharded plus a sharded fleet per shard count,
    /// under `dir`, on a pool far smaller than the corpus so eviction
    /// rides along), and
    /// a sharded engine served over loopback TCP — all on one clock. The
    /// remote entry runs the entire response-equality harness through the
    /// wire codec: any lossiness or transport-dependent semantic diverges
    /// here; the disk entries make every seeded op stream a cross-backend
    /// store-equivalence property.
    fn fleet(sim: &clock::SharedClock, dir: &ScratchDir) -> Vec<(String, Box<dyn GdprConnector>)> {
        let open = || KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
        let disks = std::sync::atomic::AtomicUsize::new(0);
        let open_disk = || {
            // A pool far smaller than the corpus, so eviction rides along.
            let config = PageStoreConfig {
                pool_pages: 16,
                ..PageStoreConfig::default()
            };
            let n = disks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            PageStore::open(dir.join(format!("store-{n}")), config, sim.clone()).unwrap()
        };
        let mut conns: Vec<(String, Box<dyn GdprConnector>)> = vec![
            (
                "unsharded-scan".to_string(),
                Box::new(RedisConnector::new(open())),
            ),
            (
                "unsharded-mi".to_string(),
                Box::new(RedisConnector::with_metadata_index(open()).unwrap()),
            ),
            (
                "disk".to_string(),
                Box::new(DiskConnector::with_metadata_index(open_disk()).unwrap()),
            ),
        ];
        for n in shard_counts() {
            conns.push((
                format!("sharded-{n}"),
                Box::new(
                    ShardedRedisConnector::with_metadata_index((0..n).map(|_| open()).collect())
                        .unwrap(),
                ),
            ));
            conns.push((
                format!("disk-sharded-{n}"),
                Box::new(
                    ShardedDiskConnector::with_metadata_index(
                        (0..n).map(|_| open_disk()).collect(),
                    )
                    .unwrap(),
                ),
            ));
        }
        let served: gdprbench_repro::gdpr_core::EngineHandle = std::sync::Arc::new(
            ShardedRedisConnector::with_metadata_index((0..2).map(|_| open()).collect()).unwrap(),
        );
        conns.push((
            "remote-sharded-2".to_string(),
            Box::new(
                gdprbench_repro::connectors::RemoteConnector::serve_in_process_with(
                    served,
                    2,
                    gdprbench_repro::gdpr_server::ServerConfig {
                        workers: 2,
                        ..Default::default()
                    },
                )
                .unwrap(),
            ),
        ));
        conns
    }

    /// Responses compared modulo result-set order (the unsharded engine
    /// returns store order; the router returns key order).
    fn normalize(result: Result<GdprResponse, GdprError>) -> Result<GdprResponse, GdprError> {
        result.map(sorted)
    }

    /// For seeded op sequences over every GdprQuery variant, the unsharded
    /// engine and `ShardedEngine{N=1,2,8}` produce identical responses at
    /// every step, identical predicate result sets at the end, and
    /// identical final store states.
    #[test]
    fn op_sequences_are_shard_count_invariant() {
        run_cases(16, |rng| {
            let sim = clock::sim();
            let dir = ScratchDir::new("prop-disk");
            let conns = fleet(&(sim.clone() as clock::SharedClock), &dir);
            let controller = Session::controller();

            // Mirror one op stream into every connector, asserting
            // response equality (including errors) at every step.
            let apply = |session: &Session, query: &GdprQuery| {
                let mut results = conns
                    .iter()
                    .map(|(label, conn)| (label, normalize(conn.execute(session, query))));
                let (_, reference) = results.next().unwrap();
                for (label, result) in results {
                    assert_eq!(result, reference, "{label} diverges on {query:?}");
                }
            };

            let n_records = rng.gen_range(5usize..35);
            let keys: Vec<String> = (0..n_records).map(|i| format!("k{i}")).collect();
            for key in &keys {
                let record = arb_gdpr_record(rng, key.clone());
                apply(&controller, &GdprQuery::CreateRecord(record));
            }

            for _ in 0..rng.gen_range(4usize..16) {
                let key = keys[rng.gen_range(0usize..keys.len())].clone();
                let (session, query) = match rng.gen_range(0u32..13) {
                    0 => (
                        controller.clone(),
                        GdprQuery::UpdateMetadataByKey {
                            key,
                            update: MetadataUpdate::Add(
                                MetadataField::Objections,
                                pick(rng, &PURPOSES).to_string(),
                            ),
                        },
                    ),
                    1 => (
                        controller.clone(),
                        GdprQuery::UpdateMetadataByKey {
                            key,
                            update: MetadataUpdate::SetTtl(Duration::from_secs(
                                rng.gen_range(1u64..120),
                            )),
                        },
                    ),
                    2 => (controller.clone(), GdprQuery::DeleteByKey(key)),
                    3 => (
                        controller.clone(),
                        GdprQuery::UpdateDataByKey {
                            key,
                            data: field(rng),
                        },
                    ),
                    4 => (
                        controller.clone(),
                        GdprQuery::UpdateMetadataByPurpose {
                            purpose: pick(rng, &PURPOSES).to_string(),
                            update: MetadataUpdate::Add(
                                MetadataField::Sharing,
                                pick(rng, &PARTIES).to_string(),
                            ),
                        },
                    ),
                    5 => (
                        controller.clone(),
                        GdprQuery::UpdateMetadataByUser {
                            user: pick(rng, &USERS).to_string(),
                            update: MetadataUpdate::Add(
                                MetadataField::Sharing,
                                pick(rng, &PARTIES).to_string(),
                            ),
                        },
                    ),
                    6 => (
                        controller.clone(),
                        GdprQuery::DeleteByUser(pick(rng, &USERS).to_string()),
                    ),
                    7 => (
                        controller.clone(),
                        GdprQuery::DeleteByPurpose(pick(rng, &PURPOSES).to_string()),
                    ),
                    8 => {
                        sim.advance(Duration::from_secs(rng.gen_range(0u64..40)));
                        (controller.clone(), GdprQuery::DeleteExpired)
                    }
                    // Group purpose removal: data-dependent validation (a
                    // record whose only purpose is removed fails G5.1b), so
                    // the whole fleet must agree on success *and* on the
                    // all-or-nothing failure — the cross-shard
                    // pre-validation contract.
                    9 => (
                        controller.clone(),
                        GdprQuery::UpdateMetadataByPurpose {
                            purpose: pick(rng, &PURPOSES).to_string(),
                            update: MetadataUpdate::Remove(
                                MetadataField::Purposes,
                                pick(rng, &PURPOSES).to_string(),
                            ),
                        },
                    ),
                    // Mid-stream negative-predicate reads: the indexed
                    // engines answer these from the all-keys /
                    // decision-eligibility sets while mutations are still
                    // landing.
                    10 => (
                        Session::processor("any"),
                        GdprQuery::ReadDataNotObjecting(pick(rng, &PURPOSES).to_string()),
                    ),
                    11 => (
                        Session::processor("any"),
                        GdprQuery::ReadDataDecisionEligible,
                    ),
                    _ => (Session::regulator(), GdprQuery::VerifyDeletion(key)),
                };
                apply(&session, &query);
            }

            // Let a random slice of TTLs lapse, then sweep the whole
            // read-side query surface.
            sim.advance(Duration::from_secs(rng.gen_range(0u64..130)));
            for (session, query) in predicate_queries() {
                apply(&session, &query);
            }
            for key in &keys {
                apply(
                    &Session::regulator(),
                    &GdprQuery::VerifyDeletion(key.clone()),
                );
                apply(
                    &Session::processor(pick(rng, &PURPOSES)),
                    &GdprQuery::ReadDataByKey(key.clone()),
                );
            }

            // Live record counts agree...
            let reference_count = conns[0].1.record_count();
            for (label, conn) in &conns {
                assert_eq!(conn.record_count(), reference_count, "{label}");
            }
        });
    }

    /// A group update applied a second time finds every match already as
    /// the first left it. The engine then writes nothing — and must still
    /// answer as the oracle does, `Updated(matches)` or the same
    /// validation failure, on every entry of [`fleet`] — kvstore and
    /// disk, unsharded and at 1, 2, 8 and `GDPR_SHARDS` shards, over
    /// loopback — with every predicate read after the stream agreeing too.
    #[test]
    fn group_updates_applied_twice_match_the_oracle() {
        use gdprbench_repro::workload::oracle::{responses_match, Oracle};
        run_cases(12, |rng| {
            let dir = ScratchDir::new("prop-disk");
            let conns = fleet(&(clock::sim() as clock::SharedClock), &dir);
            let mut oracle = Oracle::new();
            let check = |oracle: &mut Oracle, session: &Session, query: &GdprQuery| {
                let expected = oracle.apply(session, query);
                for (label, conn) in &conns {
                    let actual = conn.execute(session, query);
                    assert!(
                        responses_match(query, &expected, &actual),
                        "{label} on {query:?}: expected {expected:?}, got {actual:?}"
                    );
                }
            };

            let controller = Session::controller();
            for i in 0..rng.gen_range(5usize..35) {
                let record = arb_gdpr_record(rng, format!("k{i}"));
                check(&mut oracle, &controller, &GdprQuery::CreateRecord(record));
            }
            for _ in 0..rng.gen_range(2usize..8) {
                let update = match rng.gen_range(0u32..6) {
                    0 => {
                        MetadataUpdate::Add(MetadataField::Sharing, pick(rng, &PARTIES).to_string())
                    }
                    1 => MetadataUpdate::Add(
                        MetadataField::Objections,
                        pick(rng, &PURPOSES).to_string(),
                    ),
                    2 => MetadataUpdate::Remove(
                        MetadataField::Sharing,
                        pick(rng, &PARTIES).to_string(),
                    ),
                    // Fails whole wherever a match would lose its last
                    // purpose — on both applications.
                    3 => MetadataUpdate::Remove(
                        MetadataField::Purposes,
                        pick(rng, &PURPOSES).to_string(),
                    ),
                    4 => MetadataUpdate::SetScalar(
                        MetadataField::Source,
                        pick(rng, &["first-party", "third-party"]).to_string(),
                    ),
                    _ => MetadataUpdate::SetTtl(Duration::from_secs(rng.gen_range(1u64..120))),
                };
                let query = if rng.gen_bool(0.5) {
                    GdprQuery::UpdateMetadataByPurpose {
                        purpose: pick(rng, &PURPOSES).to_string(),
                        update,
                    }
                } else {
                    GdprQuery::UpdateMetadataByUser {
                        user: pick(rng, &USERS).to_string(),
                        update,
                    }
                };
                check(&mut oracle, &controller, &query);
                check(&mut oracle, &controller, &query);
            }
            for (session, query) in predicate_queries() {
                check(&mut oracle, &session, &query);
            }
        });
    }

    /// The final *store states* are identical across shard counts: the
    /// union of all shards' records equals the single-store record set,
    /// key for key, byte for byte (data and metadata).
    #[test]
    fn final_store_states_are_shard_count_invariant() {
        run_cases(12, |rng| {
            let sim = clock::sim();
            let open = || KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
            let sharded: Vec<ShardedRedisConnector> = shard_counts()
                .into_iter()
                .map(|n| {
                    ShardedRedisConnector::with_metadata_index((0..n).map(|_| open()).collect())
                        .unwrap()
                })
                .collect();
            let controller = Session::controller();

            let n_records = rng.gen_range(5usize..30);
            for i in 0..n_records {
                let record = arb_gdpr_record(rng, format!("k{i}"));
                for conn in &sharded {
                    conn.execute(&controller, &GdprQuery::CreateRecord(record.clone()))
                        .unwrap();
                }
            }
            for _ in 0..rng.gen_range(0usize..10) {
                let key = format!("k{}", rng.gen_range(0usize..n_records));
                let query = if rng.gen_bool(0.5) {
                    GdprQuery::DeleteByKey(key)
                } else {
                    GdprQuery::UpdateMetadataByKey {
                        key,
                        update: MetadataUpdate::Add(
                            MetadataField::Objections,
                            pick(rng, &PURPOSES).to_string(),
                        ),
                    }
                };
                for conn in &sharded {
                    let _ = conn.execute(&controller, &query);
                }
            }
            sim.advance(Duration::from_secs(rng.gen_range(0u64..130)));

            let state_of = |conn: &ShardedRedisConnector| -> Vec<PersonalRecord> {
                let mut records: Vec<PersonalRecord> = (0..conn.shard_count())
                    .flat_map(|i| conn.engine().shards()[i].store().scan().unwrap())
                    .collect();
                records.sort_by(|a, b| a.key.cmp(&b.key));
                records
            };
            let reference = state_of(&sharded[0]);
            for conn in &sharded[1..] {
                assert_eq!(
                    state_of(conn),
                    reference,
                    "final store state diverges at {} shards",
                    conn.shard_count()
                );
            }
            // Placement is correct in every topology.
            for conn in &sharded {
                conn.verify_placement().unwrap();
            }
            // And every shard's index answers the full predicate set —
            // the negative predicates take the index path at every shard
            // count.
            for conn in &sharded {
                for shard in 0..conn.shard_count() {
                    let index = conn.shards()[shard].metadata_index().unwrap();
                    for pred in super::engine_index::all_predicate_shapes() {
                        assert!(
                            index.keys_for(&pred).is_some(),
                            "shard {shard}/{}: {pred:?} must be index-answerable",
                            conn.shard_count()
                        );
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Cross-backend store equivalence (kvstore vs pagestore)
// ---------------------------------------------------------------------------

mod store_equivalence {
    use super::gdpr_gen::*;
    use super::*;
    use clock::Clock;
    use gdprbench_repro::connectors::registry::{self, Posture, ScratchDir};
    use gdprbench_repro::connectors::{DiskConnector, RedisConnector};
    use gdprbench_repro::gdpr_core::tenant::TenantId;
    use gdprbench_repro::gdpr_core::{
        ComplianceEngine, GdprConnector, GdprQuery, MetadataField, MetadataUpdate, RecordStore,
        Session,
    };
    use gdprbench_repro::kvstore::{KvConfig, KvStore};
    use gdprbench_repro::pagestore::{PageStore, PageStoreConfig};
    use std::sync::{Arc, Mutex};

    /// Pool far smaller than any generated corpus, auto-checkpoint off so
    /// the reopen at the end is forced through full WAL replay.
    fn disk_config() -> PageStoreConfig {
        PageStoreConfig {
            pool_pages: 4,
            checkpoint_frames: usize::MAX,
            ..Default::default()
        }
    }

    /// `fetch_many(keys)` ≡ `keys.filter_map(fetch)` on both backends that
    /// override it, at 500+ records (on disk: a four-page pool under ~40
    /// leaves): the same records in the same order for sorted, distinct key
    /// lists — index candidates for a random predicate, some dropped, some
    /// absent keys added — including keys whose TTL lapses between indexing
    /// and reading. Each lapsed key named is reaped and reported to the
    /// expiry listener exactly once, and afterwards the index equals a scan.
    #[test]
    fn fetch_many_is_the_per_key_fetch_loop() {
        run_cases(3, |rng| {
            let sim = clock::sim();
            let kv = || {
                let store = KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
                RedisConnector::with_metadata_index(store).unwrap()
            };
            let dir = ScratchDir::new("prop-fetch-many");
            let disk = |tag: &str| {
                let store = PageStore::open(dir.join(tag), disk_config(), sim.clone()).unwrap();
                DiskConnector::with_metadata_index(store).unwrap()
            };
            let seed = rng.gen_range(0u64..u64::MAX);
            let twin_rng = || SmallRng::seed_from_u64(seed);
            fetch_many_matches_loop(&mut twin_rng(), &sim, kv().engine(), kv().engine());
            let (batched, looped) = (disk("batched"), disk("looped"));
            fetch_many_matches_loop(&mut twin_rng(), &sim, batched.engine(), looped.engine());
        });
    }

    /// `batched` and `looped` are twins — same records, same clock — so one
    /// can be read each way: a read destroys the lapsed records it meets.
    fn fetch_many_matches_loop<S: RecordStore>(
        rng: &mut SmallRng,
        sim: &Arc<clock::SimClock>,
        batched: &ComplianceEngine<S>,
        looped: &ComplianceEngine<S>,
    ) {
        let n = rng.gen_range(500usize..560);
        let controller = Session::controller();
        for i in 0..n {
            let record = arb_gdpr_record(rng, format!("k{i:04}"));
            for engine in [batched, looped] {
                let create = GdprQuery::CreateRecord(record.clone());
                engine.execute(&controller, &create).unwrap();
            }
        }
        let index = Arc::clone(batched.metadata_index().unwrap());
        // The engine's own listener, counting.
        let fired = Arc::new(Mutex::new(Vec::new()));
        let (sink, scrubbed) = (Arc::clone(&fired), Arc::clone(&index));
        batched.store().on_expiry(Arc::new(move |key| {
            sink.lock().unwrap().push(key.to_string());
            scrubbed.remove(key);
        }));

        let shapes = engine_index::all_predicate_shapes();
        for round in 0..4 {
            let pred = &shapes[rng.gen_range(0usize..shapes.len())];
            let mut keys = index.keys_for(pred).unwrap();
            keys.retain(|_| rng.gen_bool(0.9));
            keys.extend((0..20).map(|_| format!("k{:04}", rng.gen_range(0usize..n + 100)).into()));
            keys.sort();
            keys.dedup();
            // Indexed, then lapsed: TTLs run 1..120 s.
            sim.advance(Duration::from_secs(rng.gen_range(0u64..50)));
            let now_ms = sim.now().as_millis();
            let lapsed: Vec<String> = keys
                .iter()
                .filter(|key| index.deadline_of(key).is_some_and(|at| at <= now_ms))
                .map(|key| key.to_string())
                .collect();

            let before = batched.store().record_count();
            let mut got = Vec::new();
            batched
                .store()
                .fetch_many(&keys, &mut |record| got.push(record.to_record()))
                .unwrap();
            let want: Vec<PersonalRecord> = keys
                .iter()
                .filter_map(|key| looped.store().fetch(key).unwrap())
                .collect();
            assert_eq!(got, want, "{}: round {round}, {pred:?}", batched.name());
            assert!(got.len() < keys.len(), "some keys are absent or lapsed");

            let mut fired = std::mem::take(&mut *fired.lock().unwrap());
            fired.sort();
            assert_eq!(fired, lapsed, "each lapsed key reaped, reported once");
            assert_eq!(batched.store().record_count(), before - lapsed.len());
            assert_eq!(looped.store().record_count(), before - lapsed.len());
        }

        // A scan skips whatever else lapsed and reaps nothing; a TTL purge
        // reaps it, and index and store then agree.
        let live = batched.store().scan().unwrap();
        let purge = batched.execute(&controller, &GdprQuery::DeleteExpired);
        assert!(purge.is_ok(), "{purge:?}");
        let records = batched.store().scan().unwrap();
        assert_eq!(records, live, "the scan showed no lapsed record");
        assert_eq!(batched.store().record_count(), records.len());
        assert_eq!(index.len(), records.len());
        for pred in &shapes {
            let mut want: Vec<Arc<str>> = records
                .iter()
                .filter(|r| pred.matches(r))
                .map(|r| r.key.as_str().into())
                .collect();
            want.sort();
            assert_eq!(index.keys_for(pred).unwrap(), want, "{pred:?}");
        }
    }

    /// `KvStore::read_each(keys)` ≡ `keys.filter_map(get)` on a sim-clock
    /// keyspace whose TTLs lapse between reads. Two twin stores take the
    /// same writes; each round moves the clock and reads one candidate list
    /// — unsorted, with repeats, spanning several 512-key chunks, mixing
    /// live, absent and past-due keys — batched from one twin and key by
    /// key from the other. Both show the same values in the same order and
    /// reap exactly the candidates that were due, each reported once, in
    /// the same order. The cases run once over stock stores and once over
    /// compliant ones (reads logged to the AOF and sealed in transit): the
    /// one shared-side read path in both postures.
    #[test]
    fn read_each_is_the_per_key_get_loop() {
        let postures = [
            ("stock", KvConfig::default()),
            ("compliant", registry::kv_config(Posture::COMPLIANT)),
        ];
        for (posture, config) in postures {
            run_cases(8, |rng| {
                let sim = clock::sim();
                let twin = || {
                    let store = KvStore::open_with_clock(config.clone(), sim.clone()).unwrap();
                    let reaped = Arc::new(Mutex::new(Vec::new()));
                    let sink = Arc::clone(&reaped);
                    store.set_expiry_listener(Arc::new(move |key| {
                        sink.lock()
                            .unwrap()
                            .push(String::from_utf8(key.to_vec()).unwrap())
                    }));
                    (store, reaped)
                };
                let ((batched, batched_reaped), (looped, looped_reaped)) = (twin(), twin());
                let n = rng.gen_range(600usize..1200);
                let key = |i: usize| format!("k{i:05}");
                for i in 0..n {
                    let value = format!("v{i}-{}", rng.gen_range(0u32..1000));
                    let ttl = rng
                        .gen_bool(0.3)
                        .then(|| Duration::from_secs(rng.gen_range(1u64..60)));
                    for store in [&batched, &looped] {
                        match ttl {
                            Some(ttl) => store.set_ex(key(i).as_bytes(), value.as_bytes(), ttl),
                            None => store.set(key(i).as_bytes(), value.as_bytes()),
                        }
                        .unwrap();
                    }
                }

                for round in 0..4 {
                    sim.advance(Duration::from_secs(rng.gen_range(0u64..20)));
                    let len = rng.gen_range(0usize..1500);
                    let candidates: Vec<String> =
                        (0..len).map(|_| key(rng.gen_range(0..n + 200))).collect();
                    let now = sim.now();
                    let mut due: Vec<String> = candidates
                        .iter()
                        .filter(|k| batched.expiry_at(k.as_bytes()).is_some_and(|at| at <= now))
                        .cloned()
                        .collect();
                    let mut seen = std::collections::HashSet::new();
                    due.retain(|k| seen.insert(k.clone()));

                    let mut got = Vec::new();
                    let copy = |k: &String, buf: &mut Vec<u8>| buf.extend_from_slice(k.as_bytes());
                    let visited = batched.read_each(&candidates, copy, |value| {
                        got.push(value.clone());
                        Ok::<_, std::convert::Infallible>(())
                    });
                    assert!(matches!(visited, Ok(Ok(()))));
                    let want: Vec<_> = candidates
                        .iter()
                        .filter_map(|k| looped.get(k.as_bytes()).unwrap())
                        .collect();
                    assert_eq!(got, want, "{posture} round {round}");

                    let batched_reaped = std::mem::take(&mut *batched_reaped.lock().unwrap());
                    let looped_reaped = std::mem::take(&mut *looped_reaped.lock().unwrap());
                    assert_eq!(batched_reaped, looped_reaped, "{posture} round {round}");
                    assert_eq!(
                        batched_reaped, due,
                        "{posture} round {round}: the due candidates"
                    );
                    assert_eq!(batched.dbsize(), looped.dbsize());
                }
            });
        }
    }

    /// The in-memory kvstore engine and the disk-native pagestore engine
    /// are observationally equivalent: seeded op streams — creates over an
    /// overlapping multi-tenant keyspace, point and group metadata
    /// updates, group purpose removals (the all-or-nothing G5.1b path),
    /// data rewrites, per-key/user/purpose deletions, and sim-clock expiry
    /// purges — produce byte-identical responses (modulo result-set order)
    /// at every step, errors included, and identical final logical states.
    /// Tenant-prefixed storage keys take the same page paths as plain
    /// ones, and the whole read surface must agree again after the
    /// pagestore is dropped mid-flight and reopened through WAL recovery.
    ///
    /// Two further cases run at 500+ records per tenant, where a group
    /// write is a page-store batch over far more leaves than the four-page
    /// pool holds: they open with a group update that grows every match by
    /// 200 bytes (leaves split inside the batch) and an erase-by-user, each
    /// of which must be exactly one WAL commit.
    #[test]
    fn kvstore_and_pagestore_agree_on_arbitrary_op_streams() {
        run_cases(10, |rng| agree_on_op_stream(rng, 5..30));
        run_cases(2, |rng| agree_on_op_stream(rng, 500..560));
    }

    fn agree_on_op_stream(rng: &mut SmallRng, records: std::ops::Range<usize>) {
        let sim = clock::sim();
        let kv = RedisConnector::with_metadata_index(
            KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap(),
        )
        .unwrap();
        let dir = ScratchDir::new("prop-equiv");
        let disk = DiskConnector::with_metadata_index(
            PageStore::open(&dir, disk_config(), sim.clone()).unwrap(),
        )
        .unwrap();
        // The default tenant and a named one share the engines: the
        // tenant prefix is part of the storage key, so the pagestore
        // must round-trip prefixed keys bit-for-bit and keep the
        // tenants' overlapping logical keyspaces disjoint on disk.
        let tenants = [TenantId::default(), TenantId::new("acme").unwrap()];

        let apply = |session: &Session, query: &GdprQuery| {
            let reference = kv.execute(session, query).map(sorted);
            let got = disk.execute(session, query).map(sorted);
            assert_eq!(got, reference, "pagestore diverges on {query:?}");
        };
        let controller = Session::controller();

        let n_records = rng.gen_range(records);
        let keys: Vec<String> = (0..n_records).map(|i| format!("k{i}")).collect();
        for key in &keys {
            for tenant in &tenants {
                let record = arb_gdpr_record(rng, key.clone());
                apply(
                    &controller.clone().with_tenant(tenant.clone()),
                    &GdprQuery::CreateRecord(record),
                );
            }
        }

        if n_records >= 500 {
            let frame = gdprbench_repro::pagestore::wal::FRAME_SIZE as u64;
            let pool_pages = disk_config().pool_pages as u64;
            for query in [
                GdprQuery::UpdateMetadataByPurpose {
                    purpose: PURPOSES[0].to_string(),
                    update: MetadataUpdate::Add(MetadataField::Sharing, "p".repeat(200)),
                },
                GdprQuery::DeleteByUser(USERS[0].to_string()),
            ] {
                let store = disk.store();
                let (generation, bytes) = (store.generation(), store.disk_bytes());
                apply(&controller, &query);
                assert_eq!(store.generation(), generation + 1, "{query:?}");
                assert!(
                    store.disk_bytes() - bytes > 2 * pool_pages * frame,
                    "{query:?} must span more leaves than the pool holds"
                );
            }
        }

        for _ in 0..rng.gen_range(6usize..20) {
            let tenant = tenants[rng.gen_range(0usize..tenants.len())].clone();
            let key = keys[rng.gen_range(0usize..keys.len())].clone();
            let (session, query) = match rng.gen_range(0u32..12) {
                0 => (
                    controller.clone(),
                    GdprQuery::UpdateMetadataByKey {
                        key,
                        update: MetadataUpdate::Add(
                            MetadataField::Objections,
                            pick(rng, &PURPOSES).to_string(),
                        ),
                    },
                ),
                1 => (
                    controller.clone(),
                    GdprQuery::UpdateMetadataByKey {
                        key,
                        update: MetadataUpdate::SetTtl(Duration::from_secs(
                            rng.gen_range(1u64..120),
                        )),
                    },
                ),
                2 => (controller.clone(), GdprQuery::DeleteByKey(key)),
                3 => (
                    controller.clone(),
                    GdprQuery::UpdateDataByKey {
                        key,
                        data: field(rng),
                    },
                ),
                // Group updates: every matching record rewrites in
                // place, deadline preserved to the millisecond.
                4 => (
                    controller.clone(),
                    GdprQuery::UpdateMetadataByUser {
                        user: pick(rng, &USERS).to_string(),
                        update: MetadataUpdate::Add(
                            MetadataField::Sharing,
                            pick(rng, &PARTIES).to_string(),
                        ),
                    },
                ),
                5 => (
                    controller.clone(),
                    GdprQuery::UpdateMetadataByPurpose {
                        purpose: pick(rng, &PURPOSES).to_string(),
                        update: MetadataUpdate::Add(
                            MetadataField::Sharing,
                            pick(rng, &PARTIES).to_string(),
                        ),
                    },
                ),
                // Group purpose removal: data-dependent all-or-nothing
                // validation — success and failure must both agree.
                6 => (
                    controller.clone(),
                    GdprQuery::UpdateMetadataByPurpose {
                        purpose: pick(rng, &PURPOSES).to_string(),
                        update: MetadataUpdate::Remove(
                            MetadataField::Purposes,
                            pick(rng, &PURPOSES).to_string(),
                        ),
                    },
                ),
                7 => (
                    controller.clone(),
                    GdprQuery::DeleteByUser(pick(rng, &USERS).to_string()),
                ),
                8 => (
                    controller.clone(),
                    GdprQuery::DeleteByPurpose(pick(rng, &PURPOSES).to_string()),
                ),
                // Sim-clock expiry purge: both stores must reap exactly
                // the same deadline set at the inclusive boundary.
                9 => {
                    sim.advance(Duration::from_secs(rng.gen_range(0u64..40)));
                    (controller.clone(), GdprQuery::DeleteExpired)
                }
                10 => (
                    Session::processor("any"),
                    GdprQuery::ReadDataNotObjecting(pick(rng, &PURPOSES).to_string()),
                ),
                _ => (Session::regulator(), GdprQuery::VerifyDeletion(key)),
            };
            apply(&session.with_tenant(tenant), &query);
        }

        // Lapse a random slice of TTLs, then sweep the entire
        // read-side surface for every tenant.
        sim.advance(Duration::from_secs(rng.gen_range(0u64..130)));
        let mut sweep = |disk: &DiskConnector| {
            for tenant in &tenants {
                for (session, query) in predicate_queries() {
                    let session = session.with_tenant(tenant.clone());
                    let reference = kv.execute(&session, &query).map(sorted);
                    let got = disk.execute(&session, &query).map(sorted);
                    assert_eq!(got, reference, "pagestore diverges on {query:?}");
                }
                for key in &keys {
                    for (session, query) in [
                        (Session::regulator(), GdprQuery::VerifyDeletion(key.clone())),
                        (
                            Session::processor(pick(rng, &PURPOSES)),
                            GdprQuery::ReadDataByKey(key.clone()),
                        ),
                        (
                            Session::regulator(),
                            GdprQuery::ReadMetadataByKey(key.clone()),
                        ),
                    ] {
                        let session = session.with_tenant(tenant.clone());
                        let reference = kv.execute(&session, &query).map(sorted);
                        let got = disk.execute(&session, &query).map(sorted);
                        assert_eq!(got, reference, "pagestore diverges on {query:?}");
                    }
                }
            }
            assert_eq!(disk.record_count(), kv.record_count());
        };
        sweep(&disk);

        // Crash the pagestore (drop without checkpoint — everything
        // since open lives only in the WAL) and recover: the reopened
        // store must replay to the same logical state and agree with
        // the kvstore on the whole read surface again.
        let generation = disk.store().generation();
        drop(disk);
        let store = PageStore::open(&dir, disk_config(), sim.clone()).unwrap();
        assert_eq!(
            store.recovery().generation,
            generation,
            "WAL recovery must land on the pre-crash generation"
        );
        let reopened = DiskConnector::with_metadata_index(store).unwrap();
        sweep(&reopened);
    }
}

// ---------------------------------------------------------------------------
// Cross-tenant isolation properties
// ---------------------------------------------------------------------------

mod tenant_isolation {
    use super::gdpr_gen::*;
    use super::*;
    use gdprbench_repro::connectors::ShardedRedisConnector;
    use gdprbench_repro::gdpr_core::tenant::TenantId;
    use gdprbench_repro::gdpr_core::{
        GdprConnector, GdprQuery, MetadataField, MetadataUpdate, Session,
    };
    use gdprbench_repro::kvstore::{KvConfig, KvStore};

    /// Three tenants interleaving arbitrary op streams over one shared
    /// engine observe exactly what three independent single-tenant engines
    /// replaying each tenant's subsequence would: every response (data,
    /// metadata, deletion counts, errors, audit trails) byte-identical
    /// modulo result-set order, at 1 and 8 shards. The combined engine and
    /// the solo replicas share one simulated clock, so even audit-line
    /// timestamps must match — any cross-tenant read, purge, erasure, or
    /// audit leak diverges here.
    #[test]
    fn interleaved_tenants_match_independent_engines() {
        for shards in [1usize, 8] {
            run_cases(8, |rng| {
                let sim = clock::sim();
                let open = || KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
                let build = || {
                    ShardedRedisConnector::with_metadata_index(
                        (0..shards).map(|_| open()).collect(),
                    )
                    .unwrap()
                };
                let tenants: Vec<TenantId> = ["t-a", "t-b", "t-c"]
                    .iter()
                    .map(|t| TenantId::new(*t).unwrap())
                    .collect();
                let combined = build();
                let solos: Vec<ShardedRedisConnector> =
                    (0..tenants.len()).map(|_| build()).collect();

                // Mirror one tenant's op into the combined engine (tenant
                // on the session) and that tenant's solo replica (default
                // tenant), asserting response equality — errors included.
                // Raw result-set order may differ: the tenant prefix is
                // part of the storage key, so the same logical corpus
                // lands on different shards in the two topologies.
                let apply = |ti: usize, session: &Session, query: &GdprQuery| {
                    let tagged = session.clone().with_tenant(tenants[ti].clone());
                    let ours = combined.execute(&tagged, query).map(sorted);
                    let solo = solos[ti].execute(session, query).map(sorted);
                    assert_eq!(
                        ours,
                        solo,
                        "tenant {} diverges on {query:?} at {shards} shards",
                        tenants[ti].name()
                    );
                };
                let controller = Session::controller();

                // Overlapping logical keyspace: every tenant owns its own
                // "k{i}" — isolation means the shared engine never lets
                // one tenant's k3 shadow another's.
                let n_records = rng.gen_range(4usize..20);
                let keys: Vec<String> = (0..n_records).map(|i| format!("k{i}")).collect();
                for key in &keys {
                    for ti in 0..tenants.len() {
                        let record = arb_gdpr_record(rng, key.clone());
                        apply(ti, &controller, &GdprQuery::CreateRecord(record));
                    }
                }

                for _ in 0..rng.gen_range(6usize..20) {
                    let ti = rng.gen_range(0usize..tenants.len());
                    let key = keys[rng.gen_range(0usize..keys.len())].clone();
                    let (session, query) = match rng.gen_range(0u32..12) {
                        0 => (
                            controller.clone(),
                            GdprQuery::UpdateMetadataByKey {
                                key,
                                update: MetadataUpdate::Add(
                                    MetadataField::Objections,
                                    pick(rng, &PURPOSES).to_string(),
                                ),
                            },
                        ),
                        1 => (
                            controller.clone(),
                            GdprQuery::UpdateMetadataByKey {
                                key,
                                update: MetadataUpdate::SetTtl(Duration::from_secs(
                                    rng.gen_range(1u64..120),
                                )),
                            },
                        ),
                        2 => (controller.clone(), GdprQuery::DeleteByKey(key)),
                        3 => (
                            controller.clone(),
                            GdprQuery::UpdateDataByKey {
                                key,
                                data: field(rng),
                            },
                        ),
                        4 => (
                            controller.clone(),
                            GdprQuery::UpdateMetadataByUser {
                                user: pick(rng, &USERS).to_string(),
                                update: MetadataUpdate::Add(
                                    MetadataField::Sharing,
                                    pick(rng, &PARTIES).to_string(),
                                ),
                            },
                        ),
                        5 => (
                            controller.clone(),
                            GdprQuery::DeleteByUser(pick(rng, &USERS).to_string()),
                        ),
                        6 => (
                            controller.clone(),
                            GdprQuery::DeleteByPurpose(pick(rng, &PURPOSES).to_string()),
                        ),
                        7 => {
                            // One shared clock: the advance lands on the
                            // combined engine and every solo alike, so the
                            // same TTLs lapse everywhere.
                            sim.advance(Duration::from_secs(rng.gen_range(0u64..40)));
                            (controller.clone(), GdprQuery::DeleteExpired)
                        }
                        8 => (
                            Session::processor("any"),
                            GdprQuery::ReadDataNotObjecting(pick(rng, &PURPOSES).to_string()),
                        ),
                        9 => (
                            Session::customer(pick(rng, &USERS)),
                            GdprQuery::ReadDataByUser(pick(rng, &USERS).to_string()),
                        ),
                        // The audit trail is the leak-prone surface: the
                        // combined engine's per-tenant trail must replay
                        // the solo's line for line (same ops, same sim
                        // timestamps), with nobody else's ops in between.
                        10 => (
                            Session::regulator(),
                            GdprQuery::GetSystemLogs {
                                from_ms: 0,
                                to_ms: u64::MAX,
                            },
                        ),
                        _ => (Session::regulator(), GdprQuery::VerifyDeletion(key)),
                    };
                    apply(ti, &session, &query);
                }

                // Lapse a random slice of TTLs, then sweep the entire
                // read-side surface for every tenant: predicates, point
                // reads, deletion verification, and the full audit trail.
                sim.advance(Duration::from_secs(rng.gen_range(0u64..130)));
                for ti in 0..tenants.len() {
                    for (session, query) in predicate_queries() {
                        apply(ti, &session, &query);
                    }
                    for key in &keys {
                        apply(
                            ti,
                            &Session::regulator(),
                            &GdprQuery::VerifyDeletion(key.clone()),
                        );
                        apply(
                            ti,
                            &Session::processor(pick(rng, &PURPOSES)),
                            &GdprQuery::ReadDataByKey(key.clone()),
                        );
                    }
                    apply(
                        ti,
                        &Session::regulator(),
                        &GdprQuery::GetSystemLogs {
                            from_ms: 0,
                            to_ms: u64::MAX,
                        },
                    );
                }

                // Conservation: the shared store holds exactly the union
                // of the per-tenant record sets — nothing leaked, nothing
                // double-counted, nothing lost.
                assert_eq!(
                    combined.record_count(),
                    solos.iter().map(|s| s.record_count()).sum::<usize>(),
                    "combined record count must be the sum of its tenants at {shards} shards"
                );
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Encrypted transport (sealed records + handshake robustness)
// ---------------------------------------------------------------------------

mod secure_transport {
    use super::*;
    use gdprbench_repro::gdpr_server::wire::{write_frame, MAX_FRAME};
    use gdprbench_repro::gdpr_server::{secure, FrameDecoder};

    fn random_32(rng: &mut SmallRng) -> [u8; secure::RANDOM_LEN] {
        let mut out = [0u8; secure::RANDOM_LEN];
        for byte in out.iter_mut() {
            *byte = rng.gen_range(0u32..256) as u8;
        }
        out
    }

    /// Sealed records survive any kernel fragmentation: a stream of
    /// length-prefixed sealed frames delivered in random chunks decodes
    /// and opens back to the exact plaintexts in order; truncation leaves
    /// the tail pending (never a bogus record); a tampered or truncated
    /// record fails `open` without panicking and without poisoning the
    /// channel for the pristine record that follows.
    #[test]
    fn sealed_records_survive_arbitrary_chunking_and_reject_tampering() {
        run_cases(64, |rng| {
            let key = field(rng);
            let (client_random, server_random) = (random_32(rng), random_32(rng));
            let mut sender = secure::client_channel(&key, &client_random, &server_random);
            let mut receiver = secure::server_channel(&key, &client_random, &server_random);

            let plaintexts: Vec<Vec<u8>> = (0..rng.gen_range(1usize..6))
                .map(|_| byte_vec(rng, 200))
                .collect();
            let mut stream = Vec::new();
            for plaintext in &plaintexts {
                write_frame(&mut stream, &sender.seal(plaintext)).unwrap();
            }

            // Random chunking through the same nonblocking decoder the
            // event loop uses (sized up for the seal overhead).
            let mut decoder = FrameDecoder::new(MAX_FRAME + secure::SEAL_OVERHEAD);
            let mut opened = Vec::new();
            let mut at = 0;
            while at < stream.len() {
                let step = rng.gen_range(1usize..33).min(stream.len() - at);
                decoder.push(&stream[at..at + step]);
                at += step;
                while let Some(sealed) = decoder.next_frame().expect("valid lengths only") {
                    opened.push(receiver.open(&sealed).expect("pristine record opens"));
                }
            }
            assert_eq!(opened, plaintexts);
            assert_eq!(decoder.buffered(), 0, "a clean stream leaves nothing");

            // Tamper with the next record: any single-byte flip must fail
            // open (tag mismatch, or replay if the flip hit the sequence
            // field) without advancing channel state...
            let plaintext = byte_vec(rng, 120);
            let sealed = sender.seal(&plaintext);
            let mut tampered = sealed.clone();
            let flip_at = rng.gen_range(0usize..tampered.len());
            tampered[flip_at] ^= 1 << rng.gen_range(0u32..8);
            assert!(
                receiver.open(&tampered).is_err(),
                "tampered record must not open"
            );
            // ...and truncation anywhere must also fail cleanly.
            let cut = rng.gen_range(0usize..sealed.len());
            assert!(
                receiver.open(&sealed[..cut]).is_err(),
                "truncated record must not open"
            );
            // The pristine bytes still open: failed attempts are not sticky.
            assert_eq!(receiver.open(&sealed).unwrap(), plaintext);
        });
    }

    /// Handshake interruption against a live encrypted server: garbage
    /// hellos, version skew, wrong role, mid-handshake EOF, and silent
    /// disconnects never panic the server and never elicit a response
    /// (no protocol oracle) — and a well-behaved encrypted client is
    /// still served afterwards.
    #[test]
    fn handshake_interruption_closes_cleanly_and_server_keeps_serving() {
        use gdprbench_repro::connectors::GdprClient;
        use gdprbench_repro::drivers::{build_connector, ConnectorSpec};
        use gdprbench_repro::gdpr_server::{GdprServer, ServerConfig};
        use std::io::{Read, Write};
        use std::net::TcpStream;

        let engine = build_connector(&ConnectorSpec::new("redis")).unwrap();
        let config = ServerConfig {
            encrypt: Some("proptest-psk".to_string()),
            ..Default::default()
        };
        let server =
            GdprServer::bind(std::sync::Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();

        run_cases(48, |rng| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            match rng.gen_range(0u32..5) {
                // Garbage hello frame of arbitrary bytes.
                0 => write_frame(&mut stream, &byte_vec(rng, 80)).unwrap(),
                // Structurally valid hello with a skewed version.
                1 => {
                    let mut hello = secure::encode_hello(secure::ROLE_CLIENT, &random_32(rng));
                    hello[4] ^= 0x10;
                    write_frame(&mut stream, &hello).unwrap();
                }
                // Right shape, wrong role byte (reflection).
                2 => {
                    let hello = secure::encode_hello(secure::ROLE_SERVER, &random_32(rng));
                    write_frame(&mut stream, &hello).unwrap();
                }
                // Mid-handshake EOF: a partial hello, then write shutdown.
                3 => {
                    let hello = secure::encode_hello(secure::ROLE_CLIENT, &random_32(rng));
                    let mut framed = Vec::new();
                    write_frame(&mut framed, &hello).unwrap();
                    let cut = rng.gen_range(1usize..framed.len());
                    stream.write_all(&framed[..cut]).unwrap();
                }
                // Connect and say nothing.
                _ => {}
            }
            let _ = stream.shutdown(std::net::Shutdown::Write);
            // The server must close without answering: EOF (or a reset),
            // never response bytes.
            let mut buf = [0u8; 64];
            // A reset is an acceptable close too, so only Ok reads are judged.
            if let Ok(n) = stream.read(&mut buf) {
                assert_eq!(n, 0, "server answered a broken handshake");
            }
        });

        // The abuse must not have cost the server its ability to serve a
        // well-behaved encrypted client.
        let client = GdprClient::connect_with(&addr, Some("proptest-psk")).unwrap();
        assert_eq!(client.ping(b"after-abuse").unwrap(), b"after-abuse");
        assert!(
            server
                .stats()
                .connections_accepted
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 49,
            "every interrupted connection was accepted before failing"
        );
        server.shutdown();
    }
}

/// The chunked audit trail against a flat `Vec` filtered naively: any
/// interleaving of single appends and same-instant runs, any `[from, to]`
/// window.
mod audit_trail {
    use super::*;
    use gdprbench_repro::clock::{self, Clock};
    use gdprbench_repro::gdpr_core::audit::{AuditTrail, CHUNK_LINES};
    use gdprbench_repro::gdpr_core::response::LogLine;
    use gdprbench_repro::gdpr_core::Session;

    /// Append one run of `size` same-instant lines per `(advance_ms, size)`,
    /// one `record` each, and keep the flat model beside it.
    fn build(batches: &[(u64, usize)]) -> (AuditTrail, Vec<LogLine>) {
        let sim = clock::sim();
        let trail = AuditTrail::new(sim.clone());
        let session = Session::customer("neo");
        let mut model = Vec::new();
        for &(advance_ms, size) in batches {
            sim.advance(Duration::from_millis(advance_ms));
            let next = model.len()..model.len() + size;
            for i in next.clone() {
                trail.record(&session, "read-data-by-key", format!("key=k{i}"), Ok(i));
            }
            model.extend(next.map(|i| LogLine {
                timestamp_ms: sim.now().as_millis(),
                actor: "customer:neo".to_string(),
                operation: "read-data-by-key".into(),
                detail: format!("key=k{i} [ok] n={i}"),
            }));
        }
        (trail, model)
    }

    fn assert_window(trail: &AuditTrail, model: &[LogLine], from: u64, to: u64) {
        let expected: Vec<LogLine> = model
            .iter()
            .filter(|l| l.timestamp_ms >= from && l.timestamp_ms <= to)
            .cloned()
            .collect();
        let got = trail.lines_between(from, to);
        assert_eq!(got.len(), expected.len(), "window [{from}, {to}]");
        assert_eq!(got.to_vec(), expected, "window [{from}, {to}]");
        assert!(got.iter().rev().eq(expected.iter().rev()));
        if let Some(last) = expected.len().checked_sub(1) {
            assert_eq!(got[last], expected[last]);
        }
    }

    #[test]
    fn chunked_trail_matches_flat_model() {
        run_cases(60, |rng| {
            let batches: Vec<(u64, usize)> = (0..rng.gen_range(0usize..60))
                .map(|_| {
                    let size = match rng.gen_range(0u32..10) {
                        0..=4 => 1,
                        5..=8 => rng.gen_range(2usize..20),
                        _ => rng.gen_range(CHUNK_LINES - 2..2 * CHUNK_LINES + 3),
                    };
                    (rng.gen_range(0u64..4), size)
                })
                .collect();
            let (trail, model) = build(&batches);
            assert_eq!(trail.len(), model.len());
            assert_window(&trail, &model, 0, u64::MAX);
            let horizon = model.last().map_or(0, |l| l.timestamp_ms) + 3;
            for _ in 0..30 {
                let (from, to) = (rng.gen_range(0..horizon), rng.gen_range(0..horizon));
                assert_window(&trail, &model, from, to);
            }
        });
    }

    #[test]
    fn pinned_windows() {
        let c = CHUNK_LINES as u64;
        // Empty trail.
        let (trail, model) = build(&[]);
        assert_window(&trail, &model, 0, u64::MAX);
        assert_window(&trail, &model, 5, 3);
        // One line per millisecond: line i is stamped i + 1.
        let (trail, model) = build(&vec![(1, 1); 2 * CHUNK_LINES + 50]);
        for (from, to) in [
            (c + 10, c + 20),         // inside one sealed chunk
            (c + 1, 2 * c),           // exactly one sealed chunk
            (c, c + 1),               // the last line of one, the first of the next
            (1, c),                   // ends on a chunk's last line
            (2 * c + 1, u64::MAX),    // exactly the open tail
            (2 * c + 10, 2 * c + 20), // inside the open tail
            (c - 5, u64::MAX),        // sealed chunks into the open tail
            (0, 0),                   // before the first line
            (3 * c, u64::MAX),        // after the last line
            (c + 20, c + 10),         // inverted
        ] {
            assert_window(&trail, &model, from, to);
        }
        // No open tail at all.
        let (trail, model) = build(&vec![(1, 1); 2 * CHUNK_LINES]);
        assert_window(&trail, &model, 0, u64::MAX);
        assert_window(&trail, &model, 2 * c, 2 * c);
        // One timestamp straddling a chunk boundary.
        let (trail, model) = build(&[(1, CHUNK_LINES - 5), (1, 10), (1, 7)]);
        assert_window(&trail, &model, 2, 2);
        assert_window(&trail, &model, 2, 3);
        assert_window(&trail, &model, 1, 2);
    }
}

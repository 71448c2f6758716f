//! Page-level fault injection against the disk-native backend.
//!
//! The contract under test (`pagestore`): reopening a store directory
//! must **never panic** and **never serve a wrong record** — whatever
//! bytes sit in `wal.log` or `pages.db`. A torn or corrupted WAL tail
//! rolls back to the last intact commit, so the recovered state is always
//! some *committed prefix* of the transaction history; a corrupted page
//! image is detected by its checksum and surfaces as an error, never as
//! silently wrong data. After every single reopen, the engine's metadata
//! index must answer every predicate in the taxonomy identically to the
//! reference scan semantics (`keys_for ≡ scan`), mirroring
//! `tests/recovery_faults.rs` one layer down the stack. A group write
//! (erase-by-user, consent withdrawal) is one transaction in that history:
//! a cut anywhere inside its frames recovers to all of it or none of it.

use gdprbench_repro::clock;
use gdprbench_repro::connectors::DiskConnector;
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::store::RecordPredicate;
use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, Session};
use gdprbench_repro::pagestore::{PageStore, PageStoreConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unique scratch directory per call (tests run concurrently).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gdpr-pagestore-faults-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small pool (recovery pages through eviction) and manual checkpoints
/// only — the tests control exactly what sits in which file.
fn config() -> PageStoreConfig {
    PageStoreConfig {
        pool_pages: 4,
        checkpoint_frames: usize::MAX,
        ..Default::default()
    }
}

fn open(dir: &Path) -> Arc<PageStore> {
    PageStore::open(dir, config(), clock::wall()).unwrap()
}

/// A small but metadata-diverse corpus: every index dimension (user,
/// purpose, objection, sharing, decision opt-out, TTL) is populated on
/// some records and absent on others.
fn corpus() -> Vec<PersonalRecord> {
    (0..20)
        .map(|i| {
            let mut m = Metadata::new(
                format!("u{}", i % 4),
                vec![["ads", "2fa", "analytics"][i % 3].to_string()],
                Duration::from_secs(3_600 + i as u64),
            );
            if i % 3 == 0 {
                m.purposes.push("billing".into());
            }
            if i % 4 == 0 {
                m.objections.push("ads".into());
            }
            if i % 5 == 0 {
                m.sharing.push("x-corp".into());
            }
            if i % 6 == 0 {
                m.decisions.push(Metadata::DEC_OPT_OUT.to_string());
            }
            if i % 2 == 0 {
                m.ttl = None;
            }
            PersonalRecord::new(format!("k{i:02}"), format!("data-{i}"), m)
        })
        .collect()
}

/// The full predicate taxonomy over the corpus's term vocabulary,
/// including terms nothing matches.
fn taxonomy() -> Vec<RecordPredicate> {
    let mut preds = vec![RecordPredicate::DecisionEligible];
    for user in ["u0", "u1", "u2", "u3", "nobody"] {
        preds.push(RecordPredicate::User(user.into()));
    }
    for term in ["ads", "2fa", "analytics", "billing", "ghost"] {
        preds.push(RecordPredicate::DeclaredPurpose(term.into()));
        preds.push(RecordPredicate::AllowsPurpose(term.into()));
        preds.push(RecordPredicate::NotObjecting(term.into()));
    }
    for party in ["x-corp", "y-corp"] {
        preds.push(RecordPredicate::SharedWith(party.into()));
    }
    preds
}

/// The post-recovery invariant: for every predicate, the rebuilt index's
/// candidate set equals the reference scan semantics over `expected`.
fn assert_index_matches_scan(conn: &DiskConnector, expected: &[PersonalRecord], ctx: &str) {
    let index = conn.metadata_index().expect("indexed variant");
    for pred in taxonomy() {
        let mut want: Vec<Arc<str>> = expected
            .iter()
            .filter(|r| pred.matches(r))
            .map(|r| r.key.as_str().into())
            .collect();
        want.sort();
        let got = index
            .keys_for(&pred)
            .unwrap_or_else(|| panic!("{ctx}: {pred:?} must stay index-answerable"));
        assert_eq!(got, want, "{ctx}: wrong index for {pred:?}");
    }
    assert_eq!(index.len(), expected.len(), "{ctx}: index cardinality");
}

/// Scan the reopened store and require its state to be exactly the first
/// `generation` creates of the corpus — the committed-prefix property.
fn assert_state_is_prefix(store: &Arc<PageStore>, records: &[PersonalRecord], ctx: &str) {
    let g = store.generation() as usize;
    assert!(g <= records.len(), "{ctx}: generation {g} beyond history");
    let mut got: Vec<String> = store
        .scan()
        .unwrap_or_else(|e| panic!("{ctx}: committed state must scan, got {e}"))
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    got.sort();
    let mut want: Vec<String> = records[..g].iter().map(|r| r.key.clone()).collect();
    want.sort();
    assert_eq!(got, want, "{ctx}: state is not the generation-{g} prefix");
}

/// Seed a fresh store with the corpus (one commit per create, no
/// checkpoint: the WAL carries the whole history). Returns the dir.
fn seeded_dir(tag: &str) -> (PathBuf, Vec<PersonalRecord>) {
    let dir = scratch_dir(tag);
    let store = open(&dir);
    let conn = DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let controller = Session::controller();
    let records = corpus();
    for r in &records {
        conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
            .unwrap();
    }
    assert_eq!(store.generation() as usize, records.len());
    (dir, records)
}

fn copy_state(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for f in ["pages.db", "wal.log"] {
        std::fs::copy(from.join(f), to.join(f)).unwrap();
    }
}

/// Truncating the WAL at every prefix must never panic, always recover a
/// committed prefix of the history, and always leave `keys_for ≡ scan`.
/// Byte-granular over the header and first frames (where every torn-write
/// shape exists in miniature), frame-edge and prime-stride sampled beyond
/// — with the full predicate battery on a spread of prefixes.
#[test]
fn wal_truncation_at_every_prefix_recovers_a_committed_prefix() {
    let (dir, records) = seeded_dir("truncate");
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    let frame = gdprbench_repro::pagestore::wal::FRAME_SIZE;
    let header = gdprbench_repro::pagestore::wal::WAL_HEADER;

    let mut cuts: Vec<usize> = (0..(header + frame + 64).min(wal.len())).collect();
    cuts.extend((0..wal.len()).step_by(97));
    for edge in (header..=wal.len()).step_by(frame) {
        for cut in [edge.saturating_sub(1), edge, edge + 1, edge + frame / 2] {
            if cut <= wal.len() {
                cuts.push(cut);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let reopen_dir = scratch_dir("truncate-reopen");
    for (i, &cut) in cuts.iter().enumerate() {
        std::fs::copy(dir.join("pages.db"), reopen_dir.join("pages.db")).unwrap();
        std::fs::write(reopen_dir.join("wal.log"), &wal[..cut]).unwrap();
        let store = open(&reopen_dir);
        assert_state_is_prefix(&store, &records, &format!("truncated at {cut}"));
        if i % 23 == 0 {
            let g = store.generation() as usize;
            let conn = DiskConnector::with_metadata_index(store).unwrap();
            assert_index_matches_scan(&conn, &records[..g], &format!("truncated at {cut}"));
        }
    }
    // The untouched WAL recovers the full history.
    copy_state(&dir, &reopen_dir);
    let store = open(&reopen_dir);
    assert_eq!(store.generation() as usize, records.len());
    assert_state_is_prefix(&store, &records, "intact WAL");
}

/// A group write is one WAL transaction: cut the log at every frame
/// boundary (±1 byte) and at sampled offsets inside the frames of an
/// erase-by-user of 200 records and a consent update over a third of the
/// rest, and every reopen must serve the state before the group write or
/// the state after it — records, native deadlines and rebuilt index —
/// never a mixture.
#[test]
fn group_writes_are_all_or_none_at_every_wal_cut() {
    use gdprbench_repro::gdpr_core::{wire, MetadataField, MetadataUpdate};
    let frame = gdprbench_repro::pagestore::wal::FRAME_SIZE;
    let header = gdprbench_repro::pagestore::wal::WAL_HEADER;

    let dir = scratch_dir("group");
    let store = open(&dir);
    let conn = DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let controller = Session::controller();
    let seeded: Vec<PersonalRecord> = (0..600)
        .map(|i| {
            let mut m = Metadata::new(
                format!("u{}", i % 3),
                vec![["ads", "2fa", "analytics"][i / 3 % 3].to_string()],
                Duration::from_secs(86_400),
            );
            if i % 4 == 0 {
                m.objections.push("ads".into());
            }
            PersonalRecord::new(format!("k{i:03}"), "d".repeat(200 + i % 50), m)
        })
        .collect();
    for r in &seeded {
        conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
            .unwrap();
    }
    // Fold the seed into pages.db: the WAL then holds the two group
    // writes and nothing else.
    store.checkpoint().unwrap();
    let wal_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len() as usize;
    let generation = store.generation();

    let erased = conn
        .execute(&controller, &GdprQuery::DeleteByUser("u1".into()))
        .unwrap();
    assert_eq!(erased.cardinality(), 200);
    assert_eq!(store.generation(), generation + 1, "one commit per erase");
    let after_erase = wal_len();
    let deadline = store.deadline_ms("k000").unwrap();
    assert!(deadline.is_some(), "k000 (u0, ads) is rewritten below");
    let update = MetadataUpdate::Add(MetadataField::Sharing, "x-corp".into());
    let updated = conn
        .execute(
            &controller,
            &GdprQuery::UpdateMetadataByPurpose {
                purpose: "ads".into(),
                update: update.clone(),
            },
        )
        .unwrap();
    assert!(updated.cardinality() > 100);
    assert_eq!(store.generation(), generation + 2, "one commit per update");
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    assert!(
        after_erase > header + 20 * frame && wal.len() > after_erase + 20 * frame,
        "both group writes must span many leaves"
    );
    drop((conn, store));

    // The three states a cut may recover, and their wire text in key
    // order (what a scan returns).
    let mut states = vec![seeded];
    states.push(
        states[0]
            .iter()
            .filter(|r| r.metadata.user != "u1")
            .cloned()
            .collect(),
    );
    states.push(
        states[1]
            .iter()
            .cloned()
            .map(|mut r| {
                if r.metadata.purposes.iter().any(|p| p == "ads") {
                    update.apply(&mut r.metadata).unwrap();
                }
                r
            })
            .collect(),
    );

    let rendered: Vec<Vec<String>> = states
        .iter()
        .map(|records| records.iter().map(wire::serialize).collect())
        .collect();

    // Every frame boundary, the byte before it, and one offset inside the
    // frame that follows (a different one per frame).
    let mut cuts = Vec::new();
    for edge in (header..=wal.len()).step_by(frame) {
        cuts.extend([edge - 1, edge, edge + edge * 31 % frame]);
    }
    cuts.retain(|&cut| cut <= wal.len());

    let reopen_dir = scratch_dir("group-reopen");
    std::fs::copy(dir.join("pages.db"), reopen_dir.join("pages.db")).unwrap();
    for (i, &cut) in cuts.iter().enumerate() {
        std::fs::write(reopen_dir.join("wal.log"), &wal[..cut]).unwrap();
        let store = open(&reopen_dir);
        let ctx = format!("cut at {cut}");
        // Complete transactions in the prefix, and nothing else, decide
        // which state is served.
        let committed = usize::from(cut >= after_erase) + usize::from(cut == wal.len());
        assert_eq!(store.generation(), generation + committed as u64, "{ctx}");
        let got: Vec<String> = store
            .scan()
            .unwrap_or_else(|e| panic!("{ctx}: committed state must scan, got {e}"))
            .into_iter()
            .map(|(_, bytes)| String::from_utf8(bytes).unwrap())
            .collect();
        assert_eq!(got, rendered[committed], "{ctx}: half-applied");
        assert_eq!(store.deadline_ms("k000").unwrap(), deadline, "{ctx}");
        assert_eq!(store.pinned_pages(), 0, "{ctx}");
        if i % 5 == 0 {
            let conn = DiskConnector::with_metadata_index(store).unwrap();
            assert_index_matches_scan(&conn, &states[committed], &ctx);
        }
    }
}

/// Flipping any bit in a WAL frame must kill that frame's checksum and
/// roll the recovered state back to the last commit before it — never
/// panic, never a record the surviving history does not back.
#[test]
fn bit_flips_in_wal_frames_roll_back_to_an_intact_commit() {
    let (dir, records) = seeded_dir("wal-flip");
    let wal = std::fs::read(dir.join("wal.log")).unwrap();

    // A seeded xorshift picks flip positions and masks across the file;
    // the header, a frame header, an image body, and the final frame are
    // also hit explicitly.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut flips: Vec<(usize, u8)> = (0..192)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state as usize) % wal.len(), ((state >> 32) as u8) | 1)
        })
        .collect();
    let frame = gdprbench_repro::pagestore::wal::FRAME_SIZE;
    let header = gdprbench_repro::pagestore::wal::WAL_HEADER;
    flips.extend([
        (0, 0xFF),           // magic
        (8, 0x01),           // page-size field
        (header, 0x01),      // first frame: page id
        (header + 16, 0x80), // first frame: checksum
        (header + 24, 0x01), // first frame: image
        (wal.len() - 1, 0x40),
        (wal.len() - frame, 0x02),
    ]);

    let reopen_dir = scratch_dir("wal-flip-reopen");
    for (i, (pos, mask)) in flips.into_iter().enumerate() {
        let mut bad = wal.clone();
        bad[pos] ^= mask;
        std::fs::copy(dir.join("pages.db"), reopen_dir.join("pages.db")).unwrap();
        std::fs::write(reopen_dir.join("wal.log"), &bad).unwrap();
        let store = open(&reopen_dir);
        let ctx = format!("flip {mask:#x} at byte {pos}");
        if pos >= header {
            // Everything before the flipped frame must survive: the flip
            // sits in frame (pos - header) / frame_size, so at least that
            // many commits-worth of frames precede it. (Commits span
            // multiple frames; the generation bound is what's exact.)
            assert!(
                store.recovery().truncated_bytes > 0
                    || store.generation() as usize == records.len(),
                "{ctx}: a mid-file flip must truncate a tail (or hit slack)"
            );
        }
        assert_state_is_prefix(&store, &records, &ctx);
        if i % 31 == 0 {
            let g = store.generation() as usize;
            let conn = DiskConnector::with_metadata_index(store).unwrap();
            assert_index_matches_scan(&conn, &records[..g], &ctx);
        }
    }
}

/// Flipping bits in the data file after a checkpoint: a corrupted page is
/// caught by its checksum and surfaces as an error — the store must
/// never return wrong data and never panic, and pages still shadowed by
/// WAL images must keep reading correctly through them.
#[test]
fn bit_flips_in_page_file_are_detected_never_served() {
    let (dir, records) = seeded_dir("page-flip");
    open(&dir).checkpoint().unwrap(); // recovery + flush everything into pages.db
    let pages = std::fs::read(dir.join("pages.db")).unwrap();
    assert!(pages.len() > 4096, "checkpoint must materialise the tree");

    let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
    let flips: Vec<(usize, u8)> = (0..96)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state as usize) % pages.len(), ((state >> 32) as u8) | 1)
        })
        .collect();

    let reopen_dir = scratch_dir("page-flip-reopen");
    let mut detected = 0;
    for (pos, mask) in flips {
        let mut bad = pages.clone();
        bad[pos] ^= mask;
        std::fs::create_dir_all(&reopen_dir).unwrap();
        std::fs::write(reopen_dir.join("pages.db"), &bad).unwrap();
        let _ = std::fs::remove_file(reopen_dir.join("wal.log"));
        let ctx = format!("page flip {mask:#x} at byte {pos}");
        // Meta-page corruption is caught at open; elsewhere at first read.
        let store = match PageStore::open(&reopen_dir, config(), clock::wall()) {
            Ok(store) => store,
            Err(e) => {
                assert!(
                    pos < 4096,
                    "{ctx}: only meta corruption may fail open ({e})"
                );
                detected += 1;
                continue;
            }
        };
        match store.scan() {
            Ok(pairs) => {
                // The flip landed in page slack or a freed page: the data
                // that is actually reachable must still be exact.
                let mut got: Vec<String> = pairs.into_iter().map(|(k, _)| k).collect();
                got.sort();
                let want: Vec<String> = records.iter().map(|r| r.key.clone()).collect();
                assert_eq!(got, want, "{ctx}: survived flip must not change state");
            }
            Err(_) => detected += 1,
        }
    }
    assert!(
        detected > 0,
        "the sweep must hit live pages (else it tests nothing)"
    );
}

/// Crash-point simulation around the WAL→data-file checkpoint: freeze the
/// two files at every interesting instant and reopen each combination.
/// Stale data pages + newer WAL must recover the newer state; data pages
/// flushed but WAL not yet truncated must replay idempotently; a lost
/// (never-synced) WAL must fall back to exactly the checkpoint state.
#[test]
fn crash_points_between_wal_append_and_page_write_recover_consistently() {
    let dir = scratch_dir("crash");
    let store = open(&dir);
    let conn = DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let controller = Session::controller();
    let records = corpus();
    for r in &records {
        conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
            .unwrap();
    }
    store.checkpoint().unwrap();
    let checkpoint_gen = store.generation();
    let at_checkpoint = scratch_dir("crash-at-checkpoint");
    copy_state(&dir, &at_checkpoint);

    // Move history past the checkpoint: rewrites, a delete, an add — the
    // WAL now carries page images that *contradict* the checkpointed ones.
    let mut after: Vec<PersonalRecord> = records.clone();
    for key in ["k03", "k07", "k11"] {
        let owner = after
            .iter()
            .find(|r| r.key == key)
            .unwrap()
            .metadata
            .user
            .clone();
        conn.execute(
            &Session::customer(owner),
            &GdprQuery::UpdateDataByKey {
                key: key.into(),
                data: format!("rewritten-{key}"),
            },
        )
        .unwrap();
        after.iter_mut().find(|r| r.key == key).unwrap().data = format!("rewritten-{key}");
    }
    conn.execute(&controller, &GdprQuery::DeleteByKey("k19".into()))
        .unwrap();
    after.retain(|r| r.key != "k19");
    let extra = PersonalRecord::new(
        "k-late",
        "late-data",
        Metadata::new("u1", vec!["2fa".into()], Duration::from_secs(3_600)),
    );
    conn.execute(&controller, &GdprQuery::CreateRecord(extra.clone()))
        .unwrap();
    after.push(extra);
    let final_gen = store.generation();
    assert!(final_gen > checkpoint_gen);

    // Crash point A — WAL appended, data file never rewritten (the copy
    // holds the *checkpoint-time* pages with the *final* WAL).
    let point_a = scratch_dir("crash-a");
    std::fs::copy(at_checkpoint.join("pages.db"), point_a.join("pages.db")).unwrap();
    std::fs::copy(dir.join("wal.log"), point_a.join("wal.log")).unwrap();

    // Crash point B — mid-checkpoint: data file flushed with the final
    // images but the WAL not yet truncated (replay is idempotent).
    store.checkpoint().unwrap();
    let point_b = scratch_dir("crash-b");
    std::fs::copy(dir.join("pages.db"), point_b.join("pages.db")).unwrap();
    std::fs::copy(point_a.join("wal.log"), point_b.join("wal.log")).unwrap();

    // Crash point C — checkpoint completed (clean files, empty WAL).
    let point_c = scratch_dir("crash-c");
    copy_state(&dir, &point_c);

    let mut sorted_after = after.clone();
    sorted_after.sort_by(|a, b| a.key.cmp(&b.key));
    for (tag, point, expect_replay) in [
        ("wal-ahead-of-pages", &point_a, true),
        ("mid-checkpoint", &point_b, true),
        ("clean-checkpoint", &point_c, false),
    ] {
        let store = open(point);
        assert_eq!(
            store.recovery().wal_frames > 0,
            expect_replay,
            "{tag}: wrong recovery path, got {}",
            store.recovery()
        );
        assert_eq!(store.generation(), final_gen, "{tag}");
        let got: Vec<(String, Vec<u8>)> = store.scan().unwrap();
        let want: Vec<String> = sorted_after.iter().map(|r| r.key.clone()).collect();
        assert_eq!(
            got.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            want,
            "{tag}: key set diverged"
        );
        let conn = DiskConnector::with_metadata_index(store).unwrap();
        assert_index_matches_scan(&conn, &after, tag);
        // The rewrites must read back rewritten — a stale checkpoint page
        // served over a newer WAL image would surface exactly here.
        for key in ["k03", "k07", "k11"] {
            let resp = conn
                .execute(
                    &Session::processor("2fa"),
                    &GdprQuery::ReadDataByKey(key.into()),
                )
                .or_else(|_| {
                    conn.execute(
                        &Session::processor("ads"),
                        &GdprQuery::ReadDataByKey(key.into()),
                    )
                })
                .or_else(|_| {
                    conn.execute(
                        &Session::processor("analytics"),
                        &GdprQuery::ReadDataByKey(key.into()),
                    )
                })
                .unwrap();
            let data = format!("{resp:?}");
            assert!(
                data.contains(&format!("rewritten-{key}")),
                "{tag}: {key} must serve the post-checkpoint rewrite, got {data}"
            );
        }
    }

    // Crash point D — the post-checkpoint WAL never reached disk at all:
    // stale pages, stale (empty) WAL. Recovery lands on exactly the
    // checkpoint state — older, but a consistent committed prefix.
    let point_d = scratch_dir("crash-d");
    copy_state(&at_checkpoint, &point_d);
    let store = open(&point_d);
    assert_eq!(
        store.generation(),
        checkpoint_gen,
        "lost WAL → checkpoint state"
    );
    let got: Vec<String> = store.scan().unwrap().into_iter().map(|(k, _)| k).collect();
    let mut want: Vec<String> = records.iter().map(|r| r.key.clone()).collect();
    want.sort();
    assert_eq!(got, want, "lost WAL must serve the checkpoint corpus");
    let conn = DiskConnector::with_metadata_index(store).unwrap();
    assert_index_matches_scan(&conn, &records, "lost WAL");
}

/// TTL deadlines survive WAL recovery bit-exactly: a record created with
/// a TTL, recovered through the WAL, fires the inclusive-boundary purge
/// (`deadline == now` is expired) exactly as a never-crashed store would.
#[test]
fn recovered_deadlines_fire_at_the_inclusive_boundary() {
    let dir = scratch_dir("ttl");
    let sim = clock::sim();
    let store = PageStore::open(&dir, config(), sim.clone()).unwrap();
    let conn = DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let controller = Session::controller();
    let mut record = PersonalRecord::new(
        "ttl-1",
        "d",
        Metadata::new("neo", vec!["ads".into()], Duration::from_secs(10)),
    );
    record.metadata.ttl = Some(Duration::from_secs(10));
    conn.execute(&controller, &GdprQuery::CreateRecord(record))
        .unwrap();
    drop((conn, store)); // crash without checkpoint

    let crashed = scratch_dir("ttl-reopen");
    copy_state(&dir, &crashed);
    let store = PageStore::open(&crashed, config(), sim.clone()).unwrap();
    assert!(
        store.recovery().wal_frames > 0,
        "must come up through the WAL"
    );
    sim.advance(Duration::from_millis(9_999));
    assert_eq!(store.expired_keys().unwrap().len(), 0, "not due at −1ms");
    sim.advance(Duration::from_millis(1));
    assert_eq!(
        store.expired_keys().unwrap(),
        vec!["ttl-1"],
        "deadline == now is expired after recovery"
    );
    assert_eq!(store.purge_expired().unwrap(), 1);
    assert_eq!(store.record_count(), 0);
}

/// Tenant-prefixed keys (`"<tenant>\x1d<key>"`, PR-9) ride through WAL
/// recovery unchanged: per-tenant state survives a crash with tenant
/// isolation intact.
#[test]
fn tenant_prefixed_keys_survive_recovery_with_isolation_intact() {
    use gdprbench_repro::gdpr_core::tenant::TenantId;
    let dir = scratch_dir("tenants");
    let store = open(&dir);
    let conn = DiskConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let t0 = TenantId::new("t0").unwrap();
    let t1 = TenantId::new("t1").unwrap();
    for tenant in [&t0, &t1] {
        let controller = Session::controller().with_tenant(tenant.clone());
        for r in corpus().into_iter().take(5) {
            conn.execute(&controller, &GdprQuery::CreateRecord(r))
                .unwrap();
        }
    }
    drop((conn, store));

    let crashed = scratch_dir("tenants-reopen");
    copy_state(&dir, &crashed);
    let store = open(&crashed);
    assert!(store.recovery().wal_frames > 0);
    let conn = DiskConnector::with_metadata_index(store).unwrap();
    for tenant in [&t0, &t1] {
        let u0 = Session::customer("u0").with_tenant(tenant.clone());
        let resp = conn
            .execute(&u0, &GdprQuery::ReadDataByUser("u0".into()))
            .unwrap();
        assert_eq!(
            resp.cardinality(),
            2,
            "tenant {tenant:?} sees exactly its own u0 records after recovery"
        );
    }
}

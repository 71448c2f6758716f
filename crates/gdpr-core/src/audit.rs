//! The GDPR-layer audit trail (G30, G33).
//!
//! Connectors record one event per executed query: who (role/actor), what
//! (query class and detail), when, and the outcome. Regulators retrieve
//! slices of this trail with GET-SYSTEM-LOGS; breach notification (G33.3a)
//! needs the same trail to report affected subjects. The *store-level*
//! operation logs (kvstore's AOF, relstore's query log) sit underneath this
//! and capture raw commands; this trail is the per-query, per-actor view.
//!
//! Lines live in fixed-size chunks of write-once slots ([`Chunks`]): a
//! sealed run of full chunks and one open chunk. A read shares both with
//! the trail by reference count, so its cost does not depend on how many
//! lines it covers, and the appends after it fill slots the read never
//! looks at.

use crate::response::{LogLine, LogLines};
use crate::role::Session;
use clock::SharedClock;
use parking_lot::Mutex;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

/// Slots per chunk. Every chunk but the open one is full, so line `i` is
/// slot `i % CHUNK_LINES` of chunk `i / CHUNK_LINES`. A read of any window
/// takes two references, one to the sealed run and one to the open chunk,
/// whatever this is.
pub const CHUNK_LINES: usize = 256;

/// [`CHUNK_LINES`] write-once slots. A slot is set once, under the trail
/// lock, and never changes after, so the writer fills the open chunk while
/// windows over its lower slots read it.
type LogChunk = Arc<[OnceLock<LogLine>]>;

/// A trail's lines: the sealed run, shared with every window that read it,
/// and the open chunk.
#[derive(Clone, Default)]
pub(crate) struct Chunks {
    sealed: Arc<Vec<LogChunk>>,
    /// Allocated when its first line lands, so an idle trail holds no
    /// chunk; moved onto the sealed run when full.
    open: Option<LogChunk>,
    /// Lines set: every slot of the sealed run and the open chunk's first
    /// `len % CHUNK_LINES`.
    len: usize,
}

impl Chunks {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Set the next line.
    pub(crate) fn push(&mut self, line: LogLine) {
        let slot = self.len % CHUNK_LINES;
        let open = self
            .open
            .get_or_insert_with(|| (0..CHUNK_LINES).map(|_| OnceLock::new()).collect());
        open[slot].set(line).expect("each audit slot is set once");
        self.len += 1;
        if slot == CHUNK_LINES - 1 {
            // Copies the pointer vector only if a window still holds the
            // old run: at most once per CHUNK_LINES appends.
            let full = self.open.take();
            Arc::make_mut(&mut self.sealed).extend(full);
        }
    }

    /// Line `i < len`.
    pub(crate) fn line(&self, i: usize) -> &LogLine {
        assert!(i < self.len, "audit line {i} of {}", self.len);
        let chunk = match self.sealed.get(i / CHUNK_LINES) {
            Some(chunk) => chunk,
            None => self
                .open
                .as_ref()
                .expect("a line past the sealed run is open"),
        };
        chunk[i % CHUNK_LINES]
            .get()
            .expect("every line below len is set")
    }
}

/// The one rendering a line ever gets; only the timestamp is missing
/// (it is stamped under the trail lock).
fn render(
    session: &Session,
    operation: &'static str,
    mut detail: String,
    outcome: Result<usize, &str>,
) -> Rendered {
    let role = session.role.name();
    // Customer user id or processor purpose, when present.
    let actor_id = session
        .user
        .as_deref()
        .or(session.purpose.as_deref())
        .unwrap_or_default();
    let (outcome, cardinality) = match outcome {
        Ok(n) => ("ok", n),
        Err(e) => (e, 0),
    };
    let bytes = role.len() + actor_id.len() + operation.len() + detail.len() + outcome.len() + 24;
    let splits = Splits {
        actor_at: role.len() + 1,
        detail_end: detail.len(),
    };
    let mut actor = String::with_capacity(splits.actor_at + actor_id.len());
    actor.push_str(role);
    actor.push(':');
    actor.push_str(actor_id);
    // Piecewise: one `write!` of the whole suffix is ~15 ns slower.
    detail.push_str(" [");
    detail.push_str(outcome);
    detail.push_str("] n=");
    let _ = write!(detail, "{cardinality}");
    Rendered {
        line: LogLine {
            timestamp_ms: 0,
            actor,
            operation: operation.into(),
            detail,
        },
        splits,
        bytes,
    }
}

/// Where the unrendered actor starts in [`LogLine::actor`] and the
/// unrendered detail ends in [`LogLine::detail`].
#[derive(Clone, Copy)]
struct Splits {
    actor_at: usize,
    detail_end: usize,
}

struct Rendered {
    line: LogLine,
    splits: Splits,
    /// The line's [`AuditTrail::size_bytes`] share.
    bytes: usize,
}

/// Timestamps are non-decreasing in the line number; `splits[i]` is line
/// `i`'s.
#[derive(Default)]
struct Inner {
    chunks: Chunks,
    splits: Vec<Splits>,
    last_ms: u64,
    bytes: usize,
}

impl Inner {
    /// Index of the first line whose timestamp fails `before`.
    fn partition_point(&self, before: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.chunks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.chunks.line(mid).timestamp_ms) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Append one line, stamped `last_ms`.
    fn push(&mut self, mut rendered: Rendered) {
        rendered.line.timestamp_ms = self.last_ms;
        self.bytes += rendered.bytes;
        self.splits.push(rendered.splits);
        self.chunks.push(rendered.line);
    }
}

/// An append-only audit trail of rendered lines in shared, write-once
/// chunks. A line is rendered once, at append; a read hands out one
/// reference to the sealed run and one to the open chunk.
pub struct AuditTrail {
    clock: SharedClock,
    inner: Mutex<Inner>,
}

impl AuditTrail {
    pub fn new(clock: SharedClock) -> Self {
        AuditTrail {
            clock,
            inner: Mutex::default(),
        }
    }

    /// Record one query execution.
    pub fn record(
        &self,
        session: &Session,
        operation: &'static str,
        detail: String,
        outcome: Result<usize, &str>,
    ) {
        // Rendered before taking the lock.
        let rendered = render(session, operation, detail, outcome);
        let mut inner = self.inner.lock();
        // Stamped under the lock and clamped, so trail order is time
        // order whatever the threads or the clock do.
        inner.last_ms = inner.last_ms.max(self.clock.now().as_millis());
        inner.push(rendered);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().chunks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines stamped within `[from_ms, to_ms]` — the GET-SYSTEM-LOGS
    /// response (G33, G34). The window is a snapshot: every line appended
    /// before the call, none appended after, and no line ever changes.
    /// Two binary searches and two reference counts under the lock; no
    /// line is copied.
    pub fn lines_between(&self, from_ms: u64, to_ms: u64) -> LogLines {
        let inner = self.inner.lock();
        let start = inner.partition_point(|t| t < from_ms);
        let end = inner.partition_point(|t| t <= to_ms).max(start);
        LogLines::window(inner.chunks.clone(), start, end)
    }

    /// Lines touching a given user id — breach-notification support
    /// (G33.3a: report the subjects affected). Matches the unrendered
    /// actor exactly, or a scope detail of exactly `usr=<actor>`; never a
    /// key, purpose or outcome text that merely contains the id.
    pub fn events_for_actor(&self, actor: &str) -> Vec<LogLine> {
        let inner = self.inner.lock();
        inner
            .splits
            .iter()
            .enumerate()
            .map(|(i, splits)| (inner.chunks.line(i), splits))
            .filter(|(line, splits)| {
                line.actor[splits.actor_at..] == *actor
                    || line.detail[..splits.detail_end].strip_prefix("usr=") == Some(actor)
            })
            .map(|(line, _)| line.clone())
            .collect()
    }

    /// Approximate bytes held by the trail (it competes for the space
    /// overhead metric too): the unrendered fields of every event plus a
    /// fixed 24 per event, summed at append.
    pub fn size_bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock::Clock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn records_and_filters_by_time() {
        let sim = clock::sim();
        let trail = AuditTrail::new(sim.clone());
        trail.record(
            &Session::customer("neo"),
            "read-data-by-usr",
            "usr=neo".into(),
            Ok(3),
        );
        sim.advance(Duration::from_millis(1000));
        trail.record(
            &Session::processor("ads"),
            "read-data-by-pur",
            "pur=ads".into(),
            Ok(10),
        );
        sim.advance(Duration::from_millis(1000));
        trail.record(
            &Session::customer("smith"),
            "delete-record-by-key",
            "key=k9".into(),
            Err("access denied"),
        );

        assert_eq!(trail.len(), 3);
        let window = trail.lines_between(500, 1500);
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].actor, "processor:ads");
        assert!(window[0].detail.contains("n=10"));
        let all = trail.lines_between(0, u64::MAX);
        assert!(all[2].detail.contains("access denied"));
    }

    #[test]
    fn actor_filter_supports_breach_reporting() {
        let trail = AuditTrail::new(clock::sim());
        trail.record(
            &Session::customer("neo"),
            "read-data-by-usr",
            "usr=neo".into(),
            Ok(1),
        );
        trail.record(
            &Session::controller(),
            "delete-record-by-usr",
            "usr=neo".into(),
            Ok(4),
        );
        trail.record(
            &Session::customer("smith"),
            "read-data-by-usr",
            "usr=smith".into(),
            Ok(1),
        );
        // Outcome and role text are not the actor or the scope.
        trail.record(
            &Session::customer("smith"),
            "read-data-by-usr",
            "usr=trinity".into(),
            Err("access denied: customer smith is not neo"),
        );
        let neo_events = trail.events_for_actor("neo");
        assert_eq!(neo_events.len(), 2);
        assert_eq!(neo_events[0].actor, "customer:neo");
        assert_eq!(neo_events[1].detail, "usr=neo [ok] n=4");
        assert!(trail.events_for_actor("customer").is_empty());
    }

    /// A breach report for `neo` names neo's own activity and nobody
    /// else's: a user id, key or purpose that merely contains the id is
    /// another subject's.
    #[test]
    fn breach_report_matches_the_user_scope_exactly() {
        let trail = AuditTrail::new(clock::sim());
        let controller = Session::controller();
        trail.record(&controller, "read-data-by-usr", "usr=neo".into(), Ok(1));
        trail.record(
            &controller,
            "delete-record-by-usr",
            "usr=neon".into(),
            Ok(2),
        );
        trail.record(&controller, "read-data-by-key", "key=neo-7".into(), Ok(1));
        trail.record(&controller, "read-data-by-pur", "pur=neo".into(), Ok(0));
        trail.record(
            &Session::customer("neon"),
            "read-data-by-usr",
            "usr=neon".into(),
            Ok(1),
        );
        let details: Vec<String> = trail
            .events_for_actor("neo")
            .into_iter()
            .map(|line| line.detail)
            .collect();
        assert_eq!(details, ["usr=neo [ok] n=1"]);
        assert_eq!(trail.events_for_actor("neon").len(), 2);
    }

    /// `trail` with `lines` lines, line `i` stamped `i + 1` ms.
    fn one_line_per_ms(lines: usize) -> AuditTrail {
        let sim = clock::sim();
        let trail = AuditTrail::new(sim.clone());
        for i in 0..lines {
            sim.advance(Duration::from_millis(1));
            append(&trail, format!("k{i}"));
        }
        trail
    }

    /// `LogLines`' `Index` finds a line by arithmetic; it must agree with
    /// walking `iter` to it, both ways, for windows that start and end
    /// mid-chunk.
    #[test]
    fn index_is_the_nth_line_of_iter() {
        let c = CHUNK_LINES as u64;
        let trail = one_line_per_ms(3 * CHUNK_LINES + 40);
        for (from, to) in [
            (c / 2, 2 * c + 7),      // across two seals
            (c + 3, c + 9),          // inside one sealed chunk
            (c, c + 1),              // the last line of one, the first of the next
            (2 * c + 100, u64::MAX), // sealed chunk into the open chunk
            (3 * c + 5, 3 * c + 30), // inside the open chunk
            (0, u64::MAX),
        ] {
            let window = trail.lines_between(from, to);
            assert!(!window.is_empty());
            for i in 0..window.len() {
                let nth = window.iter().nth(i).unwrap();
                let nth_back = window.iter().rev().nth(window.len() - 1 - i).unwrap();
                assert!(std::ptr::eq(&window[i], nth), "[{from}, {to}] line {i}");
                assert!(
                    std::ptr::eq(&window[i], nth_back),
                    "[{from}, {to}] line {i}"
                );
            }
            assert_eq!(window[0].timestamp_ms, from.max(1));
            // Chunking is not observable: the same lines re-chunked from 0.
            assert_eq!(LogLines::from(window.to_vec()), window);
        }
    }

    /// The slot past a window's end may be set in the trail; it is still
    /// not the window's.
    #[test]
    #[should_panic(expected = "out of range")]
    fn index_past_the_window_panics() {
        let window = one_line_per_ms(20).lines_between(3, 9);
        let _ = &window[window.len()];
    }

    /// Strong counts of the trail's sealed run and open chunk.
    fn strong_counts(trail: &AuditTrail) -> (usize, Option<usize>) {
        let inner = trail.inner.lock();
        let chunks = &inner.chunks;
        (
            Arc::strong_count(&chunks.sealed),
            chunks.open.as_ref().map(Arc::strong_count),
        )
    }

    #[test]
    fn a_read_adds_one_reference_to_the_sealed_run_and_one_to_the_open_chunk() {
        assert_eq!(strong_counts(&one_line_per_ms(0)), (1, None), "idle trail");
        let c = CHUNK_LINES as u64;
        let trail = one_line_per_ms(3 * CHUNK_LINES + 40);
        assert_eq!(strong_counts(&trail), (1, Some(1)));
        for (from, to) in [
            (0, u64::MAX),          // everything
            (0, 0),                 // before the first line
            (20, 10),               // inverted
            (c + 10, c + 20),       // inside one sealed chunk
            (3 * c + 5, 3 * c + 9), // inside the open chunk
            (c - 3, u64::MAX),      // sealed chunks into the open chunk
            (4 * c, u64::MAX),      // after the last line
        ] {
            let window = trail.lines_between(from, to);
            assert_eq!(strong_counts(&trail), (2, Some(2)), "[{from}, {to}]");
            // Every line of the window is the trail's own slot.
            let inner = trail.inner.lock();
            for line in window.iter() {
                let own = inner.chunks.line(line.timestamp_ms as usize - 1);
                assert!(std::ptr::eq(line, own), "[{from}, {to}] copied a line");
            }
            drop(inner);
            let copy = window.clone();
            assert_eq!(strong_counts(&trail), (3, Some(3)));
            drop((window, copy));
            assert_eq!(strong_counts(&trail), (1, Some(1)), "[{from}, {to}]");
        }
        // A trail that has just sealed has no open chunk to share.
        let trail = one_line_per_ms(2 * CHUNK_LINES);
        let window = trail.lines_between(0, u64::MAX);
        assert_eq!(strong_counts(&trail), (2, None));
        drop(window);
        assert_eq!(strong_counts(&trail), (1, None));
    }

    /// xorshift64*: deterministic, no dependencies.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Random appends across many seals against a flat `Vec`, and random
    /// windows (empty, inside the open chunk, inside the sealed run,
    /// spanning both) held across later appends and seals: every held
    /// window still equals the model's slice at the time it was taken,
    /// forwards, reversed and by index.
    #[test]
    fn held_windows_match_a_vec_model() {
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let sim = clock::sim();
            let trail = AuditTrail::new(sim.clone());
            let mut model: Vec<LogLine> = Vec::new();
            // (window, model range it was taken over)
            let mut held: Vec<(LogLines, std::ops::Range<usize>)> = Vec::new();
            let check = |(window, range): &(LogLines, std::ops::Range<usize>),
                         model: &[LogLine]| {
                let want = &model[range.clone()];
                assert_eq!(window.len(), want.len(), "seed {seed} {range:?}");
                assert!(window.iter().eq(want), "seed {seed} {range:?}");
                assert!(window.iter().rev().eq(want.iter().rev()));
                for (i, line) in want.iter().enumerate().step_by(7) {
                    assert_eq!(&window[i], line);
                }
            };
            for _ in 0..400 {
                match next(&mut rng) % 4 {
                    // A run of appends, a few ms apart or at one instant.
                    0 | 1 => {
                        let run = 1 + next(&mut rng) as usize % (CHUNK_LINES + CHUNK_LINES / 2);
                        for _ in 0..run {
                            sim.advance(Duration::from_millis(next(&mut rng) % 3));
                            let n = model.len();
                            append(&trail, format!("m{n}"));
                            model.push(LogLine {
                                timestamp_ms: sim.now().as_millis(),
                                actor: "controller:".into(),
                                operation: "create-record".into(),
                                detail: format!("m{n} [ok] n=1"),
                            });
                        }
                    }
                    // A window between the stamps of two random lines
                    // (either may be past the last line, and the two may
                    // be inverted, which is empty).
                    2 => {
                        let (len, shape) = (model.len(), next(&mut rng) % 5);
                        let sealed = len / CHUNK_LINES * CHUNK_LINES;
                        // The stamp of a line in `lo..=hi`; `len` is past the end.
                        let mut pick = |lo: usize, hi: usize| {
                            let i = lo + next(&mut rng) as usize % (hi + 1 - lo);
                            model.get(i).map_or(u64::MAX, |line| line.timestamp_ms)
                        };
                        let below_seal = sealed.saturating_sub(1);
                        let (from, to) = match shape {
                            0 => (pick(sealed, len), pick(sealed, len)), // open chunk
                            1 => (pick(0, below_seal), pick(0, below_seal)), // sealed run
                            2 => (pick(0, below_seal), pick(sealed, len)), // both
                            3 => (0, u64::MAX),
                            _ => (pick(0, len).saturating_add(1), 0), // empty
                        };
                        let start = model.partition_point(|l| l.timestamp_ms < from);
                        let end = model.partition_point(|l| l.timestamp_ms <= to).max(start);
                        let entry = (trail.lines_between(from, to), start..end);
                        check(&entry, &model);
                        if held.len() < 32 {
                            held.push(entry);
                        } else {
                            let victim = next(&mut rng) as usize % held.len();
                            held[victim] = entry;
                        }
                    }
                    _ => {
                        if !held.is_empty() {
                            check(&held[next(&mut rng) as usize % held.len()], &model);
                        }
                    }
                }
            }
            assert!(model.len() > 20 * CHUNK_LINES, "seed {seed}: too few seals");
            held.iter().for_each(|entry| check(entry, &model));
        }
    }

    /// A reader takes and holds whole-trail windows while one writer
    /// appends across several seals: every held window is a gap-free
    /// prefix of the final trail, made of the trail's own lines. The
    /// writer waits, once its second chunk is sealed, until the reader has
    /// held a window that reaches that far, so the two always overlap.
    #[test]
    fn held_whole_trail_windows_are_gap_free_prefixes_across_seals() {
        const LINES: usize = 4 * CHUNK_LINES + 100;
        const PAUSE_AT: usize = 2 * CHUNK_LINES;
        let trail = AuditTrail::new(clock::wall());
        let start = std::sync::Barrier::new(2);
        let (reached, pause) = std::sync::mpsc::sync_channel::<()>(1);
        let held = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let pause = pause; // moved in: a receiver is not `Sync`
                start.wait();
                for seq in 0..LINES {
                    append(&trail, seq.to_string());
                    if seq + 1 == PAUSE_AT {
                        pause.recv().expect("the reader holds a window");
                    }
                    if seq % 32 == 31 {
                        std::thread::yield_now(); // let the reader in on one core
                    }
                }
            });
            start.wait();
            let mut held: Vec<LogLines> = Vec::new();
            while !writer.is_finished() {
                let window = trail.lines_between(0, u64::MAX);
                if held.last().map_or(0, LogLines::len) < window.len() {
                    if window.len() >= PAUSE_AT {
                        // Full once the writer has been released: ignore.
                        let _ = reached.try_send(());
                    }
                    held.push(window);
                }
            }
            held
        });
        let all = trail.lines_between(0, u64::MAX);
        assert_eq!(all.len(), LINES);
        assert!(
            held.iter().any(|window| window.len() < LINES),
            "the reader never overlapped the writer"
        );
        let details: Vec<String> = (0..LINES).map(|seq| format!("{seq} [ok] n=1")).collect();
        for window in &held {
            for (seq, line) in window.iter().enumerate() {
                assert_eq!(line.detail, details[seq]);
                assert!(std::ptr::eq(line, &all[seq]));
            }
        }
    }

    #[test]
    fn size_counts_the_unrendered_fields() {
        let trail = AuditTrail::new(clock::sim());
        assert_eq!(trail.size_bytes(), 0);
        trail.record(
            &Session::regulator(),
            "get-system-logs",
            "range".into(),
            Ok(0),
        );
        let ok = "regulator".len() + "get-system-logs".len() + "range".len() + "ok".len() + 24;
        assert_eq!(trail.size_bytes(), ok);
        trail.record(
            &Session::customer("neo"),
            "read-data-by-key",
            "key=k".into(),
            Err("denied"),
        );
        let denied = "customer".len()
            + "neo".len()
            + "read-data-by-key".len()
            + "key=k".len()
            + "denied".len()
            + 24;
        assert_eq!(trail.size_bytes(), ok + denied);
    }

    /// A clock whose reading the test sets, backwards included.
    struct SteppingClock(AtomicU64);

    impl clock::Clock for SteppingClock {
        fn now(&self) -> clock::Timestamp {
            clock::Timestamp::from_nanos(self.0.load(Ordering::SeqCst) * 1_000_000)
        }

        fn sleep(&self, _: Duration) {}
    }

    fn append(trail: &AuditTrail, detail: String) {
        trail.record(&Session::controller(), "create-record", detail, Ok(1));
    }

    #[test]
    fn a_clock_stepping_back_is_clamped() {
        let stepping = Arc::new(SteppingClock(AtomicU64::new(500)));
        let trail = AuditTrail::new(stepping.clone());
        append(&trail, "a".into());
        stepping.0.store(200, Ordering::SeqCst);
        append(&trail, "b".into());
        stepping.0.store(700, Ordering::SeqCst);
        append(&trail, "c".into());
        let stamps: Vec<u64> = trail
            .lines_between(0, u64::MAX)
            .iter()
            .map(|l| l.timestamp_ms)
            .collect();
        assert_eq!(stamps, [500, 500, 700]);
        assert_eq!(trail.lines_between(0, 499).len(), 0);
        assert_eq!(trail.lines_between(500, 500).len(), 2);
    }

    /// Two appenders against one reader looping whole-trail reads: every
    /// window is a gap-free prefix of the final trail, never shorter than
    /// the one before, and stamped in non-decreasing order.
    #[test]
    fn concurrent_reads_see_a_growing_gap_free_prefix() {
        const PER_THREAD: usize = 8 * CHUNK_LINES + 17;
        let trail = AuditTrail::new(clock::wall());
        let start = std::sync::Barrier::new(3);
        let windows = std::thread::scope(|scope| {
            let appenders: Vec<_> = (0..2)
                .map(|t| {
                    let (trail, start) = (&trail, &start);
                    scope.spawn(move || {
                        start.wait();
                        for seq in 0..PER_THREAD {
                            append(trail, format!("t{t}-{seq}"));
                            if seq % 64 == 63 {
                                std::thread::yield_now(); // let the reader in on one core
                            }
                        }
                    })
                })
                .collect();
            // Every read is checked for length; one per hundred new lines
            // is kept for the line-by-line checks below.
            let mut windows: Vec<LogLines> = Vec::new();
            let mut shortest = 0;
            start.wait();
            while !appenders.iter().all(|a| a.is_finished()) {
                let window = trail.lines_between(0, u64::MAX);
                assert!(window.len() >= shortest, "a later read saw fewer lines");
                shortest = window.len();
                if windows.last().map_or(0, LogLines::len) + 100 <= window.len() {
                    windows.push(window);
                }
            }
            windows
        });
        let all = trail.lines_between(0, u64::MAX);
        assert_eq!(all.len(), 2 * PER_THREAD);
        assert!(
            all.iter()
                .zip(all.iter().skip(1))
                .all(|(a, b)| a.timestamp_ms <= b.timestamp_ms),
            "trail went back in time"
        );
        assert!(
            !windows.is_empty(),
            "the reader never overlapped the appenders"
        );
        for window in &windows {
            assert!(window.iter().eq(all.iter().take(window.len())));
            // Gap-free per appender: its lines count up from zero.
            let mut next = [0usize; 2];
            for line in window.iter() {
                let (thread, seq) = line.detail[1..].split_once('-').unwrap();
                let thread: usize = thread.parse().unwrap();
                let seq = seq.split(' ').next().unwrap();
                assert_eq!(seq.parse::<usize>().unwrap(), next[thread]);
                next[thread] += 1;
            }
        }
    }
}

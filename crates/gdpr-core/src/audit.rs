//! The GDPR-layer audit trail (G30, G33).
//!
//! Connectors record one event per executed query: who (role/actor), what
//! (query class and detail), when, and the outcome. Regulators retrieve
//! slices of this trail with GET-SYSTEM-LOGS; breach notification (G33.3a)
//! needs the same trail to report affected subjects. The *store-level*
//! operation logs (kvstore's AOF, relstore's query log) sit underneath this
//! and capture raw commands; this trail is the per-query, per-actor view.

use crate::response::{LogChunk, LogLine, LogLines};
use crate::role::Session;
use clock::SharedClock;
use parking_lot::Mutex;
use std::fmt::Write;
use std::sync::Arc;

/// Lines per sealed chunk. A full read costs one reference-count bump
/// per chunk plus a copy of the open tail, which is shorter than this.
pub const CHUNK_LINES: usize = 256;

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

/// Line `i` lives in `sealed[i / CHUNK_LINES]`, or in `tail` past the last
/// sealed chunk. Timestamps are non-decreasing in `i`.
#[derive(Default)]
struct Inner {
    sealed: Vec<LogChunk>,
    tail: Vec<LogLine>,
    splits: Vec<Splits>,
    last_ms: u64,
    bytes: usize,
}

impl Inner {
    fn len(&self) -> usize {
        self.sealed.len() * CHUNK_LINES + self.tail.len()
    }

    fn lines(&self) -> impl Iterator<Item = &LogLine> {
        self.sealed
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(&self.tail)
    }

    /// Index of the first line whose timestamp fails `before`.
    fn partition_point(&self, before: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let chunk = match self.sealed.get(mid / CHUNK_LINES) {
                Some(chunk) => chunk.as_slice(),
                None => self.tail.as_slice(),
            };
            if before(chunk[mid % CHUNK_LINES].timestamp_ms) {
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
        self.tail.push(rendered.line);
        if self.tail.len() == CHUNK_LINES {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK_LINES));
            self.sealed.push(Arc::new(full));
        }
    }
}

/// An append-only audit trail: immutable, shared chunks of rendered
/// lines plus a short open tail. A line is rendered once, at append; a
/// read hands out references to the chunks its window covers.
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
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines stamped within `[from_ms, to_ms]` — the GET-SYSTEM-LOGS
    /// response (G33, G34). The window is a snapshot: every line appended
    /// before the call, none appended after, and no line ever changes.
    pub fn lines_between(&self, from_ms: u64, to_ms: u64) -> LogLines {
        let inner = self.inner.lock();
        let start = inner.partition_point(|t| t < from_ms);
        let end = inner.partition_point(|t| t <= to_ms);
        if start >= end {
            return LogLines::default();
        }
        let sealed_lines = inner.sealed.len() * CHUNK_LINES;
        let mut chunks = Vec::with_capacity(end.div_ceil(CHUNK_LINES) - start / CHUNK_LINES);
        let mut skip = 0;
        if start < sealed_lines {
            skip = start % CHUNK_LINES;
            let last = end.min(sealed_lines).div_ceil(CHUNK_LINES);
            chunks.extend_from_slice(&inner.sealed[start / CHUNK_LINES..last]);
        }
        if end > sealed_lines {
            let from = start.max(sealed_lines) - sealed_lines;
            chunks.push(Arc::new(inner.tail[from..end - sealed_lines].to_vec()));
        }
        drop(inner);
        LogLines::window(chunks, skip, end - start)
    }

    /// Lines touching a given user id — breach-notification support
    /// (G33.3a: report the subjects affected). Matches the actor exactly
    /// or the query's scope detail by substring, never the outcome text.
    pub fn events_for_actor(&self, actor: &str) -> Vec<LogLine> {
        let inner = self.inner.lock();
        inner
            .lines()
            .zip(&inner.splits)
            .filter(|(line, splits)| {
                line.actor[splits.actor_at..] == *actor
                    || line.detail[..splits.detail_end].contains(actor)
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

//! Runtime telemetry: allocation-free, log-bucketed latency histograms
//! (HDR-style) plus per-opcode operation/error counters — the measurement
//! layer threaded through the engine, the server, and the bench harness.
//!
//! # Histogram format
//!
//! [`AtomicHistogram`] covers roughly 100 ns to 100 s with **two buckets
//! per octave**: bucket `2i` holds values in `[2^(6+i), 1.5·2^(6+i))`
//! nanoseconds and bucket `2i+1` holds `[1.5·2^(6+i), 2^(7+i))`, for
//! octaves `2^6` (64 ns) through `2^38` (~275 s). Values below 64 ns land
//! in bucket 0; values at or above `2^38` ns **saturate** into the last
//! bucket instead of overflowing — the histogram never loses a count and
//! never panics. That yields [`BUCKETS`] = 64 buckets with a worst-case
//! quantile error of ~33% (half an octave), constant memory, and a
//! lock-free `record` path: one atomic add per bucket plus min/max/sum
//! maintenance, all `Ordering::Relaxed`.
//!
//! Snapshots ([`HistogramSnapshot`]) are plain `u64` arrays: mergeable
//! (bucket-wise addition, which is associative and commutative — shard
//! and thread snapshots combine in any order), serializable over the wire,
//! and queryable for p50/p90/p99/p999/max. Quantiles report the upper
//! bound of the containing bucket, so they are conservative and monotone
//! in the quantile argument.
//!
//! Recording can be disabled process-wide via [`set_recording`] — the
//! bench harness uses this to measure the instrumentation's own overhead.

use crate::query::GdprQuery;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// First octave: bucket 0 starts at `2^MIN_POW` ns (64 ns ≈ 100 ns floor).
const MIN_POW: u32 = 6;
/// One-past-last octave: `2^MAX_POW` ns (~275 s ≥ the 100 s ceiling).
const MAX_POW: u32 = 38;
/// Total bucket count: two per octave.
pub const BUCKETS: usize = ((MAX_POW - MIN_POW) * 2) as usize;

/// The bucket index holding `ns` (saturating at the last bucket).
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    let ns = ns.max(1);
    let msb = 63 - ns.leading_zeros();
    if msb < MIN_POW {
        return 0;
    }
    if msb >= MAX_POW {
        return BUCKETS - 1;
    }
    // Second-highest bit selects the half-octave.
    let half = ((ns >> (msb - 1)) & 1) as usize;
    ((msb - MIN_POW) as usize) * 2 + half
}

/// The `[lower, upper)` nanosecond bounds of bucket `idx`. Bucket 0's
/// lower bound is 0 (it absorbs the sub-64 ns underflow); the last
/// bucket's upper bound is `u64::MAX` (it absorbs saturation).
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < BUCKETS, "bucket index {idx} out of range");
    let octave = MIN_POW + (idx / 2) as u32;
    let base = 1u64 << octave;
    let half = base + base / 2;
    let (lo, hi) = if idx.is_multiple_of(2) {
        (base, half)
    } else {
        (half, base << 1)
    };
    let lo = if idx == 0 { 0 } else { lo };
    let hi = if idx == BUCKETS - 1 { u64::MAX } else { hi };
    (lo, hi)
}

/// Process-wide recording switch (default on). Disabling turns every
/// `record` into a load-and-return — used to measure instrumentation
/// overhead, not as an operational knob.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Enable or disable all telemetry recording in this process.
pub fn set_recording(enabled: bool) {
    RECORDING.store(enabled, Ordering::Relaxed);
}

/// Is telemetry recording currently enabled?
#[inline]
pub fn recording_enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// A lock-free, log-bucketed latency histogram (see the module docs for
/// the exact bucket layout). `record` is wait-free: a handful of relaxed
/// atomic RMWs, no allocation, no lock.
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one duration. Durations past ~584 years clamp to `u64::MAX`
    /// nanoseconds (and then saturate into the last bucket).
    #[inline]
    pub fn record(&self, latency: Duration) {
        self.record_value(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one raw value (nanoseconds for latencies; the same buckets
    /// serve dimensionless values like batch sizes).
    ///
    /// Hot-path budget: three uncontended-case atomic RMWs (bucket, count,
    /// sum) plus two plain loads. min/max only pay an RMW when the value
    /// actually extends the envelope — after warmup those lines stay in
    /// shared state across cores instead of ping-ponging, which is what
    /// keeps the instrumentation's measured overhead low.
    #[inline]
    pub fn record_value(&self, v: u64) {
        if !recording_enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum without a CAS loop: detect the (practically
        // impossible outside deliberate u64::MAX records) wrap after the
        // fact and pin the total to MAX — it must never wrap to a lie.
        let prev = self.sum_ns.fetch_add(v, Ordering::Relaxed);
        if prev.checked_add(v).is_none() {
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
        }
        if v < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy. Concurrent recorders may land between the
    /// bucket loads — the snapshot is consistent per counter, not across
    /// counters, which is the usual (and sufficient) histogram contract.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of an [`AtomicHistogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
    /// `u64::MAX` when empty.
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another snapshot in. Bucket-wise addition is associative and
    /// commutative, so shard/thread snapshots combine in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q` quantile (0.0–1.0) in nanoseconds: the upper bound of the
    /// bucket containing it, clamped to the observed max — conservative
    /// (never under-reports) and monotone in `q`. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bounds(i).1.min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Observed minimum (0 when empty, for display).
    pub fn min_observed_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }
}

/// How many per-opcode slots [`OpTelemetry`] tracks — one per
/// [`GdprQuery`] variant, in wire-opcode order.
pub const QUERY_SLOTS: usize = 20;

/// Slot names, indexed by [`query_slot`] (the §3.3 taxonomy order the
/// wire codec uses).
pub const QUERY_NAMES: [&str; QUERY_SLOTS] = [
    "create-record",
    "delete-record-by-key",
    "delete-record-by-pur",
    "delete-record-by-ttl",
    "delete-record-by-usr",
    "read-data-by-key",
    "read-data-by-pur",
    "read-data-by-usr",
    "read-data-by-obj",
    "read-data-by-dec",
    "read-metadata-by-key",
    "read-metadata-by-usr",
    "read-metadata-by-shr",
    "update-data-by-key",
    "update-metadata-by-key",
    "update-metadata-by-pur",
    "update-metadata-by-usr",
    "get-system-logs",
    "get-system-features",
    "verify-deletion",
];

/// The telemetry slot of a query — same order as the wire opcodes.
pub fn query_slot(query: &GdprQuery) -> usize {
    use GdprQuery::*;
    match query {
        CreateRecord(_) => 0,
        DeleteByKey(_) => 1,
        DeleteByPurpose(_) => 2,
        DeleteExpired => 3,
        DeleteByUser(_) => 4,
        ReadDataByKey(_) => 5,
        ReadDataByPurpose(_) => 6,
        ReadDataByUser(_) => 7,
        ReadDataNotObjecting(_) => 8,
        ReadDataDecisionEligible => 9,
        ReadMetadataByKey(_) => 10,
        ReadMetadataByUser(_) => 11,
        ReadMetadataBySharedWith(_) => 12,
        UpdateDataByKey { .. } => 13,
        UpdateMetadataByKey { .. } => 14,
        UpdateMetadataByPurpose { .. } => 15,
        UpdateMetadataByUser { .. } => 16,
        GetSystemLogs { .. } => 17,
        GetSystemFeatures => 18,
        VerifyDeletion(_) => 19,
    }
}

struct OpSlot {
    ok: AtomicU64,
    errors: AtomicU64,
    latency: AtomicHistogram,
}

/// Per-opcode service-time telemetry: one counter pair and one histogram
/// per [`GdprQuery`] variant, recorded by whichever engine is the entry
/// point (the unsharded [`crate::ComplianceEngine`] or the
/// [`crate::ShardedEngine`] router — never both for one op).
///
/// Also hosts the slow-op log: any op whose service time exceeds the
/// configured threshold emits one rate-limited stderr line (at most one
/// per second process-wide). The threshold defaults from the
/// `GDPR_SLOW_OP_MS` environment variable (unset/0 = disabled).
pub struct OpTelemetry {
    slots: [OpSlot; QUERY_SLOTS],
    /// Slow-op threshold in nanoseconds (`GDPR_SLOW_OP_MS`); 0 = disabled.
    slow_threshold_ns: u64,
    /// Tenant label stamped on slow-op log lines (`"default"` for the
    /// degenerate single-tenant table).
    label: String,
}

/// Monotonic milliseconds since the first call — the slow-op rate
/// limiter's clock (std-only; no wall-clock skew).
fn monotonic_ms() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_millis() as u64
}

/// Last slow-op log line's timestamp (shared by every `OpTelemetry`, so
/// the stderr budget is one line per second per process).
static LAST_SLOW_LOG_MS: AtomicU64 = AtomicU64::new(0);

impl Default for OpTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl OpTelemetry {
    pub fn new() -> OpTelemetry {
        Self::labeled("default")
    }

    /// A table whose slow-op log lines carry `tenant=<label>` — one per
    /// tenant partition in a multi-tenant engine.
    pub fn labeled(label: impl Into<String>) -> OpTelemetry {
        let slow_ms = std::env::var("GDPR_SLOW_OP_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        OpTelemetry {
            slots: std::array::from_fn(|_| OpSlot {
                ok: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                latency: AtomicHistogram::new(),
            }),
            slow_threshold_ns: slow_ms.saturating_mul(1_000_000),
            label: label.into(),
        }
    }

    /// The tenant label slow-op lines are attributed to.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Record one executed op: which query, how long its dispatch took,
    /// and whether it returned a GDPR error.
    #[inline]
    pub fn record(&self, query: &GdprQuery, elapsed: Duration, is_err: bool) {
        if !recording_enabled() {
            return;
        }
        let slot = &self.slots[query_slot(query)];
        if is_err {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.ok.fetch_add(1, Ordering::Relaxed);
        }
        slot.latency.record(elapsed);
        let threshold = self.slow_threshold_ns;
        if threshold > 0 {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            if ns >= threshold {
                self.log_slow(query, elapsed);
            }
        }
    }

    /// Rate-limited slow-op line: at most one per second process-wide, so
    /// a pathological backlog cannot turn stderr into the bottleneck.
    fn log_slow(&self, query: &GdprQuery, elapsed: Duration) {
        let now = monotonic_ms();
        let last = LAST_SLOW_LOG_MS.load(Ordering::Relaxed);
        if now.saturating_sub(last) < 1_000 {
            return;
        }
        if LAST_SLOW_LOG_MS
            .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            eprintln!(
                "[gdpr-telemetry] slow op: op={} tenant={} took {:.3} ms",
                query.name(),
                self.label,
                elapsed.as_secs_f64() * 1e3,
            );
        }
    }

    /// Snapshot every slot (names in taxonomy order, empty slots included
    /// — callers filter if they only want touched opcodes).
    pub fn snapshot(&self) -> OpTelemetrySnapshot {
        OpTelemetrySnapshot {
            ops: self
                .slots
                .iter()
                .enumerate()
                .map(|(i, slot)| OpSnapshot {
                    name: QUERY_NAMES[i].to_string(),
                    ok: slot.ok.load(Ordering::Relaxed),
                    errors: slot.errors.load(Ordering::Relaxed),
                    latency: slot.latency.snapshot(),
                })
                .collect(),
        }
    }
}

/// One opcode's snapshot: counters plus the service-time histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    pub name: String,
    pub ok: u64,
    pub errors: u64,
    pub latency: HistogramSnapshot,
}

impl OpSnapshot {
    pub fn total(&self) -> u64 {
        self.ok + self.errors
    }
}

/// A point-in-time copy of an [`OpTelemetry`] table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpTelemetrySnapshot {
    pub ops: Vec<OpSnapshot>,
}

impl OpTelemetrySnapshot {
    /// Merge another snapshot in, matching slots by name (append unknown
    /// names — merging snapshots from different protocol revisions must
    /// not drop data).
    pub fn merge(&mut self, other: &OpTelemetrySnapshot) {
        for theirs in &other.ops {
            if let Some(ours) = self.ops.iter_mut().find(|o| o.name == theirs.name) {
                ours.ok += theirs.ok;
                ours.errors += theirs.errors;
                ours.latency.merge(&theirs.latency);
            } else {
                self.ops.push(theirs.clone());
            }
        }
    }

    /// The snapshot for one query name, if present.
    pub fn get(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// Total executed ops across every opcode.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(OpSnapshot::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_bracket_their_values() {
        // Every bucket's own bounds map back to that bucket.
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let probe = lo.max(1);
            assert_eq!(bucket_index(probe), idx, "lower bound of {idx}");
            if hi != u64::MAX {
                assert_eq!(bucket_index(hi - 1), idx, "upper bound of {idx}");
                assert_ne!(bucket_index(hi), idx, "upper bound is exclusive");
            }
        }
        // The documented anchors.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(63), 0);
        assert_eq!(bucket_index(64), 0); // [64, 96) is bucket 0
        assert_eq!(bucket_index(96), 1); // [96, 128) is bucket 1
        assert_eq!(bucket_index(128), 2);
    }

    #[test]
    fn saturation_lands_in_the_last_bucket_without_panicking() {
        let h = AtomicHistogram::new();
        h.record_value(u64::MAX);
        h.record_value(1u64 << 62);
        h.record(Duration::from_secs(1_000_000));
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[BUCKETS - 1], 3);
        assert_eq!(snap.max_ns, u64::MAX);
        // The saturating sum did not wrap.
        assert_eq!(snap.sum_ns, u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_max() {
        let h = AtomicHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        let mut last = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = snap.quantile_ns(q);
            assert!(v >= last, "quantile must be monotone at q={q}");
            assert!(v <= snap.max_ns, "quantile must not exceed max at q={q}");
            last = v;
        }
        // p50 of 1..=1000 µs is ~500 µs; half-octave buckets bound the
        // error to [value, 1.5·value).
        let p50 = snap.p50_ns();
        assert!(
            (500_000..=768_000).contains(&p50),
            "p50 {p50} out of bucket range"
        );
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |values: &[u64]| {
            let h = AtomicHistogram::new();
            for &v in values {
                h.record_value(v);
            }
            h.snapshot()
        };
        let a = mk(&[100, 2_000, 30_000]);
        let b = mk(&[5, 400_000]);
        let c = mk(&[7_000_000, 80, 80, 80]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // a ⊕ b == b ⊕ a
        let mut ba = b.clone();
        ba.merge(&a);
        ba.merge(&c);
        assert_eq!(ab_c, ba);
        assert_eq!(ab_c.count, 9);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let snap = AtomicHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile_ns(0.99), 0);
        assert_eq!(snap.mean_ns(), 0);
        assert_eq!(snap.min_observed_ns(), 0);
    }

    #[test]
    fn op_table_records_per_opcode_and_merges_by_name() {
        let t = OpTelemetry::new();
        let ping = GdprQuery::ReadDataByKey("k".into());
        let del = GdprQuery::DeleteByKey("k".into());
        t.record(&ping, Duration::from_micros(10), false);
        t.record(&ping, Duration::from_micros(20), true);
        t.record(&del, Duration::from_micros(30), false);
        let snap = t.snapshot();
        let read = snap.get("read-data-by-key").unwrap();
        assert_eq!((read.ok, read.errors), (1, 1));
        assert_eq!(read.latency.count, 2);
        let delete = snap.get("delete-record-by-key").unwrap();
        assert_eq!((delete.ok, delete.errors), (1, 0));
        assert_eq!(snap.total_ops(), 3);

        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.get("read-data-by-key").unwrap().ok, 2);
        assert_eq!(merged.total_ops(), 6);
    }

    #[test]
    fn disabled_recording_drops_samples() {
        let h = AtomicHistogram::new();
        set_recording(false);
        h.record_value(100);
        set_recording(true);
        h.record_value(100);
        assert_eq!(h.snapshot().count, 1);
    }

    /// Property test, hand-rolled (no proptest in the tree): for randomized
    /// values across the whole u64 range, the bucket chosen by
    /// `bucket_index` must bracket the value, and a histogram fed those
    /// values must account for every sample with quantiles inside the
    /// observed [min, max] envelope.
    #[test]
    fn random_values_land_in_brackets_that_contain_them() {
        // xorshift64* — deterministic, no dependencies.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let h = AtomicHistogram::new();
        let mut min_seen = u64::MAX;
        let mut max_seen = 0u64;
        for i in 0..4096 {
            // Vary the magnitude: raw 64-bit values alone almost always
            // saturate the top octave, so shift by a random amount to
            // exercise every bucket.
            let value = next() >> (next() % 64);
            let idx = bucket_index(value);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= value && (value < hi || hi == u64::MAX),
                "iteration {i}: value {value} outside bucket {idx} bounds [{lo}, {hi})"
            );
            h.record_value(value);
            min_seen = min_seen.min(value);
            max_seen = max_seen.max(value);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4096);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4096);
        assert_eq!(snap.max_ns, max_seen);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let v = snap.quantile_ns(q);
            assert!(
                v <= max_seen,
                "quantile {q} = {v} exceeds observed max {max_seen}"
            );
        }
        assert!(snap.quantile_ns(0.0) >= bucket_bounds(bucket_index(min_seen)).0);
    }

    #[test]
    fn query_slots_match_names() {
        assert_eq!(query_slot(&GdprQuery::GetSystemFeatures), 18);
        assert_eq!(QUERY_NAMES[18], "get-system-features");
        assert_eq!(
            QUERY_NAMES[query_slot(&GdprQuery::VerifyDeletion("k".into()))],
            GdprQuery::VerifyDeletion("k".into()).name()
        );
    }
}

//! Server-side telemetry: per-stage latency histograms for the request
//! lifecycle, assembly of the [`MetricsReport`] served by the `GetMetrics`
//! wire op, and the Prometheus text exposition the `--metrics-addr`
//! endpoint serves.
//!
//! The pipeline stages a frame crosses, and which histogram sees each:
//!
//! ```text
//! decode ──────▶ batch starts on the loop ──▶ engine done ──▶ socket drained
//!    └─ decode_wait_ns ─┘ (per op)
//!                       └──── execute_ns ────┘ (per batch)
//!                                   enqueue ─── write_drain_ns ───┘ (per batch)
//! batch_size: ops per executed batch (dimensionless)
//! ```
//!
//! All histograms are [`AtomicHistogram`]s — recording is a few relaxed
//! atomic adds. What recording costs end to end is A/B-measured by
//! `bench_report` on every run (`instrumentation_overhead_pct`): 6.6 % on
//! the pipelined ladder in the committed `BENCH_19.json`.

use crate::server::ServerShared;
use crate::wire::{MetricsReport, StageMetrics};
use gdpr_core::telemetry::{AtomicHistogram, HistogramSnapshot, OpTelemetrySnapshot};
use gdpr_core::tenant::TenantId;
use std::sync::atomic::Ordering;

/// The event loop's per-stage histograms.
#[derive(Default)]
pub struct ServerTelemetry {
    /// Frame decoded → its batch starts on the loop (per op): how long a
    /// decoded request waited behind the earlier batches of its wake.
    pub decode_wait: AtomicHistogram,
    /// Engine `execute_batch` service time (per batch): the sum over the
    /// batch's ops, which the engine executes one after another.
    pub execute: AtomicHistogram,
    /// Responses enqueued on an empty outbuf → outbuf drained to the
    /// socket (per batch): seal + write + kernel buffer time.
    pub write_drain: AtomicHistogram,
    /// Ops per executed batch (dimensionless values, same buckets).
    pub batch_size: AtomicHistogram,
}

/// Stage names in report order — the exposition endpoint and the wire op
/// both present stages under these keys.
const STAGES: [&str; 4] = ["decode_wait", "execute", "write_drain", "batch_size"];

impl ServerTelemetry {
    fn stage_snapshots(&self) -> Vec<StageMetrics> {
        [
            &self.decode_wait,
            &self.execute,
            &self.write_drain,
            &self.batch_size,
        ]
        .iter()
        .zip(STAGES)
        .map(|(h, name)| StageMetrics {
            name: name.to_string(),
            histogram: h.snapshot(),
        })
        .collect()
    }
}

/// Assemble the full metrics snapshot: the engine's per-opcode table, the
/// loop's stage histograms, and the flat server/security counters. Every
/// atomic is loaded exactly once — a snapshot racing shutdown (or live
/// traffic) sees each counter's value at its own load, never a torn or
/// repeated read.
pub(crate) fn build_metrics_report(shared: &ServerShared) -> MetricsReport {
    let ops = shared
        .engine
        .op_telemetry()
        .map(|snap| snap.ops)
        .unwrap_or_default();
    finish_report(shared, ops)
}

/// The tenant-scoped variant the wire `GetMetrics` handler uses: the
/// per-opcode table comes from the requesting tenant's counters alone (a
/// tenant that has never executed anything gets an empty table). The
/// stage histograms and server counters are shared infrastructure —
/// connection and pipeline plumbing, not per-tenant data — and stay
/// deployment-wide.
pub(crate) fn build_metrics_report_for(shared: &ServerShared, tenant: &TenantId) -> MetricsReport {
    let ops = shared
        .engine
        .op_telemetry_for(tenant)
        .map(|snap| snap.ops)
        .unwrap_or_default();
    finish_report(shared, ops)
}

fn finish_report(
    shared: &ServerShared,
    ops: Vec<gdpr_core::telemetry::OpSnapshot>,
) -> MetricsReport {
    let stats = &shared.stats;
    let counters = vec![
        (
            "connections_accepted".to_string(),
            stats.connections_accepted.load(Ordering::Relaxed),
        ),
        (
            "connections_active".to_string(),
            stats.connections_active.load(Ordering::Relaxed),
        ),
        (
            "requests".to_string(),
            stats.requests.load(Ordering::Relaxed),
        ),
        (
            "gdpr_errors".to_string(),
            stats.gdpr_errors.load(Ordering::Relaxed),
        ),
        (
            "protocol_errors".to_string(),
            stats.protocol_errors.load(Ordering::Relaxed),
        ),
        (
            "handshakes_completed".to_string(),
            stats.handshakes_completed.load(Ordering::Relaxed),
        ),
        (
            "handshake_failures".to_string(),
            stats.handshake_failures.load(Ordering::Relaxed),
        ),
        (
            "replay_rejects".to_string(),
            stats.replay_rejects.load(Ordering::Relaxed),
        ),
        (
            "decrypt_failures".to_string(),
            stats.decrypt_failures.load(Ordering::Relaxed),
        ),
    ];
    MetricsReport {
        ops,
        stages: shared.telemetry.stage_snapshots(),
        counters,
    }
}

/// Render a [`MetricsReport`] in Prometheus text exposition format
/// (version 0.0.4): flat counters as `gdpr_server_<name>`, per-opcode
/// tables as `gdpr_op_*{op="..."}`, and stage histograms as native
/// Prometheus histograms (`_bucket{le="..."}` with cumulative counts in
/// seconds, `_sum`, `_count`).
pub fn render_prometheus(report: &MetricsReport) -> String {
    let mut out = String::with_capacity(16 * 1024);
    for (name, value) in &report.counters {
        let metric = format!("gdpr_server_{name}");
        out.push_str(&format!(
            "# TYPE {metric} {}\n{metric} {value}\n",
            // Gauges go up and down; everything else only accumulates.
            if name == "connections_active" {
                "gauge"
            } else {
                "counter"
            },
        ));
    }
    out.push_str("# TYPE gdpr_op_total counter\n");
    out.push_str("# TYPE gdpr_op_errors_total counter\n");
    for op in &report.ops {
        if op.ok + op.errors == 0 {
            continue; // untouched opcodes would only be noise
        }
        out.push_str(&format!(
            "gdpr_op_total{{op=\"{}\"}} {}\n",
            op.name,
            op.ok + op.errors
        ));
        out.push_str(&format!(
            "gdpr_op_errors_total{{op=\"{}\"}} {}\n",
            op.name, op.errors
        ));
    }
    for op in &report.ops {
        if !op.latency.is_empty() {
            render_histogram(
                &mut out,
                "gdpr_op_latency_seconds",
                &format!("op=\"{}\"", op.name),
                &op.latency,
                true,
            );
        }
    }
    for stage in &report.stages {
        let seconds = stage.name != "batch_size";
        let metric = if seconds {
            format!("gdpr_stage_{}_seconds", stage.name)
        } else {
            format!("gdpr_stage_{}", stage.name)
        };
        render_histogram(&mut out, &metric, "", &stage.histogram, seconds);
    }
    out
}

/// Per-tenant opcode series, appended after the deployment-wide report:
/// `gdpr_tenant_op_total{tenant=...,op=...}` and the matching
/// `_errors_total`. Tenants and opcodes with zero traffic are omitted.
pub fn render_tenant_prometheus(tenants: &[(String, OpTelemetrySnapshot)]) -> String {
    let mut out = String::new();
    if tenants.iter().all(|(_, snap)| snap.total_ops() == 0) {
        return out;
    }
    out.push_str("# TYPE gdpr_tenant_op_total counter\n");
    out.push_str("# TYPE gdpr_tenant_op_errors_total counter\n");
    for (tenant, snap) in tenants {
        for op in &snap.ops {
            if op.total() == 0 {
                continue;
            }
            out.push_str(&format!(
                "gdpr_tenant_op_total{{tenant=\"{tenant}\",op=\"{}\"}} {}\n",
                op.name,
                op.total()
            ));
            out.push_str(&format!(
                "gdpr_tenant_op_errors_total{{tenant=\"{tenant}\",op=\"{}\"}} {}\n",
                op.name, op.errors
            ));
        }
    }
    out
}

/// One Prometheus histogram: cumulative `_bucket{le=...}` lines over the
/// nonzero buckets, a `+Inf` catch-all, `_sum`, and `_count`. Latency
/// buckets convert nanoseconds → seconds; dimensionless histograms (batch
/// sizes) emit raw upper bounds.
fn render_histogram(
    out: &mut String,
    metric: &str,
    labels: &str,
    h: &HistogramSnapshot,
    seconds: bool,
) {
    let fmt_labels = |extra: &str| {
        if labels.is_empty() {
            format!("{{{extra}}}")
        } else {
            format!("{{{labels},{extra}}}")
        }
    };
    let plain_labels = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("# TYPE {metric} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &count) in h.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let (_, upper) = gdpr_core::telemetry::bucket_bounds(i);
        let le = if upper == u64::MAX {
            "+Inf".to_string()
        } else if seconds {
            format!("{}", upper as f64 / 1e9)
        } else {
            format!("{upper}")
        };
        out.push_str(&format!(
            "{metric}_bucket{} {cumulative}\n",
            fmt_labels(&format!("le=\"{le}\""))
        ));
    }
    out.push_str(&format!(
        "{metric}_bucket{} {}\n",
        fmt_labels("le=\"+Inf\""),
        h.count
    ));
    let sum = if seconds {
        format!("{}", h.sum_ns as f64 / 1e9)
    } else {
        format!("{}", h.sum_ns)
    };
    out.push_str(&format!("{metric}_sum{plain_labels} {sum}\n"));
    out.push_str(&format!("{metric}_count{plain_labels} {}\n", h.count));
}

/// The full HTTP response the metrics listener writes: minimal HTTP/1.0 —
/// no request parsing, no keep-alive — because every scraper ever written
/// handles "200, body, close".
pub(crate) fn http_response(
    report: &MetricsReport,
    tenants: &[(String, OpTelemetrySnapshot)],
) -> Vec<u8> {
    let mut body = render_prometheus(report);
    body.push_str(&render_tenant_prometheus(tenants));
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::telemetry::OpTelemetry;
    use gdpr_core::GdprQuery;
    use std::time::Duration;

    fn sample_report() -> MetricsReport {
        let ops = OpTelemetry::new();
        ops.record(
            &GdprQuery::ReadDataByKey("k".into()),
            Duration::from_micros(15),
            false,
        );
        ops.record(
            &GdprQuery::ReadDataByKey("k".into()),
            Duration::from_micros(40),
            true,
        );
        let stages = ServerTelemetry::default();
        stages.decode_wait.record(Duration::from_micros(5));
        stages.batch_size.record_value(17);
        MetricsReport {
            ops: ops.snapshot().ops,
            stages: stages.stage_snapshots(),
            counters: vec![
                ("requests".to_string(), 2),
                ("connections_active".to_string(), 1),
            ],
        }
    }

    #[test]
    fn prometheus_text_has_counters_ops_and_stages() {
        let text = render_prometheus(&sample_report());
        assert!(text.contains("# TYPE gdpr_server_requests counter"));
        assert!(text.contains("gdpr_server_requests 2"));
        assert!(text.contains("# TYPE gdpr_server_connections_active gauge"));
        assert!(text.contains("gdpr_op_total{op=\"read-data-by-key\"} 2"));
        assert!(text.contains("gdpr_op_errors_total{op=\"read-data-by-key\"} 1"));
        // Untouched opcodes are omitted.
        assert!(!text.contains("op=\"create-record\""));
        // Latency histograms expose seconds and end with +Inf/_count.
        assert!(text.contains("gdpr_op_latency_seconds_bucket{op=\"read-data-by-key\",le=\""));
        assert!(text.contains("gdpr_op_latency_seconds_count{op=\"read-data-by-key\"} 2"));
        assert!(text.contains("gdpr_stage_decode_wait_seconds_bucket{le=\""));
        assert!(text.contains("gdpr_stage_decode_wait_seconds_count 1"));
        // batch_size stays dimensionless (no _seconds suffix); 17 lands in
        // the first bucket, [0, 96).
        assert!(text.contains("gdpr_stage_batch_size_bucket{le=\"96\"} 1"));
        // Every histogram carries the +Inf catch-all.
        assert!(text.contains("gdpr_stage_batch_size_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn tenant_series_are_labeled_and_skip_idle_tenants() {
        let acme = OpTelemetry::labeled("acme");
        acme.record(
            &GdprQuery::ReadDataByKey("k".into()),
            Duration::from_micros(3),
            true,
        );
        let idle = OpTelemetry::labeled("idle");
        let text = render_tenant_prometheus(&[
            ("acme".to_string(), acme.snapshot()),
            ("idle".to_string(), idle.snapshot()),
        ]);
        assert!(text.contains("gdpr_tenant_op_total{tenant=\"acme\",op=\"read-data-by-key\"} 1"));
        assert!(
            text.contains("gdpr_tenant_op_errors_total{tenant=\"acme\",op=\"read-data-by-key\"} 1")
        );
        assert!(!text.contains("tenant=\"idle\""));
        // All-idle input renders nothing, not bare TYPE headers.
        assert!(render_tenant_prometheus(&[("idle".to_string(), idle.snapshot())]).is_empty());
    }

    #[test]
    fn cumulative_bucket_counts_are_monotone() {
        let h = AtomicHistogram::new();
        for us in [1u64, 10, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        let mut out = String::new();
        render_histogram(&mut out, "m", "", &h.snapshot(), true);
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.starts_with("m_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative counts must not decrease: {line}");
            last = v;
        }
        assert!(out.ends_with("m_count 6\n"));
    }

    #[test]
    fn http_response_is_well_formed() {
        let resp = http_response(&sample_report(), &[]);
        let text = String::from_utf8(resp).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
    }
}

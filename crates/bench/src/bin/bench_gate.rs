//! CI regression gate over two `bench_report` JSON artifacts.
//!
//! ```sh
//! bench_gate BENCH_6.json BENCH_8.json [--tolerance PCT] [--gate-latency]
//! ```
//!
//! Compares every metric present in *both* files. Throughput metrics
//! (name ends in `_ops_per_sec`) are gated: the run fails (exit 1) when
//! the new value drops below the old one by more than the metric's
//! tolerance. Tolerances are per metric, calibrated to each suite's
//! measured cross-session variance on CI-class containers: the
//! pipelined/roundtrip TCP ladders and sharding suite are stable and
//! get the strict default (20%), while the single-threaded in-process
//! numbers and the idle-connection ladder swing up to ~30% between
//! sessions with identical code and get 40%. `--tolerance PCT`
//! overrides every class. All other shared metrics are printed for
//! context but never fail the gate — ratios and percentiles move with
//! machine load; the throughput floor is the contract CI enforces.
//!
//! `--gate-latency` additionally gates tail-latency metrics (name ends
//! in `_p99_us`) in the *inverted* direction: the run fails when the new
//! p99 exceeds the old by more than 40% (tails swing harder than means,
//! so the throughput tolerance classes don't apply; `--tolerance`
//! overrides this too). Opt-in because it is only meaningful for two
//! reports from the same machine class — cross-machine p99 comparisons
//! gate noise, not regressions.
//!
//! The `audit` suite is all costs (ns or µs per call, best of several
//! rounds), so every metric in it is always gated in that same inverted
//! direction with the same 40%.
//!
//! The parser is hand-rolled for the exact `BenchReport::to_json` shape
//! (object → object → number-or-null); it is not a general JSON reader.

use std::collections::BTreeMap;
use std::process::exit;

/// suite → metric → value, ordered for stable output.
type Metrics = BTreeMap<String, BTreeMap<String, f64>>;

/// Default tolerance (percent) for a gated metric, by measured
/// run-to-run variance class. `in-process_*` (single-process, CPU-bound,
/// very sensitive to host frequency/neighbors) and `idle_*` (the
/// idle-connection ladder, sensitive to accept/epoll timing) have shown
/// ~30% cross-session swings with identical code; the TCP throughput
/// ladders and the sharding suite stay well inside 20%.
fn default_tolerance(metric: &str) -> f64 {
    if metric.starts_with("in-process") || metric.starts_with("idle_") {
        40.0
    } else {
        20.0
    }
}

/// Tolerance (percent) for a smaller-is-better metric — a
/// `--gate-latency`-gated p99 or an `audit` suite cost: tails and
/// microsecond costs swing harder than throughput means even on one
/// machine.
const LATENCY_TOLERANCE_PCT: f64 = 40.0;

fn main() {
    let mut tolerance_override: Option<f64> = None;
    let mut gate_latency = false;
    let mut paths = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--tolerance" {
            let value = argv.next().and_then(|v| v.parse::<f64>().ok());
            match value {
                Some(pct) if (0.0..100.0).contains(&pct) => tolerance_override = Some(pct),
                _ => die("--tolerance requires a percentage in [0, 100)"),
            }
        } else if flag == "--gate-latency" {
            gate_latency = true;
        } else if flag == "--help" || flag == "-h" {
            println!("usage: bench_gate OLD.json NEW.json [--tolerance PCT] [--gate-latency]");
            return;
        } else {
            paths.push(flag);
        }
    }
    if paths.len() != 2 {
        die("usage: bench_gate OLD.json NEW.json [--tolerance PCT] [--gate-latency]");
    }
    let old = load(&paths[0]);
    let new = load(&paths[1]);

    let mut compared = 0usize;
    let mut regressions = Vec::new();
    println!(
        "{:<22} {:<36} {:>14} {:>14} {:>8}",
        "suite", "metric", "old", "new", "delta"
    );
    for (suite, old_metrics) in &old {
        let Some(new_metrics) = new.get(suite) else {
            continue;
        };
        for (metric, &old_value) in old_metrics {
            let Some(&new_value) = new_metrics.get(metric) else {
                continue;
            };
            compared += 1;
            let delta_pct = if old_value.abs() > f64::EPSILON {
                100.0 * (new_value - old_value) / old_value
            } else {
                0.0
            };
            let throughput_gated = metric.ends_with("_ops_per_sec");
            let latency_gated = suite == "audit" || (gate_latency && metric.ends_with("_p99_us"));
            let tolerance_pct = tolerance_override.unwrap_or_else(|| {
                if latency_gated {
                    LATENCY_TOLERANCE_PCT
                } else {
                    default_tolerance(metric)
                }
            });
            // Throughput regresses downward; latency and cost regress upward.
            let regressed = (throughput_gated
                && new_value < old_value * (1.0 - tolerance_pct / 100.0))
                || (latency_gated && new_value > old_value * (1.0 + tolerance_pct / 100.0));
            println!(
                "{:<22} {:<36} {:>14.3} {:>14.3} {:>+7.1}%{}",
                suite,
                metric,
                old_value,
                new_value,
                delta_pct,
                if regressed { "  REGRESSION" } else { "" }
            );
            if regressed {
                regressions.push(format!(
                    "{suite}/{metric}: {old_value:.1} -> {new_value:.1} (tolerance {tolerance_pct}%)"
                ));
            }
        }
    }
    if compared == 0 {
        die("no shared metrics between the two reports");
    }
    if regressions.is_empty() {
        println!(
            "\nbench_gate: OK — {compared} shared metrics, no gated metric beyond tolerance{}",
            if gate_latency {
                " (throughput + p99 latency)"
            } else {
                ""
            }
        );
    } else {
        eprintln!(
            "\nbench_gate: FAIL — {} gated metric(s) regressed beyond tolerance:",
            regressions.len()
        );
        for line in &regressions {
            eprintln!("  {line}");
        }
        exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    exit(2)
}

fn load(path: &str) -> Metrics {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => die(&format!("cannot read {path}: {e}")),
    };
    match parse_report(&text) {
        Ok(metrics) => metrics,
        Err(e) => die(&format!("{path}: {e}")),
    }
}

/// Parse the two-level suite → metric → number object. `null` values
/// (non-finite numbers in the writer) are skipped rather than rejected.
fn parse_report(text: &str) -> Result<Metrics, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = Metrics::new();
    p.expect(b'{')?;
    if !p.peek_is(b'}') {
        loop {
            let suite = p.string()?;
            p.expect(b':')?;
            let mut metrics = BTreeMap::new();
            p.expect(b'{')?;
            if !p.peek_is(b'}') {
                loop {
                    let metric = p.string()?;
                    p.expect(b':')?;
                    if let Some(value) = p.number_or_null()? {
                        metrics.insert(metric, value);
                    }
                    if !p.comma_or(b'}')? {
                        break;
                    }
                }
            }
            p.expect(b'}')?;
            out.insert(suite, metrics);
            if !p.comma_or(b'}')? {
                break;
            }
        }
    }
    p.expect(b'}')?;
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek_is(&mut self, want: u8) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&want)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                want as char, self.pos, other
            )),
        }
    }

    /// After a value: consume ',' (returning true) or stop before `end`.
    fn comma_or(&mut self, end: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(&b) if b == end => Ok(false),
            other => Err(format!(
                "expected ',' or '{}' at byte {}, found {:?}",
                end as char, self.pos, other
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                self.pos += 1;
                return Ok(s.to_string());
            }
            if b == b'\\' {
                return Err("escape sequences are not supported".into());
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn number_or_null(&mut self) -> Result<Option<f64>, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(None);
        }
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Some)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

//! `e2e` — the repo's end-to-end benchmark: the four GDPRbench entity
//! workloads on wire / memory / disk deployments, with a per-layer ledger.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--scale smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last line of standard output is one JSON object. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.

mod driver;
mod layers;
mod procfs;
mod reference;
mod stream;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;
use workloads::{Scale, Spec};

/// What a run hands back to `main` for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        scale: Scale::Full,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale is full or smoke, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// A scratch directory of this process's own, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = sut::scratch_root().join(format!("run-{}", std::process::id()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `--trace 0` run: set up three times (the first instance takes the
/// correctness gate, the last is measured), warm up, measure for `seconds`.
fn run_end_to_end(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    scratch: &Scratch,
) -> Result<Outcome, String> {
    let err = |e: sut::GdprError| e.to_string();
    let inputs = workloads::make_inputs(spec, seed);
    let bodies = workloads::wire_bodies(spec, &inputs);

    let gate_instance =
        workloads::set_up(spec, &inputs, false, &scratch.0.join("gate")).map_err(err)?;
    let mut setups = vec![gate_instance.setup_s];
    let (mut attempted, mut failed, space_factor) =
        workloads::run_gate(spec, &inputs, gate_instance).map_err(err)?;
    let spare = workloads::set_up(spec, &inputs, false, &scratch.0.join("spare")).map_err(err)?;
    setups.push(spare.setup_s);
    drop(spare);
    let mut ready = workloads::set_up(spec, &inputs, false, &scratch.0.join("run")).map_err(err)?;
    setups.push(ready.setup_s);
    // Read before the timed phase: a build that completes more ops in the
    // window must not be charged for the audit trail and log it grew.
    let peak_rss_mb = procfs::peak_rss_mb();

    let mut cursors = vec![0usize; spec.clients];
    let measure = Duration::from_secs(seconds);
    let warm_up = workloads::run_clients(
        spec,
        &inputs,
        &mut ready,
        &bodies,
        &mut cursors,
        measure / 10,
    );
    failed += warm_up.failed;
    let run = workloads::run_clients(spec, &inputs, &mut ready, &bodies, &mut cursors, measure);
    attempted += warm_up.ops() + run.ops();
    failed += run.failed;

    if let sut::Backend::Disk { pool_pages } = spec.backend {
        let (survived, _) = workloads::reopen_after(ready, pool_pages, false).map_err(err)?;
        attempted += 1;
        failed += u64::from(!survived);
    }

    eprintln!(
        "{}: {} ops in {:.2} client-seconds and {} slices, {} semantic errors; \
         median slowdown {:.3}; over the whole phase, uncorrected, {:.4} ops/s, \
         p50 {:.3} us, p{} {:.3} us",
        spec.name,
        run.ops(),
        run.client_wall_ns as f64 / 1e9,
        run.best.slices,
        run.semantic_errors,
        run.best.slowdown,
        run.ops_per_s,
        run.percentile_us(50.0),
        driver::TAIL_PERCENTILE,
        run.percentile_us(driver::TAIL_PERCENTILE),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("ops_per_s", run.best.ops_per_s, "1/s"),
            ("p50_us", run.best.p50_us, "us"),
            ("tail_us", run.best.tail_us, "us"),
            ("cpu_us_per_op", run.best.cpu_us_per_op, "us"),
            ("space_factor", space_factor, "x"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("setup_s", driver::median(setups), "s"),
        ],
    })
}

fn print_result(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}");
            std::process::exit(2);
        }
    };
    let specs = workloads::specs(args.scale);
    let Some(spec) = specs.iter().find(|s| s.name == args.workload) else {
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        eprintln!("e2e: --workload is one of {}", names.join(", "));
        std::process::exit(2);
    };
    let scratch = Scratch::new();
    let result = if args.trace {
        layers::run_traced(spec, args.seed, args.seconds, &scratch.0)
    } else {
        run_end_to_end(spec, args.seed, args.seconds, &scratch)
    };
    drop(scratch);
    match result {
        Ok(outcome) => {
            for (name, value, unit) in &outcome.metrics {
                eprintln!("{name:<34} {value:>16.4} {unit}");
            }
            print_result(&outcome);
            if outcome.failed != 0 {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            std::process::exit(1);
        }
    }
}

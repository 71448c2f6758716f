//! The `gdprbench` command-line tool — the YCSB-style driver the paper
//! ships: load a datastore with personal records, run one of the four
//! entity workloads (or a YCSB workload), and report the benchmark's three
//! metrics.
//!
//! ```sh
//! gdprbench run --db redis --workload customer --records 10000 --ops 1000
//! gdprbench run --db postgres-mi --workload regulator --threads 8
//! gdprbench run --db remote --addr 127.0.0.1:7878 --clients 8 --workload processor
//! gdprbench ycsb --db postgres --workload A --records 10000 --ops 100000
//! gdprbench features --db redis
//! ```

use gdprbench_repro::connectors::registry::Posture;
use gdprbench_repro::drivers::{build_connector, tenant_ids, ConnectorSpec};
use gdprbench_repro::gdpr_core::tenant::TenantId;
use gdprbench_repro::gdpr_core::GdprConnector;
use gdprbench_repro::workload::gdpr::{
    load_corpus_as, load_corpus_tolerant_as, stable_corpus, GdprWorkloadKind,
};
use gdprbench_repro::workload::runner::GdprRunOptions;
use gdprbench_repro::workload::ycsb::{
    ycsb_key, KvInterface, KvStoreYcsb, RelStoreYcsb, YcsbConfig,
};
use gdprbench_repro::workload::{
    datagen, run_gdpr_workload_open_loop_with, run_gdpr_workload_with, run_ycsb_workload,
};
use std::collections::HashMap;
use std::sync::Arc;

const USAGE: &str = "\
gdprbench — the GDPR benchmark (reproduction of Shastri et al., VLDB 2020)

USAGE:
  gdprbench run      --db <redis|redis-mi|redis-sharded|redis-sharded-scan|postgres|postgres-mi|disk|disk-sharded|remote>
                     --workload <controller|customer|processor|regulator|all>
                     [--records N] [--ops N] [--threads N] [--shards N] [--no-oracle] [--compliant]
                     [--tenant NAME] [--tenants N] [--skew zipf:THETA]
                     [--addr HOST:PORT] [--clients N] [--encrypt] [--encrypt-key KEY]
                     [--arrival-rate OPS_PER_SEC]
  gdprbench ycsb     --db <redis|postgres> --workload <A|B|C|D|E|F|all>
                     [--records N] [--ops N] [--threads N]
  gdprbench features --db <redis|redis-mi|redis-sharded|redis-sharded-scan|postgres|postgres-mi|disk|disk-sharded|remote>
  gdprbench help

The sharded variant hash-partitions records across N engines (default
--shards from $GDPR_SHARDS, else 4); semantics are shard-count invariant.

--db remote drives a running `gdpr-serve` over TCP: --addr names the
server, --clients sizes the connection pool (default: --threads), and the
run measures real networked request/response cost. Note the server keeps
its state across workloads — point `gdprbench run` at a fresh server for
oracle-checked correctness runs. --encrypt (or GDPR_ENCRYPT=1) runs the
SecureChannel transport: the handshake precedes the first op and every
frame travels sealed; the key comes from --encrypt-key / GDPR_ENCRYPT_KEY
and must match the server's.

--tenant NAME     run the whole workload as one named tenant (its own audit
                  trail, index partition, and metrics series; the oracle
                  stays valid). --tenants N spreads the client threads
                  round-robin across tenants t0..t{N-1} instead — each
                  tenant is loaded with its own full corpus and the oracle
                  is disabled (interleaving is not modeled).
--skew zipf:T     re-skew record/user picks with zipf constant T and rank
                  purpose picks zipf instead of uniform (default: the
                  Table 2a distributions; YCSB's zipf constant is 0.99).

--arrival-rate R  run open-loop: ops are due at fixed 1/R intervals and
                  latency is measured from each op's *intended* send time,
                  so percentiles include any time the system fell behind
                  the schedule (no coordinated omission). Reports p50,
                  p99, and p999 instead of the closed-loop metrics; the
                  oracle is disabled.

METRICS (as defined in §4.2.3 of the paper):
  correctness     fraction of responses matching the oracle (single-threaded runs)
  completion time wall time to finish all operations of the workload
  space overhead  total DB bytes / personal-data bytes";

#[derive(Debug)]
struct Args {
    command: String,
    flags: HashMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let mut flags = HashMap::new();
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?
            .to_string();
        if key == "no-oracle" || key == "compliant" || key == "encrypt" {
            flags.insert(key, "true".to_string());
        } else {
            let value = argv
                .next()
                .ok_or_else(|| format!("--{key} requires a value"))?;
            flags.insert(key, value);
        }
    }
    Ok(Args { command, flags })
}

impl Args {
    fn get(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
            None => Ok(default),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

/// The connector spec the common flags describe.
fn spec_from_args(args: &Args, threads: usize) -> Result<ConnectorSpec, String> {
    let mut spec = ConnectorSpec::new(args.get("db", "redis"));
    if args.has("compliant") {
        spec.deployment.posture = Posture::COMPLIANT;
    }
    spec.deployment.shards = args.get_num("shards", spec.deployment.shards)?;
    spec.addr = args.flags.get("addr").cloned();
    // One pooled connection per client thread unless pinned explicitly.
    spec.clients = args.get_num("clients", threads.max(1))?;
    // --encrypt / --encrypt-key override the GDPR_ENCRYPT environment
    // default already resolved by `ConnectorSpec::new`.
    if let Some(key) = args.flags.get("encrypt-key") {
        spec.encrypt = Some(key.clone());
    } else if args.has("encrypt") && spec.encrypt.is_none() {
        spec.encrypt = Some(gdprbench_repro::gdpr_server::secure::DEFAULT_PSK.to_string());
    }
    Ok(spec)
}

/// The tenants `--tenant NAME` / `--tenants N` describe (empty = the
/// default single tenant).
fn tenants_from_args(args: &Args) -> Result<Vec<TenantId>, String> {
    match (args.flags.get("tenant"), args.flags.get("tenants")) {
        (Some(_), Some(_)) => Err("--tenant and --tenants are mutually exclusive".to_string()),
        (Some(name), None) => Ok(vec![
            TenantId::new(name.clone()).map_err(|e| format!("--tenant: {e}"))?
        ]),
        (None, Some(n)) => {
            let n: usize = n
                .parse()
                .map_err(|_| format!("--tenants: bad number {n:?}"))?;
            Ok(tenant_ids(n))
        }
        (None, None) => Ok(Vec::new()),
    }
}

/// The zipf theta `--skew zipf:THETA` selects.
fn skew_from_args(args: &Args) -> Result<Option<f64>, String> {
    match args.flags.get("skew") {
        None => Ok(None),
        Some(s) => match s.strip_prefix("zipf:") {
            Some(theta) => theta
                .parse()
                .map(Some)
                .map_err(|_| format!("--skew: bad theta in {s:?}")),
            None => Err(format!("--skew: expected zipf:THETA, got {s:?}")),
        },
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let db = args.get("db", "redis");
    let records: usize = args.get_num("records", 1000)?;
    let ops: u64 = args.get_num("ops", 1000)?;
    let threads: usize = args.get_num("threads", 1)?;
    let spec = spec_from_args(args, threads)?;
    let arrival_rate: Option<f64> = match args.flags.get("arrival-rate") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--arrival-rate: bad number {v:?}"))?,
        ),
        None => None,
    };
    let options = GdprRunOptions {
        tenants: tenants_from_args(args)?,
        zipf_theta: skew_from_args(args)?,
    };
    // Interleaved multi-tenant traffic is not modeled by the oracle; one
    // named tenant is just a namespaced single-tenant run and stays valid.
    let oracle = !args.has("no-oracle")
        && threads == 1
        && db != "remote"
        && arrival_rate.is_none()
        && options.tenants.len() <= 1;
    let workload_arg = args.get("workload", "all");
    let kinds: Vec<GdprWorkloadKind> = match workload_arg.as_str() {
        "all" => GdprWorkloadKind::ALL.to_vec(),
        name => vec![GdprWorkloadKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown --workload {name}"))?],
    };

    // Each tenant gets its own full corpus (tenant keyspaces are disjoint).
    let load_tenants: Vec<TenantId> = if options.tenants.is_empty() {
        vec![TenantId::default()]
    } else {
        options.tenants.clone()
    };
    let load = |connector: &dyn GdprConnector, corpus: &_| -> Result<(), String> {
        for tenant in &load_tenants {
            if db == "remote" {
                load_corpus_tolerant_as(connector, corpus, tenant).map_err(|e| e.to_string())?;
            } else {
                load_corpus_as(connector, corpus, tenant).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    };

    if let Some(rate) = arrival_rate {
        println!(
            "gdprbench (open-loop): db={db} records={records} ops={ops} threads={threads} \
             arrival-rate={rate}/s\nlatency measured from each op's intended send time \
             (coordinated-omission-safe)\n"
        );
        println!(
            "{:<11} {:>13} {:>11} {:>8} {:>6} {:>10} {:>10} {:>10}",
            "workload", "completion", "achieved/s", "errors", "late", "p50", "p99", "p999"
        );
        for kind in kinds {
            let connector = build_connector(&spec)?;
            let corpus = stable_corpus(records);
            load(connector.as_ref(), &corpus)?;
            let report = run_gdpr_workload_open_loop_with(
                Arc::clone(&connector),
                kind,
                corpus,
                ops,
                threads,
                rate,
                options.clone(),
            );
            println!(
                "{:<11} {:>13} {:>11.1} {:>8} {:>6} {:>10} {:>10} {:>10}",
                report.workload,
                format!("{:.2?}", report.completion),
                report.achieved_ops_per_sec(),
                report.errors,
                report.late_sends,
                format!(
                    "{:.2?}",
                    std::time::Duration::from_nanos(report.latency.p50_ns())
                ),
                format!(
                    "{:.2?}",
                    std::time::Duration::from_nanos(report.latency.p99_ns())
                ),
                format!(
                    "{:.2?}",
                    std::time::Duration::from_nanos(report.latency.p999_ns())
                ),
            );
        }
        return Ok(());
    }

    println!("gdprbench: db={db} records={records} ops={ops} threads={threads} oracle={oracle}\n");
    println!(
        "{:<11} {:>13} {:>11} {:>8} {:>12} {:>13}",
        "workload", "completion", "ops/s", "errors", "correctness", "space-factor"
    );
    for kind in kinds {
        // Fresh store per workload so the oracle matches (as the paper
        // reloads between runs). A remote server's state persists across
        // the loop — only the client pool is fresh — so its load phase
        // tolerates records surviving a previous workload.
        let connector = build_connector(&spec)?;
        let corpus = stable_corpus(records);
        load(connector.as_ref(), &corpus)?;
        let report = run_gdpr_workload_with(
            Arc::clone(&connector),
            kind,
            corpus,
            ops,
            threads,
            oracle,
            options.clone(),
        );
        println!(
            "{:<11} {:>13} {:>11.1} {:>8} {:>12} {:>12.2}x",
            report.workload,
            format!("{:.2?}", report.completion),
            report.throughput_ops_per_sec(),
            report.errors,
            report
                .correctness
                .map_or_else(|| "n/a".to_string(), |c| format!("{:.1}%", c * 100.0)),
            report.space.overhead_factor(),
        );
        // Per-query breakdown.
        let mut rows: Vec<_> = report.per_query.iter().collect();
        rows.sort_by_key(|(name, _)| *name);
        for (name, stats) in rows {
            println!(
                "  {:<26} ok={:<6} err={:<5} mean={:<10} p99={:?}",
                name,
                stats.ok,
                stats.errors,
                format!(
                    "{:.2?}",
                    std::time::Duration::from_nanos(stats.latency.mean_ns())
                ),
                std::time::Duration::from_nanos(stats.latency.p99_ns()),
            );
        }
    }
    Ok(())
}

fn cmd_ycsb(args: &Args) -> Result<(), String> {
    let db = args.get("db", "redis");
    let records: u64 = args.get_num("records", 1000)?;
    let ops: u64 = args.get_num("ops", 10_000)?;
    let threads: usize = args.get_num("threads", 1)?;
    let workload_arg = args.get("workload", "all");
    let configs: Vec<YcsbConfig> = match workload_arg.as_str() {
        "all" => YcsbConfig::all(),
        name if name.len() == 1 => vec![YcsbConfig::workload(name.chars().next().unwrap())],
        other => return Err(format!("unknown --workload {other}")),
    };

    println!("gdprbench ycsb: db={db} records={records} ops={ops} threads={threads}\n");
    println!(
        "{:<9} {:>13} {:>12} {:>8}",
        "workload", "completion", "ops/s", "errors"
    );
    for config in configs {
        let adapter: Arc<dyn KvInterface> = match db.as_str() {
            "redis" => {
                let store = gdprbench_repro::kvstore::KvStore::open(Default::default())
                    .map_err(|e| e.to_string())?;
                Arc::new(KvStoreYcsb::new(store))
            }
            "postgres" | "postgres-mi" => {
                let database = gdprbench_repro::relstore::Database::open(Default::default())
                    .map_err(|e| e.to_string())?;
                Arc::new(RelStoreYcsb::new(database)?)
            }
            other => return Err(format!("unknown --db {other}")),
        };
        for i in 0..records {
            adapter.insert(&ycsb_key(i), &datagen::ycsb_value(i, config.value_len))?;
        }
        let report = run_ycsb_workload(adapter, config, records, ops, threads);
        println!(
            "{:<9} {:>13} {:>12.1} {:>8}",
            report.workload,
            format!("{:.2?}", report.completion),
            report.throughput_ops_per_sec(),
            report.errors
        );
    }
    Ok(())
}

fn cmd_features(args: &Args) -> Result<(), String> {
    let db = args.get("db", "redis");
    // A remote server's posture is whatever it was started with; probe it
    // once rather than rebuilding per config.
    let postures: &[Posture] = if db == "remote" {
        &[Posture::STOCK]
    } else {
        &[Posture::STOCK, Posture::COMPLIANT]
    };
    for &posture in postures {
        let mut spec = spec_from_args(args, 1)?;
        spec.deployment.posture = posture;
        let connector = build_connector(&spec)?;
        let report = connector.features();
        println!(
            "{} ({}): fully compliant = {}",
            db,
            if posture == Posture::COMPLIANT {
                "compliant config"
            } else {
                "default config"
            },
            report.is_fully_compliant()
        );
        for feature in gdprbench_repro::gdpr_core::ComplianceFeature::ALL {
            println!("  {:<24} {:?}", feature.name(), report.support_for(feature));
        }
        let satisfied = gdprbench_repro::gdpr_core::articles::articles_satisfied_by(&report);
        println!("  satisfies {}/12 Table-1 article rows\n", satisfied.len());
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "run" => cmd_run(&args),
        "ycsb" => cmd_ycsb(&args),
        "features" => cmd_features(&args),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    if let Err(msg) = result {
        eprintln!("{msg}\n\n{USAGE}");
        std::process::exit(1);
    }
}

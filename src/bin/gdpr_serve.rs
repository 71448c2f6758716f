//! `gdpr-serve` — run any connector variant behind the GDPR wire protocol,
//! so GDPRbench (and any `GdprClient`) drives it over real sockets.
//!
//! ```sh
//! gdpr-serve --db redis-sharded --shards 8 --addr 127.0.0.1:7878
//! gdprbench run --db remote --addr 127.0.0.1:7878 --clients 8 --workload processor
//! ```
//!
//! With `--data-dir` the kvstore shards persist to per-shard AOF files
//! (replayed on the next start) and the `disk*` variants keep their paged
//! data files and write-ahead logs there (reopened through checksummed
//! WAL recovery, torn tails truncated away); the engine-indexed variants
//! (`redis-mi`, `redis-sharded`, `disk`, `disk-sharded`) also keep their
//! metadata-index snapshot images beside the store, recover from them in
//! O(index) instead of rescanning it, and write fresh images on graceful
//! shutdown. A data dir written under another `--shards` count is refused
//! at boot: serving it would route lookups away from the shard that holds
//! a record. `postgres*` cannot resume a data dir and refuses one.
//!
//! With a data dir the process owns durable state, so it watches stdin for
//! a graceful-shutdown request: a `shutdown` line or EOF drains the
//! server, snapshots the indexes, flushes the stores, and exits 0 (`kill`
//! still works, at the price of an O(n) index rebuild on the next start).
//! Without one the process serves until killed.

use gdprbench_repro::connectors::registry::Posture;
use gdprbench_repro::drivers::{build_connector, ConnectorSpec};
use gdprbench_repro::gdpr_core::GdprConnector;
use gdprbench_repro::gdpr_server::{GdprServer, ServerConfig};
use std::sync::Arc;

const USAGE: &str = "\
gdpr-serve — wire-protocol network front-end for the GDPR compliance engine

USAGE:
  gdpr-serve [--db redis|redis-mi|redis-sharded|redis-sharded-scan|postgres|postgres-mi|disk|disk-sharded]
             [--addr HOST:PORT] [--shards N] [--workers N] [--compliant]
             [--tenants N] [--encrypt] [--encrypt-key KEY]
             [--metrics-addr HOST:PORT] [--slow-op-ms MS]
             [--data-dir DIR]

Defaults: --db redis-mi, --addr 127.0.0.1:7878, --shards $GDPR_SHARDS (else 4).
The server pipelines: clients may keep many requests in flight per
connection; responses come back in request order.

--workers N               event loops (default: CPU parallelism). Each owns
                          the connections placed on it and runs their
                          requests to completion on its own thread.
--tenants N               pre-provision tenants t0..t{N-1} so multi-tenant
                          benchmark traffic (gdprbench --tenants N) never
                          pays first-op tenant setup; each tenant gets its
                          own audit trail, index partition, and metrics
                          series. Any valid tenant named in a request frame
                          is still provisioned lazily.
--encrypt                 require the SecureChannel handshake on every
                          connection; all frames travel as sealed records.
                          Plaintext clients are dropped without answer.
                          (GDPR_ENCRYPT=1 in the environment does the same.)
--encrypt-key KEY         pre-shared key for --encrypt (default: a well-known
                          benchmark key; also GDPR_ENCRYPT_KEY). Implies
                          --encrypt.
--metrics-addr HOST:PORT  additionally serve the telemetry snapshot (per-op
                          counts, latency histograms, pipeline stage
                          histograms, security counters) as Prometheus text
                          over plain TCP — one HTTP/1.0 response per
                          connection, handled by the same event loop.
--slow-op-ms MS           log ops slower than MS milliseconds to stderr
                          (rate-limited to one line per second; also
                          GDPR_SLOW_OP_MS).
--data-dir DIR            persist store state to DIR: kvstore shards as
                          DIR/shard-N.aof (replayed on restart, torn tails
                          truncated away), disk* variants as paged data
                          files + WALs under DIR/shard-N/ (reopened through
                          WAL recovery); redis-mi/redis-sharded/disk/
                          disk-sharded also restore their metadata indexes
                          from DIR/metaindex-shard-N.snap. A DIR written
                          under another --shards count is refused. Send the
                          line 'shutdown' (or close stdin) for a graceful
                          exit that writes the index snapshots.";

struct ServeArgs {
    spec: ConnectorSpec,
    addr: String,
    workers: Option<usize>,
    encrypt: Option<String>,
    metrics_addr: Option<String>,
    slow_op_ms: Option<u64>,
}

fn parse_args() -> Result<ServeArgs, String> {
    let mut spec = ConnectorSpec::new("redis-mi");
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = None;
    // Start from the environment (GDPR_ENCRYPT / GDPR_ENCRYPT_KEY);
    // explicit flags override.
    let mut encrypt = gdprbench_repro::gdpr_server::secure::encrypt_key_from_env();
    let mut metrics_addr = None;
    let mut slow_op_ms = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut take = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("--{name} requires a value"))
        };
        match flag.as_str() {
            "--db" => spec.db = take("db")?,
            "--addr" => addr = take("addr")?,
            "--shards" => {
                spec.deployment.shards = take("shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--workers" => {
                workers = Some(
                    take("workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--compliant" => spec.deployment.posture = Posture::COMPLIANT,
            "--tenants" => {
                spec.tenants = take("tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
            }
            "--encrypt" => {
                encrypt.get_or_insert_with(|| {
                    gdprbench_repro::gdpr_server::secure::DEFAULT_PSK.to_string()
                });
            }
            "--encrypt-key" => encrypt = Some(take("encrypt-key")?),
            "--metrics-addr" => metrics_addr = Some(take("metrics-addr")?),
            "--slow-op-ms" => {
                slow_op_ms = Some(
                    take("slow-op-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-op-ms: {e}"))?,
                );
            }
            "--data-dir" => spec.deployment.data_dir = Some(take("data-dir")?.into()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if spec.db == "remote" {
        return Err(format!(
            "gdpr-serve serves a local engine; --db must be one of {}",
            gdprbench_repro::connectors::registry::names().join("|")
        ));
    }
    Ok(ServeArgs {
        spec,
        addr,
        workers,
        encrypt,
        metrics_addr,
        slow_op_ms,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(ms) = args.slow_op_ms {
        // The engines read the threshold from the environment when their
        // telemetry is constructed, so this must precede build_connector.
        std::env::set_var("GDPR_SLOW_OP_MS", ms.to_string());
    }
    let handle = match build_connector(&args.spec) {
        Ok(handle) => handle,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };
    let mut config = ServerConfig::default();
    if let Some(workers) = args.workers {
        config.workers = workers.max(1);
    }
    config.encrypt = args.encrypt;
    config.metrics_addr = args.metrics_addr;
    // Serving many thousands of connections needs more descriptors than
    // the usual 1024 soft default; raise toward the hard limit up front.
    match gdprbench_repro::gdpr_server::sys::raise_nofile_limit(65536) {
        Ok(limit) => {
            if limit < 65536 {
                eprintln!(
                    "gdpr-serve: fd soft limit capped at {limit} by the hard limit; \
                     very high connection counts may hit EMFILE (accepts pause, \
                     established connections keep serving)"
                );
            }
        }
        Err(e) => eprintln!("gdpr-serve: could not raise fd limit: {e}"),
    }
    let name = handle.name().to_string();
    // The handle stays here for the graceful-shutdown flush (and keeps a
    // compliant store's expiry running); the server owns its own clone.
    let server = match GdprServer::bind(Arc::clone(&handle), &args.addr, config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gdpr-serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "gdpr-serve: serving {name} on {} ({} event loops, {} transport); drive it with \
         `gdprbench run --db remote --addr {}{}`",
        server.local_addr(),
        config.workers,
        if config.encrypt.is_some() {
            "encrypted"
        } else {
            "plaintext"
        },
        server.local_addr(),
        if config.encrypt.is_some() {
            " --encrypt"
        } else {
            ""
        },
    );
    if let Some(metrics) = server.metrics_addr() {
        println!("gdpr-serve: Prometheus metrics on http://{metrics}/metrics (plain TCP)");
    }
    if args.spec.tenants > 0 {
        println!(
            "gdpr-serve: pre-provisioned {} tenants (t0..t{}); each has its own \
             audit trail, index partition, and metrics series",
            args.spec.tenants,
            args.spec.tenants - 1
        );
    }
    if args.spec.deployment.data_dir.is_some() {
        // Durable state configured: honour a graceful-shutdown request so
        // the index snapshots get written (a later start then recovers in
        // O(index) instead of rescanning the store).
        println!(
            "gdpr-serve: durable state configured; 'shutdown' line or stdin EOF exits gracefully"
        );
        use std::io::BufRead;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(line) if line.trim() == "shutdown" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        server.shutdown();
        match handle.close() {
            Ok(()) if handle.snapshots => {
                println!("gdpr-serve: graceful shutdown — index snapshots written")
            }
            Ok(()) => println!("gdpr-serve: graceful shutdown — stores flushed"),
            Err(e) => {
                eprintln!("gdpr-serve: failed to persist durable state: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

//! Connector construction shared by the `gdprbench` and `gdpr-serve`
//! binaries: one `--db` selector covering every row of
//! `connectors::registry` plus the `remote` network client.

use connectors::registry::{self, Deployed, Deployment};
use gdpr_core::GdprConnector;
use std::sync::Arc;

/// Databases `build_connector` accepts, `|`-separated: every in-process
/// variant in `connectors::registry`, then `remote`.
fn db_choices() -> String {
    let mut names = registry::names();
    names.push("remote");
    names.join("|")
}

/// How to reach/configure the store behind the connector.
#[derive(Debug, Clone)]
pub struct ConnectorSpec {
    /// The `--db` selector.
    pub db: String,
    /// How an in-process variant opens its stores: `--shards`,
    /// `--compliant` (strict TTL, read logging, encryption) and
    /// `--data-dir` (store state and index snapshots survive restarts; see
    /// [`connectors::registry`]).
    pub deployment: Deployment,
    /// `host:port` of a running `gdpr-serve` (remote only).
    pub addr: Option<String>,
    /// Client connections to pool (remote only; defaults to 1).
    pub clients: usize,
    /// `Some(pre-shared key)` runs the remote transport encrypted
    /// (`SecureChannel` handshake before the first op); defaults from
    /// `GDPR_ENCRYPT` / `GDPR_ENCRYPT_KEY` like the server side.
    pub encrypt: Option<String>,
    /// Pre-provision tenants `t0..t{N-1}` on the built engine (`--tenants
    /// N`), so multi-tenant benchmark traffic never pays first-op tenant
    /// setup. 0 = single-tenant (the default degenerate case).
    pub tenants: usize,
}

impl ConnectorSpec {
    pub fn new(db: impl Into<String>) -> ConnectorSpec {
        ConnectorSpec {
            db: db.into(),
            deployment: Deployment::default(),
            addr: None,
            clients: 1,
            encrypt: gdpr_server::secure::encrypt_key_from_env(),
            tenants: 0,
        }
    }
}

/// The tenant ids `--tenants N` provisions and the benchmark drives:
/// `t0..t{N-1}`.
pub fn tenant_ids(n: usize) -> Vec<gdpr_core::tenant::TenantId> {
    (0..n)
        .map(|i| {
            gdpr_core::tenant::TenantId::new(format!("t{i}")).expect("generated tenant id is valid")
        })
        .collect()
}

/// Build a connector for `spec`, printing how its stores and indexes
/// recovered. The handle is what `gdpr-serve` serves and what the
/// workload runner drives — in-process and remote variants are
/// interchangeable behind it — and keeps a compliant deployment's expiry
/// machinery running until it drops.
pub fn build_connector(spec: &ConnectorSpec) -> Result<Deployed, String> {
    let handle = if spec.db == "remote" {
        if spec.deployment.data_dir.is_some() {
            return Err("--data-dir persists a local engine's state, not remote".to_string());
        }
        let addr = spec
            .addr
            .as_deref()
            .ok_or_else(|| "--db remote requires --addr HOST:PORT".to_string())?;
        let pool = connectors::RemoteConnector::connect_pool_with(
            addr,
            spec.clients.max(1),
            spec.encrypt.as_deref(),
        )
        .map_err(|e| e.to_string())?;
        Deployed::new(Arc::new(pool))
    } else {
        let variant = registry::variant(&spec.db)
            .ok_or_else(|| format!("unknown --db {} (expected {})", spec.db, db_choices()))?;
        if spec.deployment.data_dir.is_some() && !variant.restarts {
            return Err(format!(
                "--data-dir persists store state across restarts, which {} cannot resume",
                spec.db
            ));
        }
        let handle = variant.open(&spec.deployment).map_err(|e| e.to_string())?;
        for line in &handle.recovery {
            println!("{line}");
        }
        handle
    };
    for tenant in tenant_ids(spec.tenants) {
        handle
            .provision_tenant(&tenant)
            .map_err(|e| format!("provisioning tenant {tenant:?}: {e}"))?;
    }
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::{GdprQuery, Session};

    /// Every registry variant must be buildable through `--db` — the
    /// variant list lives in `connectors::registry`, so a backend added
    /// there without a driver arm fails here, and vice versa.
    #[test]
    fn builds_every_in_process_variant() {
        for db in connectors::registry::names() {
            let mut spec = ConnectorSpec::new(db);
            spec.deployment.shards = 2;
            let conn = build_connector(&spec).unwrap_or_else(|e| panic!("{db}: {e}"));
            assert_eq!(conn.record_count(), 0, "{db}");
            assert_eq!(conn.name(), db, "--db {db} built the wrong variant");
        }
        let Err(unknown) = build_connector(&ConnectorSpec::new("bogus")) else {
            panic!("bogus must be refused");
        };
        for db in connectors::registry::names() {
            assert!(unknown.contains(db), "error text omits {db}: {unknown}");
        }
        assert!(
            build_connector(&ConnectorSpec::new("remote")).is_err(),
            "remote without --addr must be refused"
        );
    }

    #[test]
    fn tenant_preprovisioning_registers_per_tenant_telemetry() {
        let mut spec = ConnectorSpec::new("redis-mi");
        spec.tenants = 3;
        let conn = build_connector(&spec).unwrap();
        let names: Vec<String> = conn
            .tenant_telemetry()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        for t in ["t0", "t1", "t2"] {
            assert!(names.contains(&t.to_string()), "missing {t} in {names:?}");
        }
    }

    #[test]
    fn remote_spec_connects_to_a_served_engine() {
        let engine = build_connector(&ConnectorSpec::new("redis-mi")).unwrap();
        let server = gdpr_server::GdprServer::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            gdpr_server::ServerConfig::default(),
        )
        .unwrap();
        let mut spec = ConnectorSpec::new("remote");
        spec.addr = Some(server.local_addr().to_string());
        spec.clients = 2;
        let conn = build_connector(&spec).unwrap();
        assert_eq!(conn.name(), "redis-mi");
        conn.execute(
            &Session::controller(),
            &GdprQuery::CreateRecord(gdpr_core::PersonalRecord::new(
                "k1",
                "d",
                gdpr_core::Metadata::new(
                    "neo",
                    vec!["ads".to_string()],
                    std::time::Duration::from_secs(60),
                ),
            )),
        )
        .unwrap();
        assert_eq!(conn.record_count(), 1);
        server.shutdown();
    }

    /// `--encrypt` on both ends talks; a plaintext spec against an
    /// encrypted server is refused at connect, not silently downgraded.
    #[test]
    fn remote_spec_encrypted_roundtrip_and_downgrade_refusal() {
        let engine = build_connector(&ConnectorSpec::new("redis-mi")).unwrap();
        let config = gdpr_server::ServerConfig {
            encrypt: Some("drv-psk".to_string()),
            ..Default::default()
        };
        let server =
            gdpr_server::GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
        let mut spec = ConnectorSpec::new("remote");
        spec.addr = Some(server.local_addr().to_string());
        spec.encrypt = Some("drv-psk".to_string());
        let conn = build_connector(&spec).unwrap();
        assert_eq!(conn.name(), "redis-mi");
        assert_eq!(conn.record_count(), 0);
        spec.encrypt = None;
        assert!(
            build_connector(&spec).is_err(),
            "plaintext client must not reach an encrypted server"
        );
        server.shutdown();
    }

    fn record(key: &str, user: &str, ttl: std::time::Duration) -> GdprQuery {
        GdprQuery::CreateRecord(gdpr_core::PersonalRecord::new(
            key,
            "d",
            gdpr_core::Metadata::new(user, vec!["ads".to_string()], ttl),
        ))
    }

    fn durable(db: &str, shards: usize, dir: &std::path::Path) -> ConnectorSpec {
        let mut spec = ConnectorSpec::new(db);
        spec.deployment.shards = shards;
        spec.deployment.data_dir = Some(dir.to_path_buf());
        spec
    }

    /// A data dir written under N shards reopens only under N: any other
    /// count would route a point lookup (or a regulator's VerifyDeletion)
    /// to a shard that does not hold the record.
    #[test]
    fn changed_shard_count_over_a_data_dir_is_refused() {
        for db in ["redis-sharded", "disk-sharded"] {
            let dir = registry::ScratchDir::new("shard-change");
            let conn = build_connector(&durable(db, 2, &dir)).unwrap();
            for i in 0..20 {
                let ttl = std::time::Duration::from_secs(3600);
                conn.execute(
                    &Session::controller(),
                    &record(&format!("k{i}"), "neo", ttl),
                )
                .unwrap();
            }
            conn.close().unwrap();
            assert!(
                conn.snapshots,
                "{db}: an indexed row over a data dir snapshots"
            );
            drop(conn);
            for shards in [3, 1] {
                let Err(e) = build_connector(&durable(db, shards, &dir)) else {
                    panic!("{db}: 2 -> {shards} shards must be refused");
                };
                let counts = ["holds 2 shards".to_string(), format!("opens {shards}")];
                assert!(counts.iter().all(|c| e.contains(c.as_str())), "{db}: {e}");
            }
            let same = build_connector(&durable(db, 2, &dir)).unwrap();
            assert_eq!(same.record_count(), 20, "{db}");
            assert_eq!(
                same.recovery
                    .iter()
                    .filter(|l| l.contains("restored"))
                    .count(),
                2
            );
            assert!(
                !same.recovery.iter().any(|l| l.contains("rebuilt index")),
                "{db}"
            );
        }
        let dir = registry::ScratchDir::new("shard-change-mi");
        let conn = build_connector(&durable("redis-sharded", 2, &dir)).unwrap();
        conn.close().unwrap();
        drop(conn);
        let Err(e) = build_connector(&durable("redis-mi", 2, &dir)) else {
            panic!("a 2-shard dir must not open as unsharded redis-mi");
        };
        assert!(e.contains("holds 2 shards") && e.contains("opens 1"), "{e}");
    }

    /// `--compliant` PostgreSQL reports retrofitted timely deletion, so
    /// its 1 s sweep daemon must actually run.
    #[test]
    fn ttl_daemon_runs_for_compliant_postgres() {
        let mut spec = ConnectorSpec::new("postgres");
        spec.deployment.posture = registry::Posture::COMPLIANT;
        let conn = build_connector(&spec).unwrap();
        let ttl = std::time::Duration::from_secs(1);
        conn.execute(&Session::controller(), &record("k", "neo", ttl))
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while conn.record_count() > 0 {
            assert!(std::time::Instant::now() < deadline, "no sweep within 5 s");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
}

//! Shared store configurations for the experiments: the paper's GDPR
//! feature matrix (§5, Figure 4) as buildable configs, and the scratch dirs
//! the harnesses persist into. Every other figure opens its stores through
//! `connectors::registry` with [`ScratchDir::compliant`] — the matrix's
//! `combined` column, written once in the deployment table.

use std::path::PathBuf;
use std::time::Duration;

/// The feature axes of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// No security — the normalization baseline.
    Baseline,
    /// Encryption at rest + in transit (LUKS + stunnel/SSL stand-ins).
    Encrypt,
    /// Timely deletion (strict expiration / sweep daemon).
    Ttl,
    /// Audit logging of all operations, reads included.
    Log,
    /// Everything at once — the GDPR-compliant configuration.
    Combined,
}

impl Feature {
    pub const ALL: [Feature; 5] = [
        Feature::Baseline,
        Feature::Encrypt,
        Feature::Ttl,
        Feature::Log,
        Feature::Combined,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Feature::Baseline => "baseline",
            Feature::Encrypt => "encrypt",
            Feature::Ttl => "ttl",
            Feature::Log => "log",
            Feature::Combined => "combined",
        }
    }
}

/// A scratch directory for AOF/WAL files, removed on drop.
pub struct ScratchDir {
    pub path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("gdprbench-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// The paper's compliant deployment (§5), persisting here.
    pub fn compliant(&self) -> connectors::registry::Deployment {
        connectors::registry::Deployment {
            compliant: true,
            data_dir: Some(self.path.clone()),
            ..Default::default()
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// kvstore configuration for a feature setting (§5.1).
pub fn kv_config(feature: Feature, scratch: &ScratchDir) -> kvstore::KvConfig {
    use kvstore::config::Storage;
    use kvstore::{ExpirationMode, FsyncPolicy, KvConfig};
    // One file per feature: opening a store replays the log it finds.
    let aof_path = scratch.file(&format!("redis-{}.aof", feature.name()));
    match feature {
        Feature::Baseline => KvConfig::default(),
        Feature::Encrypt => KvConfig {
            encrypt_at_rest: true,
            encrypt_transit: true,
            ..Default::default()
        },
        Feature::Ttl => KvConfig {
            expiration: ExpirationMode::Strict,
            ..Default::default()
        },
        Feature::Log => KvConfig {
            aof: Storage::File(aof_path),
            fsync: FsyncPolicy::EverySec,
            log_reads: true,
            ..Default::default()
        },
        Feature::Combined => KvConfig {
            expiration: ExpirationMode::Strict,
            aof: Storage::File(aof_path),
            fsync: FsyncPolicy::EverySec,
            log_reads: true,
            encrypt_at_rest: true,
            encrypt_transit: true,
            ..Default::default()
        },
    }
}

/// relstore configuration for a feature setting (§5.2).
pub fn rel_config(feature: Feature, scratch: &ScratchDir) -> relstore::RelConfig {
    use relstore::config::FsyncPolicy;
    use relstore::{RelConfig, Storage};
    let wal_path = scratch.file(&format!("postgres-{}.wal", feature.name()));
    match feature {
        Feature::Baseline => RelConfig::default(),
        Feature::Encrypt => RelConfig {
            // At-rest encryption needs something persisted to encrypt: the
            // WAL, as LUKS under $PGDATA would.
            wal: Storage::File(wal_path),
            fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: true,
            encrypt_transit: true,
            ..Default::default()
        },
        Feature::Ttl => RelConfig {
            ttl_sweep_interval: Duration::from_secs(1),
            ..Default::default()
        },
        Feature::Log => RelConfig {
            log_statements: true,
            log_reads: true,
            ..Default::default()
        },
        Feature::Combined => RelConfig {
            wal: Storage::File(wal_path),
            fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: true,
            encrypt_transit: true,
            log_statements: true,
            log_reads: true,
            ttl_sweep_interval: Duration::from_secs(1),
            ..Default::default()
        },
    }
}

/// Does this feature setting run the store-side timely-deletion machinery?
pub fn feature_runs_ttl(feature: Feature) -> bool {
    matches!(feature, Feature::Ttl | Feature::Combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_cleaned() {
        let a = ScratchDir::new("t");
        let b = ScratchDir::new("t");
        assert_ne!(a.path, b.path);
        let path = a.path.clone();
        assert!(path.exists());
        drop(a);
        assert!(!path.exists());
        drop(b);
    }

    #[test]
    fn feature_configs_toggle_the_right_knobs() {
        let scratch = ScratchDir::new("cfg");
        let base = kv_config(Feature::Baseline, &scratch);
        assert!(!base.log_reads && !base.encrypt_transit);
        let combined = kv_config(Feature::Combined, &scratch);
        assert!(combined.log_reads && combined.encrypt_transit && combined.encrypt_at_rest);
        assert_eq!(combined.expiration, kvstore::ExpirationMode::Strict);

        let rel = rel_config(Feature::Log, &scratch);
        assert!(rel.log_statements && rel.log_reads && !rel.encrypt_transit);
        assert!(feature_runs_ttl(Feature::Combined));
        assert!(!feature_runs_ttl(Feature::Encrypt));
    }

    /// Fig 4's "combined" column is the posture every other figure
    /// opens through the deployment table: the stores' compliant
    /// in-memory configs plus a file log.
    #[test]
    fn combined_is_the_compliant_posture_plus_a_file_log() {
        let scratch = ScratchDir::new("combined");
        let mut kv = kv_config(Feature::Combined, &scratch);
        assert!(matches!(kv.aof, kvstore::config::Storage::File(_)));
        kv.aof = kvstore::config::Storage::Memory;
        let compliant = kvstore::KvConfig::gdpr_compliant_in_memory();
        assert_eq!(format!("{kv:?}"), format!("{compliant:?}"));
        let mut rel = rel_config(Feature::Combined, &scratch);
        assert!(matches!(rel.wal, relstore::Storage::File(_)));
        rel.wal = relstore::Storage::Memory;
        let compliant = relstore::RelConfig::gdpr_compliant_in_memory();
        assert_eq!(format!("{rel:?}"), format!("{compliant:?}"));
    }
}

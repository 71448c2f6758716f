//! Engine configuration: the knobs the paper turns in §5.2 / Figure 4b.

pub use crypto::log::{FsyncPolicy, Storage};
use std::time::Duration;

/// Full engine configuration.
///
/// Defaults are the Figure 4b baseline: no security features. Which knobs
/// each GDPR feature of §5.2 turns — and when the
/// [`TtlDaemon`](crate::ttl::TtlDaemon) runs — is written once, in
/// `connectors::registry::rel_config`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelConfig {
    pub wal: Storage,
    pub fsync: FsyncPolicy,
    /// Seal WAL records with the at-rest cipher.
    pub encrypt_at_rest: bool,
    /// Round-trip statements/results through an encrypted session.
    pub encrypt_transit: bool,
    /// Record mutating statements in the query log (csvlog).
    pub log_statements: bool,
    /// Record read statements (SELECT/COUNT) too — the paper's row-level
    /// security response logging.
    pub log_reads: bool,
    /// Interval of the TTL sweep daemon (the paper sets 1 second).
    pub ttl_sweep_interval: Duration,
    /// Key material for the ciphers.
    pub cipher_seed: Vec<u8>,
}

impl Default for RelConfig {
    fn default() -> Self {
        RelConfig {
            wal: Storage::Disabled,
            fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: false,
            encrypt_transit: false,
            log_statements: false,
            log_reads: false,
            ttl_sweep_interval: Duration::from_secs(1),
            cipher_seed: b"gdprbench-default-key".to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_baseline() {
        let c = RelConfig::default();
        assert_eq!(c.wal, Storage::Disabled);
        assert!(!c.encrypt_at_rest && !c.encrypt_transit);
        assert!(!c.log_statements && !c.log_reads);
        assert_eq!(c.ttl_sweep_interval, Duration::from_secs(1));
    }
}

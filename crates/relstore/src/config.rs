//! Engine configuration: the knobs the paper turns in §5.2 / Figure 4b.

pub use crypto::log::{FsyncPolicy, Storage};
use std::time::Duration;

/// Full engine configuration.
///
/// Defaults are the Figure 4b baseline: no security features. The paper's
/// GDPR retrofit corresponds to:
///
/// | paper feature | knob |
/// |---------------|------|
/// | Encrypt (LUKS + SSL) | [`encrypt_at_rest`](Self::encrypt_at_rest) + [`encrypt_transit`](Self::encrypt_transit) |
/// | TTL (expiry column + 1 s daemon) | [`ttl_sweep_interval`](Self::ttl_sweep_interval) + [`crate::ttl::TtlDaemon`] |
/// | Log (csvlog + row-level response logging) | [`log_statements`](Self::log_statements) + [`log_reads`](Self::log_reads) |
#[derive(Debug, Clone)]
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

impl RelConfig {
    /// The paper's fully GDPR-compliant PostgreSQL: an in-memory WAL,
    /// encryption at rest and in transit, full statement logging including
    /// reads.
    pub fn gdpr_compliant_in_memory() -> Self {
        RelConfig {
            wal: Storage::Memory,
            encrypt_at_rest: true,
            encrypt_transit: true,
            log_statements: true,
            log_reads: true,
            ..Default::default()
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

    #[test]
    fn compliant_enables_everything() {
        let c = RelConfig::gdpr_compliant_in_memory();
        assert_eq!(c.wal, Storage::Memory);
        assert!(c.encrypt_at_rest && c.encrypt_transit && c.log_statements && c.log_reads);
    }
}

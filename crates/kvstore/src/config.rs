//! Store configuration: the knobs the paper turns in §5.1 / Figure 4a.

use crate::expire::ExpirationMode;
pub use crypto::log::{FsyncPolicy, Storage};

/// Full store configuration.
///
/// The default configuration is "stock Redis with no security" — the
/// baseline of Figure 4a. Each GDPR feature from §5.1 is one toggle:
///
/// | paper feature    | knob |
/// |------------------|------|
/// | Encrypt (LUKS+TLS) | [`encrypt_at_rest`](Self::encrypt_at_rest) + [`encrypt_transit`](Self::encrypt_transit) |
/// | TTL (timely deletion) | [`expiration`](Self::expiration) = [`ExpirationMode::Strict`] |
/// | Log (audit via AOF)   | [`aof`](Self::aof) enabled + [`log_reads`](Self::log_reads) |
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Active-expiration algorithm.
    pub expiration: ExpirationMode,
    /// Append-only-file persistence/auditing.
    pub aof: Storage,
    /// AOF flush policy.
    pub fsync: FsyncPolicy,
    /// Log read and scan commands to the AOF as well — the paper's
    /// modification for GDPR monitoring ("we update its internal logic to
    /// log all interactions including reads and scans").
    pub log_reads: bool,
    /// Seal every AOF record with the at-rest cipher (the LUKS stand-in).
    pub encrypt_at_rest: bool,
    /// Round-trip every command and reply through an encrypted session (the
    /// stunnel stand-in).
    pub encrypt_transit: bool,
    /// Key material for the ciphers.
    pub cipher_seed: Vec<u8>,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            expiration: ExpirationMode::Lazy,
            aof: Storage::Disabled,
            fsync: FsyncPolicy::EverySec,
            log_reads: false,
            encrypt_at_rest: false,
            encrypt_transit: false,
            cipher_seed: b"gdprbench-default-key".to_vec(),
        }
    }
}

impl KvConfig {
    /// The paper's fully GDPR-compliant Redis: strict TTL, full audit
    /// logging (reads included) to an in-memory AOF, encryption at rest and
    /// in transit.
    pub fn gdpr_compliant_in_memory() -> Self {
        KvConfig {
            expiration: ExpirationMode::Strict,
            aof: Storage::Memory,
            fsync: FsyncPolicy::EverySec,
            log_reads: true,
            encrypt_at_rest: true,
            encrypt_transit: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_stock_redis() {
        let c = KvConfig::default();
        assert_eq!(c.expiration, ExpirationMode::Lazy);
        assert_eq!(c.aof, Storage::Disabled);
        assert!(!c.log_reads && !c.encrypt_at_rest && !c.encrypt_transit);
    }

    #[test]
    fn compliant_config_enables_all_features() {
        let c = KvConfig::gdpr_compliant_in_memory();
        assert_eq!(c.expiration, ExpirationMode::Strict);
        assert_eq!(c.aof, Storage::Memory);
        assert!(c.log_reads && c.encrypt_at_rest && c.encrypt_transit);
    }
}

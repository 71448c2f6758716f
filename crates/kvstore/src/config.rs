//! Store configuration: the knobs the paper turns in §5.1 / Figure 4a.

use crate::expire::ExpirationMode;
pub use crypto::log::{FsyncPolicy, Storage};

/// Full store configuration.
///
/// The default configuration is "stock Redis with no security" — the
/// baseline of Figure 4a. Which knobs each GDPR feature of §5.1 turns is
/// written once, in `connectors::registry::kv_config`.
#[derive(Debug, Clone, PartialEq)]
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
}

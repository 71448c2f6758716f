//! Security substrate for gdprbench-rs.
//!
//! GDPR Article 32 obliges controllers to encrypt personal data both at rest
//! and in transit (§3.2 of the paper). The paper bolts LUKS onto the block
//! device and stunnel/TLS onto the wire; what its benchmarks actually measure
//! is the per-byte cipher cost added to every persisted write and every
//! client/server message. This crate provides that cost with real primitives
//! implemented from scratch:
//!
//! * [`chacha20`] — the RFC 8439 ChaCha20 stream cipher, validated against
//!   the RFC test vectors.
//! * [`siphash`] — SipHash-2-4, used as a keyed MAC for sealed blocks and as
//!   the key scrambler for the benchmark's scrambled-zipfian generator.
//! * [`volume`] — sector-oriented encryption-at-rest (the LUKS stand-in).
//! * [`log`] — the one logical log sealed by it: frame format, fsync
//!   policy, torn-tail rule and resume-after-reopen for kvstore's AOF and
//!   relstore's WAL, which differ only in what a payload encodes.
//! * [`channel`] — per-message sealing for data in transit (the stunnel
//!   stand-in) used at the connector boundary, and the in-process
//!   [`channel::Loopback`] both stores pay it through.

pub mod chacha20;
pub mod channel;
pub mod log;
pub mod siphash;
pub mod volume;

pub use chacha20::ChaCha20;
pub use channel::SecureChannel;
pub use siphash::SipHash24;
pub use volume::Volume;

/// Errors produced when opening sealed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// The authentication tag did not match: data corrupted or wrong key.
    TagMismatch,
    /// The sealed blob is too short to contain a header.
    Truncated,
    /// The sequence number is not the next expected one: a replayed or
    /// reordered message. Distinct from [`CryptoError::TagMismatch`] so
    /// transports can audit replay attempts separately from corruption.
    Replay,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
            CryptoError::Truncated => write!(f, "sealed blob truncated"),
            CryptoError::Replay => write!(f, "replayed or reordered sequence number"),
        }
    }
}

impl std::error::Error for CryptoError {}

//! Encryption at rest: the LUKS stand-in.
//!
//! The paper layers LUKS under Redis' AOF and PostgreSQL's data directory.
//! LUKS encrypts fixed-size sectors with a per-sector tweak so that random
//! access stays possible. [`Volume`] reproduces that interface: callers seal
//! logical blocks identified by a monotonically increasing block number (the
//! stores use their append offsets), and each sealed block carries a SipHash
//! tag so corruption is detected on open.

use crate::chacha20::{ChaCha20, NONCE_LEN};
use crate::siphash::SipHash24;
use crate::CryptoError;

/// Length of the per-block header in the sealed representation: an 8-byte
/// block number plus an 8-byte authentication tag.
pub const HEADER_LEN: usize = 16;

/// A sector/block-oriented encryption-at-rest layer.
pub struct Volume {
    cipher: ChaCha20,
    mac: SipHash24,
}

impl Volume {
    /// Create a volume bound to key material (any length; see
    /// [`ChaCha20::from_seed`]).
    pub fn new(seed: &[u8]) -> Self {
        Volume {
            cipher: ChaCha20::from_seed(seed),
            mac: SipHash24::new(
                SipHash24::new(0x766f_6c5f, 0x6d61_6331).hash(seed),
                SipHash24::new(0x766f_6c5f, 0x6d61_6332).hash(seed),
            ),
        }
    }

    /// Encrypt `plaintext` as logical block `block_no`.
    ///
    /// Returns `header || ciphertext` where the header carries the block
    /// number and a tag over the ciphertext. Block numbers must not repeat
    /// for a given volume key (they derive the nonce), which store append
    /// offsets guarantee.
    pub fn seal(&self, block_no: u64, plaintext: &[u8]) -> Vec<u8> {
        let nonce = block_nonce(block_no);
        let mut out = Vec::with_capacity(HEADER_LEN + plaintext.len());
        out.extend_from_slice(&block_no.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // tag placeholder
        out.extend_from_slice(plaintext);
        self.cipher.apply(&nonce, 0, &mut out[HEADER_LEN..]);
        let tag = self.tag(block_no, &out[HEADER_LEN..]);
        out[8..16].copy_from_slice(&tag.to_le_bytes());
        out
    }

    /// Decrypt a blob produced by [`Volume::seal`], verifying its tag.
    pub fn open(&self, sealed: &[u8]) -> Result<(u64, Vec<u8>), CryptoError> {
        let mut plaintext = Vec::new();
        let block_no = self.open_into(sealed, &mut plaintext)?;
        Ok((block_no, plaintext))
    }

    /// [`Volume::open`] into a caller's buffer: on success `out` holds the
    /// plaintext (and nothing else) and the block number is returned; on
    /// failure `out` is left as it was. A reader opening many blocks
    /// reuses one buffer.
    pub fn open_into(&self, sealed: &[u8], out: &mut Vec<u8>) -> Result<u64, CryptoError> {
        if sealed.len() < HEADER_LEN {
            return Err(CryptoError::Truncated);
        }
        let block_no = u64::from_le_bytes(sealed[..8].try_into().unwrap());
        let tag = u64::from_le_bytes(sealed[8..16].try_into().unwrap());
        let ct = &sealed[HEADER_LEN..];
        if self.tag(block_no, ct) != tag {
            return Err(CryptoError::TagMismatch);
        }
        out.clear();
        out.extend_from_slice(ct);
        self.cipher.apply(&block_nonce(block_no), 0, out);
        Ok(block_no)
    }

    fn tag(&self, block_no: u64, ciphertext: &[u8]) -> u64 {
        // Bind the tag to the block number so blocks cannot be transplanted.
        let mut mac = self.mac.start();
        mac.write(&block_no.to_le_bytes());
        mac.write(ciphertext);
        mac.finish()
    }
}

fn block_nonce(block_no: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&block_no.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let v = Volume::new(b"disk-key");
        let sealed = v.seal(42, b"ph-1x4b;123-456-7890;PUR=ads");
        let (block_no, pt) = v.open(&sealed).unwrap();
        assert_eq!(block_no, 42);
        assert_eq!(pt, b"ph-1x4b;123-456-7890;PUR=ads");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let v = Volume::new(b"disk-key");
        let sealed = v.seal(0, b"SENSITIVE-PERSONAL-DATA");
        assert!(!sealed.windows(9).any(|w| w == b"SENSITIVE"));
    }

    #[test]
    fn corruption_is_detected() {
        let v = Volume::new(b"disk-key");
        let mut sealed = v.seal(7, b"hello world");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        assert_eq!(v.open(&sealed), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn transplanted_block_number_is_detected() {
        let v = Volume::new(b"disk-key");
        let mut sealed = v.seal(7, b"hello world");
        sealed[..8].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(v.open(&sealed), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let v = Volume::new(b"disk-key");
        assert_eq!(v.open(&[1, 2, 3]), Err(CryptoError::Truncated));
    }

    #[test]
    fn wrong_key_fails_to_open() {
        let a = Volume::new(b"key-a");
        let b = Volume::new(b"key-b");
        let sealed = a.seal(1, b"data");
        assert_eq!(b.open(&sealed), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn distinct_blocks_have_distinct_ciphertexts() {
        let v = Volume::new(b"disk-key");
        let a = v.seal(1, b"same plaintext");
        let b = v.seal(2, b"same plaintext");
        assert_ne!(a[HEADER_LEN..], b[HEADER_LEN..]);
    }

    /// `open_into` answers as `open` does — the plaintext, `TagMismatch`,
    /// `Truncated` — and leaves the buffer alone when it refuses.
    #[test]
    fn open_into_matches_open() {
        let v = Volume::new(b"disk-key");
        let good = v.seal(5, b"ph-1x4b;123-456-7890;PUR=ads");
        let mut flipped = good.clone();
        flipped[HEADER_LEN] ^= 0x20;
        let blobs: [&[u8]; 5] = [
            &good,
            &flipped,
            &good[..HEADER_LEN - 1],
            &[],
            &v.seal(0, b""),
        ];
        let mut buf = b"stale".to_vec();
        for blob in blobs {
            let before = buf.clone();
            let into = v.open_into(blob, &mut buf);
            match v.open(blob) {
                Ok((block_no, plaintext)) => {
                    assert_eq!(into, Ok(block_no));
                    assert_eq!(buf, plaintext);
                }
                Err(e) => {
                    assert_eq!(into, Err(e));
                    assert_eq!(buf, before, "a refused blob leaves the buffer");
                }
            }
        }
        assert_eq!(
            v.open_into(&flipped, &mut buf),
            Err(CryptoError::TagMismatch)
        );
        assert_eq!(v.open_into(&[1, 2], &mut buf), Err(CryptoError::Truncated));
    }

    #[test]
    fn empty_plaintext_roundtrips() {
        let v = Volume::new(b"disk-key");
        let sealed = v.seal(3, b"");
        assert_eq!(v.open(&sealed).unwrap(), (3, vec![]));
    }
}

//! The ChaCha20 stream cipher, as specified in RFC 8439.
//!
//! Implemented from scratch (no external crates) and validated against the
//! RFC's block-function and encryption test vectors in this module's tests.

/// Key size in bytes (256-bit keys only, per RFC 8439).
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes (96-bit nonces, per RFC 8439).
pub const NONCE_LEN: usize = 12;
/// Size of one keystream block.
pub const BLOCK_LEN: usize = 64;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha20 cipher instance bound to a key.
///
/// ChaCha20 is a stream cipher: encryption and decryption are the same XOR
/// operation, so there is a single [`ChaCha20::apply`] entry point.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
}

impl ChaCha20 {
    /// Create a cipher from a 256-bit key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaCha20 { key: k }
    }

    /// Derive a cipher from arbitrary-length key material by hashing it into
    /// a 256-bit key with SipHash in a counter construction. This is a
    /// convenience for tests and configuration, not a KDF of record.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut key = [0u8; KEY_LEN];
        for (i, chunk) in key.chunks_exact_mut(8).enumerate() {
            let h = crate::siphash::SipHash24::new(0x6b64665f_u64, i as u64).hash(seed);
            chunk.copy_from_slice(&h.to_le_bytes());
        }
        ChaCha20::new(&key)
    }

    /// Compute one 64-byte keystream block for (`nonce`, `counter`).
    pub fn block(&self, nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            state[13 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }

        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XOR `data` in place with the keystream for (`nonce`, starting at
    /// block `counter`). Apply twice with the same parameters to decrypt.
    pub fn apply(&self, nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
        let mut ctr = counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = self.block(nonce, ctr);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    /// RFC 8439 §2.3.2: ChaCha20 block function test vector.
    #[test]
    fn rfc8439_block_function_vector() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce: [u8; NONCE_LEN] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let block = cipher.block(&nonce, 1);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    /// RFC 8439 §2.4.2: ChaCha20 encryption test vector ("sunscreen" text).
    #[test]
    fn rfc8439_encryption_vector() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce: [u8; NONCE_LEN] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it.";
        let mut ct = plaintext.to_vec();
        cipher.apply(&nonce, 1, &mut ct);
        let expected_prefix: [u8; 16] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        let expected_suffix: [u8; 8] = [0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d];
        assert_eq!(&ct[..16], &expected_prefix);
        assert_eq!(&ct[ct.len() - 8..], &expected_suffix);
        assert_eq!(ct.len(), plaintext.len());
    }

    #[test]
    fn apply_twice_roundtrips() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [7u8; NONCE_LEN];
        let mut data = b"some personal data: 123-456-7890".to_vec();
        let original = data.clone();
        cipher.apply(&nonce, 0, &mut data);
        assert_ne!(data, original, "ciphertext must differ from plaintext");
        cipher.apply(&nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_produce_different_keystreams() {
        let cipher = ChaCha20::new(&rfc_key());
        let a = cipher.block(&[0u8; NONCE_LEN], 0);
        let b = cipher.block(&[1u8; NONCE_LEN], 0);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_advances_across_blocks() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [3u8; NONCE_LEN];
        // Encrypting 100 bytes at counter 0 must equal block0 || block1 prefix.
        let mut ct = vec![0u8; 100];
        cipher.apply(&nonce, 0, &mut ct);
        let b0 = cipher.block(&nonce, 0);
        let b1 = cipher.block(&nonce, 1);
        assert_eq!(&ct[..64], &b0[..]);
        assert_eq!(&ct[64..], &b1[..36]);
    }

    #[test]
    fn from_seed_is_deterministic_and_key_sensitive() {
        let a = ChaCha20::from_seed(b"alpha");
        let b = ChaCha20::from_seed(b"alpha");
        let c = ChaCha20::from_seed(b"beta");
        let n = [0u8; NONCE_LEN];
        assert_eq!(a.block(&n, 0), b.block(&n, 0));
        assert_ne!(a.block(&n, 0), c.block(&n, 0));
    }
}

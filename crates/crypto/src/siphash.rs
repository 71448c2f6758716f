//! SipHash-2-4, the keyed 64-bit PRF of Aumasson & Bernstein.
//!
//! Used in two places: as the authentication tag over sealed blocks
//! ([`crate::volume`], [`crate::channel`]) and as the stationary key
//! scrambler behind the benchmark's scrambled-zipfian generator (the same
//! role FNV plays in YCSB — SipHash additionally resists engineered
//! collisions). Validated against the reference test vectors.

/// A SipHash-2-4 instance bound to a 128-bit key (as two u64 halves).
#[derive(Clone, Copy, Debug)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

impl SipHash24 {
    /// Create a hasher from the two 64-bit key halves.
    pub fn new(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1 }
    }

    /// Create a hasher from a 16-byte key (little-endian halves).
    pub fn from_key_bytes(key: &[u8; 16]) -> Self {
        SipHash24 {
            k0: u64::from_le_bytes(key[..8].try_into().unwrap()),
            k1: u64::from_le_bytes(key[8..].try_into().unwrap()),
        }
    }

    /// Hash a byte slice to a 64-bit value.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut state = self.start();
        state.write(data);
        state.finish()
    }

    /// A streaming hash under this key: [`SipState::write`] the message in
    /// as many pieces as it comes in, then [`SipState::finish`]. The digest
    /// is [`Self::hash`] of the pieces concatenated.
    pub fn start(&self) -> SipState {
        SipState {
            v: [
                0x736f_6d65_7073_6575_u64 ^ self.k0,
                0x646f_7261_6e64_6f6d_u64 ^ self.k1,
                0x6c79_6765_6e65_7261_u64 ^ self.k0,
                0x7465_6462_7974_6573_u64 ^ self.k1,
            ],
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// Hash a u64 (little-endian encoding). Used by the scrambled-zipfian
    /// generator to spread popular ranks across the key space.
    pub fn hash_u64(&self, x: u64) -> u64 {
        self.hash(&x.to_le_bytes())
    }
}

/// A SipHash-2-4 computation in progress (see [`SipHash24::start`]).
#[derive(Clone, Copy, Debug)]
pub struct SipState {
    v: [u64; 4],
    /// Message bytes not yet compressed (fewer than 8), little-endian.
    tail: u64,
    ntail: usize,
    length: usize,
}

impl SipState {
    fn compress(&mut self, m: u64) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v3 ^= m;
        for _ in 0..2 {
            sip_round(v0, v1, v2, v3);
        }
        *v0 ^= m;
    }

    /// Feed the next piece of the message.
    pub fn write(&mut self, mut data: &[u8]) {
        self.length += data.len();
        if self.ntail > 0 {
            let fill = (8 - self.ntail).min(data.len());
            for (i, &b) in data[..fill].iter().enumerate() {
                self.tail |= (b as u64) << (8 * (self.ntail + i));
            }
            self.ntail += fill;
            data = &data[fill..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            self.tail = 0;
            self.ntail = 0;
        }
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            self.compress(u64::from_le_bytes(word.try_into().unwrap()));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= (b as u64) << (8 * i);
        }
        self.ntail = words.remainder().len();
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut state = *self;
        // Final block: remaining bytes plus the length in the top byte.
        state.compress(((self.length as u64 & 0xff) << 56) | self.tail);
        let [v0, v1, v2, v3] = &mut state.v;
        *v2 ^= 0xff;
        for _ in 0..4 {
            sip_round(v0, v1, v2, v3);
        }
        *v0 ^ *v1 ^ *v2 ^ *v3
    }
}

#[inline(always)]
fn sip_round(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key 000102...0f and the first rows of the reference vector
    /// table from the SipHash paper (vectors for messages of length 0..8).
    #[test]
    fn reference_vectors() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let hasher = SipHash24::from_key_bytes(&key);
        let expected: [u64; 8] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
        ];
        let msg: Vec<u8> = (0u8..8).collect();
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(
                hasher.hash(&msg[..len]),
                *want,
                "vector mismatch at message length {len}"
            );
        }
    }

    /// A message streamed in two pieces hashes as it does whole, at every
    /// split point: short messages and one page.
    #[test]
    fn streamed_pieces_hash_as_the_whole() {
        let hasher = SipHash24::new(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut messages: Vec<&[u8]> = (0..=24).map(|len| &page[..len]).collect();
        messages.push(&page);
        for msg in messages {
            let whole = hasher.hash(msg);
            for split in 0..=msg.len() {
                let mut state = hasher.start();
                state.write(&msg[..split]);
                state.write(&msg[split..]);
                assert_eq!(state.finish(), whole, "len {} split {split}", msg.len());
            }
        }
        // Byte by byte, too.
        let mut state = hasher.start();
        for b in &page[..23] {
            state.write(std::slice::from_ref(b));
        }
        assert_eq!(state.finish(), hasher.hash(&page[..23]));
    }

    #[test]
    fn key_sensitivity() {
        let a = SipHash24::new(1, 2);
        let b = SipHash24::new(1, 3);
        assert_ne!(a.hash(b"x"), b.hash(b"x"));
    }

    #[test]
    fn hash_u64_matches_bytes() {
        let h = SipHash24::new(11, 22);
        assert_eq!(
            h.hash_u64(0xdead_beef),
            h.hash(&0xdead_beef_u64.to_le_bytes())
        );
    }

    #[test]
    fn distribution_sanity_low_bits() {
        // Low 3 bits of hashes of 0..8000 should hit all 8 buckets roughly evenly.
        let h = SipHash24::new(42, 43);
        let mut buckets = [0u32; 8];
        for i in 0..8000u64 {
            buckets[(h.hash_u64(i) & 7) as usize] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                (800..1200).contains(&count),
                "bucket {i} badly skewed: {count}/8000"
            );
        }
    }
}

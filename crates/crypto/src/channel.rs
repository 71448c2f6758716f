//! Encryption in transit: the stunnel/TLS stand-in.
//!
//! The paper tunnels Redis traffic through stunnel and enables SSL in
//! PostgreSQL. The benchmark-relevant effect is that every request and
//! response crosses a cipher boundary. [`SecureChannel`] models one direction
//! of an established session (post-handshake): messages are sealed with a
//! strictly increasing sequence number, giving confidentiality, integrity and
//! replay protection. The connectors create a client→server and a
//! server→client channel per session and pay this cost on every operation.

use crate::chacha20::{ChaCha20, NONCE_LEN};
use crate::siphash::SipHash24;
use crate::CryptoError;

/// Length of the per-message header: 8-byte sequence number + 8-byte tag.
pub const HEADER_LEN: usize = 16;

/// One direction of an encrypted session.
pub struct SecureChannel {
    cipher: ChaCha20,
    mac: SipHash24,
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    /// Create one endpoint of a channel from shared key material and a
    /// direction label (the two directions must use distinct labels so their
    /// keystreams never overlap).
    pub fn new(seed: &[u8], direction: &str) -> Self {
        let mut material = Vec::with_capacity(seed.len() + direction.len() + 1);
        material.extend_from_slice(seed);
        material.push(b'|');
        material.extend_from_slice(direction.as_bytes());
        SecureChannel {
            cipher: ChaCha20::from_seed(&material),
            mac: SipHash24::new(
                SipHash24::new(0x6368_616e, 0x6d61_6331).hash(&material),
                SipHash24::new(0x6368_616e, 0x6d61_6332).hash(&material),
            ),
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Create the matched (client→server, server→client) pair for a session.
    /// Returns `(client_endpoint, server_endpoint)` where each endpoint sends
    /// on its own direction and receives on the peer's.
    pub fn pair(seed: &[u8]) -> (DuplexChannel, DuplexChannel) {
        let client = DuplexChannel {
            tx: SecureChannel::new(seed, "c2s"),
            rx: SecureChannel::new(seed, "s2c"),
        };
        let server = DuplexChannel {
            tx: SecureChannel::new(seed, "s2c"),
            rx: SecureChannel::new(seed, "c2s"),
        };
        (client, server)
    }

    /// Seal the next outbound message.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        let nonce = seq_nonce(seq);
        let mut out = Vec::with_capacity(HEADER_LEN + plaintext.len());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]);
        out.extend_from_slice(plaintext);
        self.cipher.apply(&nonce, 0, &mut out[HEADER_LEN..]);
        let tag = self.tag(seq, &out[HEADER_LEN..]);
        out[8..16].copy_from_slice(&tag.to_le_bytes());
        out
    }

    /// Open the next inbound message. Rejects tampering, truncation, and
    /// out-of-order/replayed sequence numbers.
    ///
    /// The sequence check runs first and reports [`CryptoError::Replay`],
    /// so a replayed capture is distinguishable from corruption; a frame
    /// with the expected sequence but a wrong tag is [`CryptoError::TagMismatch`].
    /// The tag comparison is constant-time ([`ct_eq`]) — a short-circuiting
    /// `!=` would leak how many tag bytes an attacker got right.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < HEADER_LEN {
            return Err(CryptoError::Truncated);
        }
        let seq = u64::from_le_bytes(sealed[..8].try_into().unwrap());
        if seq != self.recv_seq {
            return Err(CryptoError::Replay);
        }
        let ct = &sealed[HEADER_LEN..];
        if !ct_eq(&self.tag(seq, ct).to_le_bytes(), &sealed[8..16]) {
            return Err(CryptoError::TagMismatch);
        }
        self.recv_seq += 1;
        let mut pt = ct.to_vec();
        self.cipher.apply(&seq_nonce(seq), 0, &mut pt);
        Ok(pt)
    }

    fn tag(&self, seq: u64, ciphertext: &[u8]) -> u64 {
        let mut material = Vec::with_capacity(8 + ciphertext.len());
        material.extend_from_slice(&seq.to_le_bytes());
        material.extend_from_slice(ciphertext);
        self.mac.hash(&material)
    }
}

/// A send+receive endpoint pair for one party of a session.
pub struct DuplexChannel {
    /// Outbound direction.
    pub tx: SecureChannel,
    /// Inbound direction.
    pub rx: SecureChannel,
}

impl DuplexChannel {
    /// Seal an outbound message.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.tx.seal(plaintext)
    }

    /// Open an inbound message.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.rx.open(sealed)
    }
}

/// Which way a message crosses a [`Loopback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    Request,
    /// Server → client.
    Reply,
}

/// Both endpoints of one session held in-process: what a store with
/// transit encryption on pays per message — seal at the sender, open at
/// the receiver — which is the cost stunnel / SSL adds to every request
/// and every reply.
pub struct Loopback {
    client: DuplexChannel,
    server: DuplexChannel,
}

impl Loopback {
    /// Establish the session from shared key material.
    pub fn new(seed: &[u8]) -> Self {
        let (client, server) = SecureChannel::pair(seed);
        Loopback { client, server }
    }

    /// Carry `bytes` across the session in `direction`.
    pub fn round_trip(&mut self, direction: Direction, bytes: &[u8]) -> Result<(), CryptoError> {
        let (from, to) = match direction {
            Direction::Request => (&mut self.client, &mut self.server),
            Direction::Reply => (&mut self.server, &mut self.client),
        };
        let opened = to.open(&from.seal(bytes))?;
        debug_assert_eq!(opened, bytes);
        Ok(())
    }
}

/// Constant-time equality for same-length byte strings.
///
/// Every byte is examined regardless of where the first difference sits:
/// differences are OR-accumulated and only the final accumulator decides,
/// with a `black_box` keeping the optimizer from reintroducing an early
/// exit. A length mismatch returns `false` immediately — lengths are
/// public (the wire framing announces them), only contents are secret.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc = std::hint::black_box(acc | (x ^ y));
    }
    acc == 0
}

fn seq_nonce(seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&seq.to_le_bytes());
    nonce[8] = 0x43; // domain-separate from Volume nonces
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_roundtrip() {
        let (mut client, mut server) = SecureChannel::pair(b"session-key");
        let wire = client.seal(b"READ-DATA-BY-KEY ph-1x4b");
        assert_eq!(server.open(&wire).unwrap(), b"READ-DATA-BY-KEY ph-1x4b");
        let wire = server.seal(b"123-456-7890");
        assert_eq!(client.open(&wire).unwrap(), b"123-456-7890");
    }

    #[test]
    fn many_messages_in_order() {
        let (mut client, mut server) = SecureChannel::pair(b"k");
        for i in 0..100u32 {
            let msg = format!("op-{i}");
            let wire = client.seal(msg.as_bytes());
            assert_eq!(server.open(&wire).unwrap(), msg.as_bytes());
        }
    }

    #[test]
    fn replay_is_rejected() {
        let (mut client, mut server) = SecureChannel::pair(b"k");
        let wire = client.seal(b"delete my data");
        server.open(&wire).unwrap();
        // A replayed capture is a sequencing violation, not corruption —
        // the transport can audit it separately.
        assert_eq!(server.open(&wire), Err(CryptoError::Replay));
    }

    #[test]
    fn reorder_is_rejected() {
        let (mut client, mut server) = SecureChannel::pair(b"k");
        let first = client.seal(b"one");
        let second = client.seal(b"two");
        assert_eq!(server.open(&second), Err(CryptoError::Replay));
        // The in-order message still works afterwards.
        assert_eq!(server.open(&first).unwrap(), b"one");
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut client, mut server) = SecureChannel::pair(b"k");
        let mut wire = client.seal(b"benign");
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        assert_eq!(server.open(&wire), Err(CryptoError::TagMismatch));
    }

    /// A wrong tag on the *expected* sequence number is corruption
    /// (`TagMismatch`), never `Replay` — the seq check must not swallow
    /// tag failures, and vice versa.
    #[test]
    fn wrong_tag_at_expected_seq_is_tag_mismatch_not_replay() {
        let (mut client, mut server) = SecureChannel::pair(b"k");
        let mut wire = client.seal(b"benign");
        // Flip a tag byte only; seq (bytes 0..8) stays the expected 0.
        wire[12] ^= 0x01;
        assert_eq!(server.open(&wire), Err(CryptoError::TagMismatch));
        // A tampered seq on the same capture reports Replay instead.
        let mut wire2 = client.seal(b"next");
        wire2[7] ^= 0x01;
        assert_eq!(server.open(&wire2), Err(CryptoError::Replay));
    }

    #[test]
    fn ct_eq_agrees_with_equality_everywhere() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"same-bytes", b"same-bytes"));
        assert!(!ct_eq(b"length", b"length-differs"));
        // Equal-length inputs differing at the first, a middle, and the
        // last byte all take the full accumulate-and-compare path and
        // still report inequality.
        let base = *b"\x00\x11\x22\x33\x44\x55\x66\x77";
        for flip_at in [0usize, 3, 7] {
            let mut other = base;
            other[flip_at] ^= 0x80;
            assert!(!ct_eq(&base, &other), "difference at byte {flip_at}");
            assert!(!ct_eq(&other, &base), "difference at byte {flip_at}");
        }
        // Multi-byte differences that XOR-cancel pairwise must not read
        // as equal (the accumulator ORs, it does not XOR-sum).
        let mut cancel = base;
        cancel[1] ^= 0x0f;
        cancel[2] ^= 0x0f;
        assert!(!ct_eq(&base, &cancel));
    }

    #[test]
    fn loopback_carries_requests_and_replies_in_step() {
        let mut session = Loopback::new(b"k");
        for i in 0..3u8 {
            session.round_trip(Direction::Request, &[i; 9]).unwrap();
            session.round_trip(Direction::Reply, &[i; 40]).unwrap();
        }
        // Two replies to one request are still two in-order messages.
        session.round_trip(Direction::Reply, b"").unwrap();
    }

    #[test]
    fn directions_are_independent() {
        let (mut client, mut server) = SecureChannel::pair(b"k");
        // A client cannot open its own sealed message (directions differ).
        let wire = client.seal(b"hello");
        assert!(client.open(&wire).is_err());
        assert_eq!(server.open(&wire).unwrap(), b"hello");
    }
}

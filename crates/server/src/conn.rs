//! Per-connection state for the event loop: an incremental frame decoder
//! that tolerates arbitrarily fragmented input (nonblocking reads deliver
//! whatever the kernel has, never whole frames), the decoded-op type
//! server-side batches carry, and the outbound buffer that
//! level-triggered write draining empties.
//!
//! [`FrameDecoder`] is the nonblocking twin of [`crate::wire::read_frame`]
//! and is kept free-standing so the frame-boundary property tests can
//! drive it byte-by-byte without a socket.

use crate::wire::RequestBody;
use crypto::channel::DuplexChannel;
use gdpr_core::tenant::TenantId;
use std::net::TcpStream;
use std::time::Instant;

/// Incremental decoder for the wire framing (`u32` BE length + payload).
///
/// Push raw bytes in as they arrive; pull complete frames out. A length
/// prefix exceeding `max_frame` is a fatal framing error — the stream
/// position can no longer be trusted, exactly as the blocking
/// [`crate::wire::read_frame`] treats it.
pub struct FrameDecoder {
    max_frame: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted away once large enough.
    pos: usize,
}

impl FrameDecoder {
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            max_frame,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Append raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Drop everything buffered (a poisoned connection stops decoding).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// The next complete frame payload, `Ok(None)` while one is still
    /// partial, or `Err(claimed_len)` on a hostile length prefix.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, usize> {
        let available = self.buf.len() - self.pos;
        if available < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().unwrap();
        let len = u32::from_be_bytes(header) as usize;
        if len > self.max_frame {
            return Err(len);
        }
        if available < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 && self.pos * 2 >= self.buf.len() {
            // Bound the dead prefix without shifting the live tail on
            // every frame.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

/// An outbound byte buffer drained by nonblocking writes.
#[derive(Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn extend(&mut self, bytes: Vec<u8>) {
        if self.is_empty() {
            self.buf = bytes;
            self.pos = 0;
        } else {
            self.buf.extend_from_slice(&bytes);
        }
    }

    pub fn remaining(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    pub fn advance(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.buf.len());
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

/// One decoded inbound item, in stream order.
// `Request` dwarfs `Canned`, but ops live only from decode to batch
// execution on the hot path — boxing the body would buy the rare
// protocol-error case nothing and cost every request an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum DecodedOp {
    /// A well-formed request awaiting execution.
    Request {
        seq: u64,
        /// The request-header tenant — scopes control ops (`GetMetrics`);
        /// for `Execute` the decoder already injected it into the session.
        tenant: TenantId,
        body: RequestBody,
        /// When the frame came off the decoder — the start of the
        /// `decode_wait` telemetry stage (decoded → its batch starts on
        /// the loop).
        decoded_at: Instant,
    },
    /// A pre-encoded response payload (protocol error) that must be
    /// emitted at exactly this position in the response order.
    Canned(Vec<u8>),
}

/// The connection's position in the encrypted-transport lifecycle (see
/// [`crate::secure`]). Plaintext servers stay `Plain` forever; encrypted
/// servers start every connection at `Handshaking` and refuse to carry a
/// single op frame until the hello exchange upgrades it to `Secure`.
pub(crate) enum Transport {
    /// Unencrypted: frame payloads are op payloads.
    Plain,
    /// Encryption required but the client hello has not arrived yet.
    Handshaking,
    /// Established: every frame payload is a sealed record. Boxed so an
    /// idle connection costs one pointer, not the full cipher state.
    Secure(Box<DuplexChannel>),
}

/// Per-connection counters, served over the wire for `ConnStats`. Only
/// the connection's own loop thread touches them.
#[derive(Debug, Default)]
pub(crate) struct ConnCounters {
    pub requests: u64,
    pub errors: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// Everything the event loop tracks for one accepted connection.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub decoder: FrameDecoder,
    pub outbuf: OutBuf,
    /// Framing/decoding no longer trusted; stop reading, flush, close.
    pub poisoned: bool,
    /// Emit everything owed, then close.
    pub close_after_flush: bool,
    /// Peer half-closed its write side (clean EOF).
    pub peer_eof: bool,
    /// Currently registered (readable, writable) interest.
    pub interest: (bool, bool),
    pub counters: ConnCounters,
    /// Last instant the outbound buffer made progress (or became owed);
    /// a stalled non-draining peer is killed past the write timeout.
    pub last_write_progress: Instant,
    /// When the current batch's responses were enqueued on a previously
    /// empty outbuf — the start of the `write_drain` telemetry stage,
    /// recorded (and cleared) when the outbuf next drains to the socket.
    pub write_batch_started: Option<Instant>,
    /// Record-layer state: plaintext, awaiting handshake, or established.
    pub(crate) transport: Transport,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_frame: usize, encrypted: bool) -> Conn {
        // Sealed records carry a 16-byte header on top of the plaintext
        // frame payload, so the decoder must admit slightly larger frames
        // than the plaintext limit.
        let decode_max = if encrypted {
            max_frame + crate::secure::SEAL_OVERHEAD
        } else {
            max_frame
        };
        Conn {
            stream,
            decoder: FrameDecoder::new(decode_max),
            outbuf: OutBuf::default(),
            poisoned: false,
            close_after_flush: false,
            peer_eof: false,
            interest: (true, false),
            counters: ConnCounters::default(),
            last_write_progress: Instant::now(),
            write_batch_started: None,
            transport: if encrypted {
                Transport::Handshaking
            } else {
                Transport::Plain
            },
        }
    }

    /// Append outbound response frames, sealing each frame's payload when
    /// the transport is established. `bytes` must be a whole number of
    /// wire frames (`u32` BE length + payload) — exactly what `run_batch`
    /// produces — because sealing happens per frame: the record layer
    /// re-frames `frame(payload)` as `frame(seal(payload))`. Batches run
    /// in op order on the connection's one loop thread, so sequence
    /// numbers follow send order.
    ///
    /// Responses landing on an empty outbuf start the write obligation:
    /// stall tracking must not count the idle time before it, and the
    /// same instant starts the `write_drain` telemetry stage.
    pub fn enqueue(&mut self, bytes: Vec<u8>) {
        if self.outbuf.is_empty() && !bytes.is_empty() {
            let now = Instant::now();
            self.last_write_progress = now;
            self.write_batch_started = Some(now);
        }
        let Transport::Secure(channel) = &mut self.transport else {
            self.outbuf.extend(bytes);
            return;
        };
        let mut sealed_out =
            Vec::with_capacity(bytes.len() + crate::secure::SEAL_OVERHEAD.saturating_mul(4));
        let mut pos = 0;
        while pos + 4 <= bytes.len() {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            debug_assert!(pos + 4 + len <= bytes.len(), "enqueue of a partial frame");
            let payload = &bytes[pos + 4..pos + 4 + len];
            let sealed = channel.seal(payload);
            sealed_out.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
            sealed_out.extend_from_slice(&sealed);
            pos += 4 + len;
        }
        debug_assert_eq!(pos, bytes.len(), "enqueue of a partial frame");
        self.outbuf.extend(sealed_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    fn drain(decoder: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(Some(frame)) = decoder.next_frame() {
            out.push(frame);
        }
        out
    }

    #[test]
    fn whole_frames_decode_in_order() {
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut stream = frame(b"alpha");
        stream.extend(frame(b""));
        stream.extend(frame(b"gamma"));
        decoder.push(&stream);
        assert_eq!(
            drain(&mut decoder),
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn split_at_every_boundary_reassembles() {
        let payloads: [&[u8]; 3] = [b"one", b"", b"three-33"];
        let mut stream = Vec::new();
        for p in payloads {
            stream.extend(frame(p));
        }
        for cut in 0..=stream.len() {
            let mut decoder = FrameDecoder::new(1 << 20);
            decoder.push(&stream[..cut]);
            let mut got = drain(&mut decoder);
            decoder.push(&stream[cut..]);
            got.extend(drain(&mut decoder));
            assert_eq!(got.len(), 3, "cut at {cut}");
            for (g, p) in got.iter().zip(payloads) {
                assert_eq!(g, p, "cut at {cut}");
            }
        }
    }

    #[test]
    fn byte_by_byte_delivery_reassembles() {
        let mut stream = frame(b"slow");
        stream.extend(frame(b"drip"));
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut got = Vec::new();
        for byte in stream {
            decoder.push(&[byte]);
            got.extend(drain(&mut decoder));
        }
        assert_eq!(got, vec![b"slow".to_vec(), b"drip".to_vec()]);
    }

    #[test]
    fn hostile_length_is_fatal() {
        let mut decoder = FrameDecoder::new(1024);
        decoder.push(&2048u32.to_be_bytes());
        assert_eq!(decoder.next_frame(), Err(2048));
        // Still fatal on retry: the stream position is not advanced.
        assert_eq!(decoder.next_frame(), Err(2048));

        let mut decoder = FrameDecoder::new(1024);
        decoder.push(&u32::MAX.to_be_bytes());
        assert_eq!(decoder.next_frame(), Err(u32::MAX as usize));
    }

    #[test]
    fn partial_frame_is_pending_not_error() {
        let mut decoder = FrameDecoder::new(1 << 20);
        let full = frame(b"payload");
        for cut in 0..full.len() {
            let mut d = FrameDecoder::new(1 << 20);
            d.push(&full[..cut]);
            assert_eq!(d.next_frame(), Ok(None), "cut at {cut}");
        }
        decoder.push(&full);
        assert_eq!(decoder.next_frame(), Ok(Some(b"payload".to_vec())));
    }

    #[test]
    fn compaction_preserves_the_live_tail() {
        let mut decoder = FrameDecoder::new(1 << 20);
        // Many frames large enough to trip the drain threshold, pushed as
        // one blob with a trailing partial frame.
        let body = vec![0xAB; 40 * 1024];
        let mut stream = Vec::new();
        for _ in 0..4 {
            stream.extend(frame(&body));
        }
        let tail = frame(b"tail");
        stream.extend(&tail[..3]);
        decoder.push(&stream);
        assert_eq!(drain(&mut decoder).len(), 4);
        decoder.push(&tail[3..]);
        assert_eq!(decoder.next_frame(), Ok(Some(b"tail".to_vec())));
    }

    #[test]
    fn outbuf_tracks_partial_writes() {
        let mut out = OutBuf::default();
        assert!(out.is_empty());
        out.extend(b"hello ".to_vec());
        out.extend(b"world".to_vec());
        assert_eq!(out.len(), 11);
        assert_eq!(out.remaining(), b"hello world");
        out.advance(6);
        assert_eq!(out.remaining(), b"world");
        out.advance(5);
        assert!(out.is_empty());
        // Reuse after drain starts fresh.
        out.extend(b"x".to_vec());
        assert_eq!(out.remaining(), b"x");
    }
}

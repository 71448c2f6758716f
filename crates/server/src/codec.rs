//! Byte-level primitives for the GDPR wire protocol: a panic-free writer
//! and bounds-checked reader over big-endian integers and length-prefixed
//! strings. Everything the protocol ships reduces to these six shapes
//! (u8/u32/u64, bytes, string, list-count), so the reader is the one place
//! truncated or hostile frames are rejected.

use std::fmt;

/// A decode failure: offset plus what was expected there. Decoding never
/// panics — every length is validated against the remaining buffer before
/// a single byte is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub offset: usize,
    pub message: String,
}

impl WireError {
    pub fn new(offset: usize, message: impl Into<String>) -> WireError {
        WireError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for WireError {}

pub type WireResult<T> = Result<T, WireError>;

/// Append-only encoder. Strings and byte blobs are `u32` length-prefixed;
/// integers are big-endian.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A list is its `u32` element count; the caller writes the elements.
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    pub fn string_list(&mut self, items: &[String]) {
        self.count(items.len());
        for item in items {
            self.string(item);
        }
    }
}

/// Bounds-checked decoder over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn offset(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoding must consume the whole payload: trailing garbage means the
    /// two sides disagree about the format, which is worth failing loudly.
    pub fn finish(self) -> WireResult<()> {
        if self.pos != self.buf.len() {
            return Err(WireError::new(
                self.pos,
                format!("{} trailing bytes after payload", self.buf.len() - self.pos),
            ));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::new(
                self.pos,
                format!(
                    "truncated: need {n} bytes for {what}, have {}",
                    self.remaining()
                ),
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self, what: &str) -> WireResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &str) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn bool(&mut self, what: &str) -> WireResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::new(
                self.pos - 1,
                format!("bad bool {other} in {what}"),
            )),
        }
    }

    pub fn bytes(&mut self, what: &str) -> WireResult<&'a [u8]> {
        let len = self.u32(what)? as usize;
        // The length itself is attacker-controlled: bound it by what is
        // actually in the buffer before allocating or slicing.
        self.take(len, what)
    }

    /// A length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str(&mut self, what: &str) -> WireResult<&'a str> {
        let at = self.pos;
        let raw = self.bytes(what)?;
        std::str::from_utf8(raw).map_err(|_| WireError::new(at, format!("non-UTF-8 {what}")))
    }

    pub fn string(&mut self, what: &str) -> WireResult<String> {
        self.str(what).map(str::to_string)
    }

    /// Read a list count, bounded by the bytes that could possibly back it
    /// (each element costs at least `min_element_bytes`), so a hostile
    /// count cannot trigger a huge allocation.
    pub fn count(&mut self, min_element_bytes: usize, what: &str) -> WireResult<usize> {
        let at = self.pos;
        let n = self.u32(what)? as usize;
        if n * min_element_bytes.max(1) > self.remaining() {
            return Err(WireError::new(
                at,
                format!("count {n} for {what} exceeds remaining payload"),
            ));
        }
        Ok(n)
    }

    pub fn string_list(&mut self, what: &str) -> WireResult<Vec<String>> {
        let n = self.count(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.string(what)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.bool(true);
        w.string("hällo"); // UTF-8 with a multibyte char
        w.string_list(&["a".to_string(), "".to_string()]);
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 3);
        assert!(r.bool("d").unwrap());
        assert_eq!(r.string("e").unwrap(), "hällo");
        assert_eq!(r.string_list("f").unwrap(), vec!["a", ""]);
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        let mut w = Writer::new();
        w.u64(42);
        w.string("payload");
        w.string_list(&["x".to_string(), "y".to_string()]);
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let result = (|| -> WireResult<()> {
                r.u64("n")?;
                r.string("s")?;
                r.string_list("l")?;
                Ok(())
            })();
            assert!(result.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A count of u32::MAX with a 5-byte remainder must be rejected up
        // front, not attempted.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(1);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.count(4, "list").is_err());
        let mut r = Reader::new(&buf);
        assert!(r.bytes("blob").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        r.u8("only").unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_and_bad_utf8() {
        let mut r = Reader::new(&[9]);
        assert!(r.bool("flag").is_err());
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_bytes();
        assert!(Reader::new(&buf).string("s").is_err());
    }
}

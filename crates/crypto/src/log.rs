//! The logical log: the append-only file the paper puts under both
//! retrofits — Redis' AOF (§5.1) and PostgreSQL's WAL / csvlog (§5.2) —
//! sealed at rest by [`Volume`] the way LUKS seals the device under them.
//!
//! This module owns everything about such a file except what a payload
//! means:
//!
//! * **Frame.** `[u32 little-endian length][body]`. The body is the
//!   caller's payload, or `Volume::seal(seq, payload)` when a volume is
//!   attached, where `seq` is the frame's index in the file — so a
//!   reordered, transplanted or dropped sealed frame fails on read.
//! * **Fsync policy.** [`FsyncPolicy`]; the writer is *told* the time
//!   (nanoseconds on the caller's clock) because this crate has no
//!   dependencies and must keep none.
//! * **Torn tail.** A final frame physically shorter than its header
//!   announces is the signature of a crash mid-append (PostgreSQL's
//!   end-of-WAL rule, Redis' `aof-load-truncated yes`): [`read`] returns the
//!   frames before it and how many bytes it dropped. A *complete* frame
//!   that fails authentication is corruption and fails the read. A caller
//!   that wants the strict reading demands `torn == 0`.
//! * **Resume.** [`Log::open`] on a [`Storage::File`] reads what is there,
//!   cuts a torn tail, and hands back the retained payloads with a writer
//!   positioned after them, so the next frame continues the sequence.
//!
//! An unsealed frame carries no checksum: a flipped length byte in a plain
//! log reads as a torn tail. `pagestore`'s WAL is deliberately not a user —
//! fixed-size checksummed page images, COMMIT groups and an offset index are
//! a different algorithm.

use crate::Volume;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// When appended frames are flushed to stable storage — Redis'
/// `appendfsync`, PostgreSQL's `synchronous_commit` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every frame (durable, slow).
    Always,
    /// fsync at most once per second (the paper's configuration: "not
    /// synchronously in real-time, but in batches synchronized once every
    /// second").
    #[default]
    EverySec,
    /// Let the OS decide (fast, weakest durability).
    Never,
}

const EVERY_SEC_NS: u64 = 1_000_000_000;

/// Where a log lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Storage {
    /// No log at all (the Figure 4 baselines).
    #[default]
    Disabled,
    /// A real file on disk.
    File(PathBuf),
    /// An in-memory buffer — for tests and deterministic replay checks.
    Memory,
}

/// Why a log could not be opened, written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The file could not be read, opened, cut, written or synced.
    Io(String),
    /// A complete frame failed authentication or is out of sequence.
    Corrupt(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(msg) | LogError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e.to_string())
    }
}

/// Shared handle to the bytes of a [`Storage::Memory`] log.
#[derive(Clone, Default)]
pub struct MemBuffer(Arc<Mutex<Vec<u8>>>);

impl MemBuffer {
    /// Lock the buffer. A writer that panicked mid-append leaves at worst
    /// a torn tail, which readers handle, so poisoning is ignored.
    pub fn lock(&self) -> MutexGuard<'_, Vec<u8>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

enum Sink {
    File(BufWriter<File>),
    Memory(MemBuffer),
}

/// The writer of one logical log.
pub struct Log {
    sink: Sink,
    policy: FsyncPolicy,
    volume: Option<Volume>,
    last_sync_ns: u64,
    frames: u64,
    bytes: u64,
}

impl Log {
    /// Open the log `storage` names and return its writer together with the
    /// payloads it already holds (empty unless a [`Storage::File`] exists).
    /// A torn tail is cut from the file before the writer is handed out, or
    /// new frames would land after unparseable bytes.
    /// [`Storage::Disabled`] yields no writer.
    pub fn open(
        storage: &Storage,
        policy: FsyncPolicy,
        volume: Option<Volume>,
        now_ns: u64,
    ) -> Result<(Option<Log>, Vec<Vec<u8>>), LogError> {
        let (sink, retained, bytes) = match storage {
            Storage::Disabled => return Ok((None, Vec::new())),
            Storage::Memory => (Sink::Memory(MemBuffer::default()), Vec::new(), 0),
            Storage::File(path) => {
                let io =
                    |what: &str, e: std::io::Error| LogError::Io(format!("{what} {path:?}: {e}"));
                let data = match std::fs::read(path) {
                    Ok(data) => data,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                    Err(e) => return Err(io("read", e)),
                };
                let (retained, torn) = read(&data, volume.as_ref())?;
                let bytes = (data.len() - torn) as u64;
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| io("open", e))?;
                if torn > 0 {
                    file.set_len(bytes)
                        .and_then(|()| file.sync_all())
                        .map_err(|e| io("truncate", e))?;
                }
                (Sink::File(BufWriter::new(file)), retained, bytes)
            }
        };
        let log = Log {
            sink,
            policy,
            volume,
            last_sync_ns: now_ns,
            frames: retained.len() as u64,
            bytes,
        };
        Ok((Some(log), retained))
    }

    /// Append one payload as the next frame; returns its sequence number
    /// (the count of frames before it).
    pub fn append(&mut self, payload: &[u8], now_ns: u64) -> Result<u64, LogError> {
        let seq = self.frames;
        let sealed;
        let body = match &self.volume {
            Some(volume) => {
                sealed = volume.seal(seq, payload);
                &sealed
            }
            None => payload,
        };
        let header = u32::try_from(body.len())
            .map_err(|_| LogError::Io(format!("frame of {} bytes exceeds u32", body.len())))?
            .to_le_bytes();
        match &mut self.sink {
            Sink::File(w) => {
                w.write_all(&header)?;
                w.write_all(body)?;
            }
            Sink::Memory(buf) => {
                let mut buf = buf.lock();
                buf.extend_from_slice(&header);
                buf.extend_from_slice(body);
            }
        }
        self.frames += 1;
        self.bytes += (header.len() + body.len()) as u64;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EverySec if now_ns.saturating_sub(self.last_sync_ns) >= EVERY_SEC_NS => {
                self.sync()?;
                self.last_sync_ns = now_ns;
            }
            FsyncPolicy::EverySec | FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Flush buffers and (for files) fsync to stable storage.
    pub fn sync(&mut self) -> Result<(), LogError> {
        if let Sink::File(w) = &mut self.sink {
            w.flush()?;
            w.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Frames in the log, retained ones included.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes in the log, headers and retained frames included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Handle to the in-memory buffer, if this log is memory-backed.
    pub fn memory_buffer(&self) -> Option<MemBuffer> {
        match &self.sink {
            Sink::Memory(buf) => Some(buf.clone()),
            Sink::File(_) => None,
        }
    }
}

/// Walk a log's bytes once: the payload of every complete frame in order
/// (opened and sequence-checked when `volume` is given), plus the length
/// of the torn tail after the last one — see the module docs.
pub fn read(data: &[u8], volume: Option<&Volume>) -> Result<(Vec<Vec<u8>>, usize), LogError> {
    let mut payloads = Vec::new();
    let mut rest = data;
    while let Some((body, after)) = split_frame(rest) {
        let seq = payloads.len() as u64;
        payloads.push(match volume {
            None => body.to_vec(),
            Some(volume) => {
                let (got, payload) = volume
                    .open(body)
                    .map_err(|e| LogError::Corrupt(format!("frame {seq}: {e}")))?;
                if got != seq {
                    return Err(LogError::Corrupt(format!(
                        "frame out of order: sealed as {got}, found at {seq}"
                    )));
                }
                payload
            }
        });
        rest = after;
    }
    Ok((payloads, rest.len()))
}

/// `(body, bytes after the frame)` if `data` starts with a complete frame.
/// The announced length only ever bounds a slice, so a hostile one cannot
/// make the reader allocate.
fn split_frame(data: &[u8]) -> Option<(&[u8], &[u8])> {
    let (header, rest) = data.split_first_chunk::<4>()?;
    rest.split_at_checked(u32::from_le_bytes(*header) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOADS: [&[u8]; 4] = [b"SET a 1", b"", b"DEL a", b"a-much-longer-payload-here"];

    fn volume() -> Option<Volume> {
        Some(Volume::new(b"log-key"))
    }

    /// A memory log holding [`PAYLOADS`], its bytes, and each frame's end.
    fn written(volume: Option<Volume>) -> (Log, Vec<u8>, Vec<usize>) {
        let (log, retained) = Log::open(&Storage::Memory, FsyncPolicy::Never, volume, 0).unwrap();
        let mut log = log.unwrap();
        assert!(retained.is_empty());
        let buf = log.memory_buffer().unwrap();
        let mut ends = Vec::new();
        for (i, payload) in PAYLOADS.iter().enumerate() {
            assert_eq!(log.append(payload, 0).unwrap(), i as u64);
            ends.push(buf.lock().len());
        }
        let bytes = buf.lock().clone();
        (log, bytes, ends)
    }

    fn scratch_file(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("cryptolog-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn disabled_storage_yields_no_writer() {
        let (log, retained) = Log::open(&Storage::Disabled, FsyncPolicy::Never, None, 0).unwrap();
        assert!(log.is_none() && retained.is_empty());
    }

    #[test]
    fn round_trip_plain_and_sealed_with_accounting() {
        for sealed in [false, true] {
            let (log, bytes, ends) = written(sealed.then(|| volume().unwrap()));
            assert_eq!(log.frames(), PAYLOADS.len() as u64);
            assert_eq!(log.bytes(), bytes.len() as u64);
            let overhead = 4 + if sealed { crate::volume::HEADER_LEN } else { 0 };
            let mut end = 0;
            for (payload, frame_end) in PAYLOADS.iter().zip(&ends) {
                end += overhead + payload.len();
                assert_eq!(*frame_end, end);
            }
            let (payloads, torn) = read(&bytes, volume().filter(|_| sealed).as_ref()).unwrap();
            assert_eq!(
                (payloads.as_slice(), torn),
                (&PAYLOADS.map(<[u8]>::to_vec)[..], 0)
            );
            assert_eq!(
                bytes.windows(5).any(|w| w == b"SET a"),
                !sealed,
                "a sealed log hides its payloads"
            );
        }
    }

    #[test]
    fn wrong_key_fails() {
        let (_, bytes, _) = written(volume());
        let wrong = Volume::new(b"wrong-key");
        assert!(matches!(
            read(&bytes, Some(&wrong)),
            Err(LogError::Corrupt(_))
        ));
    }

    #[test]
    fn reordered_and_transplanted_sealed_frames_fail() {
        let (_, bytes, ends) = written(volume());
        let key = volume();
        // Swap the first two frames.
        let mut swapped = bytes[ends[0]..ends[1]].to_vec();
        swapped.extend_from_slice(&bytes[..ends[0]]);
        swapped.extend_from_slice(&bytes[ends[1]..]);
        assert!(matches!(
            read(&swapped, key.as_ref()),
            Err(LogError::Corrupt(_))
        ));
        // Drop the first frame: every later one sits at the wrong index.
        assert!(matches!(
            read(&bytes[ends[0]..], key.as_ref()),
            Err(LogError::Corrupt(_))
        ));
        // Transplant frame 1 of another log under the same key into slot 0.
        let (other, _) = Log::open(&Storage::Memory, FsyncPolicy::Never, volume(), 0).unwrap();
        let mut other = other.unwrap();
        other.append(b"SET a 2", 0).unwrap();
        other.append(b"SET a 3", 0).unwrap();
        let other = other.memory_buffer().unwrap().lock().clone();
        let second = other.len() / 2; // two equal-length frames
        let mut transplanted = other[second..].to_vec();
        transplanted.extend_from_slice(&bytes[ends[0]..]);
        assert!(matches!(
            read(&transplanted, key.as_ref()),
            Err(LogError::Corrupt(_))
        ));
    }

    /// Cutting the log anywhere returns exactly the frames that end at or
    /// before the cut, and reports the rest as the torn tail.
    #[test]
    fn every_truncation_returns_the_frame_boundary_prefix() {
        for sealed in [false, true] {
            let key = volume().filter(|_| sealed);
            let (_, bytes, ends) = written(sealed.then(|| volume().unwrap()));
            for cut in 0..=bytes.len() {
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                let retained = if whole == 0 { 0 } else { ends[whole - 1] };
                let (payloads, torn) = read(&bytes[..cut], key.as_ref()).unwrap();
                assert_eq!(payloads, PAYLOADS[..whole], "sealed={sealed} cut={cut}");
                assert_eq!(torn, cut - retained, "sealed={sealed} cut={cut}");
            }
        }
    }

    /// No single flipped bit of a sealed log reads back as the whole log:
    /// it is an error, or (a length bit that now points past the end) a
    /// torn tail holding a strict prefix — never a panic, never an
    /// allocation sized by the hostile length.
    #[test]
    fn every_bit_flip_of_a_sealed_log_is_detected() {
        let key = volume();
        let (_, bytes, _) = written(volume());
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok((payloads, torn)) = read(&bad, key.as_ref()) {
                assert!(torn > 0, "bit {bit}: a flipped log read back clean");
                assert!(payloads.len() < PAYLOADS.len(), "bit {bit}");
                assert_eq!(payloads, PAYLOADS[..payloads.len()], "bit {bit}");
            }
        }
        assert_eq!(read(&[0xff; 7], None).unwrap(), (vec![], 7), "4 GiB frame");
    }

    /// Reopening a file hands back what it holds and continues the block
    /// sequence: a frame appended after the reopen opens with
    /// `seq == retained`, torn tail or not.
    #[test]
    fn file_reopen_resumes_after_the_retained_frames() {
        for sealed in [false, true] {
            let path = scratch_file(if sealed { "sealed.log" } else { "plain.log" });
            let storage = Storage::File(path.clone());
            let key = || volume().filter(|_| sealed);
            let (log, retained) = Log::open(&storage, FsyncPolicy::Always, key(), 0).unwrap();
            assert!(retained.is_empty(), "no file yet");
            let mut log = log.unwrap();
            assert!(log.memory_buffer().is_none());
            log.append(PAYLOADS[0], 0).unwrap();
            log.append(PAYLOADS[1], 0).unwrap();
            drop(log);

            let (log, retained) = Log::open(&storage, FsyncPolicy::Never, key(), 0).unwrap();
            let mut log = log.unwrap();
            assert_eq!(retained, PAYLOADS[..2]);
            assert_eq!(log.frames(), 2);
            assert_eq!(log.append(PAYLOADS[2], 0).unwrap(), 2);
            log.sync().unwrap();
            let intact = std::fs::read(&path).unwrap();
            assert_eq!(log.bytes(), intact.len() as u64);
            drop(log);

            // Crash mid-append: the torn third frame is cut from the file
            // and its sequence number reused.
            std::fs::write(&path, &intact[..intact.len() - 3]).unwrap();
            let (log, retained) = Log::open(&storage, FsyncPolicy::Never, key(), 0).unwrap();
            let mut log = log.unwrap();
            assert_eq!(retained, PAYLOADS[..2]);
            assert_eq!(log.append(PAYLOADS[3], 0).unwrap(), 2);
            drop(log); // BufWriter flushes on drop
            let (payloads, torn) = read(&std::fs::read(&path).unwrap(), key().as_ref()).unwrap();
            assert_eq!(payloads, [PAYLOADS[0], PAYLOADS[1], PAYLOADS[3]]);
            assert_eq!(torn, 0);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn every_sec_policy_syncs_once_the_second_has_passed() {
        let path = scratch_file("everysec.log");
        let (log, _) =
            Log::open(&Storage::File(path.clone()), FsyncPolicy::EverySec, None, 0).unwrap();
        let mut log = log.unwrap();
        log.append(b"buffered", EVERY_SEC_NS - 1).unwrap();
        assert!(
            std::fs::read(&path).unwrap().is_empty(),
            "still in the BufWriter"
        );
        log.append(b"flushed", EVERY_SEC_NS).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len() as u64, log.bytes());
        std::fs::remove_file(&path).unwrap();
    }
}

//! Write-ahead log: physical page-image frames with torn-write protection.
//!
//! Layout:
//!
//! ```text
//! header (16 B): magic "GPgWAL01" | page_size u32 | reserved u32
//! frame (24 B + PAGE_SIZE):
//!     page_id u32 | flags u32 (bit0 = COMMIT) | generation u64
//!     | checksum u64 (SipHash-2-4 over page_id, flags, generation, image)
//!     | page image (PAGE_SIZE bytes)
//! ```
//!
//! A transaction appends one frame per dirty page; the last frame carries
//! the COMMIT flag and the store's logical generation. Recovery scans from
//! the header, stops at the first frame whose checksum fails (or that is
//! physically short — a torn tail) or whose COMMIT generation does not
//! advance on the previous COMMIT's, then discards any frames after the
//! last COMMIT, so a half-appended transaction vanishes atomically.
//!
//! Every commit bumps the generation, so a COMMIT frame that repeats or
//! rewinds it was never acknowledged: it is the tail of a transaction
//! whose append failed after its frames reached the file, left behind a
//! shorter successor that overwrote only its head. Replaying it would
//! resurrect a write the caller saw fail.

use crate::page::PAGE_SIZE;
use crypto::SipHash24;
use std::collections::HashMap;

pub const WAL_HEADER: usize = 16;
pub const FRAME_HEADER: usize = 24;
pub const FRAME_SIZE: usize = FRAME_HEADER + PAGE_SIZE;
pub const FLAG_COMMIT: u32 = 1;

const WAL_MAGIC: &[u8; 8] = b"GPgWAL01";

fn frame_hasher() -> SipHash24 {
    SipHash24::new(0x7761_6c5f_6672_616d, 0x655f_6368_6563_6b21)
}

pub fn header_bytes() -> [u8; WAL_HEADER] {
    let mut h = [0u8; WAL_HEADER];
    h[0..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    h
}

fn frame_checksum(pid: u32, flags: u32, generation: u64, image: &[u8]) -> u64 {
    let mut data = Vec::with_capacity(16 + image.len());
    data.extend_from_slice(&pid.to_le_bytes());
    data.extend_from_slice(&flags.to_le_bytes());
    data.extend_from_slice(&generation.to_le_bytes());
    data.extend_from_slice(image);
    frame_hasher().hash(&data)
}

/// Append one encoded frame to `out`.
pub fn encode_frame(out: &mut Vec<u8>, pid: u32, commit: bool, generation: u64, image: &[u8]) {
    debug_assert_eq!(image.len(), PAGE_SIZE);
    let flags = if commit { FLAG_COMMIT } else { 0 };
    out.extend_from_slice(&pid.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&frame_checksum(pid, flags, generation, image).to_le_bytes());
    out.extend_from_slice(image);
}

/// What a recovery scan of the WAL bytes found.
pub struct WalScan {
    /// Latest committed image offset per page id (offset of the *image*
    /// within the WAL file, header included in the reckoning).
    pub index: HashMap<u32, u64>,
    /// Byte length of the valid committed prefix — the file should be
    /// truncated here; everything beyond is a torn or uncommitted tail.
    pub valid_len: u64,
    /// Generation carried by the last commit frame, if any.
    pub generation: Option<u64>,
    /// Committed frames in the valid prefix.
    pub frames: usize,
}

/// Scan raw WAL bytes: stop at the first invalid frame or stale COMMIT,
/// then keep only frames up to and including the last COMMIT.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut empty = WalScan {
        index: HashMap::new(),
        valid_len: WAL_HEADER as u64,
        generation: None,
        frames: 0,
    };
    if bytes.len() < WAL_HEADER || &bytes[0..8] != WAL_MAGIC {
        empty.valid_len = 0; // header itself is missing/bad: rewrite it
        return empty;
    }
    let page_size = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    if page_size != PAGE_SIZE {
        empty.valid_len = 0;
        return empty;
    }

    // First pass: find every checksum-valid frame in file order.
    let mut valid: Vec<(u32, u32, u64, u64)> = Vec::new(); // pid, flags, gen, image_off
    let mut off = WAL_HEADER;
    let mut committed: Option<u64> = None;
    while off + FRAME_SIZE <= bytes.len() {
        let pid = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let flags = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        let generation = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
        let stored = u64::from_le_bytes(bytes[off + 16..off + 24].try_into().unwrap());
        let image = &bytes[off + FRAME_HEADER..off + FRAME_SIZE];
        if stored != frame_checksum(pid, flags, generation, image) {
            break;
        }
        if flags & FLAG_COMMIT != 0 {
            if committed.is_some_and(|previous| generation <= previous) {
                break;
            }
            committed = Some(generation);
        }
        valid.push((pid, flags, generation, (off + FRAME_HEADER) as u64));
        off += FRAME_SIZE;
    }

    // Second pass: drop everything after the last commit frame.
    let last_commit = valid.iter().rposition(|f| f.1 & FLAG_COMMIT != 0);
    match last_commit {
        None => empty,
        Some(last) => {
            let mut index = HashMap::new();
            let mut generation = None;
            for &(pid, flags, gen, image_off) in &valid[..=last] {
                index.insert(pid, image_off);
                if flags & FLAG_COMMIT != 0 {
                    generation = Some(gen);
                }
            }
            WalScan {
                index,
                valid_len: (WAL_HEADER + (last + 1) * FRAME_SIZE) as u64,
                generation,
                frames: last + 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(b: u8) -> Vec<u8> {
        vec![b; PAGE_SIZE]
    }

    fn wal_with(frames: &[(u32, bool, u64)]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for &(pid, commit, gen) in frames {
            encode_frame(&mut bytes, pid, commit, gen, &image(pid as u8));
        }
        bytes
    }

    #[test]
    fn scan_keeps_only_the_committed_prefix() {
        let bytes = wal_with(&[(1, false, 0), (0, true, 7), (2, false, 0)]);
        let scan = scan(&bytes);
        assert_eq!(scan.frames, 2);
        assert_eq!(scan.generation, Some(7));
        assert_eq!(scan.valid_len as usize, WAL_HEADER + 2 * FRAME_SIZE);
        assert!(scan.index.contains_key(&1) && scan.index.contains_key(&0));
        assert!(!scan.index.contains_key(&2), "uncommitted frame dropped");
    }

    #[test]
    fn torn_tail_and_bit_flips_truncate_cleanly() {
        let full = wal_with(&[(1, false, 0), (0, true, 1), (2, false, 1), (0, true, 2)]);
        // Every physical prefix scans without panicking and never yields a
        // generation beyond what was committed within the prefix.
        for cut in 0..full.len() {
            let s = scan(&full[..cut]);
            assert!(s.generation.unwrap_or(0) <= 2);
            assert!(s.valid_len as usize <= cut.max(WAL_HEADER));
        }
        let mut flipped = full.clone();
        flipped[WAL_HEADER + FRAME_SIZE + 40] ^= 1; // corrupt second frame
        let s = scan(&flipped);
        assert_eq!(s.frames, 0, "commit after corruption must not count");
    }

    /// Transaction `a` (three frames, generation g+1) reached the file
    /// but its sync failed, so the store never adopted it; transaction `b`
    /// (two frames, generation g+1 again) then overwrote only `a`'s head.
    /// `a`'s third frame is checksum-valid and carries COMMIT — recovery
    /// must not replay it.
    #[test]
    fn stale_commit_past_a_shorter_successor_is_not_replayed() {
        let g = 41;
        let mut bytes = header_bytes().to_vec();
        encode_frame(&mut bytes, 1, false, g + 1, &image(0xB1));
        encode_frame(&mut bytes, 0, true, g + 1, &image(0xB2));
        encode_frame(&mut bytes, 3, true, g + 1, &image(0xA3));
        let s = scan(&bytes);
        assert_eq!(s.valid_len as usize, WAL_HEADER + 2 * FRAME_SIZE);
        assert_eq!(s.frames, 2);
        assert_eq!(s.generation, Some(g + 1));
        assert!(!s.index.contains_key(&3), "the orphan's page is dropped");
    }

    #[test]
    fn later_images_shadow_earlier_ones() {
        let mut bytes = header_bytes().to_vec();
        encode_frame(&mut bytes, 3, false, 0, &image(0xAA));
        encode_frame(&mut bytes, 0, true, 1, &image(0x01));
        encode_frame(&mut bytes, 3, false, 0, &image(0xBB));
        encode_frame(&mut bytes, 0, true, 2, &image(0x02));
        let s = scan(&bytes);
        let off = s.index[&3] as usize;
        assert_eq!(bytes[off], 0xBB);
        assert_eq!(s.generation, Some(2));
    }
}

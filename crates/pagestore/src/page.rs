//! On-disk page layout: parsing and serialization for every page kind.
//!
//! All multi-byte integers are little-endian. Every page is exactly
//! [`PAGE_SIZE`] bytes; the final 8 bytes are an XXH64 checksum of the
//! first `PAGE_SIZE - 8` bytes, seeded with a constant XOR the page id,
//! so a bit flip (or a page written to the wrong slot) is detected at read
//! time instead of being served as a wrong record. The checksum detects
//! corruption; it authenticates nothing (record values carry their own
//! `crypto::Volume` tag).
//!
//! Page 0 is the meta page; all other pages carry a type tag in byte 0:
//!
//! ```text
//! meta (page 0): magic "GPgS" | version u32 (2) | page_count u32 | root u32
//!                | free_head u32 | generation u64 | record_count u64
//!                | seal_counter u64
//! internal (2):  type u8 | nkeys u16 | child u32 × (nkeys+1)
//!                | (klen u16 | key bytes) × nkeys
//! leaf (3):      type u8 | next_leaf u32 | nentries u16 | entry × nentries
//!   entry:       klen u16 | key | flags u8 (bit0 deadline, bit1 overflow)
//!                | [deadline_ms u64] | inline: vlen u32 | value
//!                                    | overflow: total_len u32 | head u32
//! overflow (4):  type u8 | next u32 | len u32 | data
//! free (5):      type u8 | next_free u32
//! ```
//!
//! Format 1 had the same layout under a SipHash-2-4 checksum of (page id,
//! payload); `declared_version` lets `open` refuse such a directory
//! before it touches the WAL.
//!
//! A read lends a leaf's cells in place: [`leaf_cells`] records where each
//! cell's key and value sit in the image. Only the write path decodes a
//! leaf into owned entries ([`parse_leaf`]).

use crate::Error;

/// Fixed page size — everything on disk is an array of these.
pub const PAGE_SIZE: usize = 4096;
/// Usable bytes per page; the tail 8 bytes hold the page checksum.
pub const PAYLOAD: usize = PAGE_SIZE - 8;
/// Longest storable record key (tenant prefix included).
pub const KEY_MAX: usize = 512;
/// Values longer than this spill to an overflow chain. The bound keeps the
/// largest possible leaf entry under half a leaf, so a split of any legal
/// leaf always produces two halves that fit.
pub const INLINE_VALUE_MAX: usize = 1024;
/// Data bytes per overflow page (after type/next/len header).
pub const OVERFLOW_DATA: usize = PAYLOAD - 9;

pub const T_INTERNAL: u8 = 2;
pub const T_LEAF: u8 = 3;
pub const T_OVERFLOW: u8 = 4;
pub const T_FREE: u8 = 5;

const META_MAGIC: &[u8; 4] = b"GPgS";
/// The on-disk format this build reads and writes.
pub(crate) const META_VERSION: u32 = 2;

/// XOR-ed with the page id to seed a page's checksum.
const PAGE_SEED: u64 = 0x7061_6765_7374_6f72;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Streaming XXH64 (Collet's xxHash, 64-bit variant): four lanes over
/// 32-byte stripes, then the tail and the avalanche. Fed in one piece or
/// in many, it yields the same digest.
pub(crate) struct Xxh64 {
    seed: u64,
    lanes: [u64; 4],
    /// Bytes not yet folded into the lanes (less than a stripe).
    stripe: [u8; 32],
    buffered: usize,
    total: u64,
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(hash: u64, lane: u64) -> u64 {
    (hash ^ xxh_round(0, lane))
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

impl Xxh64 {
    pub(crate) fn new(seed: u64) -> Xxh64 {
        Xxh64 {
            seed,
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            stripe: [0; 32],
            buffered: 0,
            total: 0,
        }
    }

    fn fold(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = xxh_round(*lane, le64(&stripe[8 * i..]));
        }
    }

    pub(crate) fn write(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.buffered > 0 {
            let fill = (32 - self.buffered).min(data.len());
            self.stripe[self.buffered..self.buffered + fill].copy_from_slice(&data[..fill]);
            self.buffered += fill;
            data = &data[fill..];
            if self.buffered < 32 {
                return;
            }
            Self::fold(&mut self.lanes, &self.stripe);
            self.buffered = 0;
        }
        let mut stripes = data.chunks_exact(32);
        for stripe in &mut stripes {
            Self::fold(&mut self.lanes, stripe);
        }
        let rest = stripes.remainder();
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut hash = if self.total >= 32 {
            let [a, b, c, d] = self.lanes;
            let mut hash = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                hash = xxh_merge(hash, lane);
            }
            hash
        } else {
            self.seed.wrapping_add(P5)
        };
        hash = hash.wrapping_add(self.total);
        let mut tail = &self.stripe[..self.buffered];
        while tail.len() >= 8 {
            hash ^= xxh_round(0, le64(tail));
            hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
            hash ^= word.wrapping_mul(P1);
            hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            hash ^= (byte as u64).wrapping_mul(P5);
            hash = hash.rotate_left(11).wrapping_mul(P1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(P2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(P3);
        hash ^ (hash >> 32)
    }
}

/// XXH64 of `data` under `seed`.
fn xxh64(seed: u64, data: &[u8]) -> u64 {
    let mut hasher = Xxh64::new(seed);
    hasher.write(data);
    hasher.finish()
}

/// Checksum of a page's payload. The seed binds the page id, so an image
/// laid down at the wrong offset fails as surely as a flipped bit.
pub fn page_checksum(pid: u32, payload: &[u8]) -> u64 {
    xxh64(PAGE_SEED ^ pid as u64, payload)
}

/// Stamp the trailing checksum into a full page image.
pub fn seal_page(pid: u32, image: &mut [u8]) {
    debug_assert_eq!(image.len(), PAGE_SIZE);
    let sum = page_checksum(pid, &image[..PAYLOAD]);
    image[PAYLOAD..].copy_from_slice(&sum.to_le_bytes());
}

/// Verify a page image read from the data file.
pub fn verify_page(pid: u32, image: &[u8]) -> Result<(), Error> {
    if image.len() != PAGE_SIZE {
        return Err(Error::corrupt(format!("page {pid}: short image")));
    }
    let stored = u64::from_le_bytes(image[PAYLOAD..].try_into().unwrap());
    if stored != page_checksum(pid, &image[..PAYLOAD]) {
        return Err(Error::corrupt(format!("page {pid}: checksum mismatch")));
    }
    Ok(())
}

/// The format version a meta image's header declares, read without
/// verifying the checksum (an older format's checksum is not this
/// build's to check); `None` when the header is not a meta header.
pub(crate) fn declared_version(header: &[u8]) -> Option<u32> {
    let version = header.get(4..8)?;
    (header[..4] == *META_MAGIC).then(|| u32::from_le_bytes(version.try_into().unwrap()))
}

/// The meta page's parsed fields — the whole store state that is not in
/// tree pages. It is written through the WAL on every commit like any
/// other page, so a torn meta write is recoverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// Pages allocated so far, including this meta page.
    pub page_count: u32,
    /// Root of the B+tree; 0 (the meta page itself) means "empty tree".
    pub root: u32,
    /// Head of the free-page list; 0 means none.
    pub free_head: u32,
    /// Logical mutation generation — see `PageStore::generation`.
    pub generation: u64,
    /// Live entries in the tree, *including* expired-but-unreaped ones
    /// (mirrors the key-value store's `DBSIZE`).
    pub record_count: u64,
    /// Monotone nonce counter for at-rest value sealing.
    pub seal_counter: u64,
}

impl Meta {
    pub fn fresh() -> Meta {
        Meta {
            page_count: 1,
            root: 0,
            free_head: 0,
            generation: 0,
            record_count: 0,
            seal_counter: 0,
        }
    }

    pub fn serialize(&self) -> Vec<u8> {
        let mut image = vec![0u8; PAGE_SIZE];
        image[0..4].copy_from_slice(META_MAGIC);
        image[4..8].copy_from_slice(&META_VERSION.to_le_bytes());
        image[8..12].copy_from_slice(&self.page_count.to_le_bytes());
        image[12..16].copy_from_slice(&self.root.to_le_bytes());
        image[16..20].copy_from_slice(&self.free_head.to_le_bytes());
        image[20..28].copy_from_slice(&self.generation.to_le_bytes());
        image[28..36].copy_from_slice(&self.record_count.to_le_bytes());
        image[36..44].copy_from_slice(&self.seal_counter.to_le_bytes());
        seal_page(0, &mut image);
        image
    }

    pub fn parse(image: &[u8]) -> Result<Meta, Error> {
        verify_page(0, image)?;
        if &image[0..4] != META_MAGIC {
            return Err(Error::corrupt("meta page: bad magic"));
        }
        let version = u32::from_le_bytes(image[4..8].try_into().unwrap());
        if version != META_VERSION {
            return Err(Error::corrupt(format!("meta page: version {version}")));
        }
        Ok(Meta {
            page_count: u32::from_le_bytes(image[8..12].try_into().unwrap()),
            root: u32::from_le_bytes(image[12..16].try_into().unwrap()),
            free_head: u32::from_le_bytes(image[16..20].try_into().unwrap()),
            generation: u64::from_le_bytes(image[20..28].try_into().unwrap()),
            record_count: u64::from_le_bytes(image[28..36].try_into().unwrap()),
            seal_counter: u64::from_le_bytes(image[36..44].try_into().unwrap()),
        })
    }
}

/// Where a leaf entry's value bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueRef {
    Inline(Vec<u8>),
    Overflow { total_len: u32, head: u32 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafEntry {
    pub key: Vec<u8>,
    pub deadline_ms: Option<u64>,
    pub value: ValueRef,
}

impl LeafEntry {
    pub fn size(&self) -> usize {
        2 + self.key.len()
            + 1
            + if self.deadline_ms.is_some() { 8 } else { 0 }
            + match &self.value {
                ValueRef::Inline(v) => 4 + v.len(),
                ValueRef::Overflow { .. } => 8,
            }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Leaf {
    pub next: u32,
    pub entries: Vec<LeafEntry>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Internal {
    /// `keys.len() + 1 == children.len()`; `children[i]` holds keys `k`
    /// with `keys[i-1] <= k < keys[i]` (separator = smallest key of the
    /// right subtree).
    pub keys: Vec<Vec<u8>>,
    pub children: Vec<u32>,
}

const FLAG_DEADLINE: u8 = 1;
const FLAG_OVERFLOW: u8 = 2;

/// Bounds-checked little-endian readers — corrupt pages must produce
/// [`Error::Corrupt`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    pid: u32,
}

impl<'a> Reader<'a> {
    fn new(pid: u32, buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, pid }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(Error::corrupt(format!(
                "page {}: truncated field",
                self.pid
            ))),
        }
    }
    /// `take`, as the offsets of the taken bytes (pages are far below
    /// `u32::MAX` bytes).
    fn span(&mut self, n: usize) -> Result<(u32, u32), Error> {
        self.take(n)?;
        Ok(((self.pos - n) as u32, self.pos as u32))
    }
    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

pub fn page_type(pid: u32, image: &[u8]) -> Result<u8, Error> {
    image
        .first()
        .copied()
        .ok_or_else(|| Error::corrupt(format!("page {pid}: empty image")))
}

pub fn serialize_leaf(pid: u32, leaf: &Leaf) -> Vec<u8> {
    let mut image = vec![0u8; PAGE_SIZE];
    image[0] = T_LEAF;
    image[1..5].copy_from_slice(&leaf.next.to_le_bytes());
    image[5..7].copy_from_slice(&(leaf.entries.len() as u16).to_le_bytes());
    let mut pos = 7;
    for e in &leaf.entries {
        image[pos..pos + 2].copy_from_slice(&(e.key.len() as u16).to_le_bytes());
        pos += 2;
        image[pos..pos + e.key.len()].copy_from_slice(&e.key);
        pos += e.key.len();
        let mut flags = 0u8;
        if e.deadline_ms.is_some() {
            flags |= FLAG_DEADLINE;
        }
        if matches!(e.value, ValueRef::Overflow { .. }) {
            flags |= FLAG_OVERFLOW;
        }
        image[pos] = flags;
        pos += 1;
        if let Some(dl) = e.deadline_ms {
            image[pos..pos + 8].copy_from_slice(&dl.to_le_bytes());
            pos += 8;
        }
        match &e.value {
            ValueRef::Inline(v) => {
                image[pos..pos + 4].copy_from_slice(&(v.len() as u32).to_le_bytes());
                pos += 4;
                image[pos..pos + v.len()].copy_from_slice(v);
                pos += v.len();
            }
            ValueRef::Overflow { total_len, head } => {
                image[pos..pos + 4].copy_from_slice(&total_len.to_le_bytes());
                image[pos + 4..pos + 8].copy_from_slice(&head.to_le_bytes());
                pos += 8;
            }
        }
    }
    debug_assert!(pos <= PAYLOAD, "leaf {pid} overflows payload: {pos}");
    seal_page(pid, &mut image);
    image
}

/// Where one leaf cell sits in its page image: what [`leaf_cells`] lends
/// a read instead of an owned [`LeafEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef {
    key_start: u32,
    key_end: u32,
    pub deadline_ms: Option<u64>,
    pub value: CellValue,
}

/// Where a cell's value bytes live: a span of the image, or a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellValue {
    Inline { start: u32, end: u32 },
    Overflow { total_len: u32, head: u32 },
}

impl CellRef {
    /// The cell's key, out of the image its cell list was made from.
    pub fn key<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.key_start as usize..self.key_end as usize]
    }

    /// The owned entry [`parse_leaf`] makes of this cell.
    fn to_entry(self, image: &[u8]) -> LeafEntry {
        LeafEntry {
            key: self.key(image).to_vec(),
            deadline_ms: self.deadline_ms,
            value: match self.value {
                CellValue::Inline { start, end } => {
                    ValueRef::Inline(image[start as usize..end as usize].to_vec())
                }
                CellValue::Overflow { total_len, head } => ValueRef::Overflow { total_len, head },
            },
        }
    }
}

/// Walk a leaf image's cells in place: `cells` is cleared and filled with
/// where each cell's key and value sit, in key order, and the next leaf's
/// page id is returned. Every field is bounds-checked, so a corrupt image
/// is an error, never a panic or a span past the payload.
pub fn leaf_cells(pid: u32, image: &[u8], cells: &mut Vec<CellRef>) -> Result<u32, Error> {
    cells.clear();
    let mut r = Reader::new(pid, &image[..image.len().min(PAYLOAD)]);
    if r.u8()? != T_LEAF {
        return Err(Error::corrupt(format!("page {pid}: expected leaf")));
    }
    let next = r.u32()?;
    let count = r.u16()? as usize;
    if count > PAYLOAD {
        return Err(Error::corrupt(format!("page {pid}: leaf count {count}")));
    }
    cells.reserve(count.min(1024));
    for _ in 0..count {
        let klen = r.u16()? as usize;
        if klen > KEY_MAX {
            return Err(Error::corrupt(format!("page {pid}: key length {klen}")));
        }
        let (key_start, key_end) = r.span(klen)?;
        let flags = r.u8()?;
        let deadline_ms = if flags & FLAG_DEADLINE != 0 {
            Some(r.u64()?)
        } else {
            None
        };
        let value = if flags & FLAG_OVERFLOW != 0 {
            CellValue::Overflow {
                total_len: r.u32()?,
                head: r.u32()?,
            }
        } else {
            let vlen = r.u32()? as usize;
            if vlen > PAYLOAD {
                return Err(Error::corrupt(format!("page {pid}: inline value {vlen}")));
            }
            let (start, end) = r.span(vlen)?;
            CellValue::Inline { start, end }
        };
        cells.push(CellRef {
            key_start,
            key_end,
            deadline_ms,
            value,
        });
    }
    Ok(next)
}

/// The leaf decoded into owned entries — the write path's form.
pub fn parse_leaf(pid: u32, image: &[u8]) -> Result<Leaf, Error> {
    let mut cells = Vec::new();
    let next = leaf_cells(pid, image, &mut cells)?;
    let entries = cells.iter().map(|cell| cell.to_entry(image)).collect();
    Ok(Leaf { next, entries })
}

pub fn leaf_size(leaf: &Leaf) -> usize {
    7 + leaf.entries.iter().map(LeafEntry::size).sum::<usize>()
}

pub fn serialize_internal(pid: u32, node: &Internal) -> Vec<u8> {
    debug_assert_eq!(node.children.len(), node.keys.len() + 1);
    let mut image = vec![0u8; PAGE_SIZE];
    image[0] = T_INTERNAL;
    image[1..3].copy_from_slice(&(node.keys.len() as u16).to_le_bytes());
    let mut pos = 3;
    for child in &node.children {
        image[pos..pos + 4].copy_from_slice(&child.to_le_bytes());
        pos += 4;
    }
    for key in &node.keys {
        image[pos..pos + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        pos += 2;
        image[pos..pos + key.len()].copy_from_slice(key);
        pos += key.len();
    }
    debug_assert!(pos <= PAYLOAD, "internal {pid} overflows payload: {pos}");
    seal_page(pid, &mut image);
    image
}

pub fn parse_internal(pid: u32, image: &[u8]) -> Result<Internal, Error> {
    let mut r = Reader::new(pid, &image[..image.len().min(PAYLOAD)]);
    if r.u8()? != T_INTERNAL {
        return Err(Error::corrupt(format!("page {pid}: expected internal")));
    }
    let nkeys = r.u16()? as usize;
    if nkeys > PAYLOAD / 6 {
        return Err(Error::corrupt(format!("page {pid}: nkeys {nkeys}")));
    }
    let mut children = Vec::with_capacity(nkeys + 1);
    for _ in 0..=nkeys {
        children.push(r.u32()?);
    }
    let mut keys = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let klen = r.u16()? as usize;
        if klen > KEY_MAX {
            return Err(Error::corrupt(format!("page {pid}: key length {klen}")));
        }
        keys.push(r.take(klen)?.to_vec());
    }
    Ok(Internal { keys, children })
}

pub fn internal_size(node: &Internal) -> usize {
    3 + 4 * node.children.len() + node.keys.iter().map(|k| 2 + k.len()).sum::<usize>()
}

pub fn serialize_overflow(pid: u32, next: u32, data: &[u8]) -> Vec<u8> {
    debug_assert!(data.len() <= OVERFLOW_DATA);
    let mut image = vec![0u8; PAGE_SIZE];
    image[0] = T_OVERFLOW;
    image[1..5].copy_from_slice(&next.to_le_bytes());
    image[5..9].copy_from_slice(&(data.len() as u32).to_le_bytes());
    image[9..9 + data.len()].copy_from_slice(data);
    seal_page(pid, &mut image);
    image
}

pub fn parse_overflow(pid: u32, image: &[u8]) -> Result<(u32, Vec<u8>), Error> {
    let mut r = Reader::new(pid, &image[..image.len().min(PAYLOAD)]);
    if r.u8()? != T_OVERFLOW {
        return Err(Error::corrupt(format!("page {pid}: expected overflow")));
    }
    let next = r.u32()?;
    let len = r.u32()? as usize;
    if len > OVERFLOW_DATA {
        return Err(Error::corrupt(format!("page {pid}: overflow len {len}")));
    }
    Ok((next, r.take(len)?.to_vec()))
}

pub fn serialize_free(pid: u32, next_free: u32) -> Vec<u8> {
    let mut image = vec![0u8; PAGE_SIZE];
    image[0] = T_FREE;
    image[1..5].copy_from_slice(&next_free.to_le_bytes());
    seal_page(pid, &mut image);
    image
}

pub fn parse_free(pid: u32, image: &[u8]) -> Result<u32, Error> {
    let mut r = Reader::new(pid, &image[..image.len().min(PAYLOAD)]);
    if r.u8()? != T_FREE {
        return Err(Error::corrupt(format!("page {pid}: expected free page")));
    }
    r.u32()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip_and_size_agree() {
        let leaf = Leaf {
            next: 7,
            entries: vec![
                LeafEntry {
                    key: b"k1".to_vec(),
                    deadline_ms: Some(42),
                    value: ValueRef::Inline(b"hello".to_vec()),
                },
                LeafEntry {
                    key: b"k2".to_vec(),
                    deadline_ms: None,
                    value: ValueRef::Overflow {
                        total_len: 9000,
                        head: 3,
                    },
                },
            ],
        };
        let image = serialize_leaf(5, &leaf);
        verify_page(5, &image).unwrap();
        let back = parse_leaf(5, &image).unwrap();
        assert_eq!(back.next, 7);
        assert_eq!(back.entries, leaf.entries);
        assert!(leaf_size(&leaf) < PAYLOAD);

        let mut cells = vec![CellRef {
            key_start: 0,
            key_end: 0,
            deadline_ms: None,
            value: CellValue::Overflow {
                total_len: 0,
                head: 0,
            },
        }];
        assert_eq!(leaf_cells(5, &image, &mut cells).unwrap(), 7);
        let lent: Vec<LeafEntry> = cells.iter().map(|c| c.to_entry(&image)).collect();
        assert_eq!(lent, leaf.entries, "the walk clears and refills the list");
        assert_eq!(cells[0].key(&image), b"k1");
        assert_eq!(
            cells[0].value,
            CellValue::Inline {
                start: 7 + 2 + 2 + 1 + 8 + 4,
                end: 7 + 2 + 2 + 1 + 8 + 4 + 5,
            }
        );
    }

    /// The reference vectors at seed 0; the last is longer than one
    /// 32-byte stripe.
    #[test]
    fn xxh64_matches_the_reference_vectors() {
        let vectors: [(&[u8], u64); 4] = [
            (b"", 0xEF46_DB37_51D8_E999),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (b"xxhash", 0x32DD_3895_2C4B_C720),
            (
                b"Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(
                xxh64(0, input),
                want,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn xxh64_streamed_in_pieces_matches_one_shot() {
        let data: Vec<u8> = (0..PAGE_SIZE as u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 31, 32, 33, 100, PAGE_SIZE] {
            let whole = xxh64(9, &data[..len]);
            for split in 0..=len.min(70) {
                let mut hasher = Xxh64::new(9);
                hasher.write(&data[..split]);
                hasher.write(&data[split..len]);
                assert_eq!(hasher.finish(), whole, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn declared_version_reads_an_unverified_meta_header() {
        let mut image = Meta::fresh().serialize();
        assert_eq!(declared_version(&image), Some(META_VERSION));
        image[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(declared_version(&image[..8]), Some(1));
        assert_eq!(declared_version(&image[..7]), None);
        image[0] ^= 1;
        assert_eq!(declared_version(&image), None);
    }

    #[test]
    fn internal_and_meta_roundtrip() {
        let node = Internal {
            keys: vec![b"m".to_vec()],
            children: vec![1, 2],
        };
        let image = serialize_internal(9, &node);
        let back = parse_internal(9, &image).unwrap();
        assert_eq!(back.keys, node.keys);
        assert_eq!(back.children, node.children);

        let meta = Meta {
            page_count: 10,
            root: 3,
            free_head: 4,
            generation: 99,
            record_count: 6,
            seal_counter: 12,
        };
        assert_eq!(Meta::parse(&meta.serialize()).unwrap(), meta);
    }

    #[test]
    fn flipped_bit_is_detected() {
        let mut image = serialize_free(11, 0);
        image[100] ^= 0x40;
        assert!(verify_page(11, &image).is_err());
        // and a correct image written under the wrong id is also rejected
        let image = serialize_free(11, 0);
        assert!(verify_page(12, &image).is_err());
    }

    #[test]
    fn parsers_never_panic_on_garbage() {
        let mut garbage = vec![0xA5u8; PAGE_SIZE];
        for t in [T_LEAF, T_INTERNAL, T_OVERFLOW, T_FREE] {
            garbage[0] = t;
            let _ = parse_leaf(1, &garbage);
            let _ = leaf_cells(1, &garbage, &mut Vec::new());
            let _ = parse_internal(1, &garbage);
            let _ = parse_overflow(1, &garbage);
            let _ = parse_free(1, &garbage);
        }
        let _ = Meta::parse(&garbage);
        let _ = Meta::parse(&[]);
        let _ = parse_leaf(1, &[]);
        let _ = leaf_cells(1, &[], &mut Vec::new());
        // A walk over a truncated leaf stops at the payload, whatever the
        // counts say.
        let mut leaf = vec![0u8; PAGE_SIZE];
        leaf[0] = T_LEAF;
        leaf[5..7].copy_from_slice(&1u16.to_le_bytes());
        leaf[7..9].copy_from_slice(&8u16.to_le_bytes());
        for cut in 0..40 {
            let _ = leaf_cells(1, &leaf[..cut], &mut Vec::new());
        }
        leaf[9 + 8] = 0; // flags
        leaf[18..22].copy_from_slice(&(PAYLOAD as u32).to_le_bytes());
        assert!(leaf_cells(1, &leaf, &mut Vec::new()).is_err());
    }
}

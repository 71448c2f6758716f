//! Fixed-capacity buffer pool with clock (second-chance) eviction.
//!
//! The pool only ever holds *clean* pages: mutations accumulate in an
//! op-local transaction map and are installed here after their WAL frames
//! are durable, so eviction is a plain drop — no write-back path exists to
//! get wrong. Pages are pinned only while being parsed; every public store
//! op returns with the pin count back at zero (asserted by the
//! eviction-pressure suite).

use std::collections::HashMap;
use std::sync::Arc;

pub type PageImage = Arc<Vec<u8>>;

struct Slot {
    data: PageImage,
    referenced: bool,
    pins: u32,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub capacity: usize,
    pub resident: usize,
    pub pinned: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

pub struct Pool {
    cap: usize,
    slots: HashMap<u32, Slot>,
    /// Clock ring of resident page ids; order is approximate (eviction
    /// swap-removes), which is fine for second-chance.
    ring: Vec<u32>,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    pinned: usize,
}

impl Pool {
    pub fn new(cap: usize) -> Pool {
        // Room for at least a parse pin plus one probe.
        let cap = cap.max(2);
        Pool {
            cap,
            slots: HashMap::with_capacity(cap),
            ring: Vec::with_capacity(cap),
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            pinned: 0,
        }
    }

    pub fn get(&mut self, pid: u32) -> Option<PageImage> {
        match self.slots.get_mut(&pid) {
            Some(slot) => {
                slot.referenced = true;
                self.hits += 1;
                Some(Arc::clone(&slot.data))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a clean page, evicting unpinned pages as needed
    /// to stay within capacity. If every resident page is pinned the pool
    /// temporarily overflows rather than fail — pins are parse-scoped so
    /// the overshoot is bounded by one op's footprint.
    pub fn insert(&mut self, pid: u32, data: PageImage) {
        if let Some(slot) = self.slots.get_mut(&pid) {
            slot.data = data;
            slot.referenced = true;
            return;
        }
        while self.slots.len() >= self.cap {
            if !self.evict_one() {
                break;
            }
        }
        self.slots.insert(
            pid,
            Slot {
                data,
                referenced: true,
                pins: 0,
            },
        );
        self.ring.push(pid);
    }

    /// Install a just-committed image **without evicting**: refresh it in
    /// place when resident, take a free slot when there is one, otherwise
    /// drop it — the page stays readable through the WAL index. A
    /// transaction that dirtied more pages than the pool holds therefore
    /// cannot push out the root and internal pages the next operation
    /// descends through.
    pub fn install_committed(&mut self, pid: u32, data: PageImage) {
        if self.slots.contains_key(&pid) || self.slots.len() < self.cap {
            self.insert(pid, data);
        }
    }

    fn evict_one(&mut self) -> bool {
        let mut scanned = 0;
        let limit = 2 * self.ring.len() + 1;
        while scanned < limit && !self.ring.is_empty() {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let pid = self.ring[self.hand];
            let slot = self.slots.get_mut(&pid).expect("ring entry has a slot");
            if slot.pins > 0 {
                self.hand += 1;
            } else if slot.referenced {
                slot.referenced = false;
                self.hand += 1;
            } else {
                self.ring.swap_remove(self.hand);
                self.slots.remove(&pid);
                self.evictions += 1;
                return true;
            }
            scanned += 1;
        }
        false
    }

    pub fn pin(&mut self, pid: u32) {
        if let Some(slot) = self.slots.get_mut(&pid) {
            slot.pins += 1;
            self.pinned += 1;
        }
    }

    pub fn unpin(&mut self, pid: u32) {
        if let Some(slot) = self.slots.get_mut(&pid) {
            debug_assert!(slot.pins > 0, "unpin of unpinned page {pid}");
            if slot.pins > 0 {
                slot.pins -= 1;
                self.pinned -= 1;
            }
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.cap,
            resident: self.slots.len(),
            pinned: self.pinned,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(b: u8) -> PageImage {
        Arc::new(vec![b; 8])
    }

    #[test]
    fn capacity_is_enforced_by_eviction() {
        let mut pool = Pool::new(4);
        for pid in 1..=10u32 {
            pool.insert(pid, img(pid as u8));
        }
        let stats = pool.stats();
        assert_eq!(stats.resident, 4);
        assert_eq!(stats.evictions, 6);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let mut pool = Pool::new(2);
        pool.insert(1, img(1));
        pool.pin(1);
        for pid in 2..=8u32 {
            pool.insert(pid, img(pid as u8));
        }
        assert!(pool.get(1).is_some(), "pinned page must not be evicted");
        pool.unpin(1);
        assert_eq!(pool.stats().pinned, 0);
    }

    #[test]
    fn committed_images_refresh_or_fill_but_never_evict() {
        let mut pool = Pool::new(2);
        pool.install_committed(1, img(1));
        pool.install_committed(2, img(2));
        pool.install_committed(3, img(3));
        assert!(pool.get(3).is_none(), "a full pool drops the new image");
        pool.install_committed(1, img(9));
        assert_eq!(pool.get(1).unwrap()[0], 9, "a resident page is refreshed");
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn second_chance_prefers_cold_pages() {
        let mut pool = Pool::new(3);
        pool.insert(1, img(1));
        pool.insert(2, img(2));
        pool.insert(3, img(3));
        // Touch 1 and 3 so page 2 is the coldest.
        pool.get(1);
        pool.get(3);
        // One full clock sweep clears reference bits; the next insert must
        // evict an unreferenced page, and 2 goes cold first.
        pool.insert(4, img(4));
        pool.insert(5, img(5));
        assert_eq!(pool.stats().resident, 3);
    }
}

//! An indexed set supporting O(1) insert, remove, membership, and uniform
//! random sampling.
//!
//! Redis keeps the keys-with-expiry in a dict it can sample randomly
//! (`dictGetRandomKey`). A plain `HashMap` cannot be sampled in O(1), so the
//! store pairs a dense `Vec` of elements with a position map; removal
//! swap-removes and patches the displaced element's index, so positions
//! move and are no cursors. The keyspace keeps one: the keys with a
//! deadline, which the lazy expiration cycle samples and the strict one
//! walks.

use crate::rng::XorShift64;
use std::collections::HashMap;
use std::hash::Hash;

/// A set over `T` with O(1) uniform random sampling.
#[derive(Debug, Clone, Default)]
pub struct SampleSet<T: Eq + Hash + Clone> {
    items: Vec<T>,
    pos: HashMap<T, usize>,
}

impl<T: Eq + Hash + Clone> SampleSet<T> {
    pub fn new() -> Self {
        SampleSet {
            items: Vec::new(),
            pos: HashMap::new(),
        }
    }

    /// Insert `item`; returns `true` if it was not already present.
    pub fn insert(&mut self, item: T) -> bool {
        if self.pos.contains_key(&item) {
            return false;
        }
        self.pos.insert(item.clone(), self.items.len());
        self.items.push(item);
        true
    }

    /// Remove `item`; returns `true` if it was present.
    pub fn remove(&mut self, item: &T) -> bool {
        let Some(idx) = self.pos.remove(item) else {
            return false;
        };
        let last = self.items.len() - 1;
        self.items.swap(idx, last);
        self.items.pop();
        if idx < self.items.len() {
            // Patch the index of the element that was swapped into `idx`.
            *self
                .pos
                .get_mut(&self.items[idx])
                .expect("swapped element indexed") = idx;
        }
        true
    }

    pub fn contains(&self, item: &T) -> bool {
        self.pos.contains_key(item)
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Uniformly random element, or `None` if empty.
    pub fn sample(&self, rng: &mut XorShift64) -> Option<&T> {
        if self.items.is_empty() {
            None
        } else {
            Some(&self.items[rng.next_below(self.items.len())])
        }
    }

    /// Iterate all elements in dense order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SampleSet::new();
        assert!(s.insert("a"));
        assert!(!s.insert("a"), "duplicate insert must be rejected");
        assert!(s.insert("b"));
        assert!(s.contains(&"a"));
        assert!(s.remove(&"a"));
        assert!(!s.remove(&"a"));
        assert!(!s.contains(&"a"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn swap_remove_keeps_indices_consistent() {
        let mut s = SampleSet::new();
        for i in 0..100 {
            s.insert(i);
        }
        // Remove from the middle repeatedly; every remaining element must
        // still be findable and removable.
        for i in (0..100).step_by(3) {
            assert!(s.remove(&i));
        }
        for i in 0..100 {
            assert_eq!(s.contains(&i), i % 3 != 0);
        }
        for i in 0..100 {
            if i % 3 != 0 {
                assert!(s.remove(&i), "element {i} lost after swap-removals");
            }
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sample_is_uniformish() {
        let mut s = SampleSet::new();
        for i in 0..10 {
            s.insert(i);
        }
        let mut rng = XorShift64::new(123);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[*s.sample(&mut rng).unwrap()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!((700..1300).contains(&count), "element {i} skewed: {count}");
        }
    }

    #[test]
    fn sample_of_empty_is_none() {
        let s: SampleSet<u32> = SampleSet::new();
        assert!(s.sample(&mut XorShift64::new(1)).is_none());
    }

    #[test]
    fn iter_yields_all() {
        let mut s = SampleSet::new();
        for i in 0..5 {
            s.insert(i);
        }
        let mut got: Vec<_> = s.iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}

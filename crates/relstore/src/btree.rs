//! A B+Tree with leaf-level posting lists — the index structure behind
//! PostgreSQL-style secondary indices.
//!
//! Keys live in internal nodes as separators and in leaves with their posting
//! lists (the row ids holding that key — secondary indices are non-unique).
//! Deletion is *lazy*: entries are removed from leaves but underfull pages
//! are not merged, mirroring PostgreSQL's B-tree behaviour where page
//! reclamation is deferred to vacuum. The uniqueness constraint for primary
//! keys is enforced one level up, in [`crate::index`].

/// Maximum keys per node before it splits.
const ORDER: usize = 32;

enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        /// Posting list per key, parallel to `keys`.
        postings: Vec<Vec<V>>,
    },
    Internal {
        /// `separators[i]` is the smallest key reachable via `children[i+1]`.
        separators: Vec<K>,
        // Boxed so that inserting into `children` moves one pointer rather
        // than a ~56-byte node, which matters during splits.
        #[allow(clippy::vec_box)]
        children: Vec<Box<Node<K, V>>>,
    },
}

/// A B+Tree mapping keys to posting lists of values.
pub struct BPlusTree<K, V> {
    root: Box<Node<K, V>>,
    entries: usize,
}

impl<K: Ord + Clone, V: Clone + PartialEq> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> BPlusTree<K, V> {
    pub fn new() -> Self {
        BPlusTree {
            root: Box::new(Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
            }),
            entries: 0,
        }
    }

    /// Number of (key, value) entries across all posting lists.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert `value` into `key`'s posting list. Duplicate (key, value)
    /// pairs are ignored. Returns `true` if the entry was inserted.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let (inserted, split) = Self::insert_rec(&mut self.root, key, value);
        if let Some((sep, right)) = split {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(
                &mut self.root,
                Box::new(Node::Internal {
                    separators: vec![sep],
                    children: Vec::new(),
                }),
            );
            if let Node::Internal { children, .. } = self.root.as_mut() {
                children.push(old_root);
                children.push(right);
            }
        }
        if inserted {
            self.entries += 1;
        }
        inserted
    }

    /// Returns (entry_inserted, split).
    #[allow(clippy::type_complexity)]
    fn insert_rec(node: &mut Node<K, V>, key: K, value: V) -> (bool, Option<(K, Box<Node<K, V>>)>) {
        match node {
            Node::Leaf { keys, postings } => match keys.binary_search(&key) {
                Ok(i) => {
                    if postings[i].contains(&value) {
                        return (false, None);
                    }
                    postings[i].push(value);
                    (true, None)
                }
                Err(i) => {
                    keys.insert(i, key);
                    postings.insert(i, vec![value]);
                    let split = if keys.len() > ORDER {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_postings = postings.split_off(mid);
                        let sep = right_keys[0].clone();
                        (Some((
                            sep,
                            Box::new(Node::Leaf {
                                keys: right_keys,
                                postings: right_postings,
                            }),
                        ))) as Option<(K, Box<Node<K, V>>)>
                    } else {
                        None
                    };
                    (true, split)
                }
            },
            Node::Internal {
                separators,
                children,
            } => {
                let idx = match separators.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let (inserted, child_split) = Self::insert_rec(&mut children[idx], key, value);
                let mut split = None;
                if let Some((sep, right)) = child_split {
                    separators.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if separators.len() > ORDER {
                        let mid = separators.len() / 2;
                        // Promote the median; right node takes what follows.
                        let right_separators = separators.split_off(mid + 1);
                        let promoted = separators.pop().expect("non-empty after split_off");
                        let right_children = children.split_off(mid + 1);
                        split = Some((
                            promoted,
                            Box::new(Node::Internal {
                                separators: right_separators,
                                children: right_children,
                            }),
                        ));
                    }
                }
                (inserted, split)
            }
        }
    }

    /// Remove `value` from `key`'s posting list. Returns `true` if removed.
    pub fn remove(&mut self, key: &K, value: &V) -> bool {
        let removed = Self::remove_rec(&mut self.root, key, value);
        if removed {
            self.entries -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node<K, V>, key: &K, value: &V) -> bool {
        match node {
            Node::Leaf { keys, postings } => match keys.binary_search(key) {
                Ok(i) => {
                    let Some(pos) = postings[i].iter().position(|v| v == value) else {
                        return false;
                    };
                    postings[i].swap_remove(pos);
                    if postings[i].is_empty() {
                        keys.remove(i);
                        postings.remove(i);
                    }
                    true
                }
                Err(_) => false,
            },
            Node::Internal {
                separators,
                children,
            } => {
                let idx = match separators.binary_search(key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                Self::remove_rec(&mut children[idx], key, value)
            }
        }
    }

    /// The posting list for `key` (empty if absent).
    pub fn get(&self, key: &K) -> &[V] {
        let mut node = self.root.as_ref();
        loop {
            match node {
                Node::Leaf { keys, postings } => {
                    return match keys.binary_search(key) {
                        Ok(i) => &postings[i],
                        Err(_) => &[],
                    };
                }
                Node::Internal {
                    separators,
                    children,
                } => {
                    let idx = match separators.binary_search(key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = &children[idx];
                }
            }
        }
    }

    /// All (key, value) entries with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        self.range_limit(lo, hi, usize::MAX)
    }

    /// As [`Self::range`], stopping once `limit` entries are collected —
    /// the ORDER BY ... LIMIT path, O(log n + limit).
    pub fn range_limit(&self, lo: &K, hi: &K, limit: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        Self::range_rec(&self.root, lo, hi, limit, &mut out);
        out
    }

    fn range_rec(node: &Node<K, V>, lo: &K, hi: &K, limit: usize, out: &mut Vec<(K, V)>) {
        match node {
            Node::Leaf { keys, postings } => {
                let start = keys.partition_point(|k| k < lo);
                for i in start..keys.len() {
                    if &keys[i] > hi || out.len() >= limit {
                        break;
                    }
                    for v in &postings[i] {
                        out.push((keys[i].clone(), v.clone()));
                    }
                }
            }
            Node::Internal {
                separators,
                children,
            } => {
                // `separators[i]` is the smallest key under `children[i+1]`,
                // so keys == lo live in child `partition_point(s <= lo)` and
                // the last child that can hold keys <= hi is
                // `partition_point(s <= hi)`. Leaves re-check exact bounds.
                let start = separators.partition_point(|s| s <= lo);
                let end = separators.partition_point(|s| s <= hi);
                for child in &children[start..=end] {
                    if out.len() >= limit {
                        break;
                    }
                    Self::range_rec(child, lo, hi, limit, out);
                }
            }
        }
    }

    /// Number of distinct keys.
    #[cfg(test)]
    fn key_count(&self) -> usize {
        let mut keys: Vec<K> = self.iter_all().into_iter().map(|(k, _)| k).collect();
        keys.dedup();
        keys.len()
    }

    /// Every entry, in key order.
    #[cfg(test)]
    fn iter_all(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        Self::collect_all(&self.root, &mut out);
        out
    }

    #[cfg(test)]
    fn collect_all(node: &Node<K, V>, out: &mut Vec<(K, V)>) {
        match node {
            Node::Leaf { keys, postings } => {
                for (k, plist) in keys.iter().zip(postings) {
                    for v in plist {
                        out.push((k.clone(), v.clone()));
                    }
                }
            }
            Node::Internal { children, .. } => {
                for child in children {
                    Self::collect_all(child, out);
                }
            }
        }
    }

    /// Depth of the tree (1 = just a root leaf). Exposed for tests and
    /// stats; a tree of n keys should have depth O(log n).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = self.root.as_ref();
        while let Node::Internal { children, .. } = node {
            d += 1;
            node = &children[0];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get() {
        let mut t = BPlusTree::new();
        assert!(t.insert(5, 50));
        assert!(t.insert(5, 51));
        assert!(!t.insert(5, 50), "duplicate entry rejected");
        assert!(t.insert(3, 30));
        assert_eq!(t.get(&5), &[50, 51]);
        assert_eq!(t.get(&3), &[30]);
        assert_eq!(t.get(&99), &[] as &[i32]);
        assert_eq!(t.key_count(), 2);
        assert_eq!(t.entry_count(), 3);
    }

    #[test]
    fn many_inserts_stay_sorted_and_balanced() {
        let mut t = BPlusTree::new();
        let n = 10_000u32;
        // Insert in adversarial (descending) order.
        for i in (0..n).rev() {
            assert!(t.insert(i, i * 10));
        }
        assert_eq!(t.key_count(), n as usize);
        let all = t.iter_all();
        assert_eq!(all.len(), n as usize);
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "keys must be sorted"
        );
        assert!(
            t.depth() <= 4,
            "10k keys at order 32 should be ≤4 levels, got {}",
            t.depth()
        );
        for i in (0..n).step_by(97) {
            assert_eq!(t.get(&i), &[i * 10]);
        }
    }

    #[test]
    fn range_queries() {
        let mut t = BPlusTree::new();
        for i in 0..1000 {
            t.insert(i, i);
        }
        let got = t.range(&100, &199);
        assert_eq!(got.len(), 100);
        assert_eq!(got[0], (100, 100));
        assert_eq!(got[99], (199, 199));
        assert!(t.range(&2000, &3000).is_empty());
        assert_eq!(t.range(&0, &0), vec![(0, 0)]);
        assert_eq!(t.range(&999, &5000), vec![(999, 999)]);
    }

    #[test]
    fn range_with_posting_lists() {
        let mut t = BPlusTree::new();
        for i in 0..100 {
            t.insert(i / 10, i); // 10 values per key
        }
        let got = t.range(&3, &4);
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|(k, v)| *k == v / 10 && (3..=4).contains(k)));
    }

    #[test]
    fn remove_entries_and_keys() {
        let mut t = BPlusTree::new();
        t.insert(1, 10);
        t.insert(1, 11);
        assert!(t.remove(&1, &10));
        assert!(!t.remove(&1, &10), "already removed");
        assert_eq!(t.get(&1), &[11]);
        assert_eq!(t.key_count(), 1);
        assert!(t.remove(&1, &11));
        assert_eq!(t.key_count(), 0);
        assert!(t.is_empty());
        assert_eq!(t.get(&1), &[] as &[i32]);
    }

    #[test]
    fn remove_missing_key_is_noop() {
        let mut t: BPlusTree<i32, i32> = BPlusTree::new();
        assert!(!t.remove(&7, &70));
    }

    #[test]
    fn stress_against_model() {
        use std::collections::BTreeMap;
        let mut t = BPlusTree::new();
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut state = 0x1234_5678_u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let key = rand() % 500;
            let value = rand() % 20;
            if rand() % 3 == 0 {
                let removed_model = model
                    .get_mut(&key)
                    .map(|plist| {
                        let pos = plist.iter().position(|v| *v == value);
                        if let Some(p) = pos {
                            plist.swap_remove(p);
                            true
                        } else {
                            false
                        }
                    })
                    .unwrap_or(false);
                if model.get(&key).is_some_and(|p| p.is_empty()) {
                    model.remove(&key);
                }
                assert_eq!(t.remove(&key, &value), removed_model);
            } else {
                let plist = model.entry(key).or_default();
                let inserted_model = if plist.contains(&value) {
                    false
                } else {
                    plist.push(value);
                    true
                };
                assert_eq!(t.insert(key, value), inserted_model);
            }
        }
        // Final state comparison.
        assert_eq!(t.key_count(), model.len());
        let expected_entries: usize = model.values().map(Vec::len).sum();
        assert_eq!(t.entry_count(), expected_entries);
        for (k, plist) in &model {
            let mut got = t.get(k).to_vec();
            let mut want = plist.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "posting list mismatch at key {k}");
        }
        // Range over a window must match the model's range.
        let got: Vec<u64> = t.range(&100, &200).into_iter().map(|(k, _)| k).collect();
        let want: Vec<u64> = model
            .range(100..=200)
            .flat_map(|(k, plist)| std::iter::repeat_n(*k, plist.len()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn string_keys() {
        let mut t = BPlusTree::new();
        for word in ["neo", "trinity", "morpheus", "smith", "oracle"] {
            t.insert(word.to_string(), word.len());
        }
        assert_eq!(t.get(&"neo".to_string()), &[3]);
        let range = t.range(&"n".to_string(), &"p".to_string());
        let keys: Vec<_> = range.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["neo", "oracle"]);
    }
}

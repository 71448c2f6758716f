//! A probabilistic skip list ordered by `(score, member)` — the data
//! structure behind sorted sets, as in Redis' `t_zset.c`.
//!
//! Sorted sets are how a Redis client gets ordered access over an unordered
//! keyspace: YCSB's Redis binding keeps an index ZSET to implement SCAN, and
//! the GDPR connector keeps a TTL-ordered ZSET to find expiring records. Both
//! uses need ordered insertion, removal, and range queries by score.

use crate::rng::XorShift64;
use bytes::Bytes;

const MAX_LEVEL: usize = 24;
/// Probability numerator for promoting a node one level (Redis uses 1/4).
const P_NUM: u64 = 1;
const P_DEN: u64 = 4;

struct Node {
    member: Bytes,
    score: f64,
    /// `next[l]` is the index of the next node at level `l`, or usize::MAX.
    next: Vec<usize>,
}

const NIL: usize = usize::MAX;

/// A skip list of `(score, member)` pairs, ordered by score then member.
///
/// Members are unique; inserting an existing member updates its score.
pub struct SkipList {
    /// Arena of nodes; index 0 is the head sentinel.
    nodes: Vec<Node>,
    /// Free slots in the arena from removed nodes.
    free: Vec<usize>,
    level: usize,
    len: usize,
    rng: XorShift64,
}

impl SkipList {
    pub fn new() -> Self {
        SkipList {
            nodes: vec![Node {
                member: Bytes::new(),
                score: f64::NEG_INFINITY,
                next: vec![NIL; MAX_LEVEL],
            }],
            free: Vec::new(),
            level: 1,
            len: 0,
            rng: XorShift64::new(0x5a5a_1234),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn random_level(&mut self) -> usize {
        let mut level = 1;
        while level < MAX_LEVEL && self.rng.next_u64() % P_DEN < P_NUM {
            level += 1;
        }
        level
    }

    /// True if `(a_score, a_member)` orders before `(b_score, b_member)`.
    fn before(a_score: f64, a_member: &[u8], b_score: f64, b_member: &[u8]) -> bool {
        match a_score.partial_cmp(&b_score) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => a_member < b_member,
        }
    }

    /// Find per-level predecessors of `(score, member)`.
    fn find_predecessors(&self, score: f64, member: &[u8]) -> [usize; MAX_LEVEL] {
        let mut update = [0usize; MAX_LEVEL];
        let mut x = 0;
        for l in (0..self.level).rev() {
            loop {
                let nxt = self.nodes[x].next[l];
                if nxt != NIL
                    && Self::before(
                        self.nodes[nxt].score,
                        &self.nodes[nxt].member,
                        score,
                        member,
                    )
                {
                    x = nxt;
                } else {
                    break;
                }
            }
            update[l] = x;
        }
        update
    }

    /// Insert a member that is **not already present**.
    ///
    /// The caller must guarantee uniqueness — the [`crate::value::ZSet`]
    /// wrapper pairs this list with a member→score hash map (as Redis pairs
    /// its skiplist with a dict) and removes the old entry before
    /// re-inserting on score updates. This keeps insertion O(log n).
    pub fn insert(&mut self, member: Bytes, score: f64) {
        let level = self.random_level();
        if level > self.level {
            self.level = level;
        }
        let update = self.find_predecessors(score, &member);
        let node = Node {
            member,
            score,
            next: vec![NIL; level],
        };
        let idx = if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        for (l, item) in update.iter().enumerate().take(level) {
            self.nodes[idx].next[l] = self.nodes[*item].next[l];
            self.nodes[*item].next[l] = idx;
        }
        self.len += 1;
    }

    /// Remove `(member, score)`. The score must be the member's current score
    /// (the ZSet wrapper tracks it). Returns `true` if removed.
    pub fn remove(&mut self, member: &[u8], score: f64) -> bool {
        let update = self.find_predecessors(score, member);
        let target = self.nodes[update[0]].next[0];
        if target == NIL
            || self.nodes[target].score != score
            || self.nodes[target].member.as_ref() != member
        {
            return false;
        }
        for (l, &pred) in update.iter().enumerate().take(self.level) {
            if self.nodes[pred].next[l] == target {
                self.nodes[pred].next[l] = self.nodes[target].next[l];
            }
        }
        while self.level > 1 && self.nodes[0].next[self.level - 1] == NIL {
            self.level -= 1;
        }
        self.nodes[target].next.clear();
        self.nodes[target].member = Bytes::new();
        self.free.push(target);
        self.len -= 1;
        true
    }

    /// `(member, score)` in order over `min..=max` scores, stopping after
    /// `limit` members — the `ZRANGEBYSCORE ... LIMIT` path that keeps
    /// ordered scans O(log n + k).
    pub fn range_by_score_limit(&self, min: f64, max: f64, limit: usize) -> Vec<(Bytes, f64)> {
        let mut out = Vec::new();
        // Descend to the first node with score >= min.
        let mut x = 0;
        for l in (0..self.level).rev() {
            loop {
                let nxt = self.nodes[x].next[l];
                if nxt != NIL && self.nodes[nxt].score < min {
                    x = nxt;
                } else {
                    break;
                }
            }
        }
        let mut cur = self.nodes[x].next[0];
        while cur != NIL && self.nodes[cur].score <= max && out.len() < limit {
            out.push((self.nodes[cur].member.clone(), self.nodes[cur].score));
            cur = self.nodes[cur].next[0];
        }
        out
    }
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn all(sl: &SkipList) -> Vec<(Bytes, f64)> {
        sl.range_by_score_limit(f64::NEG_INFINITY, f64::INFINITY, usize::MAX)
    }

    #[test]
    fn insert_orders_by_score() {
        let mut sl = SkipList::new();
        sl.insert(b("c"), 3.0);
        sl.insert(b("a"), 1.0);
        sl.insert(b("b"), 2.0);
        let members: Vec<_> = all(&sl).into_iter().map(|(m, _)| m).collect();
        assert_eq!(members, vec![b("a"), b("b"), b("c")]);
    }

    #[test]
    fn equal_scores_order_by_member() {
        let mut sl = SkipList::new();
        sl.insert(b("z"), 1.0);
        sl.insert(b("a"), 1.0);
        sl.insert(b("m"), 1.0);
        let members: Vec<_> = all(&sl).into_iter().map(|(m, _)| m).collect();
        assert_eq!(members, vec![b("a"), b("m"), b("z")]);
    }

    #[test]
    fn range_by_score_is_inclusive() {
        let mut sl = SkipList::new();
        for i in 0..10 {
            sl.insert(b(&format!("k{i}")), i as f64);
        }
        let got = sl.range_by_score_limit(3.0, 6.0, usize::MAX);
        let scores: Vec<_> = got.iter().map(|(_, s)| *s).collect();
        assert_eq!(scores, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn remove_then_range() {
        let mut sl = SkipList::new();
        for i in 0..100 {
            sl.insert(b(&format!("k{i:03}")), i as f64);
        }
        for i in (0..100).step_by(2) {
            assert!(sl.remove(format!("k{i:03}").as_bytes(), i as f64));
        }
        assert_eq!(sl.len(), 50);
        let remaining = all(&sl);
        assert!(remaining.iter().all(|(_, s)| (*s as u64) % 2 == 1));
        assert_eq!(remaining.len(), 50);
    }

    #[test]
    fn remove_nonexistent_is_false() {
        let mut sl = SkipList::new();
        sl.insert(b("a"), 1.0);
        assert!(
            !sl.remove(b"a".as_ref(), 2.0),
            "wrong score must not remove"
        );
        assert!(!sl.remove(b"b".as_ref(), 1.0));
        assert_eq!(sl.len(), 1);
    }

    #[test]
    fn score_update_via_remove_and_insert() {
        let mut sl = SkipList::new();
        sl.insert(b("a"), 1.0);
        assert!(sl.remove(b"a".as_ref(), 1.0));
        sl.insert(b("a"), 9.0);
        assert_eq!(sl.len(), 1);
        assert_eq!(all(&sl), vec![(b("a"), 9.0)]);
    }

    #[test]
    fn large_insert_remove_stress_stays_consistent() {
        let mut sl = SkipList::new();
        let mut rng = XorShift64::new(42);
        let mut model: std::collections::BTreeMap<u64, f64> = Default::default();
        for _ in 0..2000 {
            let id = rng.next_below(300) as u64;
            let member = format!("m{id:05}");
            if rng.next_u64().is_multiple_of(3) {
                if let Some(score) = model.remove(&id) {
                    assert!(sl.remove(member.as_bytes(), score));
                }
            } else {
                let score = rng.next_below(1000) as f64;
                if let Some(old) = model.remove(&id) {
                    assert!(sl.remove(member.as_bytes(), old));
                }
                sl.insert(b(&member), score);
                model.insert(id, score);
            }
        }
        assert_eq!(sl.len(), model.len());
        let all = all(&sl);
        assert!(all
            .windows(2)
            .all(|w| { w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 <= w[1].0) }));
    }
}

//! Request-distribution generators, following YCSB's `generator` package.
//!
//! The zipfian generator is the Gray et al. "Quickly generating
//! billion-record synthetic databases" algorithm exactly as YCSB implements
//! it (constant `ZIPFIAN_CONSTANT = 0.99`), and the scrambled variant
//! spreads the popular head across the key space with a keyed hash
//! (SipHash here, FNV in YCSB).

use crypto::SipHash24;
use rand::Rng;

/// A generator of item indices in `[0, n)` under some distribution.
pub trait IndexGenerator: Send {
    /// Draw the next index using `rng`.
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64;
}

/// Uniform over `[0, n)`.
pub struct Uniform {
    n: u64,
}

impl Uniform {
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "uniform over empty range");
        Uniform { n }
    }
}

impl IndexGenerator for Uniform {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        rng.gen_range(0..self.n)
    }
}

/// YCSB's default skew constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Zipf-distributed ranks: item 0 most popular.
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl Zipfian {
    pub fn new(items: u64) -> Self {
        Self::with_theta(items, ZIPFIAN_CONSTANT)
    }

    pub fn with_theta(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian over empty range");
        let zetan = zeta(items, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            items,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
        }
    }

    /// Expand the item universe (used by the latest-distribution wrapper as
    /// inserts land). Recomputes zeta incrementally.
    pub fn grow_to(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        // Incremental zeta: add terms items_old+1 ..= items.
        for i in self.items + 1..=items {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.items = items;
        self.eta = (1.0 - (2.0 / items as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2theta / self.zetan);
    }

    pub fn items(&self) -> u64 {
        self.items
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl IndexGenerator for Zipfian {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        ((self.items as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
    }
}

/// Zipf popularity spread over the key space by hashing the rank — YCSB's
/// `ScrambledZipfianGenerator`.
pub struct ScrambledZipfian {
    inner: Zipfian,
    n: u64,
    hasher: SipHash24,
}

impl ScrambledZipfian {
    pub fn new(n: u64) -> Self {
        ScrambledZipfian {
            // YCSB uses a fixed large item count for the inner zipfian so
            // that the scrambled distribution is stable as n grows; the
            // rank stream is then folded onto [0, n).
            inner: Zipfian::new(n.max(2)),
            n,
            hasher: SipHash24::new(0x5953_4342, 0x5a49_5046), // "YSCB","ZIPF"
        }
    }
}

impl IndexGenerator for ScrambledZipfian {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        let rank = self.inner.next(rng);
        self.hasher.hash_u64(rank) % self.n
    }
}

/// Skew toward recently inserted items — YCSB's `SkewedLatestGenerator`.
/// `basis` is the current insert count; rank 0 maps to the newest item.
pub struct Latest {
    zipf: Zipfian,
}

impl Latest {
    pub fn new(initial_items: u64) -> Self {
        Latest {
            zipf: Zipfian::new(initial_items.max(1)),
        }
    }

    /// Note that items have been appended (e.g. after an insert).
    pub fn grow_to(&mut self, items: u64) {
        self.zipf.grow_to(items.max(1));
    }
}

impl IndexGenerator for Latest {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        let items = self.zipf.items();
        let rank = self.zipf.next(rng);
        items - 1 - rank.min(items - 1)
    }
}

/// Round-robin over `[0, n)` — the Load phase key order.
pub struct Sequential {
    next: u64,
    n: u64,
}

impl Sequential {
    pub fn new(n: u64) -> Self {
        Sequential { next: 0, n }
    }
}

impl IndexGenerator for Sequential {
    fn next(&mut self, _rng: &mut dyn rand::RngCore) -> u64 {
        let v = self.next;
        self.next = (self.next + 1) % self.n;
        v
    }
}

/// Weighted choice over a small set of variants.
pub struct Discrete<T: Clone + Send> {
    items: Vec<(f64, T)>,
    total: f64,
}

impl<T: Clone + Send> Discrete<T> {
    pub fn new(items: Vec<(f64, T)>) -> Self {
        assert!(!items.is_empty());
        let total = items.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0);
        Discrete { items, total }
    }

    pub fn next(&self, rng: &mut dyn rand::RngCore) -> &T {
        let mut x: f64 = rng.gen::<f64>() * self.total;
        for (w, item) in &self.items {
            if x < *w {
                return item;
            }
            x -= w;
        }
        &self.items.last().expect("non-empty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xBEEF)
    }

    fn draw(gen: &mut dyn IndexGenerator, n: usize) -> Vec<u64> {
        let mut r = rng();
        (0..n).map(|_| gen.next(&mut r)).collect()
    }

    #[test]
    fn uniform_bounds_and_coverage() {
        let mut g = Uniform::new(10);
        let samples = draw(&mut g, 10_000);
        assert!(samples.iter().all(|&x| x < 10));
        let mut counts = [0u32; 10];
        for s in &samples {
            counts[*s as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (700..1300).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn zipfian_is_head_heavy() {
        let mut g = Zipfian::new(1000);
        let samples = draw(&mut g, 50_000);
        assert!(samples.iter().all(|&x| x < 1000));
        let head = samples.iter().filter(|&&x| x < 10).count() as f64 / samples.len() as f64;
        // With theta=0.99 over 1000 items the top-10 get roughly a third.
        assert!(head > 0.25, "head mass too small: {head}");
        let zero = samples.iter().filter(|&&x| x == 0).count() as f64 / samples.len() as f64;
        let tail = samples.iter().filter(|&&x| x == 999).count() as f64 / samples.len() as f64;
        assert!(
            zero > tail * 5.0,
            "rank 0 ({zero}) must dominate rank 999 ({tail})"
        );
    }

    #[test]
    fn zipfian_grow_matches_fresh_construction() {
        let mut grown = Zipfian::new(100);
        grown.grow_to(500);
        let fresh = Zipfian::new(500);
        assert!((grown.zetan - fresh.zetan).abs() < 1e-9);
        assert!((grown.eta - fresh.eta).abs() < 1e-9);
    }

    #[test]
    fn scrambled_zipfian_spreads_but_stays_skewed() {
        let mut g = ScrambledZipfian::new(1000);
        let samples = draw(&mut g, 50_000);
        assert!(samples.iter().all(|&x| x < 1000));
        // The hottest item should no longer be index 0, but some index
        // should still collect far more than the uniform share.
        let mut counts = std::collections::HashMap::new();
        for s in &samples {
            *counts.entry(*s).or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(
            max as f64 > 50_000.0 / 1000.0 * 20.0,
            "no hot key: max={max}"
        );
    }

    #[test]
    fn latest_prefers_new_items() {
        let mut g = Latest::new(100);
        g.grow_to(1000);
        let samples = draw(&mut g, 20_000);
        assert!(samples.iter().all(|&x| x < 1000));
        let newest_tenth =
            samples.iter().filter(|&&x| x >= 900).count() as f64 / samples.len() as f64;
        assert!(newest_tenth > 0.3, "latest skew too weak: {newest_tenth}");
    }

    #[test]
    fn sequential_cycles() {
        let mut g = Sequential::new(3);
        assert_eq!(draw(&mut g, 7), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(vec![(0.25, "a"), (0.5, "b"), (0.25, "c")]);
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(*d.next(&mut r)).or_insert(0u32) += 1;
        }
        assert!((2000..3000).contains(&counts["a"]), "{counts:?}");
        assert!((4500..5500).contains(&counts["b"]), "{counts:?}");
    }

    #[test]
    #[should_panic]
    fn uniform_zero_panics() {
        Uniform::new(0);
    }
}

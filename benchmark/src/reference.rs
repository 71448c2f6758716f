//! The reference kernel: a fixed piece of work of the benchmark's own, timed
//! between slices, that tells how fast this machine runs right now.
//!
//! The box is a few cores of a shared host, and a neighbour's load slows the
//! same code by a third to a half for anything between half a second and
//! several minutes: in one such hour ten runs of one binary spread 12 to 43 %
//! between their quartiles on ops/s, whichever workload. The kernel slows
//! with them, so dividing an interval by the kernel's slowdown over that
//! interval takes most of the machine out of the reading (the same runs,
//! corrected and read at the best decile: 5 to 12 %). What it
//! does is what the program mostly does — format integers and short strings,
//! copy bytes, look values up in a table larger than L1 — without touching
//! the allocator, whose speed depends on the heap the program left behind.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the lookup table: 256 KiB of `u64`.
const TABLE: usize = 1 << 15;
/// Iterations per burst: a millisecond or so.
const ITERATIONS: u64 = 10_000;
/// Nanoseconds per iteration on the box the baseline was recorded on in a
/// calm hour (the median burst beside the in-process workloads, whose
/// whole-phase readings were then at their best). Only a scale: a machine
/// that is uniformly faster reads uniformly faster.
const NOMINAL_NS: f64 = 115.0;

pub struct Reference {
    table: Vec<u64>,
    text: String,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            table,
            text: String::with_capacity(128),
        }
    }

    /// Run one burst and return the machine's slowdown over it: 1 at the
    /// nominal speed, 1.4 when everything takes 1.4 times as long.
    pub fn burst(&mut self) -> f64 {
        let started = Instant::now();
        let (role, outcome) = ("customer", "ok");
        let mut acc = 0u64;
        for i in 0..ITERATIONS {
            self.text.clear();
            let slot = ((acc ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> (64 - TABLE.trailing_zeros())) as usize;
            let value = self.table[slot];
            let _ = write!(self.text, "{role}:{value} [{outcome}] n={i}");
            acc = acc.wrapping_add(self.text.len() as u64 ^ value);
        }
        black_box(acc);
        started.elapsed().as_nanos() as f64 / ITERATIONS as f64 / NOMINAL_NS
    }
}

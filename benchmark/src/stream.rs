//! Op streams: `GdprWorkload::next_op` output, materialised before the clock
//! starts and arranged into exact-mix blocks.
//!
//! A time-bounded run completes a different number of ops on every run, and
//! on the predicate-heavy mixes one op class costs a thousand times another,
//! so a run that happened to draw 7 rather than 9 heavy ops in its window
//! would read 20 % faster for no reason. Every block therefore holds each
//! class exactly in its Table 2a proportion (order shuffled by the seed) and
//! clients stop only on block boundaries: ops ÷ time always refers to the
//! same mix. Every op is still a generator output, unedited; surplus draws of
//! a class wait in a queue for a later block. The one op added is the
//! controller's re-create after each customer erasure (see `materialise`).

use crate::sut::{
    record_of, CorpusConfig, GdprQuery, GdprWorkload, GdprWorkloadKind, MetadataUpdate, Session,
};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

pub struct Op {
    pub session: Session,
    pub query: GdprQuery,
}

/// A client's ops: `blocks` consecutive exact-mix blocks of `block_len` ops.
pub struct Stream {
    pub ops: Vec<Op>,
    pub block_len: usize,
    /// Whether the stream may be replayed from the start once exhausted: true
    /// when a pass leaves the set of live keys as it found it.
    pub cyclic: bool,
}

impl Stream {
    pub fn blocks(&self) -> usize {
        self.ops.len() / self.block_len
    }

    pub fn block(&self, i: usize) -> &[Op] {
        let i = i % self.blocks();
        &self.ops[i * self.block_len..(i + 1) * self.block_len]
    }
}

/// Op classes per block: Table 2a scaled to the smallest whole numbers that
/// hold its proportions (to a quarter of a point for the regulator).
fn mix(kind: GdprWorkloadKind) -> &'static [(&'static str, usize)] {
    match kind {
        GdprWorkloadKind::Controller => &[
            ("create-record", 3),
            ("delete-record-by-pur", 1),
            ("delete-record-by-ttl", 1),
            ("delete-record-by-usr", 1),
            ("update-metadata-by-pur", 2),
            ("update-metadata-by-usr", 2),
            ("update-metadata-by-shr", 2),
        ],
        GdprWorkloadKind::Customer => &[
            ("read-data-by-usr", 1),
            ("read-metadata-by-key", 1),
            ("update-data-by-key", 1),
            ("update-metadata-by-key", 1),
            ("delete-record-by-key", 1),
        ],
        GdprWorkloadKind::Processor => &[
            ("read-data-by-key", 12),
            ("read-data-by-pur", 1),
            ("read-data-by-obj", 1),
            ("read-data-by-dec", 1),
        ],
        // 46 / 31 / 23 % as 6 : 4 : 3 (46.2 / 30.8 / 23.1 %). A 100-op block
        // holds the percentages exactly but lasts two seconds here, and
        // whichever client ends its last block first leaves the other to run
        // uncontended, at twice the speed, for up to that long.
        GdprWorkloadKind::Regulator => &[
            ("read-metadata-by-usr", 6),
            ("get-system-logs", 4),
            ("verify-deletion", 3),
        ],
    }
}

/// The class of a generated op: its query name, except that the controller's
/// sharing maintenance (Table 2a's `update-metadata-by-shr`) is generated as
/// a user-scoped `Remove` and is told apart from the TTL update here.
fn class_of(query: &GdprQuery) -> &'static str {
    match query {
        GdprQuery::UpdateMetadataByUser { update, .. }
            if !matches!(update, MetadataUpdate::SetTtl(_)) =>
        {
            "update-metadata-by-shr"
        }
        other => other.name(),
    }
}

/// Index of the corpus record a key names (`ph-%08x`).
fn index_of_key(key: &str) -> usize {
    usize::from_str_radix(key.trim_start_matches("ph-"), 16).expect("generator keys are ph-<hex>")
}

/// Materialise `blocks` blocks for one client. `seed` is already mixed with
/// the client number. `create_counter` is shared between the clients of one
/// deployment so created keys stay disjoint.
pub fn materialise(
    kind: GdprWorkloadKind,
    corpus: &CorpusConfig,
    seed: u64,
    blocks: usize,
    create_counter: Arc<AtomicU64>,
) -> Stream {
    let classes = mix(kind);
    let mut generator = GdprWorkload::new(kind, corpus.clone(), create_counter);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queues: Vec<VecDeque<Op>> = classes.iter().map(|_| VecDeque::new()).collect();
    let customer = kind == GdprWorkloadKind::Customer;
    let block_len = classes.iter().map(|(_, n)| n).sum::<usize>() + usize::from(customer);
    let mut ops = Vec::with_capacity(blocks * block_len);

    for _ in 0..blocks {
        let mut block: Vec<Op> = Vec::with_capacity(block_len);
        for (c, (_, want)) in classes.iter().enumerate() {
            while queues[c].len() < *want {
                let (session, query) = generator.next_op(&mut rng);
                let class = class_of(&query);
                let slot = classes
                    .iter()
                    .position(|(name, _)| *name == class)
                    .expect("every generated class is in the mix table");
                queues[slot].push_back(Op { session, query });
            }
            block.extend(queues[c].drain(..*want));
        }
        // Fisher-Yates with the stream's own rng.
        for i in (1..block.len()).rev() {
            block.swap(i, rng.next_u64() as usize % (i + 1));
        }
        for op in block {
            // The customer's erasure is followed by the controller putting
            // the same record back, so the live population and the zipf
            // popularity of keys stay what the corpus defined however long
            // the stream runs (without it a third of the ops are NotFound
            // after a few thousand).
            let recreate = match &op.query {
                GdprQuery::DeleteByKey(key) if customer => Some(Op {
                    session: Session::controller(),
                    query: GdprQuery::CreateRecord(record_of(index_of_key(key), corpus)),
                }),
                _ => None,
            };
            ops.push(op);
            ops.extend(recreate);
        }
    }
    Stream {
        ops,
        block_len,
        // Reads leave everything as it was and the customer stream restores
        // what it erases; the controller's creates cannot be repeated.
        cyclic: kind != GdprWorkloadKind::Controller,
    }
}

//! Heap allocations of a READ-METADATA-BY-USR on a 4-shard `redis-sharded`
//! deployment over `stable_corpus(2000)`, counted by a global allocator
//! that counts on the calling thread only (the test harness runs other
//! tests on other threads). Every `alloc`, `alloc_zeroed` and `realloc`
//! counts; the audit line the router records for the read is included.
//!
//! The fan-out fills one response: the router authorizes once, each shard
//! makes one index lookup and pushes its matches' bytes into the shared
//! rows, so a read allocates per shard and per response, not per row or
//! field. The bounds are what this layout needs with some room: a 30-row
//! read makes at most 40 allocations and a 2-row read at most 16 (a
//! key `String` plus an owned `Metadata` per row made 208 and 33).

use gdprbench_repro::connectors::registry::{self, Deployment};
use gdprbench_repro::gdpr_core::{GdprConnector, GdprQuery, GdprResponse, PersonalRecord, Session};
use gdprbench_repro::workload::datagen::record_of;
use gdprbench_repro::workload::gdpr::{load_corpus, stable_corpus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn tick() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `run` makes on this thread.
fn allocations(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

const INVESTIGATED: &str = "investigated";

/// `stable_corpus(2000)` on a 4-shard `redis-sharded`, plus 30 records of
/// one more user; and the corpus's users by record count.
fn deployment() -> (registry::Deployed, BTreeMap<String, usize>) {
    let deployment = Deployment {
        shards: 4,
        ..Deployment::default()
    };
    let conn = registry::build("redis-sharded", &deployment).unwrap();
    let corpus = stable_corpus(2000);
    load_corpus(&**conn, &corpus).unwrap();
    let mut users = BTreeMap::new();
    for i in 0..corpus.records {
        *users
            .entry(record_of(i, &corpus).metadata.user)
            .or_insert(0) += 1;
    }
    for i in 0..30 {
        let template = record_of(i, &corpus);
        let mut metadata = template.metadata;
        metadata.user = INVESTIGATED.to_string();
        let record = PersonalRecord::new(format!("inv-{i}"), template.data, metadata);
        conn.execute(&Session::controller(), &GdprQuery::CreateRecord(record))
            .unwrap();
    }
    (conn, users)
}

/// The allocations of one by-user read returning `rows` rows, after a
/// warming read of the same user.
fn read_allocations(conn: &dyn GdprConnector, user: &str, rows: usize) -> usize {
    let regulator = Session::regulator();
    let query = GdprQuery::ReadMetadataByUser(user.to_string());
    let read = || {
        let response = conn.execute(&regulator, &query).unwrap();
        assert!(matches!(response, GdprResponse::Metadata(_)));
        assert_eq!(response.cardinality(), rows, "{user}");
    };
    read();
    allocations(read)
}

#[test]
fn a_by_user_metadata_read_allocates_per_shard_not_per_row() {
    let (conn, users) = deployment();
    let wide = read_allocations(&**conn, INVESTIGATED, 30);
    assert!(wide <= 40, "a 30-row read made {wide} allocations");

    let two = users.iter().find(|(_, &n)| n == 2).map(|(user, _)| user);
    let two = two.expect("the corpus has a user with two records");
    let narrow = read_allocations(&**conn, two, 2);
    assert!(narrow <= 16, "a 2-row read made {narrow} allocations");
    println!("allocations: 30 rows {wide}, 2 rows {narrow}");
}

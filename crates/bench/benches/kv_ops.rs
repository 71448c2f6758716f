//! Per-command costs of the Redis-like store, with and without the GDPR
//! retrofits — the microscopic view of Figure 4a.

use bench::experiments::fig4::{kv_store, COLUMNS};
use connectors::registry::{Posture, ScratchDir};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kvstore::KvStore;
use std::sync::Arc;

fn store_with(posture: Posture, scratch: &ScratchDir, records: u64) -> Arc<KvStore> {
    let store = kv_store(posture, scratch);
    for i in 0..records {
        store
            .set(format!("user{i:012}").as_bytes(), &[0x55; 100])
            .unwrap();
    }
    store
}

fn bench_set_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvstore");
    // Every Fig 4 column but timely deletion, whose cost is the expiry
    // driver's, not a command's.
    for (name, posture) in COLUMNS.into_iter().filter(|c| c.1 != Posture::TTL) {
        // A dir per store: opening a store replays the AOF it finds.
        let scratch = ScratchDir::new("kvbench");
        let store = store_with(posture, &scratch, 10_000);
        group.bench_with_input(BenchmarkId::new("set", name), &store, |b, store| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                store
                    .set(format!("bench{:08}", i % 10_000).as_bytes(), &[0x66; 100])
                    .unwrap();
            });
        });
        group.bench_with_input(BenchmarkId::new("get", name), &store, |b, store| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                store
                    .get(format!("user{:012}", i % 10_000).as_bytes())
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_walk(c: &mut Criterion) {
    let scratch = ScratchDir::new("kvbench-walk");
    let store = store_with(Posture::STOCK, &scratch, 10_000);
    c.bench_function("kvstore/walk_full_10k", |b| {
        b.iter(|| {
            let mut seen = 0usize;
            let Ok(()) = store
                .read_prefix(b"", |_, _| {
                    seen += 1;
                    Ok::<_, std::convert::Infallible>(())
                })
                .unwrap();
            seen
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_set_get, bench_walk
}
criterion_main!(benches);

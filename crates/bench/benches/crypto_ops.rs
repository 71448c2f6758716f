//! Microbenchmarks for the security substrate: the per-byte costs behind
//! the "Encrypt" bars of Figure 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crypto::{ChaCha20, SecureChannel, SipHash24, Volume};

fn bench_chacha20(c: &mut Criterion) {
    let cipher = ChaCha20::from_seed(b"bench-key");
    let nonce = [7u8; 12];
    let mut group = c.benchmark_group("chacha20");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xAB; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| {
                let mut out = std::hint::black_box(data).clone();
                cipher.apply(&nonce, 0, &mut out);
                out
            });
        });
    }
    group.finish();
}

fn bench_siphash(c: &mut Criterion) {
    let hasher = SipHash24::new(1, 2);
    let mut group = c.benchmark_group("siphash24");
    for size in [8usize, 64, 1024] {
        let data = vec![0xCD; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| hasher.hash(std::hint::black_box(data)));
        });
    }
    group.finish();
}

fn bench_volume_seal_open(c: &mut Criterion) {
    let volume = Volume::new(b"at-rest");
    let record = vec![0x42; 256];
    c.bench_function("volume/seal_open_256B", |b| {
        let mut block = 0u64;
        b.iter(|| {
            let sealed = volume.seal(block, std::hint::black_box(&record));
            block += 1;
            volume.open(&sealed).unwrap()
        });
    });
}

fn bench_channel_roundtrip(c: &mut Criterion) {
    c.bench_function("channel/roundtrip_256B", |b| {
        let (mut client, mut server) = SecureChannel::pair(b"session");
        let msg = vec![0x17; 256];
        b.iter(|| {
            let wire = client.seal(std::hint::black_box(&msg));
            server.open(&wire).unwrap()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_chacha20, bench_siphash, bench_volume_seal_open, bench_channel_roundtrip
}
criterion_main!(benches);

//! Store-backed pipeline benchmark: read + decode + aggregate a full
//! simulated window from disk at several thread counts, reporting
//! hours/s so the thread scaling is directly comparable. A second group
//! compares the v2 and v3 codecs head to head (encode, decode) and
//! prints the bytes-per-record ablation for each format.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_net::store::{
    decode_hour_with, encode_hour, DecodeOptions, FlowStore, StoreFormat, StoreOptions,
};
use iotscope_net::time::UnixHour;
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};

fn bench_store_parallel(c: &mut Criterion) {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(1));
    let window = built.scenario.telescope().window;
    let dir = std::env::temp_dir().join(format!("iotscope-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).expect("create bench store");
    built
        .scenario
        .write_to_store(&store)
        .expect("write bench store");
    let pipeline = AnalysisPipeline::new(&built.inventory.db, window.num_hours());

    let mut group = c.benchmark_group("store_parallel");
    group.throughput(Throughput::Elements(u64::from(window.num_hours())));
    group.sample_size(10);

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("analyze_store", threads),
            &threads,
            |b, &t| {
                let options = AnalyzeOptions::new().window(window).threads(t).stats(true);
                b.iter(|| {
                    pipeline
                        .run(&store, &options)
                        .expect("bench store analysis")
                })
            },
        );
    }
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

/// v2 vs v3 codec comparison on one paper-shaped telescope hour:
/// encode and decode, plus a printed bytes-per-record ablation (the
/// acceptance bar is v3 ≤ 0.8× v2).
fn bench_store_formats(c: &mut Criterion) {
    let built = PaperScenario::build(PaperScenarioConfig::tiny(1));
    let flows = built.scenario.generate_hour(20).flows;
    let n = flows.len() as u64;
    let hour = UnixHour::new(1);
    let options = |format| StoreOptions {
        format,
        ..StoreOptions::default()
    };

    let mut group = c.benchmark_group("store_formats");
    group.throughput(Throughput::Elements(n));
    group.sample_size(20);

    for (name, format) in [("v2", StoreFormat::V2), ("v3", StoreFormat::V3)] {
        group.bench_with_input(BenchmarkId::new("encode", name), &format, |b, &f| {
            b.iter(|| encode_hour(hour, &flows, options(f)))
        });
        let bytes = encode_hour(hour, &flows, options(format));
        eprintln!(
            "[formats] {name}: hour of {n} flows = {}B ({:.2} bytes/record)",
            bytes.len(),
            bytes.len() as f64 / n as f64
        );
        group.bench_with_input(BenchmarkId::new("decode", name), &bytes, |b, bytes| {
            b.iter_batched(
                || bytes.clone(),
                |buf| decode_hour_with(&buf, DecodeOptions::default()).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_store_parallel, bench_store_formats);
criterion_main!(benches);

//! Aggregation-core benchmarks: hour ingest and full report
//! construction over a paper-scale synthetic window.
//!
//! These are the hot paths the columnar device table targets; the
//! before/after numbers are recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iotscope_core::analysis::Analyzer;
use iotscope_core::report::{Report, ReportContext};
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;

fn bench_analysis(c: &mut Criterion) {
    // Paper-sized inventory (331k devices) at a reduced packet scale: the
    // per-flow work is what we measure, and the device axis is what the
    // columnar layout is about.
    let built = PaperScenario::build(PaperScenarioConfig::paper(7, 0.01));
    let db = &built.inventory.db;
    let hours: Vec<HourTraffic> = (1..=143).map(|i| built.scenario.generate_hour(i)).collect();
    // A busy hour from the middle of the window (during the scanning ramp).
    let busy = hours
        .iter()
        .max_by_key(|h| h.flows.len())
        .expect("non-empty window");

    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);

    group.throughput(Throughput::Elements(busy.flows.len() as u64));
    group.bench_function("ingest_hour", |b| {
        b.iter(|| {
            let mut an = Analyzer::new(db, 143);
            an.ingest_hour(busy);
            an.finish().device_count()
        })
    });

    // Full report build over the whole window (every figure and table).
    let analysis = {
        let mut an = Analyzer::new(db, 143);
        for h in &hours {
            an.ingest_hour(h);
        }
        an.finish()
    };
    group.throughput(Throughput::Elements(analysis.device_count() as u64));
    group.bench_function("report_build", |b| {
        b.iter(|| {
            let report = Report::build(&ReportContext {
                analysis: &analysis,
                db,
                isps: &built.inventory.isps,
                intel: None,
            });
            report.compromised
        })
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);

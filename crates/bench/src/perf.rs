//! `perf` — machine-readable performance snapshot.
//!
//! Runs the workspace's headline hot paths (hour ingest, report build,
//! correlation lookups, store encode/decode/visit, store-backed
//! analysis) with a simple median-of-N timer and writes the results as
//! JSON next to a human-readable table. CI runs `--quick` and checks
//! the JSON parses with the expected keys; full runs feed
//! EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! perf [--quick] [--seed N] [--out PATH] [--serve] [--year] [--intel]
//! ```
//!
//! `--quick` uses the small inventory and few iterations (CI smoke);
//! the default is the `paper(seed, 0.01)` scenario used by
//! `bench_analysis`. `--out` defaults to the PR-agnostic `BENCH.json`
//! (CI and full runs pass an explicit `--out BENCH_PRn.json`).
//! The `pipeline/*` entries time store-backed analysis sequentially
//! and at 2/4/8 threads. `--serve` additionally boots the resident
//! daemon on an ephemeral port and drives every endpoint with
//! concurrent keep-alive clients while ingest runs at full rate. `--year` streams a synthetic
//! 8,760-hour segmented store end-to-end (always at tiny scale — the
//! point is the hour count, not the per-hour size) and records
//! `store.year.analyze143` / `store.year.analyze8760` rows whose
//! `peak_rss` difference is CI's RSS-flatness gate. `--intel`
//! synthesizes a threat-intel context and records the §V scoring rows:
//! `intel.index_build_ns` (IntelIndex construction),
//! `intel.join_ns_per_flow` (full-analysis fold amortized per flow),
//! the `intel.lookup_index` vs `intel.lookup_hashmap` ablation, and
//! `score.alert_p99_ns` (p99 per-hour incremental score-fold latency
//! during a streaming replay); combined with `--serve` it also
//! attaches the score stage to the daemon so the `/score/*` endpoints
//! answer 200 under load.
//!
//! JSON schema (documented in DESIGN.md §3d): a single object mapping
//! bench name to `{"median_ns": u64, "bytes": u64, "peak_rss": u64}`,
//! where `bytes` is the input bytes one iteration processes (0 when not
//! applicable) and `peak_rss` is the process-wide `VmHWM` high-water
//! mark in bytes sampled when the bench finished (0 where
//! `/proc/self/status` is unavailable). Rows whose name starts with
//! `store` and whose `bytes`/`median_ns` are both nonzero additionally
//! carry a derived `"mb_per_s"` float (`bytes / median seconds / 1e6`)
//! so store throughput trends read straight off the JSON. With `--serve`, the object
//! additionally maps `serve.<endpoint>` to
//! `{"requests": u64, "p50_ns": u64, "p99_ns": u64, "mean_ns": u64}`
//! measured under load, plus a bare `serve.ingest_hours_per_s` number
//! for ingest throughput with readers attached.

use iotscope_core::analysis::Analyzer;
use iotscope_core::malicious::select_candidates;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::report::{Report, ReportContext};
use iotscope_core::score::{ScoreConfig, ScoreEngine};
use iotscope_core::stream::StreamConfig;
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::{IntelContext, IntelIndex};
use iotscope_net::addr::Ipv4Cidr;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::{
    decode_hour_visit, decode_hour_with, encode_hour, restamp_hour, ColumnBlock, DecodeOptions,
    FlowSink, FlowStore, StoreOptions, BLOCK_RECORDS,
};
use iotscope_net::trie::PrefixTrie;
use iotscope_serve::http::HttpServer;
use iotscope_serve::load::{self, EndpointLoad, LoadOptions};
use iotscope_serve::{TelescopeService, ENDPOINTS};
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perf [--quick] [--seed N] [--out PATH] [--serve] [--year] [--intel]";

struct Args {
    quick: bool,
    seed: u64,
    out: String,
    serve: bool,
    year: bool,
    intel: bool,
}

/// Print an argument error plus usage and exit non-zero. Bad input must
/// never silently fall back to a default: a typo'd `--seed` would
/// otherwise produce a perfectly plausible-looking benchmark of the
/// wrong scenario.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        seed: 7,
        out: "BENCH.json".to_owned(),
        serve: false,
        year: false,
        intel: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--serve" => args.serve = true,
            "--year" => args.year = true,
            "--intel" => args.intel = true,
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--seed requires a value"));
                args.seed = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "invalid --seed '{v}' (expected an unsigned integer)"
                    ))
                });
            }
            "--out" => {
                args.out = it
                    .next()
                    .unwrap_or_else(|| usage_error("--out requires a path"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One recorded bench row (insertion order is the JSON order).
struct Entry {
    name: &'static str,
    median_ns: u128,
    bytes: u64,
    peak_rss: u64,
}

/// Median-of-`iters` wall time after `warmup` discarded iterations.
fn measure<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> u128 {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Process peak resident set (`VmHWM`) in bytes; 0 off Linux.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

fn flows_bytes(flows: &[FlowTuple]) -> u64 {
    std::mem::size_of_val(flows) as u64
}

/// A [`FlowSink`] that only counts, to time the streaming decode
/// without an ingest on the other end.
#[derive(Default)]
struct CountSink(usize);

impl FlowSink for CountSink {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.0 += flows.len();
    }
}

/// A [`FlowSink`] that consumes whole [`ColumnBlock`]s, to time the
/// columnar batch decode without the per-record fallback.
#[derive(Default)]
struct BlockCountSink(usize);

impl FlowSink for BlockCountSink {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.0 += flows.len();
    }

    fn visit_block(&mut self, block: &ColumnBlock) {
        self.0 += block.len();
    }
}

/// Results of the `--serve` section: per-endpoint latency under load
/// plus ingest throughput with readers attached.
struct ServeSection {
    /// `serve.<endpoint>` rows, in [`ENDPOINTS`] order.
    endpoints: Vec<(String, EndpointLoad)>,
    /// Hours pushed per second while the load ran.
    ingest_hours_per_s: f64,
}

/// Boot the daemon on an ephemeral port and replay every hour at full
/// rate while four concurrent keep-alive clients round-robin every
/// endpoint. The `/device/{id}` target is a device observed in hour 1,
/// so it resolves from the first published epoch onward (requests
/// racing the very first publish may 404 and count as errors).
fn bench_serve(
    db: iotscope_devicedb::DeviceDb,
    isps: iotscope_devicedb::isp::IspRegistry,
    num_hours: u32,
    hours: &[HourTraffic],
    intel: Option<IntelContext>,
    quick: bool,
) -> ServeSection {
    let dev = {
        let mut an = Analyzer::new(&db, num_hours);
        an.ingest_hour(&hours[0]);
        an.finish()
            .compromised_devices()
            .first()
            .copied()
            .expect("hour 1 observes at least one device")
    };
    let mut service = TelescopeService::new(db, isps, num_hours);
    if let Some(ctx) = intel {
        service = service.with_intel(ctx);
    }
    let service = Arc::new(service);
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind serve bench");
    let paths: Vec<String> = ENDPOINTS
        .iter()
        .map(|e| match *e {
            "device" => format!("/device/{}", dev.0),
            // `/score/{id}` answers 200 from the first intel epoch on;
            // without intel it 404s and the row records errors, same
            // caveat as the racing `/device/{id}` requests above.
            "score" => format!("/score/{}", dev.0),
            "score_top" => "/score/top".to_owned(),
            other => format!("/{other}"),
        })
        .collect();
    let opts = LoadOptions {
        workers: 4,
        paths,
        duration: Duration::from_secs(if quick { 2 } else { 6 }),
    };
    let stop = AtomicBool::new(false);
    let (ingest_wall, results) = std::thread::scope(|scope| {
        let svc = Arc::clone(&service);
        let ingest = scope.spawn(move || {
            let t = Instant::now();
            svc.ingest(hours, StreamConfig::default(), &mut |_| {});
            t.elapsed()
        });
        let results = load::run(server.local_addr(), &opts, &stop);
        (ingest.join().expect("ingest thread"), results)
    });
    ServeSection {
        endpoints: ENDPOINTS
            .iter()
            .map(|e| format!("serve.{e}"))
            .zip(results)
            .collect(),
        ingest_hours_per_s: hours.len() as f64 / ingest_wall.as_secs_f64().max(1e-9),
    }
}

/// The `--year` section: analyze a compacted tiny 143-hour scenario,
/// then stream a synthetic 8,760-hour (full-year) segmented store
/// end-to-end, recording wall time, store bytes, and peak RSS (`VmHWM`)
/// for both as `store.year.*` rows. CI gates on the year run's peak RSS
/// staying within 1.5x the 143-hour run's.
///
/// This must run *before* the main scenario materializes its hours:
/// `VmHWM` is a process-wide high-water mark, so sampled later both
/// rows would just read the main scenario's footprint and the flatness
/// gate would be vacuous. It is also always tiny-scale, whatever
/// `--quick` says — a paper-scale year would be tens of GB of synthetic
/// traffic, and the store (not the generator) is what's under test.
fn bench_year(seed: u64) -> Vec<Entry> {
    use iotscope_net::segment::{Manifest, SegmentStoreBuilder, DEFAULT_HOURS_PER_SEGMENT};
    use iotscope_net::time::AnalysisWindow;

    const YEAR_HOURS: u32 = 8_760;
    let t0 = Instant::now();
    let built = PaperScenario::build(PaperScenarioConfig::tiny(seed));
    let db = &built.inventory.db;
    let window = built.scenario.telescope().window;
    let num_hours = window.num_hours();
    let mut entries = Vec::new();

    // 143-hour baseline, segmented: write per-hour files, compact them
    // into segments, analyze through the mmap read path.
    let dir = std::env::temp_dir().join(format!("iotscope-perf-yearbase-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).expect("create baseline store");
    built
        .scenario
        .write_to_store(&store)
        .expect("write baseline store");
    let report = store
        .compact_to_segments(DEFAULT_HOURS_PER_SEGMENT)
        .expect("compact baseline store");
    let pipeline = AnalysisPipeline::new(db, num_hours);
    let t = Instant::now();
    let devices = pipeline
        .run(&store, &AnalyzeOptions::new().window(window))
        .expect("baseline segmented analysis")
        .analysis
        .device_count();
    let base_wall = t.elapsed().as_nanos();
    entries.push(Entry {
        name: "store.year.analyze143",
        median_ns: base_wall,
        bytes: report.bytes_after,
        peak_rss: peak_rss_bytes(),
    });
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "  store.year.analyze143: {} ({num_hours} hours, {devices} devices)",
        fmt_ns(base_wall)
    );

    // The full synthetic year: a small pool of distinct hours is
    // generated and encoded exactly once (the flows are dropped as soon
    // as each encoding exists), then every one of the 8,760 year hours
    // is a clone of a pooled encoding re-stamped to its own hour —
    // `restamp_hour` rewrites the header hour and recomputes the
    // checksum, bit-identical to a fresh encode. That keeps the build
    // phase's working set at a few MB of encoded bytes so the year
    // row's peak RSS measures the store, not a year of generator state.
    const POOL_HOURS: u32 = 24;
    let pool: Vec<Vec<u8>> = (1..=POOL_HOURS.min(num_hours))
        .map(|i| {
            let traffic = built.scenario.generate_hour(i);
            encode_hour(traffic.hour, &traffic.flows, StoreOptions::default())
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("iotscope-perf-year-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).expect("create year store");
    let year_window = AnalysisWindow::new(window.start(), YEAR_HOURS).expect("year window");
    // 48 hours per segment (vs the 168-hour default) bounds the
    // builder's pending buffer during the year build; the read side is
    // oblivious to segment size.
    let mut builder = SegmentStoreBuilder::new(&store.segments_dir(), 48, Manifest::default())
        .expect("year segment builder");
    for (i, hour) in year_window.iter_hours().enumerate() {
        let mut bytes = pool[i % pool.len()].clone();
        restamp_hour(&mut bytes, hour).expect("restamp year hour");
        builder.push(hour, bytes).expect("push year hour");
    }
    let report = builder.finish().expect("finish year segments");
    eprintln!(
        "  year store: {} segments, {:.1} MB ({:.1}s to build)",
        report.segments_written,
        report.bytes_written as f64 / 1e6,
        t0.elapsed().as_secs_f64()
    );
    let pipeline = AnalysisPipeline::new(db, YEAR_HOURS);
    let t = Instant::now();
    let devices = pipeline
        .run(&store, &AnalyzeOptions::new().window(year_window))
        .expect("year segmented analysis")
        .analysis
        .device_count();
    let year_wall = t.elapsed().as_nanos();
    entries.push(Entry {
        name: "store.year.analyze8760",
        median_ns: year_wall,
        bytes: report.bytes_written,
        peak_rss: peak_rss_bytes(),
    });
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "  store.year.analyze8760: {} ({:.0} hours/s, {devices} devices, peak rss {:.1} MB)",
        fmt_ns(year_wall),
        f64::from(YEAR_HOURS) / (year_wall as f64 / 1e9),
        peak_rss_bytes() as f64 / (1024.0 * 1024.0)
    );
    entries
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let (warm, iters) = if args.quick { (1, 3) } else { (2, 7) };
    let (warm_micro, iters_micro) = if args.quick { (3, 9) } else { (5, 15) };

    let mut results: Vec<Entry> = Vec::new();
    if args.year {
        eprintln!("year-scale segmented store ...");
        results.extend(bench_year(args.seed));
    }

    let config = if args.quick {
        PaperScenarioConfig::tiny(args.seed)
    } else {
        PaperScenarioConfig::paper(args.seed, 0.01)
    };
    eprintln!(
        "building scenario ({} devices, quick={}) ...",
        config.synth.total_devices(),
        args.quick
    );
    let built = PaperScenario::build(config);
    let db = &built.inventory.db;
    let window = built.scenario.telescope().window;
    let num_hours = window.num_hours();
    let hours: Vec<HourTraffic> = (1..=num_hours)
        .map(|i| built.scenario.generate_hour(i))
        .collect();
    let busy = hours
        .iter()
        .max_by_key(|h| h.flows.len())
        .expect("non-empty window");
    eprintln!(
        "{} hours, busiest {} flows ({:.1}s)",
        hours.len(),
        busy.flows.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut record = |name: &'static str, bytes: u64, median_ns: u128| {
        let peak_rss = peak_rss_bytes();
        eprintln!("  {name}: {} ({} bytes/iter)", fmt_ns(median_ns), bytes);
        results.push(Entry {
            name,
            median_ns,
            bytes,
            peak_rss,
        });
    };

    // -- analysis ---------------------------------------------------
    record(
        "analysis/ingest_hour",
        flows_bytes(&busy.flows),
        measure(warm, iters, || {
            let mut an = Analyzer::new(db, num_hours);
            an.ingest_hour(busy);
            an.finish().device_count()
        }),
    );

    let analysis = {
        let mut an = Analyzer::new(db, num_hours);
        for h in &hours {
            an.ingest_hour(h);
        }
        an.finish()
    };
    record(
        "analysis/report_build",
        0,
        measure(warm, iters, || {
            Report::build(&ReportContext {
                analysis: &analysis,
                db,
                isps: &built.inventory.isps,
                intel: None,
            })
            .compromised
        }),
    );

    // -- threat-intel scoring (§V join) -----------------------------
    let intel_ctx = args.intel.then(|| {
        eprintln!("threat-intel scoring ...");
        let candidates = select_candidates(&analysis, 4_000);
        let out = IntelBuilder::new(IntelSynthConfig::paper(args.seed)).build(db, &candidates);
        (IntelContext::from_synth(out), candidates)
    });
    if let Some((ctx, candidates)) = &intel_ctx {
        record(
            "intel.index_build_ns",
            0,
            measure(warm_micro, iters_micro, || {
                IntelIndex::build(&ctx.threats, &ctx.malware).len()
            }),
        );
        // One engine fold of the full batch analysis, amortized per
        // flow of the window it summarizes (clamped to ≥1ns so the row
        // never degenerates to zero on tiny runs).
        let total_flows: u64 = hours.iter().map(|h| h.flows.len() as u64).sum();
        let fold_ns = measure(warm, iters, || {
            let mut engine = ScoreEngine::new(db, &ctx.index, ScoreConfig::default());
            engine.fold(&analysis).len()
        });
        record(
            "intel.join_ns_per_flow",
            flows_bytes(&busy.flows),
            (fold_ns / u128::from(total_flows.max(1))).max(1),
        );
        // Ablation: the prefix-bucketed index vs the HashMap+Vec scans
        // it replaced, probing every candidate IP for any intel hit.
        let ips: Vec<Ipv4Addr> = candidates.iter().map(|id| db.device(*id).ip).collect();
        record(
            "intel.lookup_index",
            0,
            measure(warm_micro, iters_micro, || {
                ips.iter()
                    .filter(|ip| ctx.index.lookup(**ip).is_some())
                    .count()
            }),
        );
        record(
            "intel.lookup_hashmap",
            0,
            measure(warm_micro, iters_micro, || {
                ips.iter()
                    .filter(|ip| {
                        !ctx.threats.categories_for(**ip).is_empty()
                            || !ctx.malware.samples_contacting(**ip).is_empty()
                    })
                    .count()
            }),
        );
        // p99 per-hour incremental fold latency over a streaming
        // replay — the alert-path cost the score stage adds to each
        // `push_hour`.
        let mut an = Analyzer::new(db, num_hours);
        let mut engine = ScoreEngine::new(db, &ctx.index, ScoreConfig::default());
        let mut per_hour: Vec<u128> = Vec::with_capacity(hours.len());
        for h in &hours {
            an.ingest_hour(h);
            let t = Instant::now();
            black_box(engine.fold(an.peek()).len());
            per_hour.push(t.elapsed().as_nanos());
        }
        per_hour.sort_unstable();
        record(
            "score.alert_p99_ns",
            0,
            per_hour[(per_hour.len() - 1) * 99 / 100],
        );
    }

    // -- correlation lookups ---------------------------------------
    let index = db.correlation_index();
    record(
        "correlation/lookup_index",
        flows_bytes(&busy.flows),
        measure(warm_micro, iters_micro, || {
            busy.flows
                .iter()
                .filter(|f| {
                    index
                        .correlate(f.src_ip)
                        .is_some_and(|(_, realm)| realm == iotscope_devicedb::Realm::Consumer)
                })
                .count()
        }),
    );
    // The batched path the columnar decoder feeds: the same flows as
    // block-sized ascending src columns through the streaming
    // merge-join, counting Consumer hits like the per-record row (the
    // CI ablation gate compares the two).
    let mut sorted_src: Vec<u32> = busy.flows.iter().map(|f| u32::from(f.src_ip)).collect();
    sorted_src.sort_unstable();
    let mut corr: Vec<Option<(u32, iotscope_devicedb::Realm)>> = Vec::new();
    record(
        "correlation/block_merge_join",
        flows_bytes(&busy.flows),
        measure(warm_micro, iters_micro, || {
            let mut hits = 0usize;
            for chunk in sorted_src.chunks(BLOCK_RECORDS) {
                index.correlate_sorted_block(chunk, &mut corr);
                hits += corr
                    .iter()
                    .filter(|c| {
                        c.is_some_and(|(_, realm)| realm == iotscope_devicedb::Realm::Consumer)
                    })
                    .count();
            }
            hits
        }),
    );
    // The pre-index path: hash-map probe plus the `&IotDevice`
    // dereference ingest needed for the realm.
    let map: HashMap<Ipv4Addr, u32> = db.iter().map(|d| (d.ip, d.id.0)).collect();
    let devices = db.as_slice();
    record(
        "correlation/lookup_hashmap",
        flows_bytes(&busy.flows),
        measure(warm_micro, iters_micro, || {
            busy.flows
                .iter()
                .filter(|f| {
                    map.get(&f.src_ip).is_some_and(|&id| {
                        devices[id as usize].realm() == iotscope_devicedb::Realm::Consumer
                    })
                })
                .count()
        }),
    );
    let trie: PrefixTrie<u32> = db
        .iter()
        .map(|d| (Ipv4Cidr::new(d.ip, 32).unwrap(), d.id.0))
        .collect();
    record(
        "correlation/lookup_trie",
        flows_bytes(&busy.flows),
        measure(warm_micro, iters_micro, || {
            busy.flows
                .iter()
                .filter(|f| trie.longest_match(f.src_ip).is_some())
                .count()
        }),
    );

    // -- store codec ------------------------------------------------
    let encoded = encode_hour(busy.hour, &busy.flows, StoreOptions::default());
    record(
        "store/encode_hour",
        flows_bytes(&busy.flows),
        measure(warm_micro, iters_micro, || {
            encode_hour(busy.hour, &busy.flows, StoreOptions::default()).len()
        }),
    );
    record(
        "store/decode_hour",
        encoded.len() as u64,
        measure(warm_micro, iters_micro, || {
            decode_hour_with(&encoded, DecodeOptions::default())
                .expect("bench decode")
                .flows
                .len()
        }),
    );
    record(
        "store/visit_hour",
        encoded.len() as u64,
        measure(warm_micro, iters_micro, || {
            let mut sink = CountSink::default();
            decode_hour_visit(&encoded, DecodeOptions::default(), &mut sink).expect("bench visit");
            sink.0
        }),
    );
    record(
        "store/decode_block_batch",
        encoded.len() as u64,
        measure(warm_micro, iters_micro, || {
            let mut sink = BlockCountSink::default();
            decode_hour_visit(&encoded, DecodeOptions::default(), &mut sink).expect("bench batch");
            sink.0
        }),
    );

    // -- store-backed pipeline (fused decode→ingest) ----------------
    let dir = std::env::temp_dir().join(format!("iotscope-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FlowStore::create(&dir, StoreOptions::default()).expect("create perf store");
    built
        .scenario
        .write_to_store(&store)
        .expect("write perf store");
    let store_bytes: u64 = store
        .hours_present(&window)
        .iter()
        .map(|&h| {
            store
                .read_hour_bytes(h)
                .map(|b| b.len() as u64)
                .unwrap_or(0)
        })
        .sum();
    let pipeline = AnalysisPipeline::new(db, num_hours);
    record(
        "pipeline/analyze_store_sequential",
        store_bytes,
        measure(warm, iters, || {
            pipeline
                .run(&store, &AnalyzeOptions::new().window(window))
                .expect("perf store analysis")
                .analysis
                .device_count()
        }),
    );
    // The sharded loop scales over the device space, so sweep thread
    // counts.
    for (threads, name) in [
        (2, "pipeline/analyze_store_parallel2"),
        (4, "pipeline/analyze_store_parallel4"),
        (8, "pipeline/analyze_store_parallel8"),
    ] {
        record(
            name,
            store_bytes,
            measure(warm, iters, || {
                pipeline
                    .run(
                        &store,
                        &AnalyzeOptions::new().window(window).threads(threads),
                    )
                    .expect("perf store analysis")
                    .analysis
                    .device_count()
            }),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // -- resident daemon under load ---------------------------------
    let serve = args.serve.then(|| {
        eprintln!(
            "serving: daemon + {} endpoints under load ...",
            ENDPOINTS.len()
        );
        bench_serve(
            db.clone(),
            built.inventory.isps.clone(),
            num_hours,
            &hours,
            intel_ctx.map(|(ctx, _)| ctx),
            args.quick,
        )
    });
    if let Some(s) = &serve {
        for (name, row) in &s.endpoints {
            eprintln!(
                "  {name}: p50 {} p99 {} ({} reqs, {} errors)",
                fmt_ns(row.p50_ns as u128),
                fmt_ns(row.p99_ns as u128),
                row.requests,
                row.errors
            );
        }
        eprintln!("  serve.ingest_hours_per_s: {:.1}", s.ingest_hours_per_s);
    }

    // -- outputs ----------------------------------------------------
    println!();
    println!(
        "{:<36} {:>12} {:>12} {:>10}",
        "bench", "median", "MB/s", "rss MB"
    );
    for e in &results {
        let mbps = if e.bytes > 0 && e.median_ns > 0 {
            format!("{:.1}", e.bytes as f64 / (e.median_ns as f64 / 1e9) / 1e6)
        } else {
            "-".to_owned()
        };
        println!(
            "{:<36} {:>12} {:>12} {:>10.1}",
            e.name,
            fmt_ns(e.median_ns),
            mbps,
            e.peak_rss as f64 / (1024.0 * 1024.0)
        );
    }

    write_json(&args.out, &results, serve.as_ref()).expect("write bench json");
    eprintln!(
        "\nwrote {} ({:.1}s total)",
        args.out,
        t0.elapsed().as_secs_f64()
    );
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Hand-rolled JSON (no serde in the workspace): one object, bench name
/// → `{median_ns, bytes, peak_rss}`, insertion order preserved. With a
/// serve section, `serve.<endpoint>` rows and the bare
/// `serve.ingest_hours_per_s` number follow the bench rows.
fn write_json(path: &str, results: &[Entry], serve: Option<&ServeSection>) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    for (i, e) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() && serve.is_none() {
            ""
        } else {
            ","
        };
        // store rows carry a derived throughput field so trends are
        // readable straight from the JSON.
        let mb_per_s = if e.name.starts_with("store") && e.bytes > 0 && e.median_ns > 0 {
            format!(
                ", \"mb_per_s\": {:.3}",
                e.bytes as f64 * 1000.0 / e.median_ns as f64
            )
        } else {
            String::new()
        };
        writeln!(
            f,
            "  \"{}\": {{\"median_ns\": {}, \"bytes\": {}, \"peak_rss\": {}{mb_per_s}}}{comma}",
            e.name, e.median_ns, e.bytes, e.peak_rss
        )?;
    }
    if let Some(s) = serve {
        for (name, row) in &s.endpoints {
            writeln!(
                f,
                "  \"{name}\": {{\"requests\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}}},",
                row.requests, row.p50_ns, row.p99_ns, row.mean_ns
            )?;
        }
        writeln!(
            f,
            "  \"serve.ingest_hours_per_s\": {:.3}",
            s.ingest_hours_per_s
        )?;
    }
    writeln!(f, "}}")?;
    Ok(())
}

//! The traced run: per-layer metrics from timing public calls and from
//! nesting one run inside the next, outside in.
//!
//! Batch waterfall (one thread). The three store rows run hour by hour,
//! each hour through all three in a rotating order:
//!
//! ```text
//! fetch      fetch_hour_bytes                                  -> store.fetch_ms
//! decode     fetch + visit_hour_for into a null block sink     -> store.decode_ms
//! correlate  decode + correlate_sorted_block per ColumnBlock   -> correlate.ms
//! run_1t     AnalysisPipeline::run of the traced 1-thread pass -> analysis.accumulate_ms
//! report     that pass's Report::build, then render()          -> report.build_ms, report.render_ms
//! ```
//!
//! A row's cost is the difference between neighbouring medians, so the
//! rows sum to the one-thread pass; a check holds that sum to the
//! untraced pass within the `analyze_1t_s` bound, and another holds each
//! nested run to at least the run inside it (fetch <= decode <=
//! correlate <= run_1t) within the same bound, so no row is negative
//! beyond noise.
//!
//! Daemon layers replay the first [`REPLAY_HOURS`] hours outside the
//! service, making the calls `TelescopeService::ingest` makes, then
//! answer every endpoint in process and over a socket.

use crate::batch::{self, nproc, Expected, PassChecker};
use crate::calib::Calibrator;
use crate::daemon::{self, endpoint_paths, open_loop, read_window, RATE_PER_S};
use crate::data::{Loaded, Meta, SetupTimes};
use crate::trace::Tracer;
use crate::util::{median, process_cpu_s, quantile, Metrics};
use crate::{Outcome, Workload};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::stream::{StreamConfig, StreamingAnalyzer};
use iotscope_core::{ScoreConfig, ScoreEngine};
use iotscope_devicedb::{CorrelationIndex, Realm};
use iotscope_intel::{IntelIndex, MalwareDb, ThreatRepo};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::{ColumnBlock, DecodeOptions, FlowSink, FlowStore};
use iotscope_net::time::AnalysisWindow;
use iotscope_obs::Registry;
use iotscope_serve::http::HttpServer;
use iotscope_serve::{TelescopeService, ENDPOINTS};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest repetitions of each nested row (a year repetition takes about
/// 25 s on two CPUs, and a run must end within 180 s).
const MIN_REPS: usize = 2;
/// Hours replayed through the daemon layers (the paper's window).
pub const REPLAY_HOURS: u32 = 143;
/// In-process `respond` calls per endpoint.
const RESPOND_SAMPLES: usize = 101;
/// How long the open loop measures the HTTP layer on the final epoch.
const HTTP_WINDOW: Duration = Duration::from_secs(2);

/// Counts what the decoder hands over, doing nothing else.
#[derive(Default)]
struct NullSink {
    records: u64,
}

impl FlowSink for NullSink {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.records += flows.len() as u64;
    }

    fn visit_block(&mut self, block: &ColumnBlock) {
        self.records += block.len() as u64;
    }
}

/// Correlates every decoded source against the inventory: the sorted
/// merge-join per block, the per-record lookup for block-less hours.
struct CorrelateSink<'a> {
    index: &'a CorrelationIndex,
    out: Vec<Option<(u32, Realm)>>,
    records: u64,
    matched: u64,
}

impl FlowSink for CorrelateSink<'_> {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.records += flows.len() as u64;
        self.matched += flows
            .iter()
            .filter(|f| self.index.correlate(f.src_ip).is_some())
            .count() as u64;
    }

    fn visit_block(&mut self, block: &ColumnBlock) {
        self.index
            .correlate_sorted_block(block.src_ip(), &mut self.out);
        self.records += block.len() as u64;
        self.matched += self.out.iter().filter(|c| c.is_some()).count() as u64;
    }
}

/// Totals of one pass over the store.
#[derive(Default)]
struct Scan {
    bytes: u64,
    records: u64,
    blocks: u64,
    matched: u64,
}

/// The three store rows, innermost first.
const SCAN_ROWS: [&str; 3] = ["row.fetch", "row.decode", "row.correlate"];

/// One store row for one hour: fetch its bytes and, past the fetch row,
/// stream them through the row's sink.
fn scan_hour(
    row: usize,
    store: &FlowStore,
    hour: iotscope_net::time::UnixHour,
    sinks: (&mut NullSink, &mut CorrelateSink),
    scan: &mut Scan,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let bytes = tracer
        .span("fetch_hour_bytes", |_| store.fetch_hour_bytes(hour))
        .map_err(|e| format!("fetch {hour}: {e}"))?;
    let sink: &mut dyn FlowSink = match row {
        0 => {
            scan.bytes += bytes.bytes().len() as u64;
            return Ok(());
        }
        1 => sinks.0,
        _ => sinks.1,
    };
    let v = tracer
        .span("visit_hour_for", |_| {
            store.visit_hour_for(hour, bytes.bytes(), DecodeOptions::default(), sink)
        })
        .map_err(|e| format!("decode {hour}: {e}"))?;
    if row == 1 {
        scan.records += v.records as u64;
        scan.blocks += v.blocks as u64;
    }
    Ok(())
}

/// Medians, in seconds, of the nested rows.
#[derive(Default)]
struct Rows {
    fetch: Vec<f64>,
    decode: Vec<f64>,
    correlate: Vec<f64>,
    run_1t: Vec<f64>,
    run_n: Vec<f64>,
    build: Vec<f64>,
    render: Vec<f64>,
    fold: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    report_bytes: usize,
    cpu_n: f64,
    wall_n: f64,
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// `(imbalance, shards, max, mean)` of `pipeline.shard.N.devices`.
fn shard_balance(snap: &iotscope_obs::Snapshot) -> (f64, f64, f64, f64) {
    let counts: Vec<f64> = (0..)
        .map_while(|i| snap.gauge(&format!("pipeline.shard.{i}.devices")))
        .map(|d| d as f64)
        .collect();
    if counts.is_empty() {
        return (1.0, 1.0, 0.0, 0.0);
    }
    let max = counts.iter().copied().fold(0.0, f64::max);
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    (imbalance, counts.len() as f64, max, mean)
}

pub fn run(
    w: Workload,
    dir: &Path,
    meta: &Meta,
    seed: u64,
    seconds: f64,
    waterfall_bound: f64,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    let with_intel = w.data() == crate::data::DataKind::Paper;
    let window = meta.window()?;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let mut m = Metrics::default();

    // -- set-up ------------------------------------------------------
    // Per-layer rows are raw wall times: no calibration kernel runs.
    let (l, setups) = batch::setup_rounds(
        dir,
        (with_intel, batch::SETUP_ROUNDS),
        &mut tracer,
        &mut Calibrator::disabled(),
    )?;
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.set(
        "setup.inventory_load_ms",
        ms(med(|t| t.inventory_load)),
        "ms",
    );
    m.set(
        "setup.correlation_index_ms",
        ms(med(|t| t.correlation_index)),
        "ms",
    );
    m.set("setup.store_open_ms", ms(med(|t| t.store_open)), "ms");
    m.set("setup.intel_load_ms", ms(med(|t| t.intel_load)), "ms");

    // Without intel (year_segments) the intel rows time the same calls
    // over empty stores.
    let empty_index;
    let index: &IntelIndex = match &l.intel {
        Some(ctx) => &ctx.index,
        None => {
            empty_index = IntelIndex::empty();
            &empty_index
        }
    };
    let intel_build: Vec<f64> = (0..MIN_REPS)
        .map(|_| {
            let t = Instant::now();
            match &l.intel {
                Some(ctx) => black_box(IntelIndex::build(&ctx.threats, &ctx.malware).len()),
                None => black_box(IntelIndex::build(&ThreatRepo::new(), &MalwareDb::new()).len()),
            };
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.set("intel.index_build_ms", ms(median(&intel_build)), "ms");

    // -- batch waterfall ---------------------------------------------
    let mut checker = PassChecker::new(Expected::from_meta(meta, seed)?);
    let (rows, scan_totals, registry_n) = nested_rows(
        &l,
        window,
        index,
        seconds,
        &mut tracer,
        &mut checker,
        &mut out,
    )?;
    let fetch = median(&rows.fetch);
    let decode = median(&rows.decode);
    let correlate = median(&rows.correlate);
    let run_1t = median(&rows.run_1t);
    let run_n = median(&rows.run_n);
    let build = median(&rows.build);
    let render = median(&rows.render);
    m.set("store.fetch_ms", ms(fetch), "ms");
    m.set("store.bytes_read", scan_totals.bytes as f64, "bytes");
    m.set(
        "store.fetch_mb_per_s",
        scan_totals.bytes as f64 / 1e6 / fetch,
        "MB/s",
    );
    m.set("store.decode_ms", ms(decode - fetch), "ms");
    m.set("store.records", scan_totals.records as f64, "count");
    m.set("store.blocks", scan_totals.blocks as f64, "count");
    m.set(
        "store.decode_ns_per_record",
        (decode - fetch) * 1e9 / scan_totals.records as f64,
        "ns",
    );
    let hits = registry_n.counter("store.segment_cache.hits").unwrap_or(0) as f64;
    let misses = registry_n
        .counter("store.segment_cache.misses")
        .unwrap_or(0) as f64;
    m.set("store.segment_cache_lookups", hits + misses, "count");
    m.set(
        "store.segment_cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    m.set("correlate.ms", ms(correlate - decode), "ms");
    m.set("correlate.matched", scan_totals.matched as f64, "count");
    m.set(
        "correlate.match_ratio",
        scan_totals.matched as f64 / scan_totals.records as f64,
        "ratio",
    );
    m.set("analysis.accumulate_ms", ms(run_1t - correlate), "ms");
    m.set("pipeline.run_1t_ms", ms(run_1t), "ms");
    m.set("pipeline.run_ms", ms(run_n), "ms");
    m.set("pipeline.speedup", run_1t / run_n, "x");
    m.set("pipeline.cpu_util", rows.cpu_n / rows.wall_n, "cpus");
    m.set("pipeline.threads", nproc() as f64, "count");
    let (imbalance, shards, max, mean) = shard_balance(&registry_n);
    m.set("shard.imbalance", imbalance, "ratio");
    m.set("shard.count", shards, "count");
    m.set("shard.max_devices", max, "count");
    m.set("shard.mean_devices", mean, "count");
    m.set("report.build_ms", ms(build), "ms");
    m.set("report.render_ms", ms(render), "ms");
    m.set("score.fold_ms", ms(median(&rows.fold)), "ms");

    m.set("report.bytes", rows.report_bytes as f64, "bytes");
    let untraced = median(&rows.untraced);
    let waterfall = run_1t + build + render;
    m.set("waterfall.sum_ms", ms(waterfall), "ms");
    m.set("waterfall.untraced_ms", ms(untraced), "ms");
    m.set(
        "trace.overhead_ms",
        ms(median(&rows.traced) - untraced),
        "ms",
    );
    let gap = (waterfall - untraced).abs() / untraced;
    // A NaN gap (no untraced pass) fails the check too.
    if gap.is_nan() || gap > waterfall_bound {
        out.errors.push(format!(
            "waterfall rows sum to {:.1} ms, the untraced pass takes {:.1} ms ({:.1}% apart, bound {:.0}%)",
            ms(waterfall),
            ms(untraced),
            gap * 100.0,
            waterfall_bound * 100.0
        ));
    }
    // The sum above holds by construction; what can go wrong is the
    // nesting the differences rely on. Each nested run must contain the
    // one inside it, within the same bound, or a row comes out negative.
    let nested = [
        ("fetch", fetch),
        ("decode", decode),
        ("correlate", correlate),
        ("run_1t", run_1t),
    ];
    for pair in nested.windows(2) {
        let ((inner, a), (outer, b)) = (pair[0], pair[1]);
        // False for a NaN row too.
        let contains = b >= a * (1.0 - waterfall_bound);
        if !contains {
            out.errors.push(format!(
                "nested rows out of order: {outer} takes {:.1} ms, less than {inner} inside it ({:.1} ms, bound {:.0}%)",
                ms(b),
                ms(a),
                waterfall_bound * 100.0
            ));
        }
    }
    out.errors.append(&mut checker.errors);

    // -- daemon layers -------------------------------------------------
    daemon_layers(&l, window, index, &mut tracer, &mut m, &mut out)?;
    drop(l);

    if let Some(path) = trace_out {
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": {}}}",
            w.name(),
            tracer.spans().len()
        );
        std::fs::write(path, tracer.to_jsonl(&header))
            .map_err(|e| format!("write trace {path}: {e}"))?;
    }
    eprintln!("self time by span (ms): spans, total, self");
    for (name, (n, total, own)) in tracer.summary() {
        eprintln!(
            "  {name:<32} {n:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out.metrics = m;
    Ok(out)
}

/// The nested rows, repeated until `seconds` have passed and each has
/// [`MIN_REPS`] samples. Each repetition is one trace run.
#[allow(clippy::type_complexity)]
fn nested_rows(
    l: &Loaded,
    window: AnalysisWindow,
    index: &IntelIndex,
    seconds: f64,
    tracer: &mut Tracer,
    checker: &mut PassChecker,
    out: &mut Outcome,
) -> Result<(Rows, Scan, iotscope_obs::Snapshot), String> {
    let db = &l.inventory.db;
    let store = &l.store;
    let hours = store.hours_present(&window);
    let mut rows = Rows::default();
    let mut totals = Scan::default();
    let mut snap_n = None;
    let start = Instant::now();
    while rows.fetch.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        tracer.next_run();
        // The store rows run hour by hour, each hour through all three
        // rows in a rotating order, so drift on a shared machine and
        // cache warmth fall on every row alike.
        let mut null = NullSink::default();
        let mut corr = CorrelateSink {
            index: db.correlation_index(),
            out: Vec::new(),
            records: 0,
            matched: 0,
        };
        let mut scan = Scan::default();
        let mut row_s = [0.0f64; 3];
        for (i, &hour) in hours.iter().enumerate() {
            for k in 0..3 {
                let row = (i + k) % 3;
                let t = Instant::now();
                tracer.span(SCAN_ROWS[row], |t| {
                    scan_hour(row, store, hour, (&mut null, &mut corr), &mut scan, t)
                })?;
                row_s[row] += t.elapsed().as_secs_f64();
            }
        }
        // Each row repeats the rows inside it, so its time is cumulative.
        rows.fetch.push(row_s[0]);
        rows.decode.push(row_s[1]);
        rows.correlate.push(row_s[2]);
        if null.records != scan.records || corr.records != scan.records {
            return Err("the decode and correlate rows saw different record counts".to_owned());
        }
        scan.matched = corr.matched;
        totals = scan;

        // The parallel run, with the run's registry for the shard and
        // segment-cache counters.
        let registry = Registry::new();
        let options = AnalyzeOptions::new()
            .window(window)
            .threads(nproc())
            .metrics(&registry);
        let cpu = process_cpu_s();
        let t = Instant::now();
        let outcome = tracer
            .span("row.run", |_| {
                AnalysisPipeline::new(db, window.num_hours()).run(store, &options)
            })
            .map_err(|e| format!("analysis failed: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        rows.run_n.push(wall);
        rows.cpu_n += process_cpu_s() - cpu;
        rows.wall_n += wall;
        snap_n = outcome.metrics;

        let mut engine = ScoreEngine::new(db, index, ScoreConfig::default());
        let t = Instant::now();
        tracer.span("ScoreEngine::fold", |_| {
            black_box(engine.fold(&outcome.analysis).len())
        });
        rows.fold.push(t.elapsed().as_secs_f64());

        // The one-thread pass, traced and untraced in alternating order:
        // the traced one gives the run and report rows, the untraced one
        // the total the waterfall must add up to.
        let order = if rows.fetch.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for traced in order {
            tracer.next_run();
            let p = if traced {
                batch::pass(l, window, 1, tracer)?
            } else {
                batch::pass(l, window, 1, &mut Tracer::disabled())?
            };
            out.attempted += 1;
            if !checker.check(&p, 1) {
                out.failed += 1;
            }
            if traced {
                rows.run_1t.push(p.run_s);
                rows.build.push(p.build_s);
                rows.render.push(p.render_s);
                rows.traced.push(p.total_s);
                rows.report_bytes = p.report_bytes;
            } else {
                rows.untraced.push(p.total_s);
            }
        }
        out.attempted += 1;
        if checker.reference() != Some(&outcome.analysis) {
            out.failed += 1;
            out.errors
                .push("one-thread and parallel analyses differ".to_owned());
        }
    }
    Ok((rows, totals, snap_n.ok_or("no metrics snapshot")?))
}

/// Replay the first [`REPLAY_HOURS`] hours outside the service with the
/// calls `ingest` makes (push, then clone analysis, alerts and scores
/// for the snapshot), then serve the final epoch and time every endpoint
/// in process and over HTTP.
fn daemon_layers(
    l: &Loaded,
    window: AnalysisWindow,
    index: &IntelIndex,
    tracer: &mut Tracer,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Result<(), String> {
    let db = &l.inventory.db;
    let replay = AnalysisWindow::new(window.start(), REPLAY_HOURS.min(window.num_hours()))
        .map_err(|e| format!("replay window: {e}"))?;
    tracer.next_run();
    let t = Instant::now();
    let traffic = tracer.span("daemon.decode", |_| read_window(&l.store, &replay))?;
    let decode_s = t.elapsed().as_secs_f64();

    let t_replay = Instant::now();
    let mut stream = StreamingAnalyzer::new(db, replay.num_hours(), StreamConfig::default())
        .with_intel(index, ScoreConfig::default());
    let mut push = Vec::new();
    let (mut snap_a, mut snap_l, mut snap_s) = (0.0, 0.0, 0.0);
    for hour in &traffic {
        let t = Instant::now();
        tracer.span("StreamingAnalyzer::push_hour", |_| {
            black_box(stream.push_hour(hour))
        });
        push.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let a = tracer.span("snapshot", |_| stream.snapshot());
        let t1 = Instant::now();
        let al = tracer.span("alerts.to_vec", |_| stream.alerts().to_vec());
        let t2 = Instant::now();
        let sc = tracer.span("scores.cloned", |_| stream.scores().cloned());
        let t3 = Instant::now();
        black_box((a, al, sc));
        snap_a += (t1 - t).as_secs_f64();
        snap_l += (t2 - t1).as_secs_f64();
        snap_s += (t3 - t2).as_secs_f64();
    }
    let replay_s = decode_s + t_replay.elapsed().as_secs_f64();
    let push_total: f64 = push.iter().sum();
    let publish_total = snap_a + snap_l + snap_s;
    m.set("daemon.replay_hours", traffic.len() as f64, "count");
    m.set("daemon.decode_ms", ms(decode_s), "ms");
    m.set("daemon.replay_ms", ms(replay_s), "ms");
    m.set("stream.push_hour_p50_ms", ms(quantile(&push, 0.50)), "ms");
    m.set("stream.push_hour_p90_ms", ms(quantile(&push, 0.90)), "ms");
    m.set("stream.push_total_ms", ms(push_total), "ms");
    m.set("serve.snapshot_analysis_ms", ms(snap_a), "ms");
    m.set("serve.snapshot_alerts_ms", ms(snap_l), "ms");
    m.set("serve.snapshot_scores_ms", ms(snap_s), "ms");
    m.set("serve.publish_total_ms", ms(publish_total), "ms");
    m.set(
        "serve.publish_share",
        publish_total / (push_total + publish_total),
        "ratio",
    );

    // The service over the same hours, for the query and HTTP layers.
    let mut service =
        TelescopeService::new(db.clone(), l.inventory.isps.clone(), replay.num_hours());
    if let Some(ctx) = &l.intel {
        service = service.with_intel(ctx.clone());
    }
    let replayed = stream.snapshot();
    drop(traffic);
    drop(stream);
    let service = Arc::new(service);
    let t = Instant::now();
    let mut server =
        HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| format!("bind: {e}"))?;
    m.set("serve.bind_ms", ms(t.elapsed().as_secs_f64()), "ms");

    // The service ingests the same hours with the open-loop load attached.
    tracer.next_run();
    let run = tracer.span("ingest_under_load", |_| {
        daemon::ingest_under_load(&service, server.local_addr(), &l.store, &replay)
    })?;
    out.attempted += 1;
    if run.analysis != replayed {
        out.failed += 1;
        out.errors
            .push("the service's ingest differs from the replay".to_owned());
    }
    m.set(
        "http.under_ingest_p50_ms",
        quantile(&run.load.latency_ms, 0.50),
        "ms",
    );
    m.set(
        "http.under_ingest_p99_ms",
        quantile(&run.load.latency_ms, 0.99),
        "ms",
    );
    m.set(
        "loadgen.late_p99_ms",
        quantile(&run.load.late_ms, 0.99),
        "ms",
    );
    m.set("loadgen.sent", run.load.latency_ms.len() as f64, "count");
    m.set("loadgen.failed", run.load.failed as f64, "count");
    out.attempted += run.load.latency_ms.len();
    out.failed += run.load.failed;
    out.errors.extend(run.load.errors.iter().take(20).cloned());
    let (device, scored) = run
        .targets
        .ok_or("the replayed epoch has no observed or scored device")?;
    let paths = endpoint_paths(device, scored);

    tracer.next_run();
    for (ep, (path, expected)) in ENDPOINTS.iter().zip(&paths) {
        let mut samples = Vec::with_capacity(RESPOND_SAMPLES);
        for _ in 0..RESPOND_SAMPLES {
            let t = Instant::now();
            let (status, body) =
                tracer.span("TelescopeService::respond", |_| service.respond(path));
            samples.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            if !daemon::reply_ok(status, *expected, &body) {
                out.failed += 1;
                out.errors.push(format!(
                    "{path} answered {status} in process, expected {expected}"
                ));
            }
        }
        m.set(format!("query.{ep}.p50_us"), median(&samples) * 1e6, "us");
    }
    let load = tracer.span("open_loop", |_| {
        open_loop(server.local_addr(), &paths, RATE_PER_S, HTTP_WINDOW)
    });
    server.shutdown();
    for (i, ep) in ENDPOINTS.iter().enumerate() {
        let lat: Vec<f64> = load
            .latency_ms
            .iter()
            .zip(&load.endpoint)
            .filter(|(_, &e)| e == i)
            .map(|(l, _)| *l)
            .collect();
        m.set(format!("http.{ep}.p50_us"), median(&lat) * 1e3, "us");
    }
    out.attempted += load.latency_ms.len();
    out.failed += load.failed;
    out.errors.extend(load.errors.iter().take(20).cloned());
    Ok(())
}

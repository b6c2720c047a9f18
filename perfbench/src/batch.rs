//! The batch pass — `FlowStore` → `AnalysisPipeline::run` →
//! `Report::build` → `render()` — and the two batch workloads built on
//! it, `paper_batch` and `year_segments`.

use crate::calib::Calibrator;
use crate::data::{self, Loaded, Meta, SetupTimes, INTEL_TOP_N};
use crate::trace::Tracer;
use crate::worker::WorkerReport;
use crate::Workload;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::query::{QueryApi, QueryContext};
use iotscope_core::report::{Report, ReportContext, ReportIntel};
use iotscope_core::{Analysis, ScoreTable};
use iotscope_devicedb::{DeviceId, Realm};
use iotscope_net::time::AnalysisWindow;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Set-up rounds per worker (but `year_segments`'s, see [`BatchPlan`])
/// and per traced run; each is one `setup_s` sample, and the traced
/// set-up rows are medians over them.
pub const SETUP_ROUNDS: usize = 3;
/// Pinned observed-device count of the paper data set at seed 7.
pub const PAPER_SEED7_DEVICES: usize = 26_881;

/// One timed pass.
pub struct Pass {
    pub analysis: Analysis,
    pub digest: u64,
    pub report_bytes: usize,
    pub run_s: f64,
    pub build_s: f64,
    pub render_s: f64,
    pub total_s: f64,
}

/// One batch pass at `threads` over the loaded store: analyze, build the
/// report (with the §V intel join when intel is loaded) and render it.
/// The spans go to `tracer` (a disabled tracer records nothing).
pub fn pass(
    l: &Loaded,
    window: AnalysisWindow,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let db = &l.inventory.db;
    let t0 = Instant::now();
    tracer.enter("pass");
    let outcome = tracer.span("pipeline.run", |_| {
        AnalysisPipeline::new(db, window.num_hours()).run(
            &l.store,
            &AnalyzeOptions::new().window(window).threads(threads),
        )
    });
    let t1 = Instant::now();
    let analysis = match outcome {
        Ok(o) => o.analysis,
        Err(e) => {
            tracer.exit();
            return Err(format!("analysis failed: {e}"));
        }
    };
    let report = tracer.span("report.build", |_| {
        Report::build(&ReportContext {
            analysis: &analysis,
            db,
            isps: &l.inventory.isps,
            intel: l.intel.as_ref().map(|c| ReportIntel {
                threats: &c.threats,
                malware: &c.malware,
                resolver: &c.resolver,
                top_n_per_realm: INTEL_TOP_N,
            }),
        })
    });
    let t2 = Instant::now();
    let text = tracer.span("report.render", |_| report.render());
    tracer.exit();
    let t3 = Instant::now();
    Ok(Pass {
        digest: data::digest(text.as_bytes()),
        report_bytes: text.len(),
        analysis,
        run_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        render_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
    })
}

/// What every pass of one data set must reproduce.
pub struct Expected {
    /// Observed devices (the pinned count at seed 7, else the
    /// generator's in-memory reference).
    pub devices: Option<usize>,
    /// Digest of the report the generator rendered in memory.
    pub report_digest: Option<u64>,
}

impl Expected {
    pub fn from_meta(meta: &Meta, seed: u64) -> Result<Expected, String> {
        let reference = meta
            .get("ref_devices")
            .ok()
            .map(|_| meta.num("ref_devices"))
            .transpose()?;
        let devices = match (meta.get("kind")?, seed) {
            ("paper", 7) => Some(PAPER_SEED7_DEVICES),
            _ => reference.map(|d| d as usize),
        };
        let report_digest = match meta.get("ref_report_digest") {
            Ok(hex) => Some(u64::from_str_radix(hex, 16).map_err(|_| "bad ref_report_digest")?),
            Err(_) => None,
        };
        Ok(Expected {
            devices,
            report_digest,
        })
    }
}

/// Checks each pass against the expected values and against the first
/// pass: the same `Analysis` and the same report bytes, whatever the
/// thread count.
pub struct PassChecker {
    expected: Expected,
    first: Option<(Analysis, u64)>,
    pub errors: Vec<String>,
}

impl PassChecker {
    pub fn new(expected: Expected) -> Self {
        PassChecker {
            expected,
            first: None,
            errors: Vec::new(),
        }
    }

    /// Check one pass; returns whether it passed.
    pub fn check(&mut self, p: &Pass, threads: usize) -> bool {
        let mut bad = Vec::new();
        if let Some(n) = self.expected.devices {
            if p.analysis.device_count() != n {
                bad.push(format!(
                    "{} devices at {threads} threads, expected {n}",
                    p.analysis.device_count()
                ));
            }
        }
        if let Some(d) = self.expected.report_digest {
            if p.digest != d {
                bad.push(format!(
                    "report digest {:016x} at {threads} threads, generator rendered {d:016x}",
                    p.digest
                ));
            }
        }
        match &self.first {
            None => self.first = Some((p.analysis.clone(), p.digest)),
            Some((a, d)) => {
                if p.analysis != *a {
                    bad.push(format!(
                        "analysis at {threads} threads differs from the first pass"
                    ));
                }
                if p.digest != *d {
                    bad.push(format!(
                        "report digest at {threads} threads differs from the first pass"
                    ));
                }
            }
        }
        let ok = bad.is_empty();
        self.errors.extend(bad);
        ok
    }

    pub fn reference(&self) -> Option<&Analysis> {
        self.first.as_ref().map(|(a, _)| a)
    }

    /// The first pass's report digest, in hex.
    pub fn digest(&self) -> Option<String> {
        self.first.as_ref().map(|(_, d)| format!("{d:016x}"))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a worker times its batch passes.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    /// Run one checked but untimed pass at `nproc` threads first, so
    /// the timed passes find the heap and page cache warm. It is the
    /// reference the timed passes must equal.
    pub warm_up: bool,
    /// Timed pairs of passes, one at `nproc` threads and one at one
    /// thread.
    pub pairs: usize,
    /// Whether each pair runs its `nproc` pass first.
    pub nproc_first: bool,
}

/// Run one pass at `threads`, check it and count it as one attempted
/// operation, then run the calibration kernel.
fn checked_pass(
    l: &Loaded,
    window: AnalysisWindow,
    threads: usize,
    (checker, cal): (&mut PassChecker, &mut Calibrator),
    r: &mut WorkerReport,
) -> Option<Pass> {
    r.attempted += 1;
    match cal.around(|| pass(l, window, threads, &mut Tracer::disabled())) {
        Ok(p) => {
            if !checker.check(&p, threads) {
                r.failed += 1;
            }
            Some(p)
        }
        Err(e) => {
            r.failed += 1;
            checker.errors.push(e);
            None
        }
    }
}

/// Called after each timed pair of passes.
pub type AfterPair<'a> = dyn FnMut(&PassChecker, &mut WorkerReport, &mut Calibrator) + 'a;

/// Run the passes of `plan`, calling `after_pair` after each timed pair.
/// Workers alternate the order within a pair, so whatever is left cold
/// for the first timed pass of a process falls on both thread counts
/// alike. Returns the `AnalysisPipeline::run` share of each timed
/// `nproc` pass, in seconds.
pub fn timed_passes(
    l: &Loaded,
    window: AnalysisWindow,
    (checker, cal): (&mut PassChecker, &mut Calibrator),
    r: &mut WorkerReport,
    plan: PassPlan,
    after_pair: &mut AfterPair,
) -> Vec<f64> {
    let mut run_n = Vec::new();
    // (one thread?, threads) per pass of a pair.
    let mut order = [(false, nproc()), (true, 1)];
    if !plan.nproc_first {
        order.reverse();
    }
    if plan.warm_up {
        checked_pass(l, window, nproc(), (checker, cal), r);
    }
    for _ in 0..plan.pairs {
        for (one_thread, threads) in order {
            let Some(p) = checked_pass(l, window, threads, (checker, cal), r) else {
                continue;
            };
            if one_thread {
                r.total_1.push(p.total_s);
            } else {
                r.total_n.push(p.total_s);
                run_n.push(p.run_s);
            }
        }
        after_pair(checker, r, cal);
    }
    run_n
}

/// Set up `rounds` times, keeping the last round's products, with the
/// calibration kernel after each round.
pub fn setup_rounds(
    dir: &Path,
    (with_intel, rounds): (bool, usize),
    tracer: &mut Tracer,
    cal: &mut Calibrator,
) -> Result<(Loaded, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut last: Option<Loaded> = None;
    for _ in 0..rounds {
        tracer.next_run();
        // Drop the previous round first so rounds do not stack in memory.
        drop(last.take());
        let (l, t) = cal.around(|| data::setup(dir, with_intel, tracer))?;
        times.push(t);
        last = Some(l);
    }
    Ok((last.expect("at least one set-up round"), times))
}

/// The total of each set-up round, in seconds.
pub fn setup_totals(rounds: &[SetupTimes]) -> Vec<f64> {
    rounds.iter().map(SetupTimes::total).collect()
}

/// What a batch worker runs.
struct BatchPlan {
    setups: usize,
    passes: PassPlan,
    /// Batch queries, in equal shares after each timed pair.
    queries: usize,
}

/// A `paper_batch` pass takes a few tenths of a second, so a worker
/// warms up and times four pairs, with 250 queries (four workers give
/// about 1,000 samples, ten beyond the p99 reported with the result). A
/// `year_segments` pass takes seconds, so one pair per worker keeps a
/// run within its time; its set-up (a 5,500-device inventory) and its
/// queries take milliseconds, so it runs more of each, which costs
/// little and spreads their samples over more time.
fn batch_plan(w: Workload, nproc_first: bool) -> BatchPlan {
    match w {
        Workload::YearSegments => BatchPlan {
            setups: 10,
            passes: PassPlan {
                warm_up: false,
                pairs: 1,
                nproc_first,
            },
            queries: 2_500,
        },
        _ => BatchPlan {
            setups: SETUP_ROUNDS,
            passes: PassPlan {
                warm_up: true,
                pairs: 4,
                nproc_first,
            },
            queries: 250,
        },
    }
}

/// One `paper_batch` or `year_segments` worker: set up, then run the
/// passes of its [`BatchPlan`] (the first is the reference) with an
/// equal share of the batch queries on the reference result after each
/// timed pair, so the query samples spread over the worker's life like
/// the pass samples.
pub fn worker(
    w: Workload,
    dir: &Path,
    (meta, seed): (&Meta, u64),
    nproc_first: bool,
    r: &mut WorkerReport,
) -> Result<(), String> {
    let mut cal = Calibrator::new()?;
    let plan = batch_plan(w, nproc_first);
    let with_intel = w == Workload::PaperBatch;
    let (l, setups) = setup_rounds(
        dir,
        (with_intel, plan.setups),
        &mut Tracer::disabled(),
        &mut cal,
    )?;
    r.setup_s = setup_totals(&setups);
    let window = meta.window()?;
    let mut checker = PassChecker::new(Expected::from_meta(meta, seed)?);
    // Batch ingest rate: window hours over the analysis share of a pass.
    let hours = f64::from(window.num_hours());
    let mut scores: Option<Option<ScoreTable>> = None;
    let mut queries = |checker: &PassChecker, r: &mut WorkerReport, cal: &mut Calibrator| {
        let Some(reference) = checker.reference() else {
            return;
        };
        let scores = scores.get_or_insert_with(|| {
            l.intel.as_ref().map(|c| {
                ScoreTable::from_batch(reference, &l.inventory.db, &c.index, Default::default())
            })
        });
        let queries = BatchQueries::new(&l, reference, scores.as_ref());
        let rounds = cal.around(|| queries.time(plan.queries / plan.passes.pairs));
        r.attempted += rounds.len();
        r.round_ms.extend(rounds);
    };
    let passes = plan.passes;
    let run_n = timed_passes(
        &l,
        window,
        (&mut checker, &mut cal),
        r,
        passes,
        &mut queries,
    );
    r.ingest_rate.extend(run_n.iter().map(|s| hours / s));
    r.kernel_ms.extend(cal.kernel_s.iter().map(|s| s * 1e3));
    r.errors.append(&mut checker.errors);
    r.digests.extend(checker.digest());
    Ok(())
}

/// Batch queries over one batch result. A batch query reads every
/// `QueryApi` view behind the daemon's endpoints once (what `investigate`
/// and the report read; `/healthz` and `/metrics` have no batch
/// counterpart). One sample is a whole round, so the pooled median does
/// not sit on the seam between fast and slow views.
pub struct BatchQueries<'a> {
    api: QueryContext<'a>,
    device: DeviceId,
    scored: DeviceId,
}

impl<'a> BatchQueries<'a> {
    /// Targets are the first observed device and the first scored one.
    pub fn new(l: &'a Loaded, analysis: &'a Analysis, scores: Option<&'a ScoreTable>) -> Self {
        let device = analysis
            .compromised_devices()
            .first()
            .copied()
            .unwrap_or(DeviceId(0));
        let scored = scores
            .and_then(|s| s.ids().first().copied())
            .unwrap_or(device);
        BatchQueries {
            api: QueryContext::batch(analysis, &l.inventory.db, &l.inventory.isps)
                .with_scores(scores),
            device,
            scored,
        }
    }

    /// Time `rounds` batch queries; returns the samples in milliseconds.
    pub fn time(&self, rounds: usize) -> Vec<f64> {
        let api: &dyn QueryApi = &self.api;
        (0..rounds)
            .map(|_| {
                let t = Instant::now();
                black_box(api.summary());
                black_box(api.device(self.device));
                black_box(api.realms());
                black_box(api.countries());
                black_box(api.isps(Realm::Consumer, 5));
                black_box(api.isps(Realm::Cps, 5));
                black_box(api.alerts().len());
                black_box(api.top_scores(20));
                black_box(api.score(self.scored));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    }
}

//! Untraced runs: the measured process starts worker processes one after
//! another and pools what they measured.
//!
//! Each worker (`iotscope-perfbench worker`) is one fresh process doing
//! one repetition of the workload: set-up, checked passes, an ingest for
//! `paper_daemon`, query rounds. Fresh processes put process-level
//! effects — heap layout, hash seeds, allocator state — into the samples
//! instead of fixing them for a whole run, and make each worker's peak
//! RSS one repetition's.

use crate::data::Meta;
use crate::util::{median, quantile};
use crate::{batch, calib, daemon, Outcome, Workload};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Fewest workers per run, whatever `--seconds` says.
const MIN_WORKERS: usize = 4;
/// Workers run with one glibc malloc arena. With the default of one
/// arena per thread (up to eight per CPU), how much of the heap the
/// `nproc` pass's threads leave spread over arenas depends on their
/// timing: the peak RSS of identical `paper_batch` workers ranged over
/// 67-86 MB, against 59.2-60.1 MB with one arena, while pass times did
/// not move beyond their noise.
const MALLOC_ARENAS: &str = "1";
/// What one worker measured, printed as one line per field: the key,
/// then its space-separated values.
#[derive(Debug, Default)]
pub struct WorkerReport {
    /// Set-up rounds, wall seconds. `run` scales this and the times and
    /// rate below, up to the kernel's, to the reference speed (see
    /// `calib`).
    pub setup_s: Vec<f64>,
    /// Batch passes at `nproc` threads and at one thread, wall seconds.
    pub total_n: Vec<f64>,
    pub total_1: Vec<f64>,
    /// Window hours per second from the first store read to the result.
    pub ingest_rate: Vec<f64>,
    /// Query rounds, ms.
    pub round_ms: Vec<f64>,
    /// Calibration kernel runs, wall ms.
    pub kernel_ms: Vec<f64>,
    /// Open-loop HTTP requests under ingest, ms from their due time.
    pub http_ms: Vec<f64>,
    /// How far behind schedule each request was sent, ms.
    pub late_ms: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Digest of the rendered report, in hex.
    pub digests: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl WorkerReport {
    fn series(&mut self) -> [(&'static str, &mut Vec<f64>); 9] {
        [
            ("setup_s", &mut self.setup_s),
            ("total_n", &mut self.total_n),
            ("total_1", &mut self.total_1),
            ("ingest_rate", &mut self.ingest_rate),
            ("round_ms", &mut self.round_ms),
            ("kernel_ms", &mut self.kernel_ms),
            ("http_ms", &mut self.http_ms),
            ("late_ms", &mut self.late_ms),
            ("peak_rss_mb", &mut self.peak_rss_mb),
        ]
    }

    fn render(mut self) -> String {
        let mut text = String::new();
        for (key, values) in self.series() {
            text.push_str(key);
            for v in values.iter() {
                let _ = write!(text, " {v:?}");
            }
            text.push('\n');
        }
        let _ = writeln!(text, "digest {}", self.digests.join(" "));
        let _ = writeln!(text, "attempted {}\nfailed {}", self.attempted, self.failed);
        for e in &self.errors {
            let _ = writeln!(text, "error {}", e.replace('\n', " "));
        }
        text
    }

    fn parse(text: &str) -> Result<WorkerReport, String> {
        let mut r = WorkerReport::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("bad worker report line {line:?}");
            match key {
                "digest" => r.digests = rest.split_whitespace().map(str::to_owned).collect(),
                "attempted" => r.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => r.failed = rest.parse().map_err(|_| bad())?,
                "error" => r.errors.push(rest.to_owned()),
                _ => {
                    let values = rest
                        .split_whitespace()
                        .map(|v| v.parse::<f64>().map_err(|_| bad()))
                        .collect::<Result<Vec<f64>, String>>()?;
                    let (_, slot) = r
                        .series()
                        .into_iter()
                        .find(|(k, _)| *k == key)
                        .ok_or_else(bad)?;
                    *slot = values;
                }
            }
        }
        Ok(r)
    }

    fn absorb(&mut self, mut other: WorkerReport) {
        for ((_, mine), (_, theirs)) in self.series().into_iter().zip(other.series()) {
            mine.append(theirs);
        }
        self.digests.append(&mut other.digests);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.append(&mut other.errors);
    }
}

/// The worker entry point: repetition `index` of `w`, printed as a
/// [`WorkerReport`]. Even repetitions run the `nproc` pass first.
pub fn worker_main(w: Workload, dir: &Path, seed: u64, index: usize) -> Result<(), String> {
    let meta = Meta::load(dir)?;
    let mut r = WorkerReport::default();
    let nproc_first = index.is_multiple_of(2);
    match w {
        Workload::PaperBatch | Workload::YearSegments => {
            batch::worker(w, dir, (&meta, seed), nproc_first, &mut r)?
        }
        Workload::PaperDaemon => daemon::worker(dir, (&meta, seed), nproc_first, &mut r)?,
    }
    r.peak_rss_mb.push(crate::util::peak_rss_mb());
    print!("{}", r.render());
    Ok(())
}

/// Run workers until `seconds` have passed (at least [`MIN_WORKERS`]) and
/// pool their reports into the end-to-end metrics.
pub fn run(w: Workload, dir: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut out = Outcome::default();
    let mut all = WorkerReport::default();
    let start = Instant::now();
    let mut workers = 0;
    while workers < MIN_WORKERS || start.elapsed().as_secs_f64() < seconds {
        let child = std::process::Command::new(&exe)
            .args(["worker", "--workload", w.name(), "--data"])
            .arg(dir)
            .args(["--seed", &seed.to_string()])
            .args(["--index", &workers.to_string()])
            .env("MALLOC_ARENA_MAX", MALLOC_ARENAS)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start a worker: {e}"))?;
        workers += 1;
        if !child.status.success() {
            out.attempted += 1;
            out.failed += 1;
            out.errors
                .push(format!("worker exited with {}", child.status));
            continue;
        }
        all.absorb(WorkerReport::parse(&String::from_utf8_lossy(
            &child.stdout,
        ))?);
    }
    // Every worker rendered the same report.
    all.digests.sort();
    all.digests.dedup();
    if all.digests.len() > 1 {
        out.errors.push(format!(
            "workers rendered different reports: {:?}",
            all.digests
        ));
    }
    out.attempted += all.attempted;
    out.failed += all.failed;
    out.errors.extend(all.errors.iter().take(20).cloned());

    let m = &mut out.metrics;
    // Times at the reference speed: the run's medians over the kernel's
    // (see `calib`).
    let contention = median(&all.kernel_ms) / (calib::REFERENCE_S * 1e3);
    let (setup, pass_n, pass_1) = (
        median(&all.setup_s),
        median(&all.total_n),
        median(&all.total_1),
    );
    let (ingest, query) = (median(&all.ingest_rate), median(&all.round_ms));
    m.set("setup_s", setup / contention, "s");
    m.set("analyze_s", pass_n / contention, "s");
    m.set("analyze_1t_s", pass_1 / contention, "s");
    m.set("ingest_hours_per_s", ingest * contention, "1/s");
    m.set("peak_rss_mb", median(&all.peak_rss_mb), "MB");

    // Reported with every result, but not gated: see the README.
    let d = &mut out.detail;
    d.set("workers", workers as f64, "count");
    d.set("passes_per_thread_count", all.total_1.len() as f64, "count");
    d.set("setup_samples", all.setup_s.len() as f64, "count");
    d.set("ingest_samples", all.ingest_rate.len() as f64, "count");
    // The kernel's median over its reference (how much slower than quiet
    // the host ran) and the wall-clock medians it scaled.
    d.set("kernel_samples", all.kernel_ms.len() as f64, "count");
    d.set("contention", contention, "x");
    d.set("setup_wall_s", setup, "s");
    d.set("analyze_wall_s", pass_n, "s");
    d.set("analyze_1t_wall_s", pass_1, "s");
    d.set("ingest_wall_hours_per_s", ingest, "1/s");
    d.set("query_p50_wall_ms", query, "ms");
    // Query rounds are reported, not gated: see the README.
    d.set("query_samples", all.round_ms.len() as f64, "count");
    d.set("query_p50_ms", query / contention, "ms");
    d.set("query_p95_ms", quantile(&all.round_ms, 0.95), "ms");
    d.set("query_p99_ms", quantile(&all.round_ms, 0.99), "ms");
    if !all.http_ms.is_empty() {
        d.set(
            "http_under_ingest_samples",
            all.http_ms.len() as f64,
            "count",
        );
        d.set(
            "http_under_ingest_p50_ms",
            quantile(&all.http_ms, 0.50),
            "ms",
        );
        d.set(
            "http_under_ingest_p99_ms",
            quantile(&all.http_ms, 0.99),
            "ms",
        );
        d.set("loadgen_late_p99_ms", quantile(&all.late_ms, 0.99), "ms");
    }
    Ok(out)
}

//! The iotscope benchmark: end-to-end metrics for three fixed workloads
//! and, in a traced run, a per-layer waterfall. See `perfbench/README.md`.
//!
//! ```text
//! iotscope-perfbench gen --kind paper|year --seed N --generator ID --out DIR
//! iotscope-perfbench run --workload NAME --seed N --seconds S --trace 0|1
//!                        --data DIR --generator ID
//!                        [--trace-out FILE] [--waterfall-bound F, required with --trace 1]
//! ```
//!
//! `gen` writes a data set, recording `ID` (the identity of the build
//! that generated it) in its `meta.tsv`; `run` refuses a data set whose
//! `ID` differs, so inputs written by older code are never measured.
//! `run` measures one workload over it (an
//! untraced run through worker processes, `iotscope-perfbench worker
//! --workload NAME --data DIR --seed N --index I`) and prints three JSON
//! lines: figures that are not metrics (`detail`), the workload
//! fingerprint, then the result (`correct`, `attempted`, `failed`,
//! `metrics`). `perfbench/run.py` drives both.

mod batch;
mod calib;
mod daemon;
mod data;
mod layers;
mod trace;
mod util;
mod worker;

use data::{DataKind, Meta};
use std::path::PathBuf;
use std::process::ExitCode;
use util::{json_str, Metrics};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBatch,
    YearSegments,
    PaperDaemon,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper_batch" => Some(Workload::PaperBatch),
            "year_segments" => Some(Workload::YearSegments),
            "paper_daemon" => Some(Workload::PaperDaemon),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::YearSegments => "year_segments",
            Workload::PaperDaemon => "paper_daemon",
        }
    }

    pub fn data(self) -> DataKind {
        match self {
            Workload::YearSegments => DataKind::Year,
            Workload::PaperBatch | Workload::PaperDaemon => DataKind::Paper,
        }
    }
}

/// What one run measured, counted and found wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Figures printed with the result that are not metrics of the
    /// benchmark (sample counts, ungated quantiles).
    pub detail: Metrics,
    pub errors: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: iotscope-perfbench gen --kind paper|year --seed N --generator ID --out DIR\n       \
         iotscope-perfbench run --workload paper_batch|year_segments|paper_daemon \
         --seed N --seconds S --trace 0|1 --data DIR --generator ID [--trace-out FILE] [--waterfall-bound F, required with --trace 1]"
    );
    ExitCode::from(2)
}

struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--")?;
            pairs.push((key.to_owned(), it.next()?.clone()));
        }
        Some(Args(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key)?.parse().ok()
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    let result = match cmd.as_str() {
        "gen" => {
            let (Some(kind), Some(seed), Some(generator), Some(out)) = (
                args.get("kind").and_then(DataKind::parse),
                args.num::<u64>("seed"),
                args.get("generator"),
                args.get("out"),
            ) else {
                return usage();
            };
            data::generate(kind, seed, generator, &PathBuf::from(out))
        }
        "worker" => {
            let (Some(w), Some(dir), Some(seed), Some(index)) = (
                args.get("workload").and_then(Workload::parse),
                args.get("data"),
                args.num::<u64>("seed"),
                args.num::<usize>("index"),
            ) else {
                return usage();
            };
            worker::worker_main(w, &PathBuf::from(dir), seed, index)
        }
        "calibrate" => calib::serve(),
        "run" => {
            let (Some(w), Some(seed), Some(seconds), Some(trace), Some(dir), Some(generator)) = (
                args.get("workload").and_then(Workload::parse),
                args.num::<u64>("seed"),
                args.num::<f64>("seconds"),
                args.num::<u8>("trace"),
                args.get("data"),
                args.get("generator"),
            ) else {
                return usage();
            };
            if trace > 1 || seconds.is_nan() || seconds < 0.0 {
                return usage();
            }
            // The waterfall must add up to the untraced one-thread pass
            // within the `analyze_1t_s` bound, which `run.py` passes on
            // from `BENCHMARK.json`; a traced run needs it.
            let bound = args.num::<f64>("waterfall-bound");
            if trace == 1 && bound.is_none_or(|b| b.is_nan() || b < 0.0) {
                return usage();
            }
            let opts = RunOptions {
                seed,
                generator,
                seconds,
                traced: trace == 1,
                waterfall_bound: bound,
                trace_out: args.get("trace-out"),
            };
            run(w, &PathBuf::from(dir), &opts)
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct RunOptions<'a> {
    seed: u64,
    /// Identity of the build that must have generated the data set.
    generator: &'a str,
    seconds: f64,
    traced: bool,
    waterfall_bound: Option<f64>,
    trace_out: Option<&'a str>,
}

fn run(w: Workload, dir: &std::path::Path, o: &RunOptions) -> Result<(), String> {
    let (seed, seconds, traced) = (o.seed, o.seconds, o.traced);
    let meta = Meta::load(dir)?;
    if meta.num("seed")? != seed {
        return Err(format!(
            "data set {} was generated for another seed",
            dir.display()
        ));
    }
    if meta.get("generator")? != o.generator {
        return Err(format!(
            "data set {} was generated by another build",
            dir.display()
        ));
    }
    let out = if let (true, Some(bound)) = (traced, o.waterfall_bound) {
        layers::run(w, dir, &meta, seed, seconds, bound, o.trace_out)?
    } else {
        worker::run(w, dir, seed, seconds)?
    };
    let metrics = out.metrics;
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    for (name, value, unit) in metrics.iter().chain(out.detail.iter()) {
        eprintln!("  {name:<36} {:>14} {unit}", format!("{value:.4}"));
    }
    if out.attempted == 0 {
        return Err("no operation was attempted".to_owned());
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    println!("{{\"detail\": {}}}", out.detail.to_json());
    println!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {seed}, \"config\": {}, \"store_bytes\": {}, \"records\": {}, \"hours\": {}, \"nproc\": {}}}}}",
        json_str(w.name()),
        json_str(meta.get("config")?),
        meta.num("store_bytes")?,
        meta.num("records")?,
        meta.num("hours")?,
        batch::nproc()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.to_json()
    );
    Ok(())
}

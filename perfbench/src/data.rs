//! Benchmark inputs: generation (run in its own process, before the
//! measured one) and the set-up that loads them back.
//!
//! A data directory holds exactly what the programs under test read:
//!
//! ```text
//! inventory.tsv          the device inventory (`inventory_io` format)
//! darknet/               the flow store (per-hour v3 files, or segments)
//! intel/threats.tsv      threat-repository events   (paper data only)
//! intel/families.tsv     hash -> malware family      (paper data only)
//! intel/malware/*.xml    sandbox reports             (paper data only)
//! meta.tsv               the fingerprint, reference values and the
//!                        identity of the build that generated it
//! ```

use crate::trace::Tracer;
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::query::{QueryApi, QueryContext};
use iotscope_core::report::{Report, ReportContext, ReportIntel};
use iotscope_devicedb::inventory_io::{self, LoadedInventory};
use iotscope_intel::family::{FamilyResolver, MalwareFamily};
use iotscope_intel::sandbox::MalwareHash;
use iotscope_intel::synth::{IntelBuilder, IntelSynthConfig};
use iotscope_intel::threat::{ThreatCategory, ThreatEvent, ThreatRepo};
use iotscope_intel::{IntelContext, MalwareDb};
use iotscope_net::segment::{Manifest, SegmentStoreBuilder};
use iotscope_net::store::{encode_hour, restamp_hour, FlowStore, StoreOptions};
use iotscope_net::time::{AnalysisWindow, UnixHour};
use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Which generated data set a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// `PaperScenarioConfig::paper(seed, 0.01)`: 143 per-hour files plus
    /// synthetic threat intel.
    Paper,
    /// `PaperScenarioConfig::tiny(seed)`: an 8,760-hour segmented store
    /// built from a pool of re-stamped hours; no intel.
    Year,
}

impl DataKind {
    pub fn parse(s: &str) -> Option<DataKind> {
        match s {
            "paper" => Some(DataKind::Paper),
            "year" => Some(DataKind::Year),
            _ => None,
        }
    }
}

/// Packet scale of the paper data set (the CLI's default).
pub const PAPER_SCALE: f64 = 0.01;
/// Hours in the synthetic year.
pub const YEAR_HOURS: u32 = 8_760;
/// Distinct generated hours the year is re-stamped from.
pub const YEAR_POOL_HOURS: u32 = 24;
/// Hours per segment of the year store.
pub const YEAR_HOURS_PER_SEGMENT: usize = 48;
/// Top devices per realm explored by the §V intel join (the paper's 4,000).
pub const INTEL_TOP_N: usize = 4_000;

/// Generate the data set for `kind` and `seed` into `out` (which must
/// not exist yet), recording `generator`, the identity of this build, in
/// its `meta.tsv`.
pub fn generate(kind: DataKind, seed: u64, generator: &str, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let t0 = Instant::now();
    let mut meta = match kind {
        DataKind::Paper => generate_paper(seed, out)?,
        DataKind::Year => generate_year(seed, out)?,
    };
    meta.insert("generator".to_owned(), generator.to_owned());
    let mut text = String::new();
    for (k, v) in &meta {
        let _ = writeln!(text, "{k}\t{v}");
    }
    std::fs::write(out.join("meta.tsv"), text).map_err(|e| format!("write meta: {e}"))?;
    // Flush the data set to disk here, so its writeback (348 MB for a
    // year) does not overlap the measured process.
    sync_tree(out).map_err(|e| format!("sync {}: {e}", out.display()))?;
    eprintln!(
        "generated {} data for seed {seed} in {:.1}s",
        meta["kind"],
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

fn save_inventory(
    out: &Path,
    built: &iotscope_telescope::paper::BuiltScenario,
    seed: u64,
) -> Result<(), String> {
    let mut inv_meta = BTreeMap::new();
    inv_meta.insert("seed".to_owned(), seed.to_string());
    inventory_io::save(
        out.join("inventory.tsv"),
        &built.inventory.db,
        &built.inventory.isps,
        &inv_meta,
    )
    .map_err(|e| format!("save inventory: {e}"))
}

fn generate_paper(seed: u64, out: &Path) -> Result<BTreeMap<String, String>, String> {
    let config = PaperScenarioConfig::paper(seed, PAPER_SCALE);
    let built = PaperScenario::build(config.clone());
    save_inventory(out, &built, seed)?;
    let store = FlowStore::create(out.join("darknet"), StoreOptions::default())
        .map_err(|e| format!("create store: {e}"))?;
    let hours = built.scenario.generate();
    let mut records = 0u64;
    let mut bytes = 0u64;
    for ht in &hours {
        store
            .write_hour(ht.hour, &ht.flows)
            .map_err(|e| format!("write hour: {e}"))?;
        records += ht.flows.len() as u64;
        bytes += std::fs::metadata(store.hour_path(ht.hour))
            .map_err(|e| format!("stat hour: {e}"))?
            .len();
    }

    // Reference values from the in-memory path, which shares no store
    // code with the measured store-backed pass.
    let db = &built.inventory.db;
    let window = built.scenario.telescope().window;
    let analysis = AnalysisPipeline::new(db, window.num_hours())
        .run(&hours[..], &AnalyzeOptions::new())
        .map_err(|e| format!("reference analysis: {e}"))?
        .analysis;
    let candidates =
        QueryContext::batch(&analysis, db, &built.inventory.isps).candidates(INTEL_TOP_N);
    let intel = IntelBuilder::new(IntelSynthConfig::paper(seed)).build(db, &candidates);
    save_intel(
        &out.join("intel"),
        &intel.threats,
        &intel.malware,
        &intel.resolver,
    )?;
    let report = Report::build(&ReportContext {
        analysis: &analysis,
        db,
        isps: &built.inventory.isps,
        intel: Some(ReportIntel {
            threats: &intel.threats,
            malware: &intel.malware,
            resolver: &intel.resolver,
            top_n_per_realm: INTEL_TOP_N,
        }),
    })
    .render();

    let mut meta = BTreeMap::new();
    meta.insert("kind".to_owned(), "paper".to_owned());
    meta.insert("seed".to_owned(), seed.to_string());
    meta.insert(
        "config".to_owned(),
        format!(
            "paper(seed={seed},scale={PAPER_SCALE}) devices={}",
            config.synth.total_devices()
        ),
    );
    meta.insert("window_start".to_owned(), window.start().get().to_string());
    meta.insert("hours".to_owned(), window.num_hours().to_string());
    meta.insert("store_bytes".to_owned(), bytes.to_string());
    meta.insert("records".to_owned(), records.to_string());
    meta.insert(
        "ref_devices".to_owned(),
        analysis.device_count().to_string(),
    );
    meta.insert(
        "ref_report_digest".to_owned(),
        format!("{:016x}", digest(report.as_bytes())),
    );
    Ok(meta)
}

fn generate_year(seed: u64, out: &Path) -> Result<BTreeMap<String, String>, String> {
    let config = PaperScenarioConfig::tiny(seed);
    let built = PaperScenario::build(config.clone());
    save_inventory(out, &built, seed)?;
    let start = built.scenario.telescope().window.start();
    // Each pooled hour is encoded once; every year hour is a copy of one
    // re-stamped to its own hour, as `perf --year` builds its store.
    let pool: Vec<(Vec<u8>, u64)> = (1..=YEAR_POOL_HOURS)
        .map(|i| {
            let traffic = built.scenario.generate_hour(i);
            let bytes = encode_hour(traffic.hour, &traffic.flows, StoreOptions::default());
            (bytes, traffic.flows.len() as u64)
        })
        .collect();
    let store = FlowStore::create(out.join("darknet"), StoreOptions::default())
        .map_err(|e| format!("create store: {e}"))?;
    let window = AnalysisWindow::new(start, YEAR_HOURS).map_err(|e| format!("year window: {e}"))?;
    let mut builder = SegmentStoreBuilder::new(
        &store.segments_dir(),
        YEAR_HOURS_PER_SEGMENT,
        Manifest::default(),
    )
    .map_err(|e| format!("segment builder: {e}"))?;
    let mut records = 0u64;
    for (i, hour) in window.iter_hours().enumerate() {
        let (pooled, pooled_records) = &pool[i % pool.len()];
        let mut bytes = pooled.clone();
        restamp_hour(&mut bytes, hour).map_err(|e| format!("restamp: {e}"))?;
        builder
            .push(hour, bytes)
            .map_err(|e| format!("push hour: {e}"))?;
        records += pooled_records;
    }
    let report = builder
        .finish()
        .map_err(|e| format!("finish segments: {e}"))?;

    let mut meta = BTreeMap::new();
    meta.insert("kind".to_owned(), "year".to_owned());
    meta.insert("seed".to_owned(), seed.to_string());
    meta.insert(
        "config".to_owned(),
        format!(
            "tiny(seed={seed}) devices={} year={YEAR_HOURS}h pool={YEAR_POOL_HOURS}h seg={YEAR_HOURS_PER_SEGMENT}h",
            config.synth.total_devices()
        ),
    );
    meta.insert("window_start".to_owned(), start.get().to_string());
    meta.insert("hours".to_owned(), YEAR_HOURS.to_string());
    meta.insert("store_bytes".to_owned(), report.bytes_written.to_string());
    meta.insert("records".to_owned(), records.to_string());
    Ok(meta)
}

/// Write the intel stores in the benchmark's own plain formats: events
/// and families as TSV, sandbox reports in their XML format.
fn save_intel(
    dir: &Path,
    threats: &ThreatRepo,
    malware: &MalwareDb,
    resolver: &FamilyResolver,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write intel: {e}");
    std::fs::create_dir_all(dir.join("malware")).map_err(io)?;
    let mut events = String::new();
    for (_, evs) in threats.iter_flagged() {
        for ev in evs {
            let _ = writeln!(
                events,
                "{}\t{}\t{}\t{}",
                ev.ip,
                ev.category.bit(),
                ev.source,
                ev.reported_at
            );
        }
    }
    std::fs::write(dir.join("threats.tsv"), events).map_err(io)?;
    let mut families = String::new();
    let mut hashes: Vec<&MalwareHash> = malware.reports().iter().map(|r| &r.sha256).collect();
    hashes.sort_by(|a, b| a.as_hex().cmp(b.as_hex()));
    hashes.dedup();
    for h in hashes {
        if let Some(f) = resolver.resolve(h) {
            let _ = writeln!(families, "{}\t{f}", h.as_hex());
        }
    }
    std::fs::write(dir.join("families.tsv"), families).map_err(io)?;
    for (i, r) in malware.reports().iter().enumerate() {
        std::fs::write(dir.join("malware").join(format!("r{i:06}.xml")), r.to_xml()).map_err(io)?;
    }
    Ok(())
}

/// Read the intel stores back (the inverse of [`save_intel`]).
fn load_intel(dir: &Path) -> Result<(ThreatRepo, MalwareDb, FamilyResolver), String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read intel {name}: {e}"))
    };
    let mut threats = ThreatRepo::new();
    for line in read("threats.tsv")?.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad threats.tsv line {line:?}");
        if f.len() != 4 {
            return Err(bad());
        }
        let mask: u8 = f[1].parse().map_err(|_| bad())?;
        let category = ThreatCategory::from_mask(mask).next().ok_or_else(bad)?;
        threats.add(ThreatEvent {
            ip: f[0].parse().map_err(|_| bad())?,
            category,
            source: f[2].to_owned(),
            reported_at: f[3].parse().map_err(|_| bad())?,
        });
    }
    let mut resolver = FamilyResolver::new();
    for line in read("families.tsv")?.lines() {
        let bad = || format!("bad families.tsv line {line:?}");
        let (hash, name) = line.split_once('\t').ok_or_else(bad)?;
        let family = MalwareFamily::ALL
            .into_iter()
            .find(|f| f.to_string() == name)
            .ok_or_else(bad)?;
        resolver.register(MalwareHash::from_hex(hash), family);
    }
    let mut malware = MalwareDb::new();
    let (_, skipped) = malware
        .ingest_dir(dir.join("malware"))
        .map_err(|e| format!("read sandbox reports: {e}"))?;
    if let Some((path, e)) = skipped.first() {
        return Err(format!("bad sandbox report {}: {e}", path.display()));
    }
    Ok((threats, malware, resolver))
}

/// The generated data set's `meta.tsv`.
#[derive(Debug, Clone)]
pub struct Meta(BTreeMap<String, String>);

impl Meta {
    pub fn load(dir: &Path) -> Result<Meta, String> {
        let text = std::fs::read_to_string(dir.join("meta.tsv"))
            .map_err(|e| format!("read {}/meta.tsv: {e}", dir.display()))?;
        Ok(Meta(
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        ))
    }

    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("meta.tsv has no {key:?}"))
    }

    pub fn num(&self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("meta.tsv {key:?} is not a number"))
    }

    pub fn window(&self) -> Result<AnalysisWindow, String> {
        let start = UnixHour::new(self.num("window_start")?);
        let hours = u32::try_from(self.num("hours")?).map_err(|_| "meta.tsv hours too large")?;
        AnalysisWindow::new(start, hours).map_err(|e| format!("window: {e}"))
    }
}

/// Everything one set-up round produces.
pub struct Loaded {
    pub inventory: LoadedInventory,
    pub store: FlowStore,
    pub intel: Option<IntelContext>,
}

/// Time of each set-up step of one round, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub inventory_load: f64,
    pub correlation_index: f64,
    pub store_open: f64,
    pub intel_load: f64,
    pub intel_index: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.inventory_load
            + self.correlation_index
            + self.store_open
            + self.intel_load
            + self.intel_index
    }
}

/// One set-up round: load the inventory, force its correlation index,
/// open the store and, when `with_intel`, load the intel stores and
/// index them with [`IntelContext::new`]. Each step is a span.
pub fn setup(
    dir: &Path,
    with_intel: bool,
    tracer: &mut Tracer,
) -> Result<(Loaded, SetupTimes), String> {
    let mut times = SetupTimes::default();
    tracer.enter("setup");
    let result = (|| {
        let (inventory, s) = timed(tracer, "inventory_io::load", || {
            inventory_io::load(dir.join("inventory.tsv"))
                .map_err(|e| format!("load inventory: {e}"))
        });
        times.inventory_load = s;
        let inventory = inventory?;
        times.correlation_index = timed(tracer, "DeviceDb::correlation_index", || {
            std::hint::black_box(inventory.db.correlation_index());
        })
        .1;
        let (store, s) = timed(tracer, "FlowStore::open", || {
            FlowStore::open(dir.join("darknet")).map_err(|e| format!("open store: {e}"))
        });
        times.store_open = s;
        let store = store?;
        let intel = if with_intel {
            let (stores, s) = timed(tracer, "intel.load", || load_intel(&dir.join("intel")));
            times.intel_load = s;
            let (threats, malware, resolver) = stores?;
            let (ctx, s) = timed(tracer, "IntelContext::new", || {
                IntelContext::new(threats, malware, resolver)
            });
            times.intel_index = s;
            Some(ctx)
        } else {
            None
        };
        Ok(Loaded {
            inventory,
            store,
            intel,
        })
    })();
    tracer.exit();
    result.map(|l| (l, times))
}

/// Run `f` inside a span and return its result with its wall time in
/// seconds.
pub fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.enter(name);
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    tracer.exit();
    (out, s)
}

/// 64-bit FNV-1a: a digest that is stable across processes and builds.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

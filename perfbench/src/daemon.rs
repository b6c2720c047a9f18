//! `paper_daemon`: the resident service ingesting the paper store behind
//! `HttpServer`, with an open-loop query load attached.

use crate::batch::{self, Expected, PassChecker};
use crate::calib::Calibrator;
use crate::data::{Loaded, Meta};
use crate::trace::Tracer;
use crate::util::is_valid_json;
use crate::worker::WorkerReport;
use iotscope_core::stream::StreamConfig;
use iotscope_core::Analysis;
use iotscope_net::store::FlowStore;
use iotscope_net::time::AnalysisWindow;
use iotscope_serve::http::HttpServer;
use iotscope_serve::{TelescopeService, ENDPOINTS};
use iotscope_telescope::HourTraffic;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop request rate of the load generator.
pub const RATE_PER_S: f64 = 200.0;
/// How long the generator runs per ingest, counted from epoch 1. Fixed,
/// and long enough to outlast the ingest.
pub const LOAD_WINDOW: Duration = Duration::from_secs(3);
/// How long the generator waits for the first epoch with a scored
/// device before it gives up.
const EPOCH_WAIT: Duration = Duration::from_secs(60);

/// Read and decode every window hour the store holds — the daemon's
/// input, in the shape `TelescopeService::ingest` takes.
pub fn read_window(store: &FlowStore, window: &AnalysisWindow) -> Result<Vec<HourTraffic>, String> {
    let mut traffic = Vec::new();
    for (interval, hour) in window.iter_intervals() {
        if store.has_hour(hour) {
            let flows = store
                .read_hour(hour)
                .map_err(|e| format!("read hour {hour}: {e}"))?;
            traffic.push(HourTraffic {
                interval,
                hour,
                flows,
            });
        }
    }
    Ok(traffic)
}

/// The request paths, one per endpoint in [`ENDPOINTS`] order, each with
/// the status a correct service answers. The `/device` and `/score`
/// targets are taken from a published snapshot; a service without intel
/// scores nothing, so its `/score/{id}` answer is a 404.
pub fn endpoint_paths(device: u32, scored: Option<u32>) -> Vec<(String, u16)> {
    ENDPOINTS
        .iter()
        .map(|e| match *e {
            "device" => (format!("/device/{device}"), 200),
            "score" => match scored {
                Some(id) => (format!("/score/{id}"), 200),
                None => (format!("/score/{device}"), 404),
            },
            "score_top" => ("/score/top".to_owned(), 200),
            other => (format!("/{other}"), 200),
        })
        .collect()
}

/// Whether a reply is the expected status with a well-formed JSON body.
pub fn reply_ok(status: u16, expected: u16, body: &str) -> bool {
    status == expected && is_valid_json(body)
}

/// Wait until the service has published an epoch whose snapshot holds
/// an observed device and, with intel, a scored one; returns their ids.
pub fn await_targets(service: &TelescopeService, deadline: Instant) -> Option<(u32, Option<u32>)> {
    loop {
        let snap = service.snapshot();
        if snap.epoch >= 1 {
            let device = snap.analysis.compromised_devices().first().map(|d| d.0);
            let scored = snap.scores.as_ref().map(|t| t.ids().first().map(|d| d.0));
            match (device, scored) {
                (Some(d), None) => return Some((d, None)),
                (Some(d), Some(Some(s))) => return Some((d, Some(s))),
                _ => {}
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A keep-alive HTTP/1.1 client for the benchmark's GET requests.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            let r = BufReader::new(s.try_clone()?);
            self.conn = Some((s, r));
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// GET `path`; returns the status and body. On any error the
    /// connection is dropped and the next call reconnects.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        let result = self.try_get(path);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_get(&mut self, path: &str) -> Result<(u16, String), String> {
        let (w, r) = self.connect().map_err(|e| format!("connect: {e}"))?;
        write!(w, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        r.read_line(&mut line)
            .map_err(|e| format!("read status: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut len = None;
        loop {
            line.clear();
            r.read_line(&mut line)
                .map_err(|e| format!("read header: {e}"))?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                }
            }
        }
        let len = len.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| "body is not UTF-8".to_owned())
    }
}

/// Raw results of one open-loop window.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Per request, ms from its scheduled send time to its last
    /// response byte; a failed request is `+inf` (it misses any limit).
    pub latency_ms: Vec<f64>,
    /// Per request, ms its send ran behind schedule.
    pub late_ms: Vec<f64>,
    /// Per request, the endpoint index.
    pub endpoint: Vec<usize>,
    pub failed: usize,
    pub errors: Vec<String>,
}

/// An open loop from one thread over one keep-alive connection: request
/// `k` is due at `start + k / rate`, round-robin over `paths`, for
/// `window`. A request is sent when it is due or, if the previous one is
/// still outstanding, as soon as that completes; either way it is timed
/// from when it was due.
pub fn open_loop(
    addr: SocketAddr,
    paths: &[(String, u16)],
    rate: f64,
    window: Duration,
) -> LoadResult {
    let mut client = Client::new(addr);
    let mut res = LoadResult::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    for k in 0u32.. {
        let offset = interval * k;
        if offset >= window {
            break;
        }
        let due = start + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let idx = k as usize % paths.len();
        let (path, expected) = (&paths[idx].0, paths[idx].1);
        let reply = client.get(path);
        let done = Instant::now();
        res.late_ms.push((sent - due).as_secs_f64() * 1e3);
        res.endpoint.push(idx);
        let ok = match reply {
            Ok((status, body)) if reply_ok(status, expected, &body) => true,
            Ok((status, body)) => {
                res.errors.push(format!(
                    "{path} answered {status}, expected {expected}, with {} body bytes (valid JSON: {})",
                    body.len(),
                    is_valid_json(&body)
                ));
                false
            }
            Err(e) => {
                res.errors.push(format!("{path}: {e}"));
                false
            }
        };
        if ok {
            res.latency_ms.push((done - due).as_secs_f64() * 1e3);
        } else {
            res.failed += 1;
            res.latency_ms.push(f64::INFINITY);
        }
    }
    res
}

/// One ingest of `window` from `store` into `service`, served at
/// `addr`, with the open-loop load attached from epoch 1 on.
pub struct LoadedIngest {
    pub analysis: Analysis,
    pub hours: usize,
    /// From the first store read to the final epoch being published.
    pub ingest_s: f64,
    pub load: LoadResult,
    /// The `/device` and `/score` targets the load used.
    pub targets: Option<(u32, Option<u32>)>,
    /// Whether the load window ended after the final epoch.
    pub outlasted: bool,
}

pub fn ingest_under_load(
    service: &Arc<TelescopeService>,
    addr: SocketAddr,
    store: &FlowStore,
    window: &AnalysisWindow,
) -> Result<LoadedIngest, String> {
    std::thread::scope(|scope| {
        let svc = Arc::clone(service);
        let ingest = scope.spawn(
            move || -> Result<(Analysis, usize, Instant, Instant), String> {
                let t0 = Instant::now();
                let traffic = read_window(store, window)?;
                let (analysis, _) = svc.ingest(&traffic, StreamConfig::default(), &mut |_| {});
                Ok((analysis, traffic.len(), t0, Instant::now()))
            },
        );
        let targets = await_targets(service, Instant::now() + EPOCH_WAIT);
        let load = match &targets {
            Some((device, scored)) => open_loop(
                addr,
                &endpoint_paths(*device, *scored),
                RATE_PER_S,
                LOAD_WINDOW,
            ),
            None => LoadResult {
                failed: 1,
                errors: vec!["no epoch with an observed and scored device was published".to_owned()],
                ..LoadResult::default()
            },
        };
        let load_end = Instant::now();
        let ingest = ingest
            .join()
            .map_err(|_| "ingest thread panicked".to_owned())?;
        let (analysis, hours, t0, t1) = ingest?;
        Ok(LoadedIngest {
            analysis,
            hours,
            ingest_s: (t1 - t0).as_secs_f64(),
            load,
            targets,
            outlasted: load_end >= t1,
        })
    })
}

/// One daemon lifecycle: its set-up time, the ingest under load, and
/// query rounds in process on the final epoch.
pub struct Episode {
    /// Each set-up round plus the bind, in seconds.
    pub setup_s: Vec<f64>,
    pub run: LoadedIngest,
    /// In-process query rounds on the final epoch, in ms.
    pub rounds_ms: Vec<f64>,
    /// Replies to the rounds that were not the expected status with
    /// well-formed JSON.
    pub bad_replies: Vec<String>,
}

/// Set up (load, index and open [`batch::SETUP_ROUNDS`] times; then
/// bind), ingest `window` under load, time
/// `rounds` query rounds in process on the final epoch, shut down. The
/// calibration kernel runs after each of those steps.
///
/// `before_serve` runs on the loaded inputs after set-up and before they
/// move into the service (the batch passes run there, so they share the
/// episode's set-up).
pub fn episode(
    dir: &Path,
    window: &AnalysisWindow,
    cal: &mut Calibrator,
    before_serve: &mut dyn FnMut(&Loaded, &mut Calibrator),
    rounds: usize,
) -> Result<Episode, String> {
    let (loaded, setups) = batch::setup_rounds(
        dir,
        (true, batch::SETUP_ROUNDS),
        &mut Tracer::disabled(),
        cal,
    )?;
    before_serve(&loaded, cal);
    let Loaded {
        inventory,
        store,
        intel,
        ..
    } = loaded;
    let (service, server, bind_s) = cal.around(|| {
        let t = Instant::now();
        let mut service = TelescopeService::new(inventory.db, inventory.isps, window.num_hours());
        if let Some(ctx) = intel {
            service = service.with_intel(ctx);
        }
        let service = Arc::new(service);
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service));
        (service, server, t.elapsed().as_secs_f64())
    });
    let mut server = server.map_err(|e| format!("bind: {e}"))?;

    let ingested = cal.around(|| ingest_under_load(&service, server.local_addr(), &store, window));
    let result = ingested.map(|run| {
        let mut bad_replies = Vec::new();
        let mut rounds_ms = Vec::with_capacity(rounds);
        if let Some((device, scored)) = run.targets {
            let paths = endpoint_paths(device, scored);
            let raw = cal.around(|| {
                (0..rounds)
                    .map(|_| {
                        let t = Instant::now();
                        let replies: Vec<(u16, String)> = paths
                            .iter()
                            .map(|(path, _)| service.respond(path))
                            .collect();
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        for ((path, expected), (status, body)) in paths.iter().zip(&replies) {
                            if !reply_ok(*status, *expected, body) {
                                bad_replies.push(format!("{path} answered {status} in process"));
                            }
                        }
                        ms
                    })
                    .collect::<Vec<f64>>()
            });
            rounds_ms.extend(raw);
        }
        Episode {
            setup_s: batch::setup_totals(&setups)
                .iter()
                .map(|s| s + bind_s)
                .collect(),
            run,
            rounds_ms,
            bad_replies,
        }
    });
    server.shutdown();
    result
}

/// In-process query rounds per daemon process: four workers give 2,000
/// samples.
const ROUNDS_PER_INGEST: usize = 500;
/// Batch passes per daemon process: a warm-up, then three timed pairs.
const PASS_PAIRS: usize = 3;

/// One `paper_daemon` worker: set up; run a warm-up and [`PASS_PAIRS`]
/// timed pairs of batch passes on that set-up (the same pass as `paper_batch`'s, whose
/// analysis the ingest must reproduce); serve and ingest under the
/// open-loop load; time query rounds in process on the final epoch.
pub fn worker(
    dir: &Path,
    (meta, seed): (&Meta, u64),
    nproc_first: bool,
    r: &mut WorkerReport,
) -> Result<(), String> {
    let window = meta.window()?;
    let mut checker = PassChecker::new(Expected::from_meta(meta, seed)?);
    let mut cal = Calibrator::new()?;
    let mut batch_passes = |l: &Loaded, cal: &mut Calibrator| {
        let plan = batch::PassPlan {
            warm_up: true,
            pairs: PASS_PAIRS,
            nproc_first,
        };
        batch::timed_passes(l, window, (&mut checker, cal), r, plan, &mut |_, _, _| {});
    };
    let ep = episode(dir, &window, &mut cal, &mut batch_passes, ROUNDS_PER_INGEST);
    r.kernel_ms.extend(cal.kernel_s.iter().map(|s| s * 1e3));
    r.attempted += 1;
    match ep {
        Ok(ep) => {
            let run = ep.run;
            r.setup_s = ep.setup_s;
            if Some(&run.analysis) != checker.reference() {
                r.failed += 1;
                r.errors
                    .push("ingest analysis differs from the batch analysis".to_owned());
            } else if run.hours != window.num_hours() as usize {
                r.failed += 1;
                r.errors.push(format!(
                    "ingested {} of {} hours",
                    run.hours,
                    window.num_hours()
                ));
            } else {
                r.ingest_rate.push(run.hours as f64 / run.ingest_s);
            }
            if !run.outlasted {
                eprintln!("note: the load window ended before ingest finished");
            }
            r.attempted += run.load.latency_ms.len() + ep.rounds_ms.len();
            r.failed += run.load.failed + ep.bad_replies.len();
            r.errors.extend(run.load.errors.into_iter().take(20));
            r.errors.extend(ep.bad_replies.into_iter().take(20));
            r.http_ms = run.load.latency_ms;
            r.late_ms = run.load.late_ms;
            r.round_ms = ep.rounds_ms;
        }
        Err(e) => {
            r.failed += 1;
            r.errors.push(e);
        }
    }
    r.errors.append(&mut checker.errors);
    r.digests.extend(checker.digest());
    Ok(())
}

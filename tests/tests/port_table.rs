//! Table IV's flat port table against a naive reference built straight
//! from the flows: every analysis path — sequential, device-sharded,
//! streaming and store-backed — must agree with a
//! `BTreeMap<port, (packets, BTreeSet<device>)>` on every port.

use iotscope_core::analysis::{Analysis, Analyzer, PortTable};
use iotscope_core::classify::{classify, TrafficClass};
use iotscope_core::pipeline::{AnalysisPipeline, AnalyzeOptions};
use iotscope_core::shard::{assemble, ShardAccumulator, ShardRouter};
use iotscope_core::stream::{StreamConfig, StreamingAnalyzer};
use iotscope_devicedb::{DeviceId, ShardMap};
use iotscope_net::store::{FlowStore, StoreOptions};
use iotscope_net::time::AnalysisWindow;
use iotscope_telescope::paper::{BuiltScenario, PaperScenario, PaperScenarioConfig};
use iotscope_telescope::HourTraffic;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

type Reference = BTreeMap<u16, (u64, BTreeSet<DeviceId>)>;

/// One tiny 143-hour scenario, its traffic, and the same hours written
/// to a store, shared by every case.
struct Shared {
    built: BuiltScenario,
    traffic: Vec<HourTraffic>,
    store: FlowStore,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let built = PaperScenario::build(PaperScenarioConfig::tiny(33));
        let traffic = built.scenario.generate();
        let dir = std::env::temp_dir().join(format!("iotscope-it-ports-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        for hour in &traffic {
            store.write_hour(hour.hour, &hour.flows).unwrap();
        }
        Shared {
            built,
            traffic,
            store,
        }
    })
}

/// Table IV from first principles: look every UDP flow's source up in
/// the inventory and collect packets and device sets per port.
fn reference(hours: &[HourTraffic]) -> Reference {
    let db = &shared().built.inventory.db;
    let mut table = Reference::new();
    for flow in hours.iter().flat_map(|h| &h.flows) {
        if classify(flow) != TrafficClass::Udp {
            continue;
        }
        if let Some(device) = db.lookup_ip(flow.src_ip) {
            let entry = table.entry(flow.dst_port).or_default();
            entry.0 += u64::from(flow.packets);
            entry.1.insert(device.id);
        }
    }
    table
}

/// Whether `table` holds exactly the ports, packets and devices of
/// `expected`; the error names the first difference.
fn check(table: &PortTable, expected: &Reference) -> Result<(), String> {
    let ports: Vec<u16> = table.iter().map(|(port, _, _)| port).collect();
    let want: Vec<u16> = expected.keys().copied().collect();
    if ports != want {
        return Err(format!("ports differ: {} vs {}", ports.len(), want.len()));
    }
    for (&port, (packets, devices)) in expected {
        if table.packets(port) != *packets || table.devices(port) != devices.len() {
            return Err(format!(
                "port {port}: ({}, {}) vs ({packets}, {})",
                table.packets(port),
                table.devices(port),
                devices.len()
            ));
        }
        if let Some(missing) = devices.iter().find(|&&d| !table.contains(port, d)) {
            return Err(format!("port {port}: device {} missing", missing.0));
        }
    }
    let pairs: usize = expected.values().map(|(_, d)| d.len()).sum();
    if table.pair_count() != pairs || table.len() != expected.len() {
        return Err(format!("{} pairs vs {pairs}", table.pair_count()));
    }
    Ok(())
}

fn sequential(hours: &[HourTraffic]) -> Analysis {
    let mut an = Analyzer::new(&shared().built.inventory.db, hours.len() as u32);
    for hour in hours {
        an.ingest_hour(hour);
    }
    an.finish()
}

/// Two routers over alternating hours into `shards` device shards.
fn sharded(hours: &[HourTraffic], shards: usize) -> Analysis {
    let db = &shared().built.inventory.db;
    let n = hours.len() as u32;
    let map = ShardMap::new(db.len(), shards);
    let mut accs: Vec<ShardAccumulator> = (0..shards)
        .map(|s| ShardAccumulator::new(n, map.range(s)))
        .collect();
    let mut parts = Vec::new();
    for first in 0..2 {
        let mut router = ShardRouter::new(db, n, map);
        for hour in hours.iter().skip(first).step_by(2) {
            router.begin_hour(hour.interval);
            router.route(&hour.flows);
            for (s, flows) in router.finish_hour().into_iter().enumerate() {
                accs[s].apply_hour(hour.interval, &flows);
            }
        }
        parts.push(router.into_partial());
    }
    assemble(n, parts, accs.into_iter().map(|a| a.finish()).collect())
}

/// The streamed state after the last hour — what the daemon publishes.
fn streamed(hours: &[HourTraffic]) -> Analysis {
    let db = &shared().built.inventory.db;
    let mut stream = StreamingAnalyzer::new(db, hours.len() as u32, StreamConfig::default());
    for hour in hours {
        stream.push_hour(hour);
    }
    stream.snapshot()
}

fn from_store(hours: &[HourTraffic]) -> Analysis {
    let s = shared();
    let window = AnalysisWindow::new(hours[0].hour, hours.len() as u32).unwrap();
    AnalysisPipeline::new(&s.built.inventory.db, window.num_hours())
        .run(&s.store, &AnalyzeOptions::new().window(window).threads(2))
        .unwrap()
        .analysis
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over a random prefix of the window, every path's port table
    /// equals the naive reference.
    #[test]
    fn prop_port_table_matches_naive_reference(
        prefix in 1usize..=143,
        shards in 1usize..=64,
    ) {
        let hours = &shared().traffic[..prefix];
        let expected = reference(hours);
        for (path, analysis) in [
            ("sequential", sequential(hours)),
            ("sharded", sharded(hours, shards)),
            ("streaming", streamed(hours)),
            ("store", from_store(hours)),
        ] {
            if let Err(e) = check(&analysis.udp_ports, &expected) {
                return Err(TestCaseError::fail(format!("{path}: {e}")));
            }
        }
    }
}

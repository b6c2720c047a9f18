//! Integration test crate for the iotscope workspace; see tests/tests/.
//!
//! The library half holds the references several test files share.

use iotscope_core::{Analysis, Analyzer};
use iotscope_devicedb::DeviceDb;
use iotscope_obs::{Registry, Snapshot, SnapshotEntry};
use iotscope_telescope::HourTraffic;

/// The sequential reference every pipeline run must reproduce: one
/// [`Analyzer::with_metrics`] ingesting `traffic` in order (the kernel
/// the streaming analyzer keeps), and the `analysis.*` counters it
/// published.
pub fn sequential_reference(
    db: &DeviceDb,
    hours: u32,
    traffic: &[HourTraffic],
) -> (Analysis, Vec<SnapshotEntry>) {
    let registry = Registry::new();
    let mut an = Analyzer::with_metrics(db, hours, &registry);
    for hour in traffic {
        an.ingest_hour(hour);
    }
    (an.finish(), analysis_counters(&registry.snapshot()))
}

/// The `analysis.*` entries of `snapshot`, in name order.
pub fn analysis_counters(snapshot: &Snapshot) -> Vec<SnapshotEntry> {
    snapshot
        .entries()
        .iter()
        .filter(|e| e.name.starts_with("analysis."))
        .cloned()
        .collect()
}

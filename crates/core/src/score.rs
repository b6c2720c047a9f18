//! Incremental per-device maliciousness scoring (the streaming §V join).
//!
//! The paper's Section V correlates inferred devices against a threat
//! repository and a malware database once, after the fact. Here that
//! join is a *scoring engine* that folds evidence per device as each
//! hour ingests:
//!
//! * **intel evidence** — threat-repo category hits and sandbox-sample
//!   contacts, resolved once per device through the prefix-bucketed
//!   [`IntelIndex`] (static for a device's lifetime: intel stores are
//!   immutable during a run);
//! * **behavioral evidence** — cumulative scanning and backscatter
//!   (DoS-victim) packet counts from the running [`Analysis`].
//!
//! Evidence maps to *points* and points to a five-rung severity ladder
//! ([`Severity`]). Both are pure functions of (cumulative analysis,
//! static intel), and the cumulative counts are monotone, so a device's
//! tier never decreases — which is what makes the escalation-alert
//! dedup contract ("no repeat alert until the next tier is crossed")
//! well-defined, and what makes hour-by-hour folding land bit-identical
//! to one batch fold of the finished analysis (proptested in
//! `tests/score_streaming.rs`).
//!
//! Storage follows [`DeviceTable`](crate::table::DeviceTable): columnar
//! struct-of-arrays keyed by the inventory's dense intern index, rows
//! first-seen ordered while folding and id-sorted after
//! [`ScoreTable::normalize`], with order- and capacity-insensitive
//! equality.

use crate::analysis::Analysis;
use crate::classify::TrafficClass;
use iotscope_devicedb::{DeviceDb, DeviceId, Realm};
use iotscope_intel::{IntelIndex, ThreatCategory};
use std::fmt;

/// The severity ladder: deterministic point thresholds, monotone in
/// accumulated evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// No evidence.
    None,
    /// 1–2 points.
    Low,
    /// 3–4 points.
    Medium,
    /// 5–6 points.
    High,
    /// 7+ points.
    Critical,
}

impl Severity {
    /// All tiers, ascending.
    pub const ALL: [Severity; 5] = [
        Severity::None,
        Severity::Low,
        Severity::Medium,
        Severity::High,
        Severity::Critical,
    ];

    /// The tier for a point total.
    #[inline]
    pub fn from_points(points: u32) -> Severity {
        match points {
            0 => Severity::None,
            1..=2 => Severity::Low,
            3..=4 => Severity::Medium,
            5..=6 => Severity::High,
            _ => Severity::Critical,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::None => "none",
            Severity::Low => "low",
            Severity::Medium => "medium",
            Severity::High => "high",
            Severity::Critical => "critical",
        })
    }
}

/// Thresholds for the behavioral signals and the alerting floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreConfig {
    /// Cumulative scanning packets (TCP SYN + ICMP echo) that count as
    /// a behavioral signal.
    pub scan_packets_min: u64,
    /// Cumulative backscatter packets (DoS victimhood) that count as a
    /// behavioral signal.
    pub backscatter_min: u64,
    /// Minimum tier that emits an escalation.
    pub alert_min_tier: Severity,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig {
            scan_packets_min: 1_000,
            backscatter_min: 100,
            alert_min_tier: Severity::Low,
        }
    }
}

/// Map one device's evidence to points. Every term is monotone in its
/// input, and the intel inputs are static, so points never decrease as
/// hours fold.
#[inline]
fn points_for(cat_mask: u8, samples: u32, scan: u64, backscatter: u64, cfg: &ScoreConfig) -> u32 {
    let mut p = cat_mask.count_ones();
    if cat_mask & ThreatCategory::Malware.bit() != 0 {
        p += 2;
    }
    p += match samples {
        0 => 0,
        1..=2 => 2,
        _ => 3,
    };
    if scan >= cfg.scan_packets_min {
        p += 1;
    }
    if backscatter >= cfg.backscatter_min {
        p += 1;
    }
    p
}

/// One device's materialized score — the row type of a [`ScoreTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRow {
    /// The device.
    pub device: DeviceId,
    /// Its realm.
    pub realm: Realm,
    /// Packed threat-category bitmask
    /// ([`ThreatCategory::bit`] encoding).
    pub cat_mask: u8,
    /// Number of sandbox samples that contacted the device.
    pub samples: u32,
    /// Cumulative scanning packets.
    pub scan_packets: u64,
    /// Cumulative backscatter packets.
    pub backscatter_packets: u64,
    /// Cumulative packets across all classes.
    pub total_packets: u64,
    /// Current point total.
    pub points: u32,
    /// Current severity tier.
    pub tier: Severity,
}

impl ScoreRow {
    /// Decode the category mask, in Table VI order.
    pub fn categories(&self) -> Vec<ThreatCategory> {
        ThreatCategory::from_mask(self.cat_mask).collect()
    }
}

/// Columnar per-device maliciousness scores: one row per correlated
/// device, struct-of-arrays, dense-intern-index keyed like
/// [`DeviceTable`](crate::table::DeviceTable).
#[derive(Debug, Clone, Default)]
pub struct ScoreTable {
    /// Device id per row.
    ids: Vec<DeviceId>,
    /// Realm per row.
    realms: Vec<Realm>,
    /// Packed category bitmask per row (static intel evidence).
    cat_mask: Vec<u8>,
    /// Window start into `sample_refs` per row.
    sample_start: Vec<u32>,
    /// Window length per row.
    sample_len: Vec<u32>,
    /// Shared pool of sandbox-report indices (windowed by the rows; pool
    /// order is append order and carries no meaning of its own).
    sample_refs: Vec<u32>,
    /// Cumulative scanning packets per row.
    scan_packets: Vec<u64>,
    /// Cumulative backscatter packets per row.
    backscatter_packets: Vec<u64>,
    /// Cumulative total packets per row.
    total_packets: Vec<u64>,
    /// Current points per row.
    points: Vec<u32>,
    /// Current tier per row.
    tiers: Vec<Severity>,
    /// Sparse index: device index → row + 1 (0 = absent).
    row_of: Vec<u32>,
    /// Whether rows are currently sorted by id.
    sorted: bool,
}

impl ScoreTable {
    /// An empty table.
    pub fn new() -> Self {
        ScoreTable {
            sorted: true,
            ..ScoreTable::default()
        }
    }

    /// Score a finished analysis in one batch fold — the `Report::build`
    /// path. Equivalent to streaming the same hours through a
    /// [`ScoreEngine`] and calling [`ScoreEngine::finish`].
    pub fn from_batch(
        analysis: &Analysis,
        db: &DeviceDb,
        index: &IntelIndex,
        config: ScoreConfig,
    ) -> Self {
        let mut engine = ScoreEngine::new(db, index, config);
        engine.fold(analysis);
        engine.finish()
    }

    /// Number of scored devices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no device is scored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row holding `id`, if scored.
    #[inline]
    pub fn row(&self, id: DeviceId) -> Option<usize> {
        match self.row_of.get(id.0 as usize) {
            Some(&r) if r != 0 => Some(r as usize - 1),
            _ => None,
        }
    }

    /// Whether the device is scored.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.row(id).is_some()
    }

    /// Device ids in row order (sorted ascending iff
    /// [`normalize`](Self::normalize)d).
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// Sandbox-report indices (into `MalwareDb::reports`) for `row`.
    #[inline]
    pub fn samples_at(&self, row: usize) -> &[u32] {
        let start = self.sample_start[row] as usize;
        &self.sample_refs[start..start + self.sample_len[row] as usize]
    }

    /// Materialize the score at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    pub fn row_at(&self, row: usize) -> ScoreRow {
        ScoreRow {
            device: self.ids[row],
            realm: self.realms[row],
            cat_mask: self.cat_mask[row],
            samples: self.sample_len[row],
            scan_packets: self.scan_packets[row],
            backscatter_packets: self.backscatter_packets[row],
            total_packets: self.total_packets[row],
            points: self.points[row],
            tier: self.tiers[row],
        }
    }

    /// Materialize the score for `id`, if scored.
    pub fn get(&self, id: DeviceId) -> Option<ScoreRow> {
        self.row(id).map(|r| self.row_at(r))
    }

    /// Iterate over rows as materialized scores, in row order.
    pub fn rows(&self) -> impl Iterator<Item = ScoreRow> + '_ {
        (0..self.len()).map(|r| self.row_at(r))
    }

    /// The `n` highest-scoring devices with any evidence (points > 0),
    /// ordered by points descending then id ascending — deterministic
    /// regardless of row order.
    pub fn top(&self, n: usize) -> Vec<ScoreRow> {
        let mut scored: Vec<(u32, DeviceId, usize)> = (0..self.len())
            .filter(|&r| self.points[r] > 0)
            .map(|r| (self.points[r], self.ids[r], r))
            .collect();
        scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .take(n)
            .map(|(_, _, r)| self.row_at(r))
            .collect()
    }

    /// Sort rows by device id and rebuild the sparse index, making row
    /// order independent of fold order. The sample pool is left as
    /// appended — only the per-row windows move. No-op when already
    /// sorted.
    pub fn normalize(&mut self) {
        if self.sorted {
            return;
        }
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_unstable_by_key(|&r| self.ids[r as usize]);
        self.ids = permute(&self.ids, &perm);
        self.realms = permute(&self.realms, &perm);
        self.cat_mask = permute(&self.cat_mask, &perm);
        self.sample_start = permute(&self.sample_start, &perm);
        self.sample_len = permute(&self.sample_len, &perm);
        self.scan_packets = permute(&self.scan_packets, &perm);
        self.backscatter_packets = permute(&self.backscatter_packets, &perm);
        self.total_packets = permute(&self.total_packets, &perm);
        self.points = permute(&self.points, &perm);
        self.tiers = permute(&self.tiers, &perm);
        for (row, id) in self.ids.iter().enumerate() {
            self.row_of[id.0 as usize] = (row + 1) as u32;
        }
        self.sorted = true;
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<DeviceId>()
            + self.realms.capacity() * size_of::<Realm>()
            + self.cat_mask.capacity()
            + self.sample_start.capacity() * size_of::<u32>()
            + self.sample_len.capacity() * size_of::<u32>()
            + self.sample_refs.capacity() * size_of::<u32>()
            + self.scan_packets.capacity() * size_of::<u64>()
            + self.backscatter_packets.capacity() * size_of::<u64>()
            + self.total_packets.capacity() * size_of::<u64>()
            + self.points.capacity() * size_of::<u32>()
            + self.tiers.capacity() * size_of::<Severity>()
            + self.row_of.capacity() * size_of::<u32>()
    }

    /// Get-or-create the row for `id`; intel evidence is resolved once,
    /// on creation.
    #[inline]
    fn upsert(&mut self, id: DeviceId, realm: Realm, cat_mask: u8, samples: &[u32]) -> usize {
        let idx = id.0 as usize;
        if idx >= self.row_of.len() {
            self.row_of.resize(idx + 1, 0);
        }
        let slot = self.row_of[idx];
        if slot != 0 {
            return slot as usize - 1;
        }
        let row = self.ids.len();
        if self.sorted && self.ids.last().is_some_and(|last| *last > id) {
            self.sorted = false;
        }
        self.ids.push(id);
        self.realms.push(realm);
        self.cat_mask.push(cat_mask);
        self.sample_start.push(self.sample_refs.len() as u32);
        self.sample_len.push(samples.len() as u32);
        self.sample_refs.extend_from_slice(samples);
        self.scan_packets.push(0);
        self.backscatter_packets.push(0);
        self.total_packets.push(0);
        self.points.push(0);
        self.tiers.push(Severity::None);
        self.row_of[idx] = (row + 1) as u32;
        row
    }
}

/// Gather `src` through the permutation `perm` (new row `i` = old row
/// `perm[i]`).
fn permute<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&r| src[r as usize]).collect()
}

/// Row-set equality, insensitive to row order, index capacity, and
/// sample-pool layout.
impl PartialEq for ScoreTable {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|row| {
            let id = self.ids[row];
            match other.row(id) {
                Some(orow) => {
                    self.realms[row] == other.realms[orow]
                        && self.cat_mask[row] == other.cat_mask[orow]
                        && self.samples_at(row) == other.samples_at(orow)
                        && self.scan_packets[row] == other.scan_packets[orow]
                        && self.backscatter_packets[row] == other.backscatter_packets[orow]
                        && self.total_packets[row] == other.total_packets[orow]
                        && self.points[row] == other.points[orow]
                        && self.tiers[row] == other.tiers[orow]
                }
                None => false,
            }
        })
    }
}

impl Eq for ScoreTable {}

/// One tier crossing emitted by a fold: the device reached `tier` (its
/// highest tier so far) with `points` points. At most one escalation
/// per device per fold — a multi-tier jump reports only the tier
/// landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escalation {
    /// The device that escalated.
    pub device: DeviceId,
    /// The tier it reached.
    pub tier: Severity,
    /// Its point total at escalation.
    pub points: u32,
}

/// The incremental scorer: holds a [`ScoreTable`] plus per-row alert
/// state, and folds a (cumulative) [`Analysis`] snapshot into it after
/// each hour.
///
/// # Example
///
/// ```
/// use iotscope_core::analysis::Analyzer;
/// use iotscope_core::score::{ScoreConfig, ScoreEngine};
/// use iotscope_devicedb::DeviceDb;
/// use iotscope_intel::IntelIndex;
///
/// let db = DeviceDb::new();
/// let index = IntelIndex::empty();
/// let mut engine = ScoreEngine::new(&db, &index, ScoreConfig::default());
/// let analysis = Analyzer::new(&db, 4).finish();
/// assert!(engine.fold(&analysis).is_empty());
/// assert!(engine.finish().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ScoreEngine<'a> {
    db: &'a DeviceDb,
    index: &'a IntelIndex,
    config: ScoreConfig,
    table: ScoreTable,
    /// Highest tier already alerted, per row (fold order).
    alerted: Vec<Severity>,
}

impl<'a> ScoreEngine<'a> {
    /// A fresh engine over an inventory and a prebuilt intel index.
    pub fn new(db: &'a DeviceDb, index: &'a IntelIndex, config: ScoreConfig) -> Self {
        ScoreEngine {
            db,
            index,
            config,
            table: ScoreTable::new(),
            alerted: Vec::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ScoreConfig {
        &self.config
    }

    /// The in-progress table (first-seen row order until
    /// [`finish`](Self::finish)).
    pub fn table(&self) -> &ScoreTable {
        &self.table
    }

    /// Fold the current cumulative `analysis` into the table and return
    /// the tier crossings, in `analysis` row order.
    ///
    /// Behavioral columns are overwritten (the analysis is cumulative),
    /// intel columns are resolved once per device, and a device alerts
    /// only when it exceeds its highest previously-alerted tier — so
    /// replaying the same snapshot is a no-op, and an hour that raises
    /// a device by several tiers emits exactly one escalation.
    pub fn fold(&mut self, analysis: &Analysis) -> Vec<Escalation> {
        self.fold_rows(analysis, 0..analysis.devices.len())
    }

    /// [`fold`](Self::fold) restricted to the given `analysis.devices`
    /// rows, in the order given — the streaming path, which passes only
    /// the rows an hour created or changed. The result equals a full
    /// `fold` whenever every row left out is unchanged since the
    /// previous fold (its score and alert state would not move).
    pub(crate) fn fold_rows(
        &mut self,
        analysis: &Analysis,
        rows: impl IntoIterator<Item = usize>,
    ) -> Vec<Escalation> {
        let mut escalations = Vec::new();
        for obs in rows.into_iter().map(|r| analysis.devices.observation_at(r)) {
            let row = match self.table.row(obs.device) {
                Some(row) => row,
                None => {
                    let ip = self.db.device(obs.device).ip;
                    let (mask, samples) = match self.index.lookup(ip) {
                        Some(hit) => (hit.cat_mask, hit.samples),
                        None => (0, &[][..]),
                    };
                    let row = self.table.upsert(obs.device, obs.realm, mask, samples);
                    self.alerted.push(Severity::None);
                    row
                }
            };
            self.table.scan_packets[row] = obs.scan_packets();
            self.table.backscatter_packets[row] = obs.packets(TrafficClass::Backscatter);
            self.table.total_packets[row] = obs.total_packets();
            let points = points_for(
                self.table.cat_mask[row],
                self.table.sample_len[row],
                self.table.scan_packets[row],
                self.table.backscatter_packets[row],
                &self.config,
            );
            let tier = Severity::from_points(points);
            self.table.points[row] = points;
            self.table.tiers[row] = tier;
            if tier > self.alerted[row] && tier >= self.config.alert_min_tier {
                self.alerted[row] = tier;
                escalations.push(Escalation {
                    device: obs.device,
                    tier,
                    points,
                });
            }
        }
        escalations
    }

    /// Normalize and hand over the finished table.
    pub fn finish(mut self) -> ScoreTable {
        self.table.normalize();
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, IotDevice, IspId};
    use iotscope_intel::{MalwareDb, ThreatEvent, ThreatRepo};
    use iotscope_net::flowtuple::FlowTuple;
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use std::net::Ipv4Addr;

    fn db() -> DeviceDb {
        DeviceDb::from_devices((1..=4u8).map(|i| IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::new(i, 0, 0, 1),
            profile: if i % 2 == 0 {
                DeviceProfile::Cps(vec![CpsService::ModbusTcp])
            } else {
                DeviceProfile::Consumer(ConsumerKind::Router)
            },
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }))
    }

    fn syn(src: [u8; 4], pkts: u32) -> FlowTuple {
        FlowTuple::tcp(
            Ipv4Addr::from(src),
            Ipv4Addr::new(44, 0, 0, 1),
            40000,
            23,
            TcpFlags::SYN,
        )
        .with_packets(pkts)
    }

    fn hour(interval: u32, flows: Vec<FlowTuple>) -> HourTraffic {
        HourTraffic {
            interval,
            hour: UnixHour::new(u64::from(interval) - 1),
            flows,
        }
    }

    fn flagged_repo() -> ThreatRepo {
        let mut repo = ThreatRepo::new();
        for cat in [
            ThreatCategory::Scanning,
            ThreatCategory::Malware,
            ThreatCategory::Spam,
        ] {
            repo.add(ThreatEvent {
                ip: Ipv4Addr::new(1, 0, 0, 1),
                category: cat,
                source: "t".into(),
                reported_at: 0,
            });
        }
        repo
    }

    #[test]
    fn severity_ladder_is_monotone_and_total() {
        let mut last = Severity::None;
        for p in 0..32u32 {
            let tier = Severity::from_points(p);
            assert!(tier >= last, "tier regressed at {p} points");
            last = tier;
        }
        assert_eq!(Severity::from_points(0), Severity::None);
        assert_eq!(Severity::from_points(2), Severity::Low);
        assert_eq!(Severity::from_points(4), Severity::Medium);
        assert_eq!(Severity::from_points(6), Severity::High);
        assert_eq!(Severity::from_points(7), Severity::Critical);
        assert_eq!(Severity::Critical.to_string(), "critical");
    }

    #[test]
    fn points_reward_each_evidence_axis() {
        let cfg = ScoreConfig::default();
        assert_eq!(points_for(0, 0, 0, 0, &cfg), 0);
        // One category = 1 point; the Malware category carries +2 extra.
        assert_eq!(points_for(ThreatCategory::Scanning.bit(), 0, 0, 0, &cfg), 1);
        assert_eq!(points_for(ThreatCategory::Malware.bit(), 0, 0, 0, &cfg), 3);
        // Sample tiers: 1–2 samples = 2, 3+ = 3.
        assert_eq!(points_for(0, 1, 0, 0, &cfg), 2);
        assert_eq!(points_for(0, 3, 0, 0, &cfg), 3);
        // Behavioral thresholds are inclusive.
        assert_eq!(points_for(0, 0, cfg.scan_packets_min, 0, &cfg), 1);
        assert_eq!(points_for(0, 0, cfg.scan_packets_min - 1, 0, &cfg), 0);
        assert_eq!(points_for(0, 0, 0, cfg.backscatter_min, &cfg), 1);
    }

    #[test]
    fn fold_scores_devices_and_escalates_once_per_tier() {
        let dbv = db();
        let index = IntelIndex::build(&flagged_repo(), &MalwareDb::new());
        let cfg = ScoreConfig {
            scan_packets_min: 150,
            ..ScoreConfig::default()
        };
        let mut an = Analyzer::new(&dbv, 4);
        let mut engine = ScoreEngine::new(&dbv, &index, cfg);

        // Hour 1: device 1.0.0.1 (id 0) is flagged with 3 categories
        // (Scanning+Malware+Spam = 3 + 2 bonus = 5 points, High).
        an.ingest_hour(&hour(
            1,
            vec![syn([1, 0, 0, 1], 100), syn([3, 0, 0, 1], 10)],
        ));
        let esc = engine.fold(an.peek());
        assert_eq!(esc.len(), 1);
        assert_eq!(
            esc[0],
            Escalation {
                device: DeviceId(0),
                tier: Severity::High,
                points: 5
            }
        );

        // Re-folding the same snapshot must be silent (dedup).
        assert!(engine.fold(an.peek()).is_empty());

        // Hour 2: id 0 crosses the scan threshold (6 points, still
        // High → no alert); id 2 stays at zero evidence.
        an.ingest_hour(&hour(2, vec![syn([1, 0, 0, 1], 100)]));
        assert!(engine.fold(an.peek()).is_empty());

        let table = engine.finish();
        assert_eq!(table.len(), 2);
        let top = table.top(10);
        assert_eq!(top.len(), 1, "only the flagged device has points");
        assert_eq!(top[0].device, DeviceId(0));
        assert_eq!(top[0].points, 6);
        assert_eq!(top[0].tier, Severity::High);
        assert_eq!(
            top[0].categories(),
            vec![
                ThreatCategory::Scanning,
                ThreatCategory::Spam,
                ThreatCategory::Malware
            ]
        );
        let quiet = table.get(DeviceId(2)).unwrap();
        assert_eq!(quiet.points, 0);
        assert_eq!(quiet.tier, Severity::None);
    }

    #[test]
    fn batch_equals_streaming_on_a_small_run() {
        let dbv = db();
        let index = IntelIndex::build(&flagged_repo(), &MalwareDb::new());
        let cfg = ScoreConfig {
            scan_packets_min: 150,
            backscatter_min: 10,
            ..ScoreConfig::default()
        };
        let hours = [
            hour(1, vec![syn([1, 0, 0, 1], 100), syn([4, 0, 0, 1], 7)]),
            hour(2, vec![syn([3, 0, 0, 1], 60)]),
            hour(3, vec![syn([1, 0, 0, 1], 100), syn([3, 0, 0, 1], 200)]),
        ];

        let mut an = Analyzer::new(&dbv, 4);
        let mut engine = ScoreEngine::new(&dbv, &index, cfg);
        for h in &hours {
            an.ingest_hour(h);
            engine.fold(an.peek());
        }
        let streamed = engine.finish();

        let mut batch_an = Analyzer::new(&dbv, 4);
        for h in &hours {
            batch_an.ingest_hour(h);
        }
        let batch = ScoreTable::from_batch(&batch_an.finish(), &dbv, &index, cfg);
        assert_eq!(streamed, batch);
        assert_eq!(streamed.ids(), batch.ids(), "both normalized, same order");
    }

    #[test]
    fn multi_tier_jump_emits_single_escalation_at_top_tier() {
        let dbv = db();
        let index = IntelIndex::build(&flagged_repo(), &MalwareDb::new());
        let mut an = Analyzer::new(&dbv, 4);
        let mut engine = ScoreEngine::new(&dbv, &index, ScoreConfig::default());
        // First sighting already lands at High (5 points): exactly one
        // escalation, at the landed-on tier.
        an.ingest_hour(&hour(1, vec![syn([1, 0, 0, 1], 10)]));
        let esc = engine.fold(an.peek());
        assert_eq!(esc.len(), 1);
        assert_eq!(esc[0].tier, Severity::High);
    }

    #[test]
    fn alert_floor_suppresses_low_tiers() {
        let dbv = db();
        let index = IntelIndex::empty();
        let cfg = ScoreConfig {
            scan_packets_min: 50,
            alert_min_tier: Severity::Medium,
            ..ScoreConfig::default()
        };
        let mut an = Analyzer::new(&dbv, 4);
        let mut engine = ScoreEngine::new(&dbv, &index, cfg);
        // Behavioral-only evidence caps at Low here — floor filters it.
        an.ingest_hour(&hour(1, vec![syn([3, 0, 0, 1], 90)]));
        assert!(engine.fold(an.peek()).is_empty());
        let table = engine.finish();
        assert_eq!(table.get(DeviceId(2)).unwrap().tier, Severity::Low);
    }

    #[test]
    fn normalize_is_idempotent_and_equality_order_insensitive() {
        let dbv = db();
        let index = IntelIndex::build(&flagged_repo(), &MalwareDb::new());
        let mut an = Analyzer::new(&dbv, 4);
        // Ingest in an order that creates rows out of id order.
        an.ingest_hour(&hour(1, vec![syn([3, 0, 0, 1], 10), syn([1, 0, 0, 1], 10)]));
        let mut engine = ScoreEngine::new(&dbv, &index, ScoreConfig::default());
        engine.fold(an.peek());
        let unnormalized = engine.table().clone();
        let normalized = engine.finish();
        assert_eq!(unnormalized, normalized, "equality ignores row order");
        assert_eq!(normalized.ids(), &[DeviceId(0), DeviceId(2)]);
        let mut again = normalized.clone();
        again.normalize();
        assert_eq!(again.ids(), normalized.ids());
        assert!(normalized.heap_bytes() > 0);
    }
}

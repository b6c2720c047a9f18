//! Device-space sharded analysis (DESIGN.md §3e): the one worker loop
//! behind every [`AnalysisPipeline`](crate::pipeline::AnalysisPipeline)
//! run, single-threaded runs included.
//!
//! Partitioning the *hours* instead would give every worker a
//! full-width [`Analyzer`], and at paper scale the single-threaded
//! merge of N 331k-row device tables would dominate. This module
//! partitions the *device space*: a [`ShardMap`] assigns every dense
//! intern index to one contiguous shard, each worker owns one shard's
//! aggregates, and the final merge is a concatenation of disjoint
//! dense-index ranges ([`DeviceTable::concat_from`]) plus a cheap
//! scalar reduction.
//!
//! Two roles cooperate, and every worker plays both:
//!
//! * a **router** ([`ShardRouter`]) decodes whole hours (it is the
//!   [`FlowSink`] on the fused decode path), correlates each flow to a
//!   dense index, and fans compact [`RoutedFlow`] records out to shard
//!   owners. Destination-keyed per-hour distincts (dst IPs / dst ports)
//!   cannot be split by source device — the same destination shows up
//!   in several shards — so the router, which sees the whole hour,
//!   folds them into its own [`RouterPartial`]. Hours are disjoint
//!   across routers, so summing router partials is exact.
//! * a **shard owner** ([`ShardAccumulator`]) applies whole-hour
//!   batches of routed flows for its dense-index range. Everything
//!   keyed by source device — the device table, per-hour distinct
//!   device counts, per-service device sets, the per-port
//!   `(port, device)` pairs, backscatter attribution — is
//!   shard-disjoint, so per-shard results sum or concatenate exactly.
//!
//! [`assemble`] folds router and shard partials into an [`Analysis`]
//! bit-identical to the sequential pass: per-shard tables are
//! normalized on their worker and concatenated in ascending shard
//! order, so the assembled table is already globally sorted and the
//! final [`DeviceTable::normalize`] is a no-op.
//!
//! [`Analyzer`]: crate::analysis::Analyzer
//! [`FlowSink`]: iotscope_net::store::FlowSink

use crate::analysis::{
    class_idx, merge_top_victim, realm_idx, Analysis, BackscatterInterval, PortScratch,
    RealmSeries, ServiceKey, ServiceStat, TOP5_SERVICES,
};
use crate::analysis::{DeviceSet, DeviceTable, PortTable};
use crate::classify::{classify, TrafficClass};
use crate::view::ViewCache;
use iotscope_devicedb::{DeviceDb, DeviceId, Realm, ShardMap};
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::ports::ScanService;
use iotscope_net::protocol::TransportProtocol;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;

/// Realm lookup by [`realm_idx`] value.
const REALMS: [Realm; 2] = [Realm::Consumer, Realm::Cps];

/// `class_idx` values a [`RoutedFlow`] can carry (asserted against
/// [`class_idx`] in tests).
const CLASS_TCP_SCAN: u8 = 0;
const CLASS_BACKSCATTER: u8 = 2;
const CLASS_UDP: u8 = 3;

/// One correlated, classified flow, reduced to what a shard owner
/// needs: 16 bytes instead of a full `FlowTuple`. The destination
/// address is deliberately absent — destination-keyed distincts are the
/// router's job (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedFlow {
    /// Dense intern index of the source device (== `DeviceId` value).
    pub dense: u32,
    /// Packets in the flow record.
    pub packets: u32,
    /// Destination port (drives per-service / per-UDP-port stats).
    pub dst_port: u16,
    /// [`class_idx`] of the classified flow.
    pub class: u8,
    /// [`realm_idx`] of the source device.
    pub realm: u8,
    /// Transport in Fig 4 order: ICMP 0, TCP 1, UDP 2.
    pub proto: u8,
}

/// The hour-disjoint aggregates a router accumulates while decoding:
/// destination-keyed per-hour distinct counts and unmatched-traffic
/// totals. Summing the partials of all routers is exact because each
/// hour is decoded by exactly one router.
#[derive(Debug, Clone)]
pub struct RouterPartial {
    /// Distinct UDP destination addresses per `[realm][interval]`.
    pub udp_dst_ips: [Vec<u64>; 2],
    /// Distinct UDP destination ports per `[realm][interval]`.
    pub udp_dst_ports: [Vec<u64>; 2],
    /// Distinct TCP-scan destination addresses per `[realm][interval]`.
    pub scan_dst_ips: [Vec<u64>; 2],
    /// Distinct TCP-scan destination ports per `[realm][interval]`.
    pub scan_dst_ports: [Vec<u64>; 2],
    /// Flows from sources outside the inventory.
    pub unmatched_flows: u64,
    /// Packets from unmatched sources.
    pub unmatched_packets: u64,
}

impl RouterPartial {
    fn new(hours: usize) -> Self {
        RouterPartial {
            udp_dst_ips: [vec![0; hours], vec![0; hours]],
            udp_dst_ports: [vec![0; hours], vec![0; hours]],
            scan_dst_ips: [vec![0; hours], vec![0; hours]],
            scan_dst_ports: [vec![0; hours], vec![0; hours]],
            unmatched_flows: 0,
            unmatched_packets: 0,
        }
    }
}

/// Correlates, classifies, and fans one hour of flows out to device
/// shards; the decode-side half of the sharded pipeline.
///
/// Call [`begin_hour`](Self::begin_hour), feed flow slices (directly or
/// as the `FlowSink` of a fused store decode), then
/// [`finish_hour`](Self::finish_hour) to commit the hour's
/// destination distincts and take the per-shard batches. Skipping
/// `finish_hour` (after a decode error) abandons the hour: nothing was
/// committed, and the next `begin_hour` clears the buffers.
#[derive(Debug)]
pub struct ShardRouter<'a> {
    db: &'a DeviceDb,
    hours: u32,
    map: ShardMap,
    idx: usize,
    in_hour: bool,
    /// Per-shard routed flows for the current hour.
    buffers: Vec<Vec<RoutedFlow>>,
    /// Per-hour destination-distinct scratch, mirroring the sequential
    /// analyzer's `HourScratch` destination half.
    udp_ips: [HashSet<u32>; 2],
    scan_ips: [HashSet<u32>; 2],
    udp_ports: [PortScratch; 2],
    scan_ports: [PortScratch; 2],
    /// Per-block correlation results from the sorted-column merge-join
    /// (batched `visit_block` path); capacity reused across blocks.
    corr: Vec<Option<(u32, Realm)>>,
    out: RouterPartial,
}

impl<'a> ShardRouter<'a> {
    /// A router over `db` for a window of `hours`, fanning out to
    /// `map.shards()` shards.
    pub fn new(db: &'a DeviceDb, hours: u32, map: ShardMap) -> Self {
        ShardRouter {
            db,
            hours,
            map,
            idx: 0,
            in_hour: false,
            buffers: (0..map.shards()).map(|_| Vec::new()).collect(),
            udp_ips: [HashSet::new(), HashSet::new()],
            scan_ips: [HashSet::new(), HashSet::new()],
            udp_ports: [PortScratch::new(), PortScratch::new()],
            scan_ports: [PortScratch::new(), PortScratch::new()],
            corr: Vec::new(),
            out: RouterPartial::new(hours as usize),
        }
    }

    /// Start routing the hour at `interval` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window.
    pub fn begin_hour(&mut self, interval: u32) {
        assert!(
            interval >= 1 && interval <= self.hours,
            "interval {interval} outside 1..={}",
            self.hours
        );
        self.idx = (interval - 1) as usize;
        self.in_hour = true;
        for r in 0..2 {
            self.udp_ips[r].clear();
            self.scan_ips[r].clear();
            self.udp_ports[r].clear();
            self.scan_ports[r].clear();
        }
        for b in &mut self.buffers {
            b.clear();
        }
    }

    /// Route one slice of the current hour's flows.
    pub fn route(&mut self, flows: &[FlowTuple]) {
        let index = self.db.correlation_index();
        self.fold(flows, |_, flow| index.correlate(flow.src_ip));
    }

    /// Shared routing fold: `correlated` supplies each flow's device
    /// correlation (per-record binary search from
    /// [`route`](Self::route), a precomputed merge-join column from the
    /// batched `visit_block`), keeping both paths bit-identical.
    fn fold(
        &mut self,
        flows: &[FlowTuple],
        mut correlated: impl FnMut(usize, &FlowTuple) -> Option<(u32, Realm)>,
    ) {
        debug_assert!(self.in_hour, "route() outside begin_hour/finish_hour");
        for (flow_i, flow) in flows.iter().enumerate() {
            let Some((dense, realm)) = correlated(flow_i, flow) else {
                self.out.unmatched_flows += 1;
                self.out.unmatched_packets += u64::from(flow.packets);
                continue;
            };
            let class = classify(flow);
            let r = realm_idx(realm);
            match class {
                TrafficClass::Udp => {
                    self.udp_ips[r].insert(u32::from(flow.dst_ip));
                    self.udp_ports[r].insert(flow.dst_port);
                }
                TrafficClass::TcpScan => {
                    self.scan_ips[r].insert(u32::from(flow.dst_ip));
                    self.scan_ports[r].insert(flow.dst_port);
                }
                _ => {}
            }
            let proto = match flow.protocol {
                TransportProtocol::Icmp => 0u8,
                TransportProtocol::Tcp => 1,
                TransportProtocol::Udp => 2,
            };
            self.buffers[self.map.shard_of(dense)].push(RoutedFlow {
                dense,
                packets: flow.packets,
                dst_port: flow.dst_port,
                class: class_idx(class) as u8,
                realm: r as u8,
                proto,
            });
        }
    }

    /// Commit the hour's destination distincts and take the per-shard
    /// batches (indexed by shard; possibly empty for quiet shards).
    ///
    /// # Panics
    ///
    /// Panics without a preceding [`begin_hour`](Self::begin_hour).
    pub fn finish_hour(&mut self) -> Vec<Vec<RoutedFlow>> {
        assert!(self.in_hour, "finish_hour without begin_hour");
        self.in_hour = false;
        let idx = self.idx;
        for r in 0..2 {
            self.out.udp_dst_ips[r][idx] += self.udp_ips[r].len() as u64;
            self.out.udp_dst_ports[r][idx] += self.udp_ports[r].len as u64;
            self.out.scan_dst_ips[r][idx] += self.scan_ips[r].len() as u64;
            self.out.scan_dst_ports[r][idx] += self.scan_ports[r].len as u64;
        }
        let shards = self.map.shards();
        std::mem::replace(&mut self.buffers, (0..shards).map(|_| Vec::new()).collect())
    }

    /// Finish routing and surrender the hour-disjoint aggregates.
    pub fn into_partial(self) -> RouterPartial {
        self.out
    }
}

impl iotscope_net::store::FlowSink for ShardRouter<'_> {
    fn on_flows(&mut self, flows: &[FlowTuple]) {
        self.route(flows);
    }

    /// Batched tier: one merge-join pass over the block's ascending
    /// `src_ip` column, then the shared fold routes the whole column
    /// run — bit-identical to per-record routing.
    fn visit_block(&mut self, block: &iotscope_net::store::ColumnBlock) {
        let index = self.db.correlation_index();
        let mut corr = std::mem::take(&mut self.corr);
        index.correlate_sorted_block(block.src_ip(), &mut corr);
        self.fold(block.flows(), |i, _| corr[i]);
        self.corr = corr;
    }
}

/// The device-keyed aggregates for one contiguous dense-index shard.
///
/// Apply whole-hour [`RoutedFlow`] batches with
/// [`apply_hour`](Self::apply_hour); each batch must contain *all* of
/// an hour's flows for this shard (the per-batch distinct-device and
/// backscatter-attribution scratch folds once per batch, exactly like
/// the sequential per-hour fold).
#[derive(Debug)]
pub struct ShardAccumulator {
    hours: u32,
    range: Range<u32>,
    devices: DeviceTable,
    protocol_packets: [[u64; 3]; 2],
    udp_packets: [Vec<u64>; 2],
    udp_devices: [Vec<u64>; 2],
    scan_packets: [Vec<u64>; 2],
    scan_devices: [Vec<u64>; 2],
    backscatter_hourly: [Vec<u64>; 2],
    backscatter_intervals: Vec<BackscatterInterval>,
    scan_services: BTreeMap<ServiceKey, ServiceStat>,
    top5_series: Vec<[u64; 5]>,
    udp_ports: PortTable,
    /// Per-batch scratch: distinct devices this hour, per realm.
    udp_devs: [DeviceSet; 2],
    scan_devs: [DeviceSet; 2],
    /// Per-batch backscatter packets, indexed by `dense - range.start`.
    bs_counts: Vec<u64>,
    bs_touched: Vec<u32>,
}

impl ShardAccumulator {
    /// An empty accumulator for the dense-index `range` of a window of
    /// `hours`.
    pub fn new(hours: u32, range: Range<u32>) -> Self {
        let h = hours as usize;
        let span = range.len();
        ShardAccumulator {
            hours,
            devices: DeviceTable::new(),
            protocol_packets: [[0; 3]; 2],
            udp_packets: [vec![0; h], vec![0; h]],
            udp_devices: [vec![0; h], vec![0; h]],
            scan_packets: [vec![0; h], vec![0; h]],
            scan_devices: [vec![0; h], vec![0; h]],
            backscatter_hourly: [vec![0; h], vec![0; h]],
            backscatter_intervals: vec![BackscatterInterval::default(); h],
            scan_services: BTreeMap::new(),
            top5_series: vec![[0; 5]; h],
            udp_ports: PortTable::new(),
            udp_devs: [
                DeviceSet::with_capacity(range.end as usize),
                DeviceSet::with_capacity(range.end as usize),
            ],
            scan_devs: [
                DeviceSet::with_capacity(range.end as usize),
                DeviceSet::with_capacity(range.end as usize),
            ],
            bs_counts: vec![0; span],
            bs_touched: Vec::new(),
            range,
        }
    }

    /// Number of devices observed in this shard so far.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Apply one whole-hour batch of routed flows for this shard.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window; debug builds also
    /// assert every flow is within the shard's dense range.
    pub fn apply_hour(&mut self, interval: u32, flows: &[RoutedFlow]) {
        assert!(
            interval >= 1 && interval <= self.hours,
            "interval {interval} outside 1..={}",
            self.hours
        );
        let idx = (interval - 1) as usize;
        let day = (interval - 1) / 24;
        for r in 0..2 {
            self.udp_devs[r].clear();
            self.scan_devs[r].clear();
        }
        for &off in &self.bs_touched {
            self.bs_counts[off as usize] = 0;
        }
        self.bs_touched.clear();

        for f in flows {
            debug_assert!(self.range.contains(&f.dense), "flow outside shard range");
            let id = DeviceId(f.dense);
            let r = f.realm as usize;
            let pkts = u64::from(f.packets);
            self.devices
                .observe(id, REALMS[r], f.class as usize, pkts, interval, day);
            self.protocol_packets[r][f.proto as usize] += pkts;
            match f.class {
                CLASS_UDP => {
                    self.udp_packets[r][idx] += pkts;
                    self.udp_devs[r].insert(id);
                    self.udp_ports.insert(f.dst_port, id, pkts);
                }
                CLASS_TCP_SCAN => {
                    self.scan_packets[r][idx] += pkts;
                    self.scan_devs[r].insert(id);
                    let key = match ScanService::from_port(f.dst_port) {
                        Some(svc) => ServiceKey::Named(svc),
                        None => ServiceKey::Other,
                    };
                    let stat = self.scan_services.entry(key).or_default();
                    stat.packets[r] += pkts;
                    stat.devices[r].insert(id);
                    if let ServiceKey::Named(svc) = key {
                        if let Some(pos) = TOP5_SERVICES.iter().position(|s| *s == svc) {
                            self.top5_series[idx][pos] += pkts;
                        }
                    }
                }
                CLASS_BACKSCATTER => {
                    self.backscatter_hourly[r][idx] += pkts;
                    let off = (f.dense - self.range.start) as usize;
                    if self.bs_counts[off] == 0 {
                        self.bs_touched.push(off as u32);
                    }
                    self.bs_counts[off] += pkts;
                }
                _ => {}
            }
        }

        for r in 0..2 {
            self.udp_devices[r][idx] += self.udp_devs[r].len() as u64;
            self.scan_devices[r][idx] += self.scan_devs[r].len() as u64;
        }
        // This shard's dominant backscatter victim for the hour; the
        // global per-hour victim is the merge of shard maxima (exact,
        // because the tie-break toward the smaller id is order-free).
        let slot = &mut self.backscatter_intervals[idx];
        let mut top: Option<(DeviceId, u64)> = None;
        let mut total = 0u64;
        for &off in &self.bs_touched {
            let cnt = self.bs_counts[off as usize];
            let id = DeviceId(self.range.start + off);
            total += cnt;
            if top.is_none_or(|(bd, bc)| cnt > bc || (cnt == bc && id < bd)) {
                top = Some((id, cnt));
            }
        }
        slot.total += total;
        merge_top_victim(&mut slot.top_victim, top);
    }

    /// Finish the shard: normalize the device table (on the worker, so
    /// the sort itself parallelizes across shards) and surrender the
    /// aggregates.
    pub fn finish(mut self) -> ShardPartial {
        self.devices.normalize();
        ShardPartial {
            devices: self.devices,
            protocol_packets: self.protocol_packets,
            udp_packets: self.udp_packets,
            udp_devices: self.udp_devices,
            scan_packets: self.scan_packets,
            scan_devices: self.scan_devices,
            backscatter_hourly: self.backscatter_hourly,
            backscatter_intervals: self.backscatter_intervals,
            scan_services: self.scan_services,
            top5_series: self.top5_series,
            udp_ports: self.udp_ports,
        }
    }
}

/// One shard's finished device-keyed aggregates, ready for
/// [`assemble`].
#[derive(Debug)]
pub struct ShardPartial {
    /// Per-device rows for this shard's dense range, sorted by id.
    pub devices: DeviceTable,
    /// Packets per `[realm][transport]` from this shard's devices.
    pub protocol_packets: [[u64; 3]; 2],
    /// UDP packets per `[realm][interval]`.
    pub udp_packets: [Vec<u64>; 2],
    /// Distinct UDP-emitting devices per `[realm][interval]`.
    pub udp_devices: [Vec<u64>; 2],
    /// TCP-scan packets per `[realm][interval]`.
    pub scan_packets: [Vec<u64>; 2],
    /// Distinct scanning devices per `[realm][interval]`.
    pub scan_devices: [Vec<u64>; 2],
    /// Backscatter packets per `[realm][interval]`.
    pub backscatter_hourly: [Vec<u64>; 2],
    /// Per-interval backscatter totals and this shard's top victim.
    pub backscatter_intervals: Vec<BackscatterInterval>,
    /// Table V statistics restricted to this shard's devices.
    pub scan_services: BTreeMap<ServiceKey, ServiceStat>,
    /// Fig 10 series from this shard's devices.
    pub top5_series: Vec<[u64; 5]>,
    /// Table IV statistics restricted to this shard's devices.
    pub udp_ports: PortTable,
}

/// Fold router and shard partials into the final [`Analysis`].
///
/// `shards` must be in ascending shard order so the per-shard device
/// tables — each covering its own dense-index range and already sorted
/// — concatenate into a globally sorted table, making the final
/// normalize a no-op and the result bit-identical to a sequential run.
pub fn assemble(hours: u32, routers: Vec<RouterPartial>, shards: Vec<ShardPartial>) -> Analysis {
    let h = hours as usize;
    let mut devices = DeviceTable::new();
    let mut protocol_packets = [[0u64; 3]; 2];
    let mut udp = [RealmSeries::new(h), RealmSeries::new(h)];
    let mut tcp_scan = [RealmSeries::new(h), RealmSeries::new(h)];
    let mut backscatter_hourly = [vec![0u64; h], vec![0u64; h]];
    let mut backscatter_intervals = vec![BackscatterInterval::default(); h];
    let mut scan_services: BTreeMap<ServiceKey, ServiceStat> = BTreeMap::new();
    let mut top5_series = vec![[0u64; 5]; h];
    let mut udp_ports = PortTable::new();
    let mut unmatched_flows = 0u64;
    let mut unmatched_packets = 0u64;

    for rp in routers {
        for r in 0..2 {
            for i in 0..h {
                udp[r].dst_ips[i] += rp.udp_dst_ips[r][i];
                udp[r].dst_ports[i] += rp.udp_dst_ports[r][i];
                tcp_scan[r].dst_ips[i] += rp.scan_dst_ips[r][i];
                tcp_scan[r].dst_ports[i] += rp.scan_dst_ports[r][i];
            }
        }
        unmatched_flows += rp.unmatched_flows;
        unmatched_packets += rp.unmatched_packets;
    }

    for sp in shards {
        devices.concat_from(sp.devices);
        for r in 0..2 {
            for (dst, src) in protocol_packets[r].iter_mut().zip(sp.protocol_packets[r]) {
                *dst += src;
            }
            for (i, bs) in backscatter_hourly[r].iter_mut().enumerate().take(h) {
                udp[r].packets[i] += sp.udp_packets[r][i];
                udp[r].devices[i] += sp.udp_devices[r][i];
                tcp_scan[r].packets[i] += sp.scan_packets[r][i];
                tcp_scan[r].devices[i] += sp.scan_devices[r][i];
                *bs += sp.backscatter_hourly[r][i];
            }
        }
        for (i, slot) in sp.backscatter_intervals.into_iter().enumerate() {
            let cur = &mut backscatter_intervals[i];
            cur.total += slot.total;
            merge_top_victim(&mut cur.top_victim, slot.top_victim);
        }
        for (key, stat) in sp.scan_services {
            let cur = scan_services.entry(key).or_default();
            for r in 0..2 {
                cur.packets[r] += stat.packets[r];
                cur.devices[r].union_with(&stat.devices[r]);
            }
        }
        for (i, row) in sp.top5_series.into_iter().enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                top5_series[i][j] += v;
            }
        }
        // Shards split the device space, so their (port, device) pairs
        // are disjoint and the per-port device counts simply add.
        udp_ports.merge_from(sp.udp_ports);
    }

    // Ascending sorted shards concatenate already-sorted; this is a
    // no-op then, and a safety net for out-of-order callers otherwise.
    devices.normalize();
    Analysis {
        hours,
        devices,
        protocol_packets,
        udp,
        tcp_scan,
        backscatter_hourly,
        backscatter_intervals,
        scan_services,
        top5_series,
        udp_ports,
        unmatched_flows,
        unmatched_packets,
        cache: ViewCache::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use iotscope_devicedb::device::DeviceProfile;
    use iotscope_devicedb::{ConsumerKind, CountryCode, CpsService, IotDevice, IspId};
    use iotscope_net::protocol::TcpFlags;
    use iotscope_net::time::UnixHour;
    use iotscope_telescope::HourTraffic;
    use std::net::Ipv4Addr;

    #[test]
    fn routed_class_codes_match_class_idx() {
        assert_eq!(CLASS_TCP_SCAN as usize, class_idx(TrafficClass::TcpScan));
        assert_eq!(
            CLASS_BACKSCATTER as usize,
            class_idx(TrafficClass::Backscatter)
        );
        assert_eq!(CLASS_UDP as usize, class_idx(TrafficClass::Udp));
    }

    fn db(n: u32) -> DeviceDb {
        DeviceDb::from_devices((0..n).map(|i| IotDevice {
            id: DeviceId(0),
            ip: Ipv4Addr::from(0x0a00_0001u32 + i * 7),
            profile: if i % 2 == 0 {
                DeviceProfile::Consumer(ConsumerKind::Router)
            } else {
                DeviceProfile::Cps(vec![CpsService::ModbusTcp])
            },
            country: CountryCode::from_code("US").unwrap(),
            isp: IspId(0),
        }))
    }

    /// A deterministic mixed-traffic hour touching every class.
    fn hour(db: &DeviceDb, interval: u32, seed: u64) -> HourTraffic {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let devices: Vec<_> = db.iter().collect();
        let mut flows = Vec::new();
        for _ in 0..200 {
            let r = next();
            let src = if r % 5 == 0 {
                Ipv4Addr::from(0xc0a8_0001u32 + (r % 50) as u32) // noise
            } else {
                devices[(r % devices.len() as u64) as usize].ip
            };
            let dst = Ipv4Addr::from(0x2c00_0000u32 + (next() % 300) as u32);
            let dport = (next() % 4000) as u16;
            let pkts = (next() % 9 + 1) as u32;
            let flow = match next() % 4 {
                0 => FlowTuple::tcp(src, dst, 40000, dport, TcpFlags::SYN),
                1 => FlowTuple::tcp(src, dst, 80, dport, TcpFlags::SYN | TcpFlags::ACK),
                2 => FlowTuple::udp(src, dst, 5000, dport),
                _ => FlowTuple::icmp(src, dst, iotscope_net::protocol::IcmpType::EchoRequest),
            };
            flows.push(flow.with_packets(pkts));
        }
        HourTraffic {
            interval,
            hour: UnixHour::new(7000 + u64::from(interval)),
            flows,
        }
    }

    /// Route hours through R routers and S shards, apply batches, and
    /// assemble — must be bit-identical to the sequential analyzer.
    fn sharded(
        db: &DeviceDb,
        hours: u32,
        traffic: &[HourTraffic],
        routers: usize,
        shards: usize,
    ) -> Analysis {
        let map = ShardMap::new(db.len(), shards);
        let mut accs: Vec<ShardAccumulator> = (0..shards)
            .map(|s| ShardAccumulator::new(hours, map.range(s)))
            .collect();
        let mut parts = Vec::new();
        for w in 0..routers {
            let mut router = ShardRouter::new(db, hours, map);
            for h in traffic.iter().skip(w).step_by(routers) {
                router.begin_hour(h.interval);
                router.route(&h.flows);
                for (s, batch) in router.finish_hour().into_iter().enumerate() {
                    accs[s].apply_hour(h.interval, &batch);
                }
            }
            parts.push(router.into_partial());
        }
        assemble(hours, parts, accs.into_iter().map(|a| a.finish()).collect())
    }

    #[test]
    fn sharded_matches_sequential_across_shapes() {
        let db = db(37);
        let traffic: Vec<HourTraffic> = (1..=6).map(|i| hour(&db, i, 40 + u64::from(i))).collect();
        let mut seq = Analyzer::new(&db, 8);
        for h in &traffic {
            seq.ingest_hour(h);
        }
        let seq = seq.finish();
        for (routers, shards) in [(1, 1), (1, 4), (2, 3), (3, 8), (2, 64)] {
            let par = sharded(&db, 8, &traffic, routers, shards);
            assert_eq!(par, seq, "routers={routers} shards={shards}");
            assert_eq!(
                par.devices.ids(),
                seq.devices.ids(),
                "concatenated table must be sorted: routers={routers} shards={shards}"
            );
            assert_eq!(par.udp, seq.udp);
            assert_eq!(par.tcp_scan, seq.tcp_scan);
            assert_eq!(par.backscatter_intervals, seq.backscatter_intervals);
            assert_eq!(par.unmatched_flows, seq.unmatched_flows);
            assert_eq!(par.unmatched_packets, seq.unmatched_packets);
        }
    }

    #[test]
    fn abandoned_hour_leaves_no_distincts_or_batches() {
        // An hour abandoned mid-decode (no finish_hour) never reaches
        // the shards and commits no per-hour distincts; only the
        // unmatched totals — committed per flow, like the sequential
        // sink — retain it. The pipeline aborts the whole run on a
        // decode error, so that leak is never observable there.
        let db = db(9);
        let h1 = hour(&db, 1, 99);
        let map = ShardMap::new(db.len(), 2);
        let mut router = ShardRouter::new(&db, 4, map);
        router.begin_hour(2);
        router.route(&h1.flows);
        // …then route a clean hour.
        router.begin_hour(1);
        router.route(&h1.flows);
        let batches = router.finish_hour();
        let mut accs: Vec<ShardAccumulator> = (0..2)
            .map(|s| ShardAccumulator::new(4, map.range(s)))
            .collect();
        for (s, batch) in batches.into_iter().enumerate() {
            accs[s].apply_hour(1, &batch);
        }
        let got = assemble(
            4,
            vec![router.into_partial()],
            accs.into_iter().map(|a| a.finish()).collect(),
        );

        let mut seq = Analyzer::new(&db, 4);
        seq.ingest_hour(&HourTraffic {
            interval: 1,
            ..h1.clone()
        });
        let seq = seq.finish();
        assert_eq!(got.devices, seq.devices, "abandoned flows never applied");
        assert_eq!(got.udp, seq.udp, "no distincts committed for hour 2");
        assert_eq!(got.tcp_scan, seq.tcp_scan);
        assert_eq!(got.backscatter_intervals, seq.backscatter_intervals);
        assert_eq!(got.udp[0].dst_ips[1], 0);
        assert_eq!(got.unmatched_flows, 2 * seq.unmatched_flows);
        assert_eq!(got.unmatched_packets, 2 * seq.unmatched_packets);
    }
}

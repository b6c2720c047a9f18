//! Columnar per-device aggregation storage.
//!
//! The correlation join (§III-B) produces one aggregate row per
//! compromised device; at paper scale that is tens of thousands of rows
//! out of a ~331k-device inventory, and at the ROADMAP's target scale it
//! is millions. [`DeviceTable`] keeps those rows as a struct-of-arrays
//! keyed by the inventory's dense intern index (see
//! [`DeviceDb::index_of`](iotscope_devicedb::DeviceDb::index_of)), so
//! merging two partial aggregations is columnar addition instead of
//! per-key hash-map rehashing, and [`DeviceSet`] packs "which devices"
//! sets over the same index — a sorted vec of 4-byte indexes while
//! small, one bit per device once large, instead of a ~48-byte hash-set
//! entry either way. [`PortTable`] holds Table IV's per-UDP-port
//! aggregates in port-indexed columns plus one pair set, so tens of
//! thousands of ports cost no per-port allocation.
//!
//! Row order is *first-seen* while ingesting and *sorted by id* after
//! [`DeviceTable::normalize`] (which [`Analyzer::finish`] calls), so a
//! finished [`Analysis`] is bit-identical between sequential and
//! parallel runs. Equality on all three types is order- and
//! capacity-insensitive, preserving the determinism contract even on
//! un-normalized snapshots.
//!
//! [`Analyzer::finish`]: crate::analysis::Analyzer::finish
//! [`Analysis`]: crate::analysis::Analysis

use crate::classify::TrafficClass;
use iotscope_devicedb::{DeviceId, Realm};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Number of traffic classes (see [`crate::analysis::class_idx`]).
pub(crate) const NUM_CLASSES: usize = 5;

/// Sets at or below this many members stay in the sorted-vec
/// representation; above it they promote to a bitmap. 128 × 4 bytes =
/// 512 B, well under the bitmap cost for any realistic inventory, and
/// small enough that insertion's memmove is cache-resident.
const SPARSE_MAX: usize = 128;

#[derive(Debug, Clone)]
enum SetRepr {
    /// Sorted, deduplicated device indexes — the common case: most
    /// per-service sets hold a handful of devices.
    Sparse(Vec<u32>),
    /// Bitmap over the dense device index, for large cohorts.
    Dense(Vec<u64>),
}

/// A compact set of devices keyed by the dense device index.
///
/// Adaptive representation: a sorted `Vec<u32>` while the set is small
/// (≤ 128 members, the overwhelming majority of the per-service
/// sets), promoted to a bitmap once it grows (a
/// 331k-device inventory fits in ~41 KiB). This keeps the union used by
/// [`shard::assemble`](crate::shard::assemble) proportional to the
/// *members* of small sets rather than the inventory size, while large
/// cohorts still merge as word-wise ORs. Equality is
/// representation- and capacity-insensitive: two sets with the same
/// members always compare equal.
#[derive(Debug, Clone)]
pub struct DeviceSet {
    repr: SetRepr,
    len: usize,
}

impl Default for DeviceSet {
    fn default() -> Self {
        DeviceSet {
            repr: SetRepr::Sparse(Vec::new()),
            len: 0,
        }
    }
}

impl DeviceSet {
    /// An empty set.
    pub fn new() -> Self {
        DeviceSet::default()
    }

    /// An empty *dense* set pre-sized for device indexes `< capacity`.
    ///
    /// Use for reusable scratch sets that are repeatedly filled and
    /// [`clear`](Self::clear)ed: the bitmap allocation is made once and
    /// no sparse→dense promotions happen on the hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        DeviceSet {
            repr: SetRepr::Dense(vec![0; capacity.div_ceil(64)]),
            len: 0,
        }
    }

    /// Number of devices in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Switch to the bitmap representation.
    fn promote(&mut self) {
        if let SetRepr::Sparse(v) = &self.repr {
            let cap = v.last().map_or(0, |&max| max as usize + 1);
            let mut words = vec![0u64; cap.div_ceil(64)];
            for &i in v {
                words[i as usize / 64] |= 1 << (i % 64);
            }
            self.repr = SetRepr::Dense(words);
        }
    }

    /// Insert a device; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, id: DeviceId) -> bool {
        match &mut self.repr {
            SetRepr::Sparse(v) => match v.binary_search(&id.0) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() == SPARSE_MAX {
                        self.promote();
                        return self.insert(id);
                    }
                    v.insert(pos, id.0);
                    self.len += 1;
                    true
                }
            },
            SetRepr::Dense(words) => {
                let (word, bit) = (id.0 as usize / 64, id.0 % 64);
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let mask = 1u64 << bit;
                let newly = words[word] & mask == 0;
                words[word] |= mask;
                self.len += usize::from(newly);
                newly
            }
        }
    }

    /// Whether the set contains `id`.
    #[inline]
    pub fn contains(&self, id: DeviceId) -> bool {
        match &self.repr {
            SetRepr::Sparse(v) => v.binary_search(&id.0).is_ok(),
            SetRepr::Dense(words) => {
                let (word, bit) = (id.0 as usize / 64, id.0 % 64);
                words.get(word).is_some_and(|w| w & (1 << bit) != 0)
            }
        }
    }

    /// Add every member of `other`.
    ///
    /// Cost is O(|other|) when `other` is sparse and a word-wise OR when
    /// both sides are bitmaps — never O(inventory) for small sets.
    pub fn union_with(&mut self, other: &DeviceSet) {
        match &other.repr {
            SetRepr::Sparse(o) => {
                for &i in o {
                    self.insert(DeviceId(i));
                }
            }
            SetRepr::Dense(o) => {
                self.promote();
                let SetRepr::Dense(words) = &mut self.repr else {
                    unreachable!("just promoted");
                };
                if o.len() > words.len() {
                    words.resize(o.len(), 0);
                }
                let mut len = 0usize;
                for (w, &ow) in words.iter_mut().zip(o.iter()) {
                    *w |= ow;
                    len += w.count_ones() as usize;
                }
                for w in &words[o.len()..] {
                    len += w.count_ones() as usize;
                }
                self.len = len;
            }
        }
    }

    /// Remove all members, keeping the allocation (and, for dense sets,
    /// the representation — scratch sets stay bitmaps across hours).
    pub fn clear(&mut self) {
        match &mut self.repr {
            SetRepr::Sparse(v) => v.clear(),
            SetRepr::Dense(words) => words.fill(0),
        }
        self.len = 0;
    }

    /// Iterate over members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = DeviceId> + '_ {
        let (sparse, dense): (&[u32], &[u64]) = match &self.repr {
            SetRepr::Sparse(v) => (v, &[]),
            SetRepr::Dense(words) => (&[], words),
        };
        sparse
            .iter()
            .map(|&i| DeviceId(i))
            .chain(dense.iter().enumerate().flat_map(|(wi, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    Some(DeviceId((wi * 64) as u32 + bit))
                })
            }))
    }
}

impl PartialEq for DeviceSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for DeviceSet {}

impl FromIterator<DeviceId> for DeviceSet {
    fn from_iter<I: IntoIterator<Item = DeviceId>>(iter: I) -> Self {
        let mut set = DeviceSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl Extend<DeviceId> for DeviceSet {
    fn extend<I: IntoIterator<Item = DeviceId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a DeviceSet {
    type Item = DeviceId;
    type IntoIter = Box<dyn Iterator<Item = DeviceId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Everything observed about one correlated device — the row type
/// materialized from a [`DeviceTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceObservation {
    /// The device.
    pub device: DeviceId,
    /// Its realm (denormalized for hot paths).
    pub realm: Realm,
    /// First interval (1-based) the device was seen at the telescope.
    pub first_interval: u32,
    /// Flow records observed.
    pub flows: u64,
    /// Packets per traffic class (indexed by
    /// [`class_idx`](crate::analysis::class_idx)).
    pub packets_by_class: [u64; NUM_CLASSES],
    /// Bitmask of active days (bit d = day d).
    pub days_active: u64,
}

impl DeviceObservation {
    /// Total packets across classes.
    pub fn total_packets(&self) -> u64 {
        self.packets_by_class.iter().sum()
    }

    /// Packets of one class.
    pub fn packets(&self, class: TrafficClass) -> u64 {
        self.packets_by_class[crate::analysis::class_idx(class)]
    }

    /// Combined scanning packets (TCP SYN + ICMP echo).
    pub fn scan_packets(&self) -> u64 {
        self.packets(TrafficClass::TcpScan) + self.packets(TrafficClass::IcmpScan)
    }
}

/// Columnar per-device aggregates: one row per correlated device,
/// struct-of-arrays.
///
/// Rows are addressed two ways: by *row number* (dense, iteration order)
/// and by [`DeviceId`] through a sparse `device index → row` table that
/// exploits the inventory's dense id interning. While ingesting, rows
/// are appended in first-seen order; [`normalize`](Self::normalize)
/// sorts them by id so finished results are reproducible bit-for-bit
/// regardless of ingest or merge order.
#[derive(Debug, Clone, Default)]
pub struct DeviceTable {
    /// Device id per row.
    ids: Vec<DeviceId>,
    /// Realm per row.
    realms: Vec<Realm>,
    /// First interval seen per row.
    first_interval: Vec<u32>,
    /// Flow count per row.
    flows: Vec<u64>,
    /// Packet counts per class, class-major: `packets[class][row]`.
    packets: [Vec<u64>; NUM_CLASSES],
    /// Active-day bitmask per row.
    days_active: Vec<u64>,
    /// Sparse index: device index → row + 1 (0 = absent).
    row_of: Vec<u32>,
    /// Whether rows are currently sorted by id.
    sorted: bool,
}

impl DeviceTable {
    /// An empty table.
    pub fn new() -> Self {
        DeviceTable {
            sorted: true,
            ..DeviceTable::default()
        }
    }

    /// Number of rows (correlated devices).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row holding `id`, if the device has been observed.
    #[inline]
    pub fn row(&self, id: DeviceId) -> Option<usize> {
        match self.row_of.get(id.0 as usize) {
            Some(&r) if r != 0 => Some(r as usize - 1),
            _ => None,
        }
    }

    /// Whether the device has been observed.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.row(id).is_some()
    }

    /// Device ids in row order (sorted ascending iff the table is
    /// [`normalize`](Self::normalize)d).
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// Flow count per row, in row order. While ingesting, rows only
    /// append, so comparing this column with an earlier copy names the
    /// rows an hour created or touched.
    pub fn flows(&self) -> &[u64] {
        &self.flows
    }

    /// Get-or-create the row for `id`, recording `realm` and the
    /// candidate `first_interval` on creation.
    #[inline]
    pub fn upsert(&mut self, id: DeviceId, realm: Realm, first_interval: u32) -> usize {
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
        self.first_interval.push(first_interval);
        self.flows.push(0);
        for col in &mut self.packets {
            col.push(0);
        }
        self.days_active.push(0);
        self.row_of[idx] = (row + 1) as u32;
        row
    }

    /// Record one flow for `id`: `pkts` packets of class `class`
    /// observed at `interval` on day `day`. The hot path of
    /// [`Analyzer::ingest_hour`](crate::analysis::Analyzer::ingest_hour).
    #[inline]
    pub fn observe(
        &mut self,
        id: DeviceId,
        realm: Realm,
        class: usize,
        pkts: u64,
        interval: u32,
        day: u32,
    ) {
        let row = self.upsert(id, realm, interval);
        let fi = &mut self.first_interval[row];
        *fi = (*fi).min(interval);
        self.flows[row] += 1;
        self.packets[class][row] += pkts;
        self.days_active[row] |= 1 << day.min(63);
    }

    /// Materialize the observation at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    pub fn observation_at(&self, row: usize) -> DeviceObservation {
        DeviceObservation {
            device: self.ids[row],
            realm: self.realms[row],
            first_interval: self.first_interval[row],
            flows: self.flows[row],
            packets_by_class: std::array::from_fn(|c| self.packets[c][row]),
            days_active: self.days_active[row],
        }
    }

    /// Materialize the observation for `id`, if observed.
    pub fn get(&self, id: DeviceId) -> Option<DeviceObservation> {
        self.row(id).map(|r| self.observation_at(r))
    }

    /// Iterate over rows as materialized observations, in row order.
    pub fn rows(&self) -> impl Iterator<Item = DeviceObservation> + '_ {
        (0..self.len()).map(|r| self.observation_at(r))
    }

    /// Packets of `class` accumulated in `row` — column access without
    /// materializing the row.
    #[inline]
    pub fn class_packets_at(&self, row: usize, class: TrafficClass) -> u64 {
        self.packets[crate::analysis::class_idx(class)][row]
    }

    /// Realm of the device in `row`.
    #[inline]
    pub fn realm_at(&self, row: usize) -> Realm {
        self.realms[row]
    }

    /// Merge another table built over disjoint observations of the same
    /// inventory: matching rows are added field-wise (min for
    /// `first_interval`, OR for `days_active`), new rows are appended.
    ///
    /// Test-only reference: the row-by-row upsert that
    /// [`concat_from`](Self::concat_from) must agree with on
    /// shard-disjoint tables.
    #[cfg(test)]
    fn merge_from(&mut self, other: DeviceTable) {
        if self.is_empty() {
            *self = other;
            return;
        }
        for orow in 0..other.len() {
            let id = other.ids[orow];
            let row = self.upsert(id, other.realms[orow], other.first_interval[orow]);
            let fi = &mut self.first_interval[row];
            *fi = (*fi).min(other.first_interval[orow]);
            self.flows[row] += other.flows[orow];
            for c in 0..NUM_CLASSES {
                self.packets[c][row] += other.packets[c][orow];
            }
            self.days_active[row] |= other.days_active[orow];
        }
    }

    /// Append another table's rows wholesale — the merge path for
    /// *shard-disjoint* partials, where each table covers its own range
    /// of the dense device index and no id can appear in both.
    ///
    /// Rather than upserting row by row and adding columns field-wise,
    /// this is a straight `extend_from_slice` per column plus a
    /// sparse-index fix-up: O(rows) with no per-row branch on existing
    /// state. When partials arrive in ascending shard order and each is
    /// already [`normalize`](Self::normalize)d, the concatenated table is
    /// globally sorted, so the final `normalize()` is a no-op and the
    /// result is bit-identical to a sequential build.
    ///
    /// # Panics
    ///
    /// Debug builds assert that no id of `other` is already present.
    pub fn concat_from(&mut self, other: DeviceTable) {
        if self.is_empty() {
            *self = other;
            return;
        }
        if other.is_empty() {
            return;
        }
        self.sorted =
            self.sorted && other.sorted && self.ids.last().unwrap() < other.ids.first().unwrap();
        let base = self.ids.len() as u32;
        if other.row_of.len() > self.row_of.len() {
            self.row_of.resize(other.row_of.len(), 0);
        }
        for (orow, id) in other.ids.iter().enumerate() {
            let idx = id.0 as usize;
            if idx >= self.row_of.len() {
                self.row_of.resize(idx + 1, 0);
            }
            debug_assert_eq!(self.row_of[idx], 0, "concat_from rows must be disjoint");
            self.row_of[idx] = base + orow as u32 + 1;
        }
        self.ids.extend_from_slice(&other.ids);
        self.realms.extend_from_slice(&other.realms);
        self.first_interval.extend_from_slice(&other.first_interval);
        self.flows.extend_from_slice(&other.flows);
        for (col, ocol) in self.packets.iter_mut().zip(&other.packets) {
            col.extend_from_slice(ocol);
        }
        self.days_active.extend_from_slice(&other.days_active);
    }

    /// Sort rows by device id and rebuild the sparse index, making row
    /// order (and therefore serialization and iteration) independent of
    /// ingest/merge order. O(n log n); no-op when already sorted.
    pub fn normalize(&mut self) {
        if self.sorted {
            return;
        }
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_unstable_by_key(|&r| self.ids[r as usize]);
        self.ids = permute(&self.ids, &perm);
        self.realms = permute(&self.realms, &perm);
        self.first_interval = permute(&self.first_interval, &perm);
        self.flows = permute(&self.flows, &perm);
        for col in &mut self.packets {
            *col = permute(col, &perm);
        }
        self.days_active = permute(&self.days_active, &perm);
        for (row, id) in self.ids.iter().enumerate() {
            self.row_of[id.0 as usize] = (row + 1) as u32;
        }
        self.sorted = true;
    }

    /// Approximate heap footprint in bytes (columns + sparse index).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<DeviceId>()
            + self.realms.capacity() * size_of::<Realm>()
            + self.first_interval.capacity() * size_of::<u32>()
            + self.flows.capacity() * size_of::<u64>()
            + self
                .packets
                .iter()
                .map(|c| c.capacity() * size_of::<u64>())
                .sum::<usize>()
            + self.days_active.capacity() * size_of::<u64>()
            + self.row_of.capacity() * size_of::<u32>()
    }
}

/// Gather `src` through the permutation `perm` (new row `i` = old row
/// `perm[i]`).
fn permute<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&r| src[r as usize]).collect()
}

/// Row-set equality, insensitive to row order and index capacity — two
/// tables describing the same devices compare equal even if one was
/// built by a differently-ordered merge and not yet normalized.
impl PartialEq for DeviceTable {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|row| {
            let id = self.ids[row];
            match other.row(id) {
                Some(orow) => {
                    self.realms[row] == other.realms[orow]
                        && self.first_interval[row] == other.first_interval[orow]
                        && self.flows[row] == other.flows[orow]
                        && (0..NUM_CLASSES).all(|c| self.packets[c][row] == other.packets[c][orow])
                        && self.days_active[row] == other.days_active[orow]
                }
                None => false,
            }
        })
    }
}

impl Eq for DeviceTable {}

/// Number of UDP destination ports: the table axis of [`PortTable`].
const NUM_PORTS: usize = u16::MAX as usize + 1;

/// Table IV's per-port UDP aggregates, flat over the 2^16 port space.
///
/// Three parts, none of them per-port heap objects: packets per port
/// and distinct devices per port, both indexed directly by port, plus
/// one set of `(port, device index)` pairs that deduplicates devices.
/// Cloning or dropping the table is therefore three contiguous copies
/// or frees however many ports were seen — which is what keeps an epoch
/// publish of the resident daemon at memcpy cost. The port columns are
/// allocated on the first insert, so an empty table (a quiet shard, the
/// epoch-0 snapshot) owns no heap memory.
#[derive(Debug, Clone, Default)]
pub struct PortTable {
    /// UDP packets per destination port (empty, or one entry per port).
    packets: Vec<u64>,
    /// Distinct devices per destination port (same shape as `packets`).
    devices: Vec<u32>,
    /// `port << 32 | device index` for every pair seen.
    pairs: PairSet,
}

impl PortTable {
    /// An empty table.
    pub fn new() -> Self {
        PortTable::default()
    }

    #[inline]
    fn key(port: u16, id: DeviceId) -> u64 {
        (u64::from(port) << 32) | u64::from(id.0)
    }

    /// Record one flow of `packets` packets from `id` to `port`.
    #[inline]
    pub fn insert(&mut self, port: u16, id: DeviceId, packets: u64) {
        if self.packets.is_empty() {
            self.packets = vec![0; NUM_PORTS];
            self.devices = vec![0; NUM_PORTS];
        }
        self.packets[usize::from(port)] += packets;
        if self.pairs.insert(Self::key(port, id)) {
            self.devices[usize::from(port)] += 1;
        }
    }

    /// UDP packets sent to `port`.
    pub fn packets(&self, port: u16) -> u64 {
        self.packets.get(usize::from(port)).copied().unwrap_or(0)
    }

    /// Number of distinct devices that sent to `port`.
    pub fn devices(&self, port: u16) -> usize {
        self.devices
            .get(usize::from(port))
            .map_or(0, |&d| d as usize)
    }

    /// Whether `id` sent to `port`.
    pub fn contains(&self, port: u16, id: DeviceId) -> bool {
        self.pairs.contains(Self::key(port, id))
    }

    /// Number of distinct ports observed.
    pub fn len(&self) -> usize {
        self.devices.iter().filter(|&&d| d > 0).count()
    }

    /// Whether no port has been observed.
    pub fn is_empty(&self) -> bool {
        self.pairs.len == 0
    }

    /// Number of distinct `(port, device)` pairs: the sum of
    /// [`devices`](Self::devices) over all ports.
    pub fn pair_count(&self) -> usize {
        self.pairs.len
    }

    /// `(port, packets, devices)` for every observed port, ascending by
    /// port.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u64, usize)> + '_ {
        self.devices
            .iter()
            .zip(&self.packets)
            .enumerate()
            .filter(|(_, (&d, _))| d > 0)
            .map(|(port, (&d, &p))| (port as u16, p, d as usize))
    }

    /// Merge a table built over disjoint observations of the same
    /// inventory: packets add, and a device counts once per port however
    /// many tables saw it — so hour-disjoint partials (whose device sets
    /// overlap) and device-disjoint shard partials (whose counts simply
    /// add) merge through the same code.
    pub fn merge_from(&mut self, other: PortTable) {
        if self.is_empty() {
            *self = other;
            return;
        }
        if other.is_empty() {
            return;
        }
        for (p, o) in self.packets.iter_mut().zip(&other.packets) {
            *p += o;
        }
        for key in other.pairs.iter() {
            if self.pairs.insert(key) {
                self.devices[(key >> 32) as usize] += 1;
            }
        }
    }
}

/// Same ports, packets and `(port, device)` pairs, whether or not the
/// port columns have been allocated.
impl PartialEq for PortTable {
    fn eq(&self, other: &Self) -> bool {
        self.pairs.len == other.pairs.len
            && self.pairs.iter().all(|key| other.pairs.contains(key))
            && (0..=u16::MAX)
                .all(|p| self.packets(p) == other.packets(p) && self.devices(p) == other.devices(p))
    }
}

impl Eq for PortTable {}

/// Marks a free slot of a [`PairSet`]; no pair key reaches it (keys
/// use the low 48 bits).
const EMPTY_SLOT: u64 = u64::MAX;

/// A set of `u64` keys in one slot vector: open addressing with linear
/// probing from a keyed hash.
///
/// The slot count is not a power of two (a multiply-shift maps hashes
/// onto any length), so it can grow by a quarter when the load passes
/// seven eighths and stays 70–88% full. A power-of-two table such as
/// `std::collections::HashSet` doubles instead: at the paper workload's
/// 116,975 pairs it holds 262,144 slots (2.4 MB), against 1.1 MB here,
/// and every epoch snapshot copies it. The hash is the standard
/// library's keyed SipHash, because the keys come from darknet traffic
/// — outside input that must not be able to force collisions.
#[derive(Debug, Clone, Default)]
struct PairSet {
    slots: Vec<u64>,
    len: usize,
    hasher: RandomState,
}

impl PairSet {
    /// The slot a key's probe sequence starts at. `slots` is non-empty.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let hash = u128::from(self.hasher.hash_one(key));
        ((hash * self.slots.len() as u128) >> 64) as usize
    }

    /// Insert `key`; `true` if it was not present.
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY_SLOT);
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                EMPTY_SLOT => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = if i + 1 == self.slots.len() { 0 } else { i + 1 },
            }
        }
    }

    /// Whether `key` is present.
    fn contains(&self, key: u64) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                EMPTY_SLOT => return false,
                k if k == key => return true,
                _ => i = if i + 1 == self.slots.len() { 0 } else { i + 1 },
            }
        }
    }

    /// Re-insert every key into a table a quarter larger.
    fn grow(&mut self) {
        let cap = (self.slots.len() + self.slots.len() / 4).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; cap]);
        self.len = 0;
        for key in old.into_iter().filter(|&k| k != EMPTY_SLOT) {
            self.insert(key);
        }
    }

    /// Every key, in slot order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&k| k != EMPTY_SLOT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_set_insert_contains_len() {
        let mut s = DeviceSet::new();
        assert!(s.is_empty());
        assert!(s.insert(DeviceId(3)));
        assert!(!s.insert(DeviceId(3)));
        assert!(s.insert(DeviceId(200)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(DeviceId(3)));
        assert!(!s.contains(DeviceId(4)));
        assert!(!s.contains(DeviceId(100_000)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![DeviceId(3), DeviceId(200)]
        );
    }

    #[test]
    fn device_set_union_counts_and_capacity_equality() {
        let a: DeviceSet = [DeviceId(1), DeviceId(64), DeviceId(65)]
            .into_iter()
            .collect();
        let mut b: DeviceSet = [DeviceId(1), DeviceId(500)].into_iter().collect();
        b.union_with(&a);
        assert_eq!(b.len(), 4);
        assert!(b.contains(DeviceId(64)));
        // Equality ignores trailing capacity.
        let mut big = DeviceSet::with_capacity(10_000);
        for id in b.iter() {
            big.insert(id);
        }
        assert_eq!(big, b);
        big.insert(DeviceId(9_999));
        assert_ne!(big, b);
        // Clear keeps capacity but empties membership.
        big.clear();
        assert!(big.is_empty());
        assert_eq!(big, DeviceSet::new());
    }

    #[test]
    fn device_set_promotes_past_sparse_max() {
        // Insert descending so the sparse path exercises its memmove,
        // then cross the promotion threshold.
        let mut s = DeviceSet::new();
        for i in (0..300u32).rev() {
            assert!(s.insert(DeviceId(i * 3)));
        }
        assert!(!s.insert(DeviceId(0)));
        assert_eq!(s.len(), 300);
        assert!(s.contains(DeviceId(297 * 3)));
        assert!(!s.contains(DeviceId(1)));
        // Iteration stays ascending across the promotion.
        let ids: Vec<u32> = s.iter().map(|d| d.0).collect();
        assert_eq!(ids, (0..300u32).map(|i| i * 3).collect::<Vec<_>>());
        // A promoted set equals a never-promoted dense set with the
        // same members, and unions with a sparse set stay correct.
        let mut dense = DeviceSet::with_capacity(1024);
        dense.extend(s.iter());
        assert_eq!(dense, s);
        let sparse: DeviceSet = [DeviceId(1), DeviceId(898)].into_iter().collect();
        s.union_with(&sparse);
        assert_eq!(s.len(), 302);
        assert!(s.contains(DeviceId(1)));
    }

    #[test]
    fn table_upsert_observe_get() {
        let mut t = DeviceTable::new();
        t.observe(DeviceId(7), Realm::Cps, 0, 5, 10, 0);
        t.observe(DeviceId(7), Realm::Cps, 3, 2, 4, 1);
        t.observe(DeviceId(2), Realm::Consumer, 3, 1, 8, 0);
        assert_eq!(t.len(), 2);
        let obs = t.get(DeviceId(7)).unwrap();
        assert_eq!(obs.first_interval, 4);
        assert_eq!(obs.flows, 2);
        assert_eq!(obs.packets_by_class, [5, 0, 0, 2, 0]);
        assert_eq!(obs.days_active, 0b11);
        assert!(t.get(DeviceId(3)).is_none());
        assert_eq!(t.rows().count(), 2);
    }

    #[test]
    fn normalize_sorts_rows_and_preserves_lookup() {
        let mut t = DeviceTable::new();
        for id in [9u32, 3, 7, 1] {
            t.observe(DeviceId(id), Realm::Consumer, 0, 1, 1, 0);
        }
        assert_eq!(t.ids()[0], DeviceId(9));
        t.normalize();
        assert_eq!(
            t.ids(),
            &[DeviceId(1), DeviceId(3), DeviceId(7), DeviceId(9)]
        );
        for id in [9u32, 3, 7, 1] {
            assert_eq!(t.get(DeviceId(id)).unwrap().device, DeviceId(id));
        }
        // Already-sorted append keeps the sorted flag (normalize no-ops).
        t.observe(DeviceId(12), Realm::Cps, 1, 1, 2, 0);
        t.normalize();
        assert_eq!(t.ids().last(), Some(&DeviceId(12)));
    }

    #[test]
    fn merge_adds_matching_rows_and_appends_new() {
        let mut a = DeviceTable::new();
        a.observe(DeviceId(1), Realm::Consumer, 0, 10, 5, 0);
        let mut b = DeviceTable::new();
        b.observe(DeviceId(1), Realm::Consumer, 0, 4, 2, 1);
        b.observe(DeviceId(8), Realm::Cps, 2, 9, 7, 1);
        a.merge_from(b);
        assert_eq!(a.len(), 2);
        let one = a.get(DeviceId(1)).unwrap();
        assert_eq!(one.first_interval, 2);
        assert_eq!(one.flows, 2);
        assert_eq!(one.packets_by_class[0], 14);
        assert_eq!(one.days_active, 0b11);
        assert_eq!(a.get(DeviceId(8)).unwrap().packets_by_class[2], 9);
    }

    #[test]
    fn concat_preserves_sort_for_ascending_shards() {
        // Two sorted shard partials over disjoint dense ranges.
        let mut lo = DeviceTable::new();
        lo.observe(DeviceId(1), Realm::Consumer, 0, 3, 2, 0);
        lo.observe(DeviceId(4), Realm::Cps, 2, 5, 1, 1);
        let mut hi = DeviceTable::new();
        hi.observe(DeviceId(9), Realm::Consumer, 3, 7, 4, 2);
        hi.observe(DeviceId(12), Realm::Cps, 1, 1, 6, 0);

        // Reference: the same rows via the columnar-add merge.
        let mut reference = lo.clone();
        reference.merge_from(hi.clone());

        let mut cat = lo.clone();
        cat.concat_from(hi.clone());
        assert!(cat.sorted, "ascending concat must keep the sorted flag");
        assert_eq!(cat, reference);
        assert_eq!(
            cat.ids(),
            &[DeviceId(1), DeviceId(4), DeviceId(9), DeviceId(12)]
        );
        // Lookups work through the rebuilt sparse index.
        assert_eq!(cat.get(DeviceId(9)).unwrap().packets_by_class[3], 7);
        assert_eq!(cat.get(DeviceId(4)).unwrap().first_interval, 1);

        // Concatenating onto an empty table moves rows wholesale.
        let mut empty = DeviceTable::new();
        empty.concat_from(cat.clone());
        assert_eq!(empty, cat);

        // Out-of-order concat drops the flag; normalize restores order.
        let mut rev = hi;
        rev.concat_from(lo);
        assert!(!rev.sorted);
        rev.normalize();
        assert_eq!(rev.ids(), cat.ids());
        assert_eq!(rev, cat);
    }

    #[test]
    fn port_table_counts_packets_and_distinct_devices() {
        let mut t = PortTable::new();
        assert!(t.is_empty());
        assert_eq!(t.packets(53), 0);
        assert_eq!(t.devices(53), 0);
        t.insert(53, DeviceId(1), 4);
        t.insert(53, DeviceId(1), 2);
        t.insert(53, DeviceId(9), 1);
        t.insert(u16::MAX, DeviceId(1), 7);
        assert_eq!(t.len(), 2);
        assert_eq!(t.pair_count(), 3);
        assert_eq!((t.packets(53), t.devices(53)), (7, 2));
        assert!(t.contains(53, DeviceId(9)));
        assert!(!t.contains(54, DeviceId(9)));
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![(53, 7, 2), (u16::MAX, 7, 1)]
        );
        // An empty table equals one that never allocated its columns.
        assert_eq!(PortTable::new(), PortTable::default());
        assert_ne!(t, PortTable::new());
    }

    #[test]
    fn port_table_merge_unions_overlapping_and_disjoint_partials() {
        // Hour-disjoint partials share device 1 on port 53.
        let mut a = PortTable::new();
        a.insert(53, DeviceId(1), 3);
        a.insert(137, DeviceId(2), 1);
        let mut b = PortTable::new();
        b.insert(53, DeviceId(1), 5);
        b.insert(53, DeviceId(4), 1);
        let mut reference = PortTable::new();
        for (port, id, pkts) in [(53, 1, 3), (137, 2, 1), (53, 1, 5), (53, 4, 1)] {
            reference.insert(port, DeviceId(id), pkts);
        }
        let mut merged = a.clone();
        merged.merge_from(b.clone());
        assert_eq!(merged, reference);
        assert_eq!((merged.packets(53), merged.devices(53)), (9, 2));
        // Either side empty moves or keeps the other wholesale.
        let mut empty = PortTable::new();
        empty.merge_from(a.clone());
        assert_eq!(empty, a);
        a.merge_from(PortTable::new());
        assert_eq!(empty, a);
        // Merge order does not matter.
        b.merge_from(a);
        assert_eq!(b, reference);
    }

    #[test]
    fn pair_set_grows_without_losing_or_inventing_keys() {
        let mut set = PairSet::default();
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| (i % 700) << 32 | (i * 7919))
            .collect();
        for &k in &keys {
            assert!(set.insert(k));
            assert!(!set.insert(k));
        }
        assert_eq!(set.len, keys.len());
        assert!(set.len * 8 <= set.slots.len() * 7, "load stays at most 7/8");
        assert!(keys.iter().all(|&k| set.contains(k)));
        assert!(!set.contains(1 << 47));
        assert!(!PairSet::default().contains(0));
        let mut seen: Vec<u64> = set.iter().collect();
        seen.sort_unstable();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn equality_is_row_order_insensitive() {
        let mut a = DeviceTable::new();
        a.observe(DeviceId(5), Realm::Consumer, 0, 1, 1, 0);
        a.observe(DeviceId(2), Realm::Cps, 1, 2, 2, 0);
        let mut b = DeviceTable::new();
        b.observe(DeviceId(2), Realm::Cps, 1, 2, 2, 0);
        b.observe(DeviceId(5), Realm::Consumer, 0, 1, 1, 0);
        assert_eq!(a, b);
        // Normalizing one side must not break equality with the other.
        a.normalize();
        assert_eq!(a, b);
        b.observe(DeviceId(5), Realm::Consumer, 0, 1, 1, 0);
        assert_ne!(a, b);
        // Merging into an empty table moves the rows wholesale.
        let mut empty = DeviceTable::new();
        empty.merge_from(a.clone());
        assert_eq!(empty, a);
    }
}

//! Stride-compacted participant tables for sharded mediators.
//!
//! [`ParticipantTable`](crate::ParticipantTable) indexes a dense slot
//! vector by the *global* raw id. That is the right layout for the
//! engine's population tables (one copy, fully occupied), but it is
//! catastrophic for per-shard mediator state: the shard router partitions
//! participants round-robin (`slot % K`), so every one of `K` shards
//! would grow a vector spanning the *whole* id space to hold its `1/K`
//! share — `O(K × P)` mostly-empty slots, which at 10⁶ participants and
//! thousands of shards is gigabytes of zeroed pages and the page-fault
//! storm that comes with touching them.
//!
//! [`StridedTable`] and [`StridedColumn`] keep the O(1) arithmetic
//! indexing but store only a shard's own residue class: a participant
//! with raw id `slot` such that `slot ≡ offset (mod stride)` lives at
//! dense local index `(slot - offset) / stride`, so a shard's table is
//! `O(P / K)` no matter how many shards exist. Ids outside the residue
//! class — providers migrated in from another shard, consumer views
//! absorbed from peer digests — land in a small sorted overflow vector
//! (binary-searched, merged into iteration by id). With `stride == 1`
//! the mapping is the identity and the types behave exactly like their
//! dense counterparts, which is what keeps mono-mediator runs
//! bit-identical.
//!
//! Iteration is in ascending *global* id order in every case: the main
//! storage is ascending by construction (`slot = offset + i · stride` is
//! monotonic in `i`), the overflow is kept sorted, and the two are
//! merged — so digest exports and any order-sensitive float accumulation
//! see the same sequence a dense table would produce.

use std::iter::Peekable;
use std::marker::PhantomData;

use crate::table::StableId;

/// Merges two iterators that are each ascending in their `usize` slot,
/// preserving global ascending order. The slot sets are disjoint by
/// construction (an off-stride id can never equal an on-stride id), so
/// ties need no policy.
struct MergeBySlot<A: Iterator, B: Iterator> {
    a: Peekable<A>,
    b: Peekable<B>,
}

/// Division by a run-time constant without a hardware divide.
///
/// A stride is fixed when its table is built, but hardware division by a
/// run-time value costs tens of cycles and the residue arithmetic runs
/// once per candidate per query. Power-of-two divisors reduce to a shift
/// and a mask; any other divisor uses Lemire's multiply-high: with
/// `magic = ⌊(2⁶⁴ − 1) / d⌋ + 1`, `⌊n / d⌋ = (magic · n) >> 64` exactly for
/// every `n < 2³²` (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019). Participant ids are `u32`, so every slot lies in
/// that range; a larger dividend falls back to hardware division.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    divisor: usize,
    /// `log2(divisor)` for powers of two (then `magic` is zero).
    shift: u32,
    /// The multiply-high reciprocal for every other divisor.
    magic: u64,
}

impl Divisor {
    /// Division by one.
    pub(crate) const ONE: Divisor = Divisor {
        divisor: 1,
        shift: 0,
        magic: 0,
    };

    /// Precomputes the reciprocal of `divisor`.
    ///
    /// # Panics
    ///
    /// Panics when `divisor` is zero.
    pub(crate) fn new(divisor: usize) -> Self {
        assert!(divisor >= 1, "divisor must be at least 1");
        if divisor.is_power_of_two() {
            Divisor {
                divisor,
                shift: divisor.trailing_zeros(),
                magic: 0,
            }
        } else {
            Divisor {
                divisor,
                shift: 0,
                magic: u64::MAX / divisor as u64 + 1,
            }
        }
    }

    /// The divisor itself.
    #[inline]
    pub(crate) fn get(self) -> usize {
        self.divisor
    }

    /// `(n / divisor, n % divisor)`.
    #[inline]
    pub(crate) fn div_rem(self, n: usize) -> (usize, usize) {
        let quotient = if self.magic == 0 {
            n >> self.shift
        } else if n <= u32::MAX as usize {
            ((u128::from(self.magic) * n as u128) >> 64) as usize
        } else {
            n / self.divisor
        };
        (quotient, n - quotient * self.divisor)
    }
}

impl<T, A, B> Iterator for MergeBySlot<A, B>
where
    A: Iterator<Item = (usize, T)>,
    B: Iterator<Item = (usize, T)>,
{
    type Item = (usize, T);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.a.peek(), self.b.peek()) {
            (Some(&(sa, _)), Some(&(sb, _))) => {
                if sa <= sb {
                    self.a.next()
                } else {
                    self.b.next()
                }
            }
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

/// A map from stable identifiers to per-participant state, compacted for
/// a single residue class `slot ≡ offset (mod stride)`.
///
/// See the [module documentation](self) for the layout rationale. The
/// API mirrors the subset of [`ParticipantTable`](crate::ParticipantTable)
/// the mediator state needs; `stride == 1` (the [`StridedTable::new`]
/// default) is the identity mapping and matches the dense table's
/// behavior exactly.
#[derive(Debug, Clone)]
pub struct StridedTable<K: StableId, V> {
    offset: usize,
    /// The stride, with its reciprocal precomputed: the per-access
    /// residue test and local-index computation sit on the allocation hot
    /// path (one `local` per candidate per query), so they run without a
    /// hardware divide. Stride 1 never consults it (the identity
    /// short-circuit fires first).
    stride: Divisor,
    /// Dense storage of the residue class: local index `i` holds the
    /// participant with raw id `offset + i · stride`.
    slots: Vec<Option<V>>,
    /// Off-stride entries (migrated providers, absorbed foreign consumer
    /// views), sorted by raw id. Expected to stay small — it only grows
    /// through explicit cross-shard traffic, never through a shard's own
    /// allocation work.
    overflow: Vec<(usize, V)>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: StableId, V> StridedTable<K, V> {
    /// Creates an empty identity-mapped table (`offset 0, stride 1`).
    pub fn new() -> Self {
        StridedTable::with_stride(0, 1)
    }

    /// Creates an empty table for the residue class
    /// `slot ≡ offset (mod stride)`.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero or `offset >= stride` — such a
    /// mapping has no dense image.
    pub fn with_stride(offset: usize, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(
            offset < stride,
            "offset {offset} out of range for stride {stride}"
        );
        StridedTable {
            offset,
            stride: Divisor::new(stride),
            slots: Vec::new(),
            overflow: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// The residue-class parameters `(offset, stride)` of this table.
    pub fn stride_params(&self) -> (usize, usize) {
        (self.offset, self.stride.get())
    }

    /// Number of present entries (main storage plus overflow).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of entries living in the off-stride overflow.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// The dense local index of `slot`, or `None` when the id lies
    /// outside this table's residue class (it then belongs in the
    /// overflow).
    #[inline]
    fn local(&self, slot: usize) -> Option<usize> {
        // `stride == 1` is the mono-mediator / dense case: keep it a
        // single predictable branch on the allocation hot path.
        if self.stride.get() == 1 {
            return Some(slot);
        }
        let (local, residue) = self.stride.div_rem(slot.checked_sub(self.offset)?);
        (residue == 0).then_some(local)
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => self.slots.get(i).and_then(Option::as_ref),
            None => self
                .overflow
                .binary_search_by_key(&slot, |entry| entry.0)
                .ok()
                .map(|i| &self.overflow[i].1),
        }
    }

    /// Mutable access to the entry for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => self.slots.get_mut(i).and_then(Option::as_mut),
            None => match self.overflow.binary_search_by_key(&slot, |entry| entry.0) {
                Ok(i) => Some(&mut self.overflow[i].1),
                Err(_) => None,
            },
        }
    }

    /// Returns a mutable reference to the entry for `key`, inserting the
    /// result of `default` first if absent. The on-stride path is a
    /// single probe of the dense local storage — this sits on the
    /// allocation hot path (one call per candidate per query).
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => {
                if i >= self.slots.len() {
                    self.slots.resize_with(i + 1, || None);
                }
                let entry = &mut self.slots[i];
                if entry.is_none() {
                    *entry = Some(default());
                    self.len += 1;
                }
                entry.as_mut().expect("entry just ensured")
            }
            None => match self.overflow.binary_search_by_key(&slot, |entry| entry.0) {
                Ok(i) => &mut self.overflow[i].1,
                Err(i) => {
                    self.overflow.insert(i, (slot, default()));
                    self.len += 1;
                    &mut self.overflow[i].1
                }
            },
        }
    }

    /// Inserts an entry, returning the previous value for `key` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => {
                if i >= self.slots.len() {
                    self.slots.resize_with(i + 1, || None);
                }
                let previous = self.slots[i].replace(value);
                if previous.is_none() {
                    self.len += 1;
                }
                previous
            }
            None => match self.overflow.binary_search_by_key(&slot, |entry| entry.0) {
                Ok(i) => Some(std::mem::replace(&mut self.overflow[i].1, value)),
                Err(i) => {
                    self.overflow.insert(i, (slot, value));
                    self.len += 1;
                    None
                }
            },
        }
    }

    /// Removes the entry for `key`, keeping every other key valid.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let slot = key.slot();
        let removed = match self.local(slot) {
            Some(i) => self.slots.get_mut(i).and_then(Option::take),
            None => match self.overflow.binary_search_by_key(&slot, |entry| entry.0) {
                Ok(i) => Some(self.overflow.remove(i).1),
                Err(_) => None,
            },
        };
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Removes every entry, keeping the residue-class parameters.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.overflow.clear();
        self.len = 0;
    }

    /// Iterates over `(id, value)` pairs in ascending *global* id order,
    /// merging the dense residue-class storage with the overflow.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        let offset = self.offset;
        let stride = self.stride.get();
        let main = self
            .slots
            .iter()
            .enumerate()
            .filter_map(move |(i, value)| value.as_ref().map(|v| (offset + i * stride, v)));
        let over = self.overflow.iter().map(|(slot, value)| (*slot, value));
        MergeBySlot {
            a: main.peekable(),
            b: over.peekable(),
        }
        .map(|(slot, value)| (K::from_slot(slot), value))
    }

    /// Iterates over present identifiers in ascending global order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over present values in ascending global id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: StableId, V> Default for StridedTable<K, V> {
    fn default() -> Self {
        StridedTable::new()
    }
}

/// A stride-compacted struct-of-arrays column of plain values: the
/// [`SlotColumn`](crate::SlotColumn) layout (bare `T` per slot, a `fill`
/// value standing in for "absent") over the residue-class mapping of
/// [`StridedTable`]. Off-stride writes land in a sorted overflow;
/// off-stride reads that miss it return the fill, exactly like a
/// never-written dense slot.
#[derive(Debug, Clone)]
pub struct StridedColumn<K: StableId, T> {
    offset: usize,
    /// See [`StridedTable::stride`]: the stride with its precomputed
    /// reciprocal.
    stride: Divisor,
    values: Vec<T>,
    overflow: Vec<(usize, T)>,
    fill: T,
    _key: PhantomData<K>,
}

impl<K: StableId, T: Copy> StridedColumn<K, T> {
    /// Creates an empty identity-mapped column whose absent slots read as
    /// `fill`.
    pub fn new(fill: T) -> Self {
        StridedColumn::with_stride(fill, 0, 1)
    }

    /// Creates an empty column for the residue class
    /// `slot ≡ offset (mod stride)`.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero or `offset >= stride`.
    pub fn with_stride(fill: T, offset: usize, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(
            offset < stride,
            "offset {offset} out of range for stride {stride}"
        );
        StridedColumn {
            offset,
            stride: Divisor::new(stride),
            values: Vec::new(),
            overflow: Vec::new(),
            fill,
            _key: PhantomData,
        }
    }

    /// The fill value standing in for absent slots.
    pub fn fill_value(&self) -> T {
        self.fill
    }

    /// Number of materialized dense slots (diagnostic).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no dense slot has been materialized.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    fn local(&self, slot: usize) -> Option<usize> {
        if self.stride.get() == 1 {
            return Some(slot);
        }
        let (local, residue) = self.stride.div_rem(slot.checked_sub(self.offset)?);
        (residue == 0).then_some(local)
    }

    /// The value for `key` (the fill value when the slot was never
    /// written). On-stride this is one bounds-checked load — the batch
    /// scoring gather leans on it.
    #[inline]
    pub fn get(&self, key: K) -> T {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => self.values.get(i).copied().unwrap_or(self.fill),
            None => self
                .overflow
                .binary_search_by_key(&slot, |entry| entry.0)
                .map(|i| self.overflow[i].1)
                .unwrap_or(self.fill),
        }
    }

    /// Writes the value for `key`, growing the dense column with fill
    /// values when an on-stride slot lies past the end.
    pub fn set(&mut self, key: K, value: T) {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => {
                if i >= self.values.len() {
                    self.values.resize(i + 1, self.fill);
                }
                self.values[i] = value;
            }
            None => match self.overflow.binary_search_by_key(&slot, |entry| entry.0) {
                Ok(i) => self.overflow[i].1 = value,
                Err(i) => self.overflow.insert(i, (slot, value)),
            },
        }
    }

    /// Resets `key` to the fill value. Off-stride entries are dropped
    /// from the overflow (a read then finds the fill, same as dense).
    pub fn reset(&mut self, key: K) {
        let slot = key.slot();
        match self.local(slot) {
            Some(i) => {
                if i < self.values.len() {
                    self.values[i] = self.fill;
                }
            }
            None => {
                if let Ok(i) = self.overflow.binary_search_by_key(&slot, |entry| entry.0) {
                    self.overflow.remove(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProviderId;
    use crate::ParticipantTable;
    use proptest::prelude::*;

    fn p(raw: u32) -> ProviderId {
        ProviderId::new(raw)
    }

    proptest! {
        #[test]
        fn prop_divisor_matches_hardware_division(
            n in 0u32..=u32::MAX,
            divisor in 1usize..=u32::MAX as usize,
        ) {
            let n = n as usize;
            prop_assert_eq!(Divisor::new(divisor).div_rem(n), (n / divisor, n % divisor));
        }

        #[test]
        fn prop_divisor_is_exact_near_multiples(
            divisor in 1usize..5_000,
            quotient in 0usize..800_000,
            delta in 0usize..3,
        ) {
            // n = q·d − 1, q·d, q·d + 1: where a rounding error would show.
            let n = (quotient * divisor + delta).saturating_sub(1);
            prop_assert_eq!(Divisor::new(divisor).div_rem(n), (n / divisor, n % divisor));
        }
    }

    #[test]
    fn divisor_extremes() {
        for divisor in [1usize, 2, 3, 7, 2_084, 4_096, u32::MAX as usize] {
            let d = Divisor::new(divisor);
            for n in [0usize, 1, divisor - 1, divisor, u32::MAX as usize, 1 << 40] {
                assert_eq!(d.div_rem(n), (n / divisor, n % divisor), "{n} / {divisor}");
            }
        }
    }

    #[test]
    fn stride_one_matches_the_dense_table() {
        let mut strided: StridedTable<ProviderId, u32> = StridedTable::new();
        let mut dense: ParticipantTable<ProviderId, u32> = ParticipantTable::new();
        for (id, v) in [(3u32, 30), (0, 0), (7, 70), (3, 31)] {
            assert_eq!(strided.insert(p(id), v), dense.insert(p(id), v));
        }
        strided.remove(p(0));
        dense.remove(p(0));
        assert_eq!(strided.len(), dense.len());
        let a: Vec<(u32, u32)> = strided.iter().map(|(k, v)| (k.raw(), *v)).collect();
        let b: Vec<(u32, u32)> = dense.iter().map(|(k, v)| (k.raw(), *v)).collect();
        assert_eq!(a, b);
        assert_eq!(strided.overflow_len(), 0, "stride 1 never overflows");
    }

    #[test]
    fn residue_class_members_live_in_dense_storage() {
        // Shard 1 of 4: owns ids 1, 5, 9, ...
        let mut table: StridedTable<ProviderId, u32> = StridedTable::with_stride(1, 4);
        table.insert(p(1), 10);
        table.insert(p(9), 90);
        *table.or_insert_with(p(5), || 0) += 50;
        assert_eq!(table.len(), 3);
        assert_eq!(table.overflow_len(), 0);
        assert_eq!(table.get(p(9)), Some(&90));
        assert_eq!(table.get(p(2)), None, "off-stride id, never inserted");
        assert_eq!(table.get(p(13)), None, "on-stride id, never inserted");
        assert_eq!(table.stride_params(), (1, 4));
        // Dense storage spans exactly the residue class: id 9 is local
        // index 2, so three slots — not ten.
        assert!(table.len() <= 3);
    }

    #[test]
    fn off_stride_ids_overflow_and_merge_into_ascending_iteration() {
        let mut table: StridedTable<ProviderId, u32> = StridedTable::with_stride(1, 4);
        table.insert(p(5), 50);
        table.insert(p(2), 20); // off-stride: a migrated-in participant
        table.insert(p(1), 10);
        table.insert(p(8), 80); // off-stride
        assert_eq!(table.overflow_len(), 2);
        assert_eq!(table.len(), 4);
        assert!(table.contains(p(2)));
        assert_eq!(table.get(p(8)), Some(&80));
        *table.get_mut(p(2)).unwrap() += 1;
        let pairs: Vec<(u32, u32)> = table.iter().map(|(k, v)| (k.raw(), *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 21), (5, 50), (8, 80)]);
        assert_eq!(
            table.keys().map(ProviderId::raw).collect::<Vec<_>>(),
            [1, 2, 5, 8]
        );
        assert_eq!(
            table.values().copied().collect::<Vec<_>>(),
            [10, 21, 50, 80]
        );

        assert_eq!(table.remove(p(2)), Some(21));
        assert_eq!(table.remove(p(2)), None);
        assert_eq!(table.overflow_len(), 1);
        assert_eq!(table.len(), 3);

        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.overflow_len(), 0);
        assert_eq!(table.stride_params(), (1, 4), "clear keeps the mapping");
    }

    #[test]
    fn or_insert_with_is_lazy_and_idempotent_on_both_paths() {
        let mut table: StridedTable<ProviderId, Vec<u32>> = StridedTable::with_stride(0, 2);
        table.or_insert_with(p(4), Vec::new).push(1); // on-stride
        table
            .or_insert_with(p(4), || panic!("must not run"))
            .push(2);
        table.or_insert_with(p(3), Vec::new).push(7); // off-stride
        table
            .or_insert_with(p(3), || panic!("must not run"))
            .push(8);
        assert_eq!(table.get(p(4)), Some(&vec![1, 2]));
        assert_eq!(table.get(p(3)), Some(&vec![7, 8]));
    }

    #[test]
    fn insert_replaces_on_both_paths() {
        let mut table: StridedTable<ProviderId, u32> = StridedTable::with_stride(0, 3);
        assert_eq!(table.insert(p(3), 1), None);
        assert_eq!(table.insert(p(3), 2), Some(1));
        assert_eq!(table.insert(p(4), 5), None); // off-stride
        assert_eq!(table.insert(p(4), 6), Some(5));
        assert_eq!(table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "offset 4 out of range")]
    fn offset_must_lie_below_stride() {
        let _: StridedTable<ProviderId, u32> = StridedTable::with_stride(4, 4);
    }

    #[test]
    fn strided_column_reads_fill_everywhere_until_written() {
        let mut column: StridedColumn<ProviderId, f64> = StridedColumn::with_stride(0.5, 2, 3);
        assert!(column.is_empty());
        assert_eq!(column.get(p(2)), 0.5);
        assert_eq!(column.get(p(4)), 0.5, "off-stride reads fill too");
        assert_eq!(column.fill_value(), 0.5);

        column.set(p(8), 0.9); // on-stride: local index 2
        assert_eq!(column.len(), 3, "grown to the residue-class index");
        assert_eq!(column.get(p(8)), 0.9);
        assert_eq!(column.get(p(5)), 0.5, "intermediate on-stride slot");

        column.set(p(4), 0.7); // off-stride: overflow
        assert_eq!(column.get(p(4)), 0.7);
        column.set(p(4), 0.8);
        assert_eq!(column.get(p(4)), 0.8);
        column.reset(p(4));
        assert_eq!(column.get(p(4)), 0.5);
        column.reset(p(8));
        assert_eq!(column.get(p(8)), 0.5);
        column.reset(p(100)); // never written: a no-op on both paths
        assert_eq!(column.get(p(100)), 0.5);
    }

    #[test]
    fn strided_column_stride_one_matches_dense_semantics() {
        let mut column: StridedColumn<ProviderId, f64> = StridedColumn::new(0.25);
        column.set(p(3), 1.0);
        assert_eq!(column.len(), 4);
        assert_eq!(column.get(p(3)), 1.0);
        assert_eq!(column.get(p(0)), 0.25);
        assert_eq!(column.get(p(9)), 0.25);
    }
}

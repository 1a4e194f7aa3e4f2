//! Stable-identifier participant tables.
//!
//! Simulation and mediation state used to live in parallel `Vec`s indexed
//! by a participant's *initial position*, which silently corrupts once
//! autonomous departures shrink the population: positions shift, but
//! identifiers do not. [`ParticipantTable`] replaces that pattern with a
//! map keyed by the participant's stable identifier ([`ConsumerId`],
//! [`ProviderId`], ...). Lookups stay O(1) (a dense slot vector indexed by
//! the raw id), iteration is always in ascending id order (so seeded runs
//! stay deterministic), and removing a participant never invalidates the
//! keys of the others.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

use crate::ids::{ConsumerId, MediatorId, ProviderId, QueryId};
use crate::strided::Divisor;

/// A copyable identifier with a stable, dense raw index.
pub trait StableId: Copy + Eq + fmt::Display {
    /// The raw index of the identifier.
    fn slot(self) -> usize;

    /// Rebuilds the identifier from a raw index.
    fn from_slot(slot: usize) -> Self;
}

macro_rules! stable_id_impls {
    ($($t:ty),*) => {$(
        impl StableId for $t {
            #[inline]
            fn slot(self) -> usize {
                self.index()
            }

            #[inline]
            fn from_slot(slot: usize) -> Self {
                Self::new(slot as u32)
            }
        }
    )*};
}

stable_id_impls!(ConsumerId, ProviderId, MediatorId, QueryId);

/// A map from stable participant identifiers to per-participant state.
///
/// Designed for the small, dense id spaces of the simulator (participants
/// are numbered from 0 at generation time): storage is a slot vector, so
/// `get`/`insert`/`remove` are O(1) and iteration is ordered by id.
///
/// A table built by [`ParticipantTable::residue_major_from_fn`] stores
/// its ids *shard-major* instead: with `K` residue classes and
/// `block = ⌈n / K⌉`, the id `r + q·K` (`r < K`, `q < block`) lives at slot
/// `r·block + q`, so each residue class `id mod K` — the providers one
/// mediator shard owns — is one contiguous block in ascending id order.
/// Ids at or past `K·block` keep the identity position. The mapping only
/// moves where values live: lookups, iteration order (ascending id) and
/// equality are the same in both layouts, and `K = 1` is exactly the
/// identity.
#[derive(Debug, Clone)]
pub struct ParticipantTable<K: StableId, V> {
    /// Indexed by [`Layout::position`]; never shorter than the layout's
    /// residue-major span.
    slots: Vec<Option<V>>,
    len: usize,
    layout: Layout,
    _key: PhantomData<K>,
}

/// The id → slot mapping of a [`ParticipantTable`].
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The number of residue classes `K`, with its precomputed reciprocal.
    residues: Divisor,
    /// Slots per residue class, `⌈n / K⌉`.
    block: usize,
    /// `K · block`: ids below it are stored residue-major, the rest at
    /// their own index. Zero for the identity layout.
    span: usize,
}

impl Layout {
    const IDENTITY: Layout = Layout {
        residues: Divisor::ONE,
        block: 0,
        span: 0,
    };

    /// The residue-major layout for the ids `0..ids` over `residues`
    /// classes (the identity when `residues == 1`).
    fn residue_major(ids: usize, residues: usize) -> Layout {
        assert!(
            residues >= 1,
            "a residue-major layout needs at least one class"
        );
        if residues == 1 {
            return Layout::IDENTITY;
        }
        let block = ids.div_ceil(residues);
        Layout {
            residues: Divisor::new(residues),
            block,
            span: block * residues,
        }
    }

    /// The storage position of the id with raw index `slot`. A bijection
    /// on `0..n` for every `n >= span`.
    #[inline]
    fn position(self, slot: usize) -> usize {
        if slot >= self.span {
            return slot;
        }
        let (q, r) = self.residues.div_rem(slot);
        r * self.block + q
    }
}

/// Walks the ids `0..end` in ascending order, yielding each with its
/// storage position — residue-major positions are stepped incrementally,
/// so iteration divides nothing.
struct AscendingIds {
    layout: Layout,
    id: usize,
    end: usize,
    /// `id / K` and `id mod K` while `id` lies inside the residue-major
    /// span.
    quotient: usize,
    residue: usize,
}

impl AscendingIds {
    fn new(layout: Layout, end: usize) -> Self {
        AscendingIds {
            layout,
            id: 0,
            end,
            quotient: 0,
            residue: 0,
        }
    }
}

impl Iterator for AscendingIds {
    /// `(id, position)`.
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        let id = self.id;
        if id >= self.end {
            return None;
        }
        self.id += 1;
        if id >= self.layout.span {
            return Some((id, id));
        }
        let position = self.residue * self.layout.block + self.quotient;
        self.residue += 1;
        if self.residue == self.layout.residues.get() {
            self.residue = 0;
            self.quotient += 1;
        }
        Some((id, position))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end.saturating_sub(self.id);
        (left, Some(left))
    }
}

/// [`ParticipantTable::iter_mut_of`] over keys whose storage positions
/// strictly ascend — a shard's own candidates, or any ascending key list
/// of an identity-layout table: each borrow splits the remaining slots at
/// a cursor, without allocating.
struct AscendingSlotsOf<'a, K, V> {
    keys: std::slice::Iter<'a, K>,
    layout: Layout,
    /// The slots after the last one handed out.
    rest: &'a mut [Option<V>],
    /// Position of `rest[0]`.
    consumed: usize,
}

impl<'a, K: StableId, V> Iterator for AscendingSlotsOf<'a, K, V> {
    type Item = (K, &'a mut V);

    fn next(&mut self) -> Option<(K, &'a mut V)> {
        loop {
            let &key = self.keys.next()?;
            let offset = self
                .layout
                .position(key.slot())
                .checked_sub(self.consumed)
                .expect("positions were checked to ascend");
            if offset >= self.rest.len() {
                // Every later key lies further past the end.
                return None;
            }
            let (head, tail) = std::mem::take(&mut self.rest).split_at_mut(offset + 1);
            self.rest = tail;
            self.consumed += offset + 1;
            if let Some(value) = head[offset].as_mut() {
                return Some((key, value));
            }
        }
    }
}

/// Either way of serving [`ParticipantTable::iter_mut_of`].
enum SlotsOf<'a, K, V> {
    Ascending(AscendingSlotsOf<'a, K, V>),
    /// Keys in any other order, borrowed in position order up front and
    /// yielded in the caller's.
    Gathered(std::iter::Flatten<std::vec::IntoIter<Option<(K, &'a mut V)>>>),
}

impl<'a, K: StableId, V> Iterator for SlotsOf<'a, K, V> {
    type Item = (K, &'a mut V);

    fn next(&mut self) -> Option<(K, &'a mut V)> {
        match self {
            SlotsOf::Ascending(slots) => slots.next(),
            SlotsOf::Gathered(slots) => slots.next(),
        }
    }
}

impl<K: StableId, V> ParticipantTable<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        ParticipantTable {
            slots: Vec::new(),
            len: 0,
            layout: Layout::IDENTITY,
            _key: PhantomData,
        }
    }

    /// Builds a table from values whose identifiers are their positions
    /// (the layout population generators produce).
    pub fn from_values(values: impl IntoIterator<Item = V>) -> Self {
        let slots: Vec<Option<V>> = values.into_iter().map(Some).collect();
        let len = slots.len();
        ParticipantTable {
            slots,
            len,
            layout: Layout::IDENTITY,
            _key: PhantomData,
        }
    }

    /// Builds a table with `n` entries produced by `f(id)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(K) -> V) -> Self {
        ParticipantTable::from_values((0..n).map(|i| f(K::from_slot(i))))
    }

    /// Builds a table with `n` entries produced by `f(id)`, stored
    /// residue-major over `residues` classes (see the type docs): each
    /// class `id mod residues` is one contiguous block.
    ///
    /// `f` runs in *storage* order — residue class by residue class —
    /// so each value is constructed in place and nothing is moved
    /// afterwards. A generator whose values depend on a random stream
    /// must draw them in id order beforehand. `residues == 1` is exactly
    /// [`ParticipantTable::from_fn`].
    ///
    /// # Panics
    ///
    /// Panics when `residues` is zero.
    pub fn residue_major_from_fn(n: usize, residues: usize, mut f: impl FnMut(K) -> V) -> Self {
        let layout = Layout::residue_major(n, residues);
        if layout.span == 0 {
            return ParticipantTable::from_fn(n, f);
        }
        let mut slots: Vec<Option<V>> = Vec::with_capacity(layout.span);
        for residue in 0..residues {
            for quotient in 0..layout.block {
                let id = quotient * residues + residue;
                slots.push((id < n).then(|| f(K::from_slot(id))));
            }
        }
        ParticipantTable {
            slots,
            len: n,
            layout,
            _key: PhantomData,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots
            .get(self.layout.position(key.slot()))
            .and_then(Option::as_ref)
    }

    /// Mutable access to the entry for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let position = self.layout.position(key.slot());
        self.slots.get_mut(position).and_then(Option::as_mut)
    }

    /// Disjoint mutable access to the entries of `keys`, which may come
    /// in any order but must be distinct. Yields one `(key, &mut value)`
    /// pair per *present* key, in the caller's order — absent keys and
    /// keys past the end of the table are skipped — without walking the
    /// rest of the table. The borrows are simultaneous, which is what
    /// lets a caller hand out one `&mut` participant per task of a batch.
    ///
    /// Keys whose storage positions ascend (a shard's own candidates in
    /// id order) are served lazily without allocating; any other order —
    /// say candidates migrated in from other residue classes — sorts a
    /// copy of the positions first.
    ///
    /// # Panics
    ///
    /// Panics on a repeated key: the two borrows would alias.
    pub fn iter_mut_of<'a>(
        &'a mut self,
        keys: &'a [K],
    ) -> impl Iterator<Item = (K, &'a mut V)> + 'a {
        let layout = self.layout;
        let position = |key: &K| layout.position(key.slot());
        if keys.windows(2).all(|w| position(&w[0]) < position(&w[1])) {
            return SlotsOf::Ascending(AscendingSlotsOf {
                keys: keys.iter(),
                layout,
                rest: &mut self.slots,
                consumed: 0,
            });
        }
        let mut order: Vec<(usize, usize)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| (position(key), i))
            .collect();
        order.sort_unstable();
        let mut found: Vec<Option<(K, &'a mut V)>> = Vec::with_capacity(keys.len());
        found.resize_with(keys.len(), || None);
        let mut rest: &'a mut [Option<V>] = &mut self.slots;
        let mut consumed = 0;
        for (position, i) in order {
            assert!(
                position >= consumed,
                "iter_mut_of: duplicate key {}",
                keys[i]
            );
            let offset = position - consumed;
            consumed = position + 1;
            if offset >= rest.len() {
                rest = &mut [];
                continue;
            }
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(offset + 1);
            rest = tail;
            found[i] = head[offset].as_mut().map(|value| (keys[i], value));
        }
        SlotsOf::Gathered(found.into_iter().flatten())
    }

    /// Inserts an entry, returning the previous value for `key` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let position = self.grow_to(key);
        let previous = self.slots[position].replace(value);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Returns a mutable reference to the entry for `key`, inserting the
    /// result of `default` first if absent. A single slot probe — this
    /// sits on the allocation hot path (one call per candidate per
    /// query), where the contains/insert/get_mut sequence it replaced
    /// cost three.
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let position = self.grow_to(key);
        let entry = &mut self.slots[position];
        if entry.is_none() {
            *entry = Some(default());
            self.len += 1;
        }
        entry.as_mut().expect("entry just ensured")
    }

    /// The storage position of `key`, growing the table when it lies
    /// past the end.
    fn grow_to(&mut self, key: K) -> usize {
        let position = self.layout.position(key.slot());
        if position >= self.slots.len() {
            self.slots.resize_with(position + 1, || None);
        }
        position
    }

    /// Removes the entry for `key`, keeping every other key valid.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let position = self.layout.position(key.slot());
        let removed = self.slots.get_mut(position).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Removes every entry, keeping the layout.
    pub fn clear(&mut self) {
        self.slots.truncate(self.layout.span);
        self.slots.fill_with(|| None);
        self.len = 0;
    }

    /// Iterates over `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        AscendingIds::new(self.layout, self.slots.len()).filter_map(|(slot, position)| {
            self.slots[position]
                .as_ref()
                .map(|v| (K::from_slot(slot), v))
        })
    }

    /// Iterates over `(id, value)` pairs with mutable values, in
    /// ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> + '_ {
        let span = self.layout.span;
        let (main, tail) = self.slots.split_at_mut(span);
        // Residue-major: ascending ids visit the blocks round-robin, one
        // slot of each per quotient.
        let mut blocks: Vec<std::slice::IterMut<'_, Option<V>>> = if span == 0 {
            Vec::new()
        } else {
            main.chunks_mut(self.layout.block)
                .map(<[Option<V>]>::iter_mut)
                .collect()
        };
        let residues = blocks.len();
        let main = (0..span)
            .zip((0..residues).cycle())
            .filter_map(move |(slot, residue)| {
                blocks[residue]
                    .next()
                    .expect("every block holds one slot per quotient")
                    .as_mut()
                    .map(|v| (K::from_slot(slot), v))
            });
        let tail = tail
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, value)| value.as_mut().map(|v| (K::from_slot(span + i), v)));
        main.chain(tail)
    }

    /// Iterates over present identifiers in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over present values mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending id order.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for (slot, position) in AscendingIds::new(self.layout, self.slots.len()) {
            let drop_it = match self.slots[position].as_mut() {
                Some(value) => !keep(K::from_slot(slot), value),
                None => false,
            };
            if drop_it {
                self.slots[position] = None;
                self.len -= 1;
            }
        }
    }
}

impl<K: StableId, V> Default for ParticipantTable<K, V> {
    fn default() -> Self {
        ParticipantTable::new()
    }
}

impl<K: StableId, V: PartialEq> PartialEq for ParticipantTable<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: StableId, V> Index<K> for ParticipantTable<K, V> {
    type Output = V;

    fn index(&self, key: K) -> &V {
        match self.get(key) {
            Some(value) => value,
            None => panic!("no participant {key} in table"),
        }
    }
}

impl<K: StableId, V> IndexMut<K> for ParticipantTable<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        match self.get_mut(key) {
            Some(value) => value,
            None => panic!("no participant {key} in table"),
        }
    }
}

impl<K: StableId, V> FromIterator<(K, V)> for ParticipantTable<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut table = ParticipantTable::new();
        for (key, value) in iter {
            table.insert(key, value);
        }
        table
    }
}

/// A dense struct-of-arrays column of plain per-participant values,
/// indexed by a stable identifier's slot.
///
/// Where [`ParticipantTable`] stores `Option<V>` per slot (presence is
/// part of the state), a `SlotColumn` stores a bare `T` per slot with a
/// designated `fill` value standing in for "absent": reads past the end
/// or of never-written slots return `fill`, and resetting a slot writes
/// `fill` back. Dropping the `Option` halves the footprint for small `T`
/// and keeps the column a contiguous `&[T]` that batch kernels can stream
/// over — the struct-of-arrays layout the million-participant hot path
/// wants, with the id→slot translation confined to this type.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotColumn<K: StableId, T> {
    values: Vec<T>,
    fill: T,
    _key: PhantomData<K>,
}

impl<K: StableId, T: Copy> SlotColumn<K, T> {
    /// Creates an empty column whose absent slots read as `fill`.
    pub fn new(fill: T) -> Self {
        SlotColumn {
            values: Vec::new(),
            fill,
            _key: PhantomData,
        }
    }

    /// Creates a column of `n` slots, each initialized to `fill`.
    pub fn with_len(n: usize, fill: T) -> Self {
        SlotColumn {
            values: vec![fill; n],
            fill,
            _key: PhantomData,
        }
    }

    /// Creates a column of `n` slots initialized by `f(id)`.
    pub fn from_fn(n: usize, fill: T, mut f: impl FnMut(K) -> T) -> Self {
        SlotColumn {
            values: (0..n).map(|i| f(K::from_slot(i))).collect(),
            fill,
            _key: PhantomData,
        }
    }

    /// Number of materialized slots (reads past this return the fill).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no slot has been materialized.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The fill value standing in for absent slots.
    pub fn fill_value(&self) -> T {
        self.fill
    }

    /// The value for `key` (the fill value when the slot was never
    /// written).
    pub fn get(&self, key: K) -> T {
        self.values.get(key.slot()).copied().unwrap_or(self.fill)
    }

    /// Writes the value for `key`, growing the column with fill values
    /// when the slot lies past the end.
    pub fn set(&mut self, key: K, value: T) {
        *self.slot_mut(key) = value;
    }

    /// Resets `key` to the fill value.
    pub fn reset(&mut self, key: K) {
        let fill = self.fill;
        self.set(key, fill);
    }

    /// Mutable access to the slot for `key`, growing the column as
    /// needed.
    pub fn slot_mut(&mut self, key: K) -> &mut T {
        let slot = key.slot();
        if slot >= self.values.len() {
            self.values.resize(slot + 1, self.fill);
        }
        &mut self.values[slot]
    }

    /// The contiguous backing column, for batch kernels that stream over
    /// slots directly.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }
}

impl<K: StableId, T: Copy> Index<K> for SlotColumn<K, T> {
    type Output = T;

    fn index(&self, key: K) -> &T {
        self.values.get(key.slot()).unwrap_or(&self.fill)
    }
}

impl<K: StableId, T: Copy> IndexMut<K> for SlotColumn<K, T> {
    fn index_mut(&mut self, key: K) -> &mut T {
        self.slot_mut(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(raw: u32) -> ProviderId {
        ProviderId::new(raw)
    }

    #[test]
    fn keys_survive_removals() {
        let mut table: ParticipantTable<ProviderId, &str> =
            ParticipantTable::from_values(["a", "b", "c", "d"]);
        assert_eq!(table.len(), 4);
        assert_eq!(table.remove(p(1)), Some("b"));
        // The keys of the remaining entries are untouched — this is the
        // property the positional-Vec layout violated.
        assert_eq!(table.get(p(2)), Some(&"c"));
        assert_eq!(table.get(p(3)), Some(&"d"));
        assert_eq!(table.get(p(1)), None);
        assert_eq!(table.len(), 3);
        assert_eq!(table.remove(p(1)), None);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn iter_mut_of_hands_out_disjoint_borrows_for_ascending_keys() {
        let mut table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::from_values([10, 11, 12, 13, 14]);
        table.remove(p(2));

        // Simultaneous &mut to a selection of entries (the absent key is
        // skipped), collected to prove the borrows coexist.
        let keys = [p(0), p(2), p(3)];
        let selected: Vec<(ProviderId, &mut u32)> = table.iter_mut_of(&keys).collect();
        assert_eq!(selected.len(), 2, "the removed key is skipped");
        for (key, value) in selected {
            *value += key.raw();
        }
        assert_eq!(table.get(p(0)), Some(&10));
        assert_eq!(table.get(p(3)), Some(&16));
        assert_eq!(table.get(p(1)), Some(&11), "unselected entries untouched");

        // Keys past the end of the table are skipped, not panicked on.
        assert_eq!(table.iter_mut_of(&[p(99)]).count(), 0);
        // An empty selection is an empty iterator.
        assert_eq!(table.iter_mut_of(&[]).count(), 0);
    }

    #[test]
    fn iter_mut_of_yields_unordered_keys_in_caller_order() {
        for residues in [1, 3] {
            let mut table: ParticipantTable<ProviderId, u32> =
                ParticipantTable::residue_major_from_fn(8, residues, |id: ProviderId| id.raw());
            table.remove(p(5));
            // Descending, off-residue, absent and past-the-end keys mixed.
            let keys = [p(7), p(2), p(5), p(40), p(0), p(4)];
            let order: Vec<u32> = table
                .iter_mut_of(&keys)
                .map(|(key, value)| {
                    *value += 100;
                    key.raw()
                })
                .collect();
            assert_eq!(order, [7, 2, 0, 4], "caller order, absent keys skipped");
            assert_eq!(table[p(2)], 102);
            assert_eq!(table[p(1)], 1, "unselected entries untouched");
        }
    }

    #[test]
    #[should_panic(expected = "iter_mut_of: duplicate key p3")]
    fn iter_mut_of_panics_on_an_adjacent_duplicate() {
        let mut table: ParticipantTable<ProviderId, u32> = ParticipantTable::from_values([0; 5]);
        let _ = table.iter_mut_of(&[p(1), p(3), p(3)]).count();
    }

    #[test]
    #[should_panic(expected = "iter_mut_of: duplicate key p1")]
    fn iter_mut_of_panics_on_a_duplicate_after_a_higher_key() {
        let mut table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::residue_major_from_fn(6, 2, |_: ProviderId| 0);
        let _ = table.iter_mut_of(&[p(1), p(4), p(1)]).count();
    }

    #[test]
    fn residue_major_tables_store_each_class_contiguously() {
        // 7 ids over 3 classes: blocks of 3, one hole at the end of the
        // last two blocks' id range (ids 7 and 8 do not exist).
        let table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::residue_major_from_fn(7, 3, |id: ProviderId| id.raw());
        let stored: Vec<Option<u32>> = table.slots.clone();
        assert_eq!(
            stored,
            [
                Some(0),
                Some(3),
                Some(6),
                Some(1),
                Some(4),
                None,
                Some(2),
                Some(5),
                None
            ]
        );
        assert_eq!(table.len(), 7);
        assert_eq!(
            table.keys().map(ProviderId::raw).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5, 6]
        );
        assert_eq!(
            table,
            ParticipantTable::from_fn(7, |id: ProviderId| id.raw())
        );

        // One class is the identity layout.
        let identity: ParticipantTable<ProviderId, u32> =
            ParticipantTable::residue_major_from_fn(4, 1, |id: ProviderId| id.raw());
        assert_eq!(identity.slots, [Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn residue_major_tables_grow_past_their_span_and_clear_to_it() {
        let mut table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::residue_major_from_fn(4, 2, |id: ProviderId| id.raw());
        assert_eq!(table.insert(p(9), 9), None);
        assert_eq!(table.get(p(9)), Some(&9));
        assert_eq!(table.get(p(8)), None);
        assert_eq!(
            table.keys().map(ProviderId::raw).collect::<Vec<_>>(),
            [0, 1, 2, 3, 9]
        );
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.iter().count(), 0);
        table.insert(p(3), 30);
        assert_eq!(table.slots[3], Some(30), "id 3 = class 1, quotient 1");
    }

    #[test]
    fn slot_column_reads_fill_for_absent_slots_and_grows_on_write() {
        let mut column: SlotColumn<ProviderId, f64> = SlotColumn::new(0.5);
        assert!(column.is_empty());
        assert_eq!(column.get(p(7)), 0.5, "absent slots read the fill");
        assert_eq!(column[p(7)], 0.5);

        column.set(p(3), 0.9);
        assert_eq!(column.len(), 4, "grown exactly to the written slot");
        assert_eq!(column.get(p(3)), 0.9);
        assert_eq!(column.get(p(1)), 0.5, "intermediate slots hold the fill");
        assert_eq!(column.get(p(100)), 0.5, "past-the-end still reads fill");

        column[p(3)] += 0.1;
        assert_eq!(column.get(p(3)), 1.0);
        column.reset(p(3));
        assert_eq!(column.get(p(3)), 0.5);
        assert_eq!(column.as_slice(), &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(column.fill_value(), 0.5);
    }

    #[test]
    fn slot_column_constructors_materialize_dense_slots() {
        let column: SlotColumn<ProviderId, u32> = SlotColumn::with_len(3, 0);
        assert_eq!(column.as_slice(), &[0, 0, 0]);

        let column: SlotColumn<ProviderId, u32> =
            SlotColumn::from_fn(4, 0, |id: ProviderId| id.raw() * 2);
        assert_eq!(column.as_slice(), &[0, 2, 4, 6]);
        assert_eq!(column.len(), 4);

        let mut via_index: SlotColumn<ProviderId, u32> = SlotColumn::new(0);
        via_index[p(2)] = 9;
        assert_eq!(via_index.as_slice(), &[0, 0, 9]);
    }

    #[test]
    fn iteration_is_ordered_by_id() {
        let mut table: ParticipantTable<ConsumerId, u32> = ParticipantTable::new();
        table.insert(ConsumerId::new(5), 50);
        table.insert(ConsumerId::new(1), 10);
        table.insert(ConsumerId::new(3), 30);
        let pairs: Vec<(u32, u32)> = table.iter().map(|(k, v)| (k.raw(), *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(
            table.keys().map(ConsumerId::raw).collect::<Vec<_>>(),
            [1, 3, 5]
        );
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut table: ParticipantTable<ProviderId, u32> = ParticipantTable::new();
        assert_eq!(table.insert(p(2), 1), None);
        assert_eq!(table.insert(p(2), 2), Some(1));
        assert_eq!(table.len(), 1);
        assert_eq!(table[p(2)], 2);
        table[p(2)] += 5;
        assert_eq!(table[p(2)], 7);
    }

    #[test]
    fn or_insert_with_is_lazy_and_idempotent() {
        let mut table: ParticipantTable<ConsumerId, Vec<u32>> = ParticipantTable::new();
        table.or_insert_with(ConsumerId::new(0), Vec::new).push(1);
        table
            .or_insert_with(ConsumerId::new(0), || panic!("must not run"))
            .push(2);
        assert_eq!(table[ConsumerId::new(0)], vec![1, 2]);
    }

    #[test]
    fn retain_drops_matching_entries() {
        let mut table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::from_values([0, 1, 2, 3, 4]);
        table.retain(|_, v| v.is_multiple_of(2));
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.keys().map(ProviderId::raw).collect::<Vec<_>>(),
            [0, 2, 4]
        );
    }

    #[test]
    #[should_panic(expected = "no participant p9")]
    fn indexing_a_missing_key_panics_with_the_id() {
        let table: ParticipantTable<ProviderId, u32> = ParticipantTable::from_values([1]);
        let _ = table[p(9)];
    }

    #[test]
    fn equality_compares_contents() {
        let a: ParticipantTable<ProviderId, u32> = ParticipantTable::from_values([1, 2]);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.remove(p(0));
        assert_ne!(a, b);
    }

    /// One step of the layout-equivalence property.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32),
        Remove(u32),
        Get(u32),
        Iter,
        IterMut,
        IterMutOf(Vec<u32>),
    }

    /// Draws `(stride, ids generated, ops)`. Strides are the ones the
    /// engine meets (1, powers of two, small odd counts, the 2 084 shards
    /// of the 3·10⁵ workload); op ids reach past the generated ids by
    /// more than one full stride, and `iter_mut_of` key sets mix
    /// residues in random order.
    struct LayoutCase;

    impl Strategy for LayoutCase {
        type Value = (usize, usize, Vec<Op>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let stride = [1usize, 2, 3, 16, 2_084][rng.below(5)];
            let n = rng.below(3 * stride + 40);
            let max_id = n + 2 * stride + 8;
            let id = |rng: &mut TestRng| rng.below(max_id) as u32;
            let mut ops = Vec::new();
            for _ in 0..rng.below(40) {
                let op = match rng.below(6) {
                    0 => Op::Insert(id(rng), rng.next_u64() as u32),
                    1 => Op::Remove(id(rng)),
                    2 => Op::Get(id(rng)),
                    3 => Op::Iter,
                    4 => Op::IterMut,
                    _ => {
                        let mut seen = std::collections::HashSet::new();
                        let count = rng.below(24);
                        let keys = (0..count)
                            .map(|_| id(rng))
                            .filter(|k| seen.insert(*k))
                            .collect();
                        Op::IterMutOf(keys)
                    }
                };
                ops.push(op);
            }
            (stride, n, ops)
        }
    }

    fn pairs(table: &ParticipantTable<ProviderId, u32>) -> Vec<(u32, u32)> {
        table.iter().map(|(k, v)| (k.raw(), *v)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn prop_residue_major_layout_matches_the_identity((stride, n, ops) in LayoutCase) {
            let make = |id: ProviderId| id.raw().wrapping_mul(7);
            let mut identity: ParticipantTable<ProviderId, u32> = ParticipantTable::from_fn(n, make);
            let mut shard_major: ParticipantTable<ProviderId, u32> =
                ParticipantTable::residue_major_from_fn(n, stride, make);
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        prop_assert_eq!(identity.insert(p(id), v), shard_major.insert(p(id), v));
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(identity.remove(p(id)), shard_major.remove(p(id)));
                    }
                    Op::Get(id) => {
                        prop_assert_eq!(identity.get(p(id)), shard_major.get(p(id)));
                        prop_assert_eq!(identity.contains(p(id)), shard_major.contains(p(id)));
                    }
                    Op::Iter => {
                        prop_assert_eq!(pairs(&identity), pairs(&shard_major));
                        prop_assert!(identity.keys().eq(shard_major.keys()));
                    }
                    Op::IterMut => {
                        let bump = |table: &mut ParticipantTable<ProviderId, u32>| {
                            table
                                .iter_mut()
                                .map(|(k, v)| {
                                    *v = v.wrapping_add(k.raw());
                                    (k.raw(), *v)
                                })
                                .collect::<Vec<_>>()
                        };
                        prop_assert_eq!(bump(&mut identity), bump(&mut shard_major));
                    }
                    Op::IterMutOf(raw) => {
                        let keys: Vec<ProviderId> = raw.into_iter().map(p).collect();
                        let bump = |table: &mut ParticipantTable<ProviderId, u32>| {
                            table
                                .iter_mut_of(&keys)
                                .map(|(k, v)| {
                                    *v = v.wrapping_add(1);
                                    (k.raw(), *v)
                                })
                                .collect::<Vec<_>>()
                        };
                        prop_assert_eq!(bump(&mut identity), bump(&mut shard_major));
                    }
                }
                prop_assert_eq!(identity.len(), shard_major.len());
            }
            prop_assert_eq!(pairs(&identity), pairs(&shard_major));
            prop_assert!(identity == shard_major);
        }
    }

    #[test]
    fn from_fn_assigns_sequential_ids() {
        let table: ParticipantTable<ConsumerId, u32> =
            ParticipantTable::from_fn(3, |id: ConsumerId| id.raw() * 10);
        assert_eq!(table[ConsumerId::new(2)], 20);
        assert_eq!(table.len(), 3);
    }
}

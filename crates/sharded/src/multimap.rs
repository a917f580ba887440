//! The sharded multi-map: [`MultiMapEdit`] as the kind of [`Sharded`], plus
//! the multi-map reads and point edits (see the [crate documentation](crate)
//! for the architecture).

use std::hash::Hash;

use axiom::AxiomMultiMap;
use serde::Serialize;
use trie_common::ops::{MultiMapAlgebraOps, MultiMapDiff, MultiMapEdit, MultiMapMutOps};
use trie_common::snapshot::{encode_section, Kind, Section, SnapshotError};

use crate::shards::{ShardKind, Sharded, Snapshot, SnapshotIter};

/// A concurrent multi-map: [`Sharded`] over multi-map tries `M`, which
/// default to [`AxiomMultiMap`] (any trie with the multi-map `_mut` and
/// algebra protocols works).
///
/// # Examples
///
/// ```
/// use sharded::ShardedMultiMap;
///
/// let mm: ShardedMultiMap<u32, u32> = ShardedMultiMap::with_shards(4);
/// mm.insert(1, 10);
/// mm.insert(1, 11);
/// mm.insert(2, 20);
/// assert_eq!(mm.tuple_count(), 3);
///
/// let snap = mm.snapshot();       // pinned epoch, lock-free to query
/// mm.remove_key(&1);
/// assert_eq!(snap.value_count(&1), 2); // the snapshot is unaffected
/// assert_eq!(mm.tuple_count(), 1);
/// ```
pub type ShardedMultiMap<K, V, M = AxiomMultiMap<K, V>> = Sharded<MultiMapEdit<K, V>, M>;

/// A pinned epoch of a [`ShardedMultiMap`].
pub type MultiMapSnapshot<K, V, M = AxiomMultiMap<K, V>> = Snapshot<MultiMapEdit<K, V>, M>;

impl<K, V, M> ShardKind<M> for MultiMapEdit<K, V>
where
    K: Hash + Clone,
    V: Clone,
    M: MultiMapMutOps<K, V> + MultiMapAlgebraOps<K, V>,
{
    type Key = K;
    type Value = V;
    type Item = (K, V);
    type Diff = MultiMapDiff<K, V>;
    type Iter<'a>
        = M::Tuples<'a>
    where
        Self: 'a,
        M: 'a;
    const KIND: Kind = Kind::MultiMap;

    fn edit_key(&self) -> &K {
        self.key()
    }

    fn item_key((key, _): &(K, V)) -> &K {
        key
    }

    fn empty() -> M {
        M::empty()
    }

    fn count(shard: &M) -> usize {
        shard.tuple_count()
    }

    fn apply_mut(shard: &mut M, edit: Self) -> isize {
        shard.apply_mut(edit)
    }

    fn iter(shard: &M) -> M::Tuples<'_> {
        shard.tuples()
    }

    fn encode(shard: &M) -> Result<Section, SnapshotError>
    where
        K: Serialize,
        V: Serialize,
    {
        encode_section(shard.tuples())
    }

    fn diff(old: &M, new: &M) -> MultiMapDiff<K, V> {
        old.diff(new)
    }

    fn merge(parts: Vec<MultiMapDiff<K, V>>) -> MultiMapDiff<K, V> {
        let mut out = MultiMapDiff::new();
        for part in parts {
            out.added.extend(part.added);
            out.removed.extend(part.removed);
        }
        out
    }
}

impl<K, V, M> ShardedMultiMap<K, V, M>
where
    K: Hash + Clone,
    V: Clone,
    M: MultiMapMutOps<K, V> + MultiMapAlgebraOps<K, V>,
{
    /// The global publication epoch (alias of [`Sharded::current_epoch`]).
    pub fn version(&self) -> u64 {
        self.current_epoch()
    }

    /// Total number of tuples (over one pinned epoch).
    pub fn tuple_count(&self) -> usize {
        self.snapshot().tuple_count()
    }

    /// Number of distinct keys (keys never span shards, so the sum is
    /// exact).
    pub fn key_count(&self) -> usize {
        self.snapshot().key_count()
    }

    /// True if `key` maps to at least one value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.snapshot().contains_key(key)
    }

    /// True if the exact tuple `(key, value)` is present.
    pub fn contains_tuple(&self, key: &K, value: &V) -> bool {
        self.snapshot().contains_tuple(key, value)
    }

    /// Number of values associated with `key` (0 if absent).
    pub fn value_count(&self, key: &K) -> usize {
        self.snapshot().value_count(key)
    }

    /// Inserts one tuple. Returns true if the relation grew.
    ///
    /// One-tuple batches pay a full shard publication each; prefer
    /// [`Sharded::apply`] for anything that arrives in groups.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.update_at(self.shard_of(&key), |m| m.insert_mut(key, value))
    }

    /// Removes one tuple. Returns true if it was present.
    pub fn remove_tuple(&self, key: &K, value: &V) -> bool {
        self.update_at(self.shard_of(key), |m| m.remove_tuple_mut(key, value))
    }

    /// Removes every tuple for `key`. Returns how many were removed.
    pub fn remove_key(&self, key: &K) -> usize {
        self.update_at(self.shard_of(key), |m| m.remove_key_mut(key))
    }

    /// Pairwise shard union with `other` (tuple granularity), one scoped
    /// worker per shard pair.
    ///
    /// # Panics
    ///
    /// Panics if the two multi-maps have different shard counts.
    pub fn union_with(&self, other: &Self) -> Self
    where
        M: Send + Sync,
    {
        self.combine(other, M::union)
    }
}

impl<K, V, M> MultiMapSnapshot<K, V, M>
where
    K: Hash + Clone,
    V: Clone,
    M: MultiMapMutOps<K, V> + MultiMapAlgebraOps<K, V>,
{
    /// Total number of tuples.
    pub fn tuple_count(&self) -> usize {
        self.count()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        (0..self.shard_count())
            .map(|i| self.shard(i).key_count())
            .sum()
    }

    /// True if `key` maps to at least one value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).contains_key(key)
    }

    /// True if the exact tuple `(key, value)` is present.
    pub fn contains_tuple(&self, key: &K, value: &V) -> bool {
        self.shard_for(key).contains_tuple(key, value)
    }

    /// Number of values associated with `key` (0 if absent).
    pub fn value_count(&self, key: &K) -> usize {
        self.shard_for(key).value_count(key)
    }

    /// Iterates the values bound to `key` (nothing if absent).
    pub fn values_of<'a>(&'a self, key: &K) -> M::ValuesOf<'a> {
        self.shard_for(key).values_of(key)
    }

    /// Iterates all `(key, value)` tuples, shard by shard.
    pub fn tuples(&self) -> SnapshotIter<'_, MultiMapEdit<K, V>, M> {
        self.items()
    }
}

#[cfg(test)]
use trie_common::ops::TransientOps;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    type Mm = ShardedMultiMap<u32, u32>;

    #[test]
    fn routing_and_point_ops() {
        let mm = Mm::with_shards(8);
        assert!(mm.is_empty());
        assert!(mm.insert(1, 10));
        assert!(mm.insert(1, 11));
        assert!(!mm.insert(1, 10)); // duplicate tuple
        assert!(mm.insert(2, 20));
        assert_eq!(mm.tuple_count(), 3);
        assert_eq!(mm.key_count(), 2);
        assert_eq!(mm.value_count(&1), 2);
        assert!(mm.contains_tuple(&1, &11));
        assert!(mm.remove_tuple(&1, &11));
        assert!(!mm.remove_tuple(&1, &11));
        assert_eq!(mm.remove_key(&1), 1);
        assert_eq!(mm.tuple_count(), 1);
    }

    #[test]
    fn snapshots_are_frozen() {
        let mm = Mm::with_shards(4);
        mm.apply((0..100).map(|i| MultiMapEdit::Insert(i, i)));
        let snap = mm.snapshot();
        assert_eq!(snap.tuple_count(), 100);
        mm.apply((0..50).map(MultiMapEdit::RemoveKey));
        assert_eq!(mm.tuple_count(), 50);
        assert_eq!(snap.tuple_count(), 100); // unmoved
        let seen: BTreeSet<u32> = snap.tuples().map(|(k, _)| *k).collect();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn apply_returns_tuple_delta() {
        let mm = Mm::with_shards(2);
        let delta = mm.apply([
            MultiMapEdit::Insert(1, 1),
            MultiMapEdit::Insert(1, 2),
            MultiMapEdit::Insert(2, 1),
            MultiMapEdit::RemoveTuple(1, 2),
            MultiMapEdit::RemoveTuple(9, 9), // absent: no effect
        ]);
        assert_eq!(delta, 2);
        assert_eq!(mm.tuple_count(), 2);
        assert_eq!(mm.apply([MultiMapEdit::RemoveKey(1)]), -1);
    }

    #[test]
    fn multi_shard_apply_is_one_epoch() {
        let mm = Mm::with_shards(8);
        let before = mm.current_epoch();
        mm.apply((0..64).map(|i| MultiMapEdit::Insert(i, i)));
        assert_eq!(mm.current_epoch(), before + 1);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let tuples: Vec<(u32, u32)> = (0..5000).map(|i| (i / 3, i)).collect();
        let sharded = Mm::build_parallel(8, tuples.iter().copied());
        let reference = AxiomMultiMap::<u32, u32>::built_from(tuples.iter().copied());
        assert_eq!(sharded.tuple_count(), reference.tuple_count());
        assert_eq!(sharded.key_count(), reference.key_count());
        let snap = sharded.snapshot();
        for (k, v) in &tuples {
            assert!(snap.contains_tuple(k, v));
        }
        assert_eq!(snap.tuples().count(), reference.tuple_count());
    }

    #[test]
    fn skewed_parallel_build_leaves_empty_shards_valid() {
        // One single key routes to one shard; the other 7 stay empty.
        let sharded = Mm::build_parallel(8, std::iter::repeat_n((42u32, 1u32), 3));
        assert_eq!(sharded.tuple_count(), 1); // duplicate tuples collapse
        assert_eq!(sharded.key_count(), 1);
        assert_eq!(sharded.snapshot().tuples().count(), 1);
    }

    #[test]
    fn extend_parallel_grows_in_place() {
        let mm = Mm::build_parallel(4, (0..100u32).map(|i| (i, i)));
        let snap = mm.snapshot();
        let grew = mm.extend_parallel((0..200u32).map(|i| (i, i + 1)));
        assert_eq!(grew, 200);
        assert_eq!(mm.tuple_count(), 300);
        assert_eq!(snap.tuple_count(), 100); // pre-extend snapshot frozen
    }

    #[test]
    fn works_over_other_tries() {
        use idiomatic::NestedChampMultiMap;
        let mm: ShardedMultiMap<u32, u32, NestedChampMultiMap<u32, u32>> =
            ShardedMultiMap::build_parallel(2, (0..500u32).map(|i| (i % 100, i)));
        assert_eq!(mm.tuple_count(), 500);
        assert_eq!(mm.key_count(), 100);
        mm.apply([MultiMapEdit::RemoveKey(5)]);
        assert_eq!(mm.key_count(), 99);
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<Mm>();
        check::<MultiMapSnapshot<u32, u32>>();
    }
}

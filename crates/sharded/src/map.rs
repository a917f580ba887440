//! The sharded map: [`MapEdit`] as the kind of [`Sharded`], plus the map
//! reads and point edits (see the [crate documentation](crate)).

use std::hash::Hash;

use axiom::AxiomMap;
use serde::Serialize;
use trie_common::ops::{MapDiff, MapEdit, MapMergeOps, MapMutOps};
use trie_common::snapshot::{encode_section, Kind, Section, SnapshotError};

use crate::shards::{ShardKind, Sharded, Snapshot, SnapshotIter};

/// A concurrent map: [`Sharded`] over map tries `M`, which default to
/// [`AxiomMap`].
///
/// # Examples
///
/// ```
/// use sharded::ShardedMap;
///
/// let m: ShardedMap<u32, &str> = ShardedMap::with_shards(2);
/// m.insert(1, "one");
/// let snap = m.snapshot();
/// m.remove(&1);
/// assert_eq!(snap.get(&1), Some(&"one")); // the snapshot is unaffected
/// assert_eq!(m.len(), 0);
/// ```
pub type ShardedMap<K, V, M = AxiomMap<K, V>> = Sharded<MapEdit<K, V>, M>;

/// A pinned epoch of a [`ShardedMap`].
pub type MapSnapshot<K, V, M = AxiomMap<K, V>> = Snapshot<MapEdit<K, V>, M>;

impl<K, V, M> ShardKind<M> for MapEdit<K, V>
where
    K: Hash + Clone,
    V: Clone + PartialEq,
    M: MapMutOps<K, V> + MapMergeOps<K, V>,
{
    type Key = K;
    type Value = V;
    type Item = (K, V);
    type Diff = MapDiff<K, V>;
    type Iter<'a>
        = M::Entries<'a>
    where
        Self: 'a,
        M: 'a;
    const KIND: Kind = Kind::Map;

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
        shard.len()
    }

    fn apply_mut(shard: &mut M, edit: Self) -> isize {
        shard.apply_mut(edit)
    }

    fn iter(shard: &M) -> M::Entries<'_> {
        shard.entries()
    }

    fn encode(shard: &M) -> Result<Section, SnapshotError>
    where
        K: Serialize,
        V: Serialize,
    {
        encode_section(shard.entries())
    }

    fn diff(old: &M, new: &M) -> MapDiff<K, V> {
        old.diff(new)
    }

    fn merge(parts: Vec<MapDiff<K, V>>) -> MapDiff<K, V> {
        let mut out = MapDiff::new();
        for part in parts {
            out.added.extend(part.added);
            out.removed.extend(part.removed);
            out.changed.extend(part.changed);
        }
        out
    }
}

impl<K, V, M> ShardedMap<K, V, M>
where
    K: Hash + Clone,
    V: Clone + PartialEq,
    M: MapMutOps<K, V> + MapMergeOps<K, V>,
{
    /// Number of entries (over one pinned epoch).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True if `key` has a binding.
    pub fn contains_key(&self, key: &K) -> bool {
        self.snapshot().contains_key(key)
    }

    /// Looks up `key`, cloning the value out of the current epoch
    /// (borrowing reads go through [`Sharded::snapshot`]).
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        self.snapshot().get(key).cloned()
    }

    /// Binds `key` to `value`. Returns true if a new key was added.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.update_at(self.shard_of(&key), |m| m.insert_mut(key, value))
    }

    /// Removes `key`. Returns true if a binding was removed.
    pub fn remove(&self, key: &K) -> bool {
        self.update_at(self.shard_of(key), |m| m.remove_mut(key))
    }

    /// Pairwise right-biased shard merge with `other` (`other` wins on
    /// conflicting keys), one scoped worker per shard pair.
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different shard counts.
    pub fn merged_with(&self, other: &Self) -> Self
    where
        M: Send + Sync,
    {
        self.combine(other, M::merged)
    }
}

impl<K, V, M> MapSnapshot<K, V, M>
where
    K: Hash + Clone,
    V: Clone + PartialEq,
    M: MapMutOps<K, V> + MapMergeOps<K, V>,
{
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count()
    }

    /// Looks up the value bound to `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.shard_for(key).get(key)
    }

    /// True if `key` has a binding.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).contains_key(key)
    }

    /// Iterates all `(key, value)` entries, shard by shard.
    pub fn entries(&self) -> SnapshotIter<'_, MapEdit<K, V>, M> {
        self.items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_semantics_across_shards() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(4);
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11)); // replacement
        assert_eq!(m.get_cloned(&1), Some(11));
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.apply([
                MapEdit::Insert(2, 2),
                MapEdit::Insert(3, 3),
                MapEdit::Remove(1)
            ]),
            1
        );
        assert_eq!(m.len(), 2);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn parallel_build_and_snapshot_reads() {
        use champ::ChampMap;
        let entries: Vec<(u32, u32)> = (0..3000).map(|i| (i, i * 2)).collect();
        let m: ShardedMap<u32, u32, ChampMap<u32, u32>> =
            ShardedMap::build_parallel(8, entries.iter().copied());
        assert_eq!(m.len(), 3000);
        let snap = m.snapshot();
        for (k, v) in &entries {
            assert_eq!(snap.get(k), Some(v));
        }
        assert_eq!(snap.entries().count(), 3000);
        assert_eq!(m.extend_parallel((3000..3100).map(|i| (i, i))), 100);
        assert_eq!(m.len(), 3100);
        assert_eq!(snap.len(), 3000);
    }

    #[test]
    fn batches_commit_as_one_epoch() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(8);
        let e0 = m.current_epoch();
        // 64 keys spread over all 8 shards, one apply: one epoch.
        m.apply((0..64).map(|i| MapEdit::Insert(i, i)));
        assert_eq!(m.current_epoch(), e0 + 1);
        assert_eq!(m.snapshot().epoch(), e0 + 1);
    }

    #[test]
    fn validated_apply_detects_read_write_conflicts() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(4);
        m.apply((0..32).map(|i| MapEdit::Insert(i, 0)));
        let base = m.snapshot();
        let read_shard = base.shard_of(&7);
        // An interposed writer bumps the shard we read from.
        m.insert(7, 99);
        let err = m
            .apply_validated(&base, &[read_shard], [MapEdit::Insert(100, 1)])
            .unwrap_err();
        assert_eq!(err.shard, read_shard);
        // Retry against a fresh pin succeeds.
        let fresh = m.snapshot();
        let delta = m
            .apply_validated(&fresh, &[fresh.shard_of(&7)], [MapEdit::Insert(100, 1)])
            .unwrap();
        assert_eq!(delta, 1);
        assert_eq!(m.get_cloned(&100), Some(1));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ShardedMap<u32, u32>>();
        check::<MapSnapshot<u32, u32>>();
    }
}

//! The sharded set: [`SetEdit`] as the kind of [`Sharded`], plus the set
//! reads and point edits (see the [crate documentation](crate)).

use std::hash::Hash;

use axiom::AxiomSet;
use serde::Serialize;
use trie_common::ops::{SetAlgebraOps, SetDiff, SetEdit, SetMutOps};
use trie_common::snapshot::{encode_section, Kind, Section, SnapshotError};

use crate::shards::{ShardKind, Sharded, Snapshot, SnapshotIter};

/// A concurrent set: [`Sharded`] over set tries `S`, which default to
/// [`AxiomSet`].
///
/// # Examples
///
/// ```
/// use sharded::ShardedSet;
///
/// let s: ShardedSet<u32> = ShardedSet::with_shards(2);
/// s.insert(7);
/// let snap = s.snapshot();
/// s.remove(&7);
/// assert!(snap.contains(&7)); // the snapshot is unaffected
/// assert!(s.is_empty());
/// ```
pub type ShardedSet<T, S = AxiomSet<T>> = Sharded<SetEdit<T>, S>;

/// A pinned epoch of a [`ShardedSet`].
pub type SetSnapshot<T, S = AxiomSet<T>> = Snapshot<SetEdit<T>, S>;

impl<T, S> ShardKind<S> for SetEdit<T>
where
    T: Hash + Clone,
    S: SetMutOps<T> + SetAlgebraOps<T>,
{
    type Key = T;
    type Value = ();
    type Item = T;
    type Diff = SetDiff<T>;
    type Iter<'a>
        = S::Elems<'a>
    where
        Self: 'a,
        S: 'a;
    const KIND: Kind = Kind::Set;

    fn edit_key(&self) -> &T {
        self.key()
    }

    fn item_key(item: &T) -> &T {
        item
    }

    fn empty() -> S {
        S::empty()
    }

    fn count(shard: &S) -> usize {
        shard.len()
    }

    fn apply_mut(shard: &mut S, edit: Self) -> isize {
        shard.apply_mut(edit)
    }

    fn iter(shard: &S) -> S::Elems<'_> {
        shard.iter()
    }

    fn encode(shard: &S) -> Result<Section, SnapshotError>
    where
        T: Serialize,
    {
        encode_section(shard.iter())
    }

    fn diff(old: &S, new: &S) -> SetDiff<T> {
        old.diff(new)
    }

    fn merge(parts: Vec<SetDiff<T>>) -> SetDiff<T> {
        let mut out = SetDiff::new();
        for part in parts {
            out.added.extend(part.added);
            out.removed.extend(part.removed);
        }
        out
    }
}

impl<T, S> ShardedSet<T, S>
where
    T: Hash + Clone,
    S: SetMutOps<T> + SetAlgebraOps<T>,
{
    /// Number of elements (over one pinned epoch).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Membership test against the current epoch.
    pub fn contains(&self, value: &T) -> bool {
        self.snapshot().contains(value)
    }

    /// Inserts `value`. Returns true if the set grew.
    pub fn insert(&self, value: T) -> bool {
        self.update_at(self.shard_of(&value), |s| s.insert_mut(value))
    }

    /// Removes `value`. Returns true if the set shrank.
    pub fn remove(&self, value: &T) -> bool {
        self.update_at(self.shard_of(value), |s| s.remove_mut(value))
    }

    /// Pairwise shard union with `other`, one scoped worker per shard pair,
    /// each running the underlying trie's structural (sharing-aware) union.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different shard counts.
    pub fn union_with(&self, other: &Self) -> Self
    where
        S: Send + Sync,
    {
        self.combine(other, S::union)
    }

    /// Pairwise shard intersection with `other` (see
    /// [`ShardedSet::union_with`]).
    pub fn intersect_with(&self, other: &Self) -> Self
    where
        S: Send + Sync,
    {
        self.combine(other, S::intersect)
    }

    /// Pairwise shard difference with `other` (see
    /// [`ShardedSet::union_with`]).
    pub fn difference_with(&self, other: &Self) -> Self
    where
        S: Send + Sync,
    {
        self.combine(other, S::difference)
    }
}

impl<T, S> SetSnapshot<T, S>
where
    T: Hash + Clone,
    S: SetMutOps<T> + SetAlgebraOps<T>,
{
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.count()
    }

    /// Membership test.
    pub fn contains(&self, value: &T) -> bool {
        self.shard_for(value).contains(value)
    }

    /// Iterates all elements, shard by shard.
    pub fn iter(&self) -> SnapshotIter<'_, SetEdit<T>, S> {
        self.items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics_across_shards() {
        let s: ShardedSet<u32> = ShardedSet::with_shards(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert_eq!(
            s.apply([SetEdit::Insert(2), SetEdit::Insert(3), SetEdit::Remove(1)]),
            1
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn parallel_build_and_frozen_snapshots() {
        let s: ShardedSet<u32> = ShardedSet::build_parallel(8, 0..2000);
        assert_eq!(s.len(), 2000);
        let snap = s.snapshot();
        assert_eq!(snap.iter().count(), 2000);
        assert_eq!(s.extend_parallel(2000..2500), 500);
        assert_eq!(snap.len(), 2000);
        assert_eq!(s.len(), 2500);
        for v in 0..2500 {
            assert!(s.contains(&v));
        }
    }

    #[test]
    fn validated_apply_roundtrip() {
        let s: ShardedSet<u32> = ShardedSet::with_shards(4);
        let base = s.snapshot();
        assert_eq!(s.apply_validated(&base, &[], [SetEdit::Insert(1)]), Ok(1));
        // base is now stale for shard_of(1): a second validated write to the
        // same shard must conflict.
        let shard = s.shard_of(&1);
        let err = s
            .apply_validated(&base, &[shard], [SetEdit::Insert(1)])
            .unwrap_err();
        assert_eq!(err.shard, shard);
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ShardedSet<u32>>();
        check::<SetSnapshot<u32>>();
    }
}

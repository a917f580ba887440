//! The one generic sharded store behind all three collection kinds.
//!
//! [`Sharded<E, C>`] owns the [`EpochCell`] + [`Partition`] pair over
//! shards of type `C`; [`Snapshot<E, C>`] is one pinned epoch of it. The
//! kind parameter `E` is the collection's edit enum ([`MultiMapEdit`],
//! [`MapEdit`] or [`SetEdit`]): it fixes the key and value types and tells
//! the three kinds apart without a marker type. [`ShardKind`] supplies the
//! little that differs by kind; routing, pinning, the group-by-shard batch
//! loop (with optional epoch validation), the scoped-thread build, extend,
//! diff and combine drivers, and the flattening snapshot iterator are
//! written once here. Reads and point edits that belong to one kind live in
//! small inherent impls in the `multimap`, `map` and `set` modules, and the
//! durable save/load path lives in `snapshot.rs`.
//!
//! [`MultiMapEdit`]: trie_common::ops::MultiMapEdit
//! [`MapEdit`]: trie_common::ops::MapEdit
//! [`SetEdit`]: trie_common::ops::SetEdit

use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread;

use serde::Serialize;
use trie_common::ops::{Builder, TransientOps};
use trie_common::snapshot::{Kind, Section, SnapshotError};

use crate::default_shard_count;
use crate::partition::{partition_by, Partition};
use crate::publish::{EpochCell, EpochConflict, EpochCore};

/// What differs between the sharded multi-map, map and set: implemented
/// once per edit enum, for every shard trie `C` that speaks the kind's
/// `_mut` and algebra (or merge) protocols.
pub trait ShardKind<C>: Sized {
    /// What edits and items route on: the key, or the set element.
    type Key: Hash;
    /// What a key maps to (`()` for sets); with `Key`, what a saved
    /// snapshot serializes.
    type Value;
    /// One bulk-build item: `(Key, Value)`, or the set element.
    type Item;
    /// The delta [`Sharded::changes_since`] reports.
    type Diff;
    /// One shard's contents, borrowed (what [`SnapshotIter`] flattens).
    type Iter<'a>: Iterator
    where
        Self: 'a,
        C: 'a;
    /// The frame tag a saved snapshot carries.
    const KIND: Kind;

    /// The key an edit routes on.
    fn edit_key(&self) -> &Self::Key;
    /// The key a bulk-build item routes on.
    fn item_key(item: &Self::Item) -> &Self::Key;
    /// An empty shard.
    fn empty() -> C;
    /// The shard's size: tuples, entries or elements.
    fn count(shard: &C) -> usize;
    /// Applies one edit in place; returns the size delta.
    fn apply_mut(shard: &mut C, edit: Self) -> isize;
    /// Iterates one shard.
    fn iter(shard: &C) -> Self::Iter<'_>;
    /// Encodes one shard as a snapshot section.
    fn encode(shard: &C) -> Result<Section, SnapshotError>
    where
        Self::Key: Serialize,
        Self::Value: Serialize;
    /// The structural delta from `old` to `new`.
    fn diff(old: &C, new: &C) -> Self::Diff;
    /// Concatenates per-shard deltas (keys never span shards).
    fn merge(parts: Vec<Self::Diff>) -> Self::Diff;
}

/// A concurrent collection: `N` persistent tries `C` (one per slice of the
/// key space) published under one global epoch sequence.
///
/// Writers batch edits into shard-local successors built through the `_mut`
/// protocol and publish with one pointer swap (a multi-shard batch commits
/// as **one** epoch); readers pin [`Snapshot`]s and query them lock-free.
/// Use it through the aliases [`ShardedMultiMap`](crate::ShardedMultiMap),
/// [`ShardedMap`](crate::ShardedMap) and [`ShardedSet`](crate::ShardedSet).
pub struct Sharded<E, C> {
    cell: EpochCell<C>,
    partition: Partition,
    _kind: PhantomData<fn() -> E>,
}

/// An immutable pinned epoch of a [`Sharded`] store: one frozen persistent
/// trie per shard, all captured at a single global publication point.
/// Every query is lock-free; the snapshot stays valid (and unchanged) no
/// matter what writers publish afterwards.
pub struct Snapshot<E, C> {
    pin: Arc<EpochCore<C>>,
    _kind: PhantomData<fn() -> E>,
}

impl<E, C> Sharded<E, C> {
    /// Builds a store from one collection per shard.
    pub(crate) fn from_parts(partition: Partition, parts: impl IntoIterator<Item = C>) -> Self {
        Sharded {
            cell: EpochCell::new(partition, parts),
            partition,
            _kind: PhantomData,
        }
    }

    fn pinned(pin: Arc<EpochCore<C>>) -> Snapshot<E, C> {
        Snapshot {
            pin,
            _kind: PhantomData,
        }
    }
}

impl<E: ShardKind<C>, C: Clone> Sharded<E, C> {
    /// Creates an empty store with one shard per available CPU (rounded up
    /// to a power of two).
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Creates an empty store over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a power of two in
    /// `1..=`[`crate::MAX_SHARDS`].
    pub fn with_shards(shards: usize) -> Self {
        Self::from_parts(Partition::new(shards), (0..shards).map(|_| E::empty()))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.partition.count()
    }

    /// The shard a key routes to (top bits of its 32-bit trie hash).
    pub fn shard_of(&self, key: &E::Key) -> usize {
        self.partition.shard_of(key)
    }

    /// Pins the current epoch: every shard at one global publication point
    /// (one `Arc` clone, no per-shard loads). All queries on the snapshot
    /// are lock-free, and any two reads answered from the same snapshot
    /// are mutually consistent — including across shards.
    pub fn snapshot(&self) -> Snapshot<E, C> {
        Self::pinned(self.cell.pin())
    }

    /// Blocks until the published epoch advances past `epoch`, then returns
    /// the new pinned snapshot (the long-poll/subscription primitive).
    pub fn snapshot_after(&self, epoch: u64) -> Snapshot<E, C> {
        Self::pinned(self.cell.wait_past(epoch))
    }

    /// Captures the current epoch for [`Sharded::changes_since`] (the same
    /// pin as [`Sharded::snapshot`]).
    pub fn epoch(&self) -> Snapshot<E, C> {
        self.snapshot()
    }

    /// The global publication epoch (bumps once per commit, however many
    /// shards the commit touched); cheap staleness check for cached
    /// readers.
    pub fn current_epoch(&self) -> u64 {
        self.cell.pin().epoch
    }

    /// True if no shard holds anything.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// One single-shard clone-edit-publish (the point-edit path).
    pub(crate) fn update_at<R>(&self, shard: usize, edit: impl FnOnce(&mut C) -> R) -> R {
        self.cell.update(shard, |c| {
            let mut next = c.clone();
            let out = edit(&mut next);
            (next, out)
        })
    }

    /// Applies a batch of edits: groups them by shard (preserving input
    /// order within each shard), stages every group on a shard-local
    /// successor through the `_mut` protocol, and publishes all touched
    /// shards as **one** epoch — a pinned reader observes either none or
    /// all of the batch, even across shards. Returns the total size delta.
    ///
    /// Concurrent `apply` calls to disjoint shards stage fully in
    /// parallel; calls touching the same shard serialize on that shard's
    /// write lock, and only the pointer swap itself serializes globally.
    pub fn apply<I: IntoIterator<Item = E>>(&self, batch: I) -> isize {
        self.apply_grouped(batch, None)
            .expect("unvalidated commit cannot conflict")
    }

    /// Optimistically applies `batch` against the epoch pinned by `base`:
    /// the commit succeeds only if every shard the batch writes — plus
    /// every shard in `read_shards` (the shards a transaction read from) —
    /// is still at the version `base` pinned. On conflict nothing is
    /// staged; re-pin and retry.
    pub fn apply_validated<I: IntoIterator<Item = E>>(
        &self,
        base: &Snapshot<E, C>,
        read_shards: &[usize],
        batch: I,
    ) -> Result<isize, EpochConflict> {
        self.apply_grouped(batch, Some((&base.pin, read_shards)))
    }

    fn apply_grouped(
        &self,
        batch: impl IntoIterator<Item = E>,
        validate: Option<(&EpochCore<C>, &[usize])>,
    ) -> Result<isize, EpochConflict> {
        let mut groups: Vec<Vec<E>> = (0..self.shard_count()).map(|_| Vec::new()).collect();
        for edit in batch {
            groups[self.shard_of(edit.edit_key())].push(edit);
        }
        let touched: Vec<usize> = (0..groups.len())
            .filter(|&i| !groups[i].is_empty())
            .collect();
        let deltas = self
            .cell
            .update_many(&touched, validate, |index, current| {
                let mut next = current.clone();
                let d = std::mem::take(&mut groups[index])
                    .into_iter()
                    .map(|e| E::apply_mut(&mut next, e))
                    .sum::<isize>();
                (next, d)
            })?;
        Ok(deltas.into_iter().sum())
    }

    /// Combines two stores pairwise into a new one, one scoped worker per
    /// shard pair (the parallel drive behind the sharded set algebra).
    ///
    /// # Panics
    ///
    /// Panics if the two stores have different partitions.
    pub(crate) fn combine(&self, other: &Self, combine: impl Fn(&C, &C) -> C + Sync) -> Self
    where
        C: Send + Sync,
    {
        assert_eq!(
            self.partition, other.partition,
            "sharded algebra requires operands with the same partition"
        );
        let (left, right) = (self.cell.pin(), other.cell.pin());
        let pairs = left.shards.iter().zip(right.shards.iter());
        let combine = &combine;
        let combined = scoped(pairs.map(|((_, a), (_, b))| move || combine(a, b)));
        Self::from_parts(self.partition, combined)
    }

    /// The delta since `epoch` (`epoch` old, current state new). Shards
    /// whose publication counter is unchanged are skipped outright; each
    /// changed shard is diffed structurally on its own scoped worker
    /// thread, so the cost tracks the number of edits, not the store size.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` was captured from a store with a different
    /// partition.
    pub fn changes_since(&self, epoch: &Snapshot<E, C>) -> E::Diff
    where
        C: Send + Sync,
        E::Diff: Send,
    {
        assert_eq!(
            self.partition, epoch.pin.partition,
            "epoch captured from a shard set with a different partition"
        );
        let now = self.cell.pin();
        let changed = now.shards.iter().zip(epoch.pin.shards.iter()).filter_map(
            |((version, current), (old_version, old))| {
                (version != old_version).then_some(move || E::diff(old, current))
            },
        );
        E::merge(scoped(changed))
    }
}

impl<E: ShardKind<C>, C: TransientOps<E::Item> + Send> Sharded<E, C>
where
    E::Item: Send,
{
    /// Bulk-builds a store: partitions the items by shard, then builds
    /// every shard **in parallel** (one scoped worker thread per non-empty
    /// shard; empty shards are built inline) through the transient builder
    /// protocol.
    pub fn build_parallel(shards: usize, items: impl IntoIterator<Item = E::Item>) -> Self {
        Self::build_parts(
            Partition::new(shards),
            partition_by(shards, items, E::item_key),
        )
    }

    /// Builds one shard per partition (see [`Sharded::build_parallel`]).
    pub(crate) fn build_parts(partition: Partition, parts: Vec<Vec<E::Item>>) -> Self {
        let built: Vec<C> = thread::scope(|scope| {
            let workers: Vec<_> = parts
                .into_iter()
                .map(|part| match part.is_empty() {
                    true => Err(C::built_from(part)),
                    false => Ok(scope.spawn(move || C::built_from(part))),
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| match worker {
                    Ok(handle) => handle.join().expect("shard builder panicked"),
                    Err(empty) => empty,
                })
                .collect()
        });
        Self::from_parts(partition, built)
    }

    /// Bulk-extends in place: partitions the batch, then every touched
    /// shard clones its snapshot into a transient, bulk-inserts its slice
    /// on a scoped worker thread, and publishes its shard as its own epoch.
    /// Returns how many insertions reported growth.
    pub fn extend_parallel(&self, items: impl IntoIterator<Item = E::Item>) -> usize
    where
        C: Clone + Sync,
    {
        let parts = partition_by(self.shard_count(), items, E::item_key);
        let cell = &self.cell;
        let jobs = parts
            .into_iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(index, part)| {
                move || {
                    cell.update(index, |c| {
                        let mut t = c.clone().transient();
                        let grew = t.insert_all_mut(part);
                        (t.build(), grew)
                    })
                }
            });
        scoped(jobs).into_iter().sum()
    }
}

/// Runs every job on its own scoped worker thread and collects the results
/// in job order.
fn scoped<R: Send>(jobs: impl IntoIterator<Item = impl FnOnce() -> R + Send>) -> Vec<R> {
    thread::scope(|scope| {
        let workers: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect()
    })
}

impl<E: ShardKind<C>, C: Clone> Default for Sharded<E, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: ShardKind<C>, C: Clone> std::fmt::Debug for Sharded<E, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("kind", &E::KIND)
            .field("shards", &self.shard_count())
            .field("len", &self.snapshot().count())
            .finish()
    }
}

impl<E, C> Clone for Snapshot<E, C> {
    fn clone(&self) -> Self {
        Snapshot {
            pin: Arc::clone(&self.pin),
            _kind: PhantomData,
        }
    }
}

impl<E, C> std::fmt::Debug for Snapshot<E, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.pin.epoch)
            .finish()
    }
}

impl<E: ShardKind<C>, C> Snapshot<E, C> {
    /// The global epoch this snapshot was pinned at.
    pub fn epoch(&self) -> u64 {
        self.pin.epoch
    }

    /// The publication counter shard `index` was pinned at (what a
    /// validated commit re-checks).
    pub fn shard_version(&self, index: usize) -> u64 {
        self.pin.shards[index].0
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: &E::Key) -> usize {
        self.pin.partition.shard_of(key)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.pin.shards.len()
    }

    /// Borrow of one shard's frozen trie (e.g. to run per-shard analytics).
    pub fn shard(&self, index: usize) -> &C {
        &self.pin.shards[index].1
    }

    /// The frozen trie `key` routes to.
    pub(crate) fn shard_for(&self, key: &E::Key) -> &C {
        self.shard(self.shard_of(key))
    }

    /// Summed size of every shard.
    pub(crate) fn count(&self) -> usize {
        self.pin.shards.iter().map(|(_, c)| E::count(c)).sum()
    }

    /// True if the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Flattened iterator over every shard, shard by shard.
    pub(crate) fn items(&self) -> SnapshotIter<'_, E, C> {
        SnapshotIter {
            rest: self.pin.shards.iter(),
            current: None,
        }
    }
}

/// Flattened iterator over every shard of a [`Snapshot`]: tuples, entries
/// or elements, shard by shard.
pub struct SnapshotIter<'a, E: ShardKind<C> + 'a, C: 'a> {
    rest: std::slice::Iter<'a, (u64, Arc<C>)>,
    current: Option<E::Iter<'a>>,
}

impl<'a, E: ShardKind<C> + 'a, C: 'a> Iterator for SnapshotIter<'a, E, C> {
    type Item = <E::Iter<'a> as Iterator>::Item;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.current.as_mut().and_then(Iterator::next) {
                return Some(item);
            }
            self.current = Some(E::iter(&self.rest.next()?.1));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ShardedSet;
    use trie_common::ops::SetEdit;

    /// The first `n` elements routing to `shard` of `s`.
    fn routed_to(s: &ShardedSet<u32>, shard: usize, n: usize) -> Vec<u32> {
        (0u32..)
            .filter(|v| s.shard_of(v) == shard)
            .take(n)
            .collect()
    }

    #[test]
    fn build_parallel_skips_threads_for_empty_parts() {
        // One element: 3 of 4 partitions empty, all 4 shards still built.
        let set: ShardedSet<u32> = ShardedSet::build_parallel(4, [42u32]);
        assert_eq!(set.shard_count(), 4);
        let snap = set.snapshot();
        let home = snap.shard_of(&42);
        for shard in 0..4 {
            assert_eq!(snap.shard(shard).len(), usize::from(shard == home));
        }
    }

    #[test]
    fn apply_grouped_routes_sums_and_publishes_one_epoch() {
        let set: ShardedSet<u32> = ShardedSet::with_shards(2);
        let (a, b) = (routed_to(&set, 0, 2), routed_to(&set, 1, 1));
        let delta = set.apply([
            SetEdit::Insert(a[0]),
            SetEdit::Insert(b[0]),
            SetEdit::Insert(a[1]),
            // Order within a shard preserves input order: removed, then
            // re-inserted.
            SetEdit::Remove(b[0]),
            SetEdit::Insert(b[0]),
        ]);
        assert_eq!(delta, 3);
        let snap = set.snapshot();
        assert_eq!(snap.epoch(), 1, "two shards touched, one epoch");
        assert_eq!((snap.shard(0).len(), snap.shard(1).len()), (2, 1));
    }

    #[test]
    fn validated_apply_conflicts_on_read_shards_too() {
        let set: ShardedSet<u32> = ShardedSet::with_shards(2);
        let (a, b) = (routed_to(&set, 0, 1)[0], routed_to(&set, 1, 1)[0]);
        let base = set.snapshot();
        // Concurrent writer republishes shard 0.
        set.insert(a);
        // Writing only shard 1, but having read shard 0 at the base pin:
        // the commit must conflict.
        let err = set
            .apply_validated(&base, &[0], [SetEdit::Insert(b)])
            .unwrap_err();
        assert_eq!(err.shard, 0);
        // Against a fresh pin the same commit goes through.
        let fresh = set.snapshot();
        let delta = set
            .apply_validated(&fresh, &[0], [SetEdit::Insert(b)])
            .unwrap();
        assert_eq!(delta, 1);
    }
}

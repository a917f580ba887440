//! The [`Serve`] trait: what the engine needs from a store, implemented
//! once for the generic [`Sharded`] store.
//!
//! Every sharded collection is a `Sharded<E, C>` whose edit enum `E`
//! ([`MapEdit`], [`SetEdit`] or [`MultiMapEdit`]) names its kind, so one
//! `impl Serve` covers all three. The only thing a kind adds is its typed
//! read vocabulary: [`ReadVocabulary`], implemented on each edit enum,
//! names the read and reply types from [`crate::ops`] and answers them
//! against a pinned snapshot. The engine itself is generic: one worker
//! pool, one admission layer, one transaction protocol for all three.

use std::hash::Hash;

use sharded::{EpochConflict, ShardKind, Sharded, Snapshot};
use trie_common::ops::{
    MapEdit, MapMergeOps, MapMutOps, MultiMapAlgebraOps, MultiMapEdit, MultiMapMutOps,
    SetAlgebraOps, SetEdit, SetMutOps,
};

use crate::ops::{MapRead, MapReply, MultiMapRead, MultiMapReply, SetRead, SetReply};

/// A store the serving engine can run over: epoch-pinned snapshots to
/// answer reads from, shard routing for edits, and both unconditional and
/// epoch-validated batch application for writes.
///
/// All methods that answer reads are associated functions over the
/// *snapshot* — once pinned, answering never touches the live store, which
/// is what makes the read path lock-free.
pub trait Serve: Send + Sync + 'static {
    /// One typed read operation.
    type Read: Send + 'static;
    /// The reply to one read operation.
    type Reply: Send + 'static;
    /// One typed write operation (the `*Edit` enums from `trie_common`).
    type Edit: Send + 'static;
    /// A pinned epoch: consistent across shards, lock-free to query,
    /// frozen forever.
    type Snapshot: Clone + Send + Sync + 'static;

    /// Pins the current epoch.
    fn pin(&self) -> Self::Snapshot;

    /// Blocks until the epoch advances past `epoch`, then pins (the
    /// long-poll primitive).
    fn pin_after(&self, epoch: u64) -> Self::Snapshot;

    /// The epoch a snapshot was pinned at.
    fn epoch_of(snap: &Self::Snapshot) -> u64;

    /// The store's current publication epoch.
    fn current_epoch(&self) -> u64;

    /// Number of shards (the admission layer runs one applier per shard).
    fn shard_count(&self) -> usize;

    /// Answers one read against a pinned snapshot.
    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply;

    /// Appends the shard indices `op` reads from to `out` (what a
    /// transaction validates at commit).
    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>);

    /// The shard an edit routes to.
    fn edit_shard(&self, edit: &Self::Edit) -> usize;

    /// Applies a batch unconditionally (one epoch however many shards it
    /// touches). Returns the store's count delta.
    fn apply(&self, batch: Vec<Self::Edit>) -> isize;

    /// Applies a batch only if every written shard — plus every shard in
    /// `read_shards` — is still at the version `base` pinned.
    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict>;
}

/// The typed reads one kind of sharded store serves, implemented on the
/// kind's edit enum over its shard trie `C`.
pub trait ReadVocabulary<C>: ShardKind<C> {
    /// One typed read operation.
    type Read: Send + 'static;
    /// The reply to one read operation.
    type Reply: Send + 'static;

    /// Answers one read against a pinned snapshot.
    fn answer(snap: &Snapshot<Self, C>, op: &Self::Read) -> Self::Reply;

    /// Appends the shard indices `op` reads from to `out`.
    fn read_shards(snap: &Snapshot<Self, C>, op: &Self::Read, out: &mut Vec<usize>);
}

impl<E, C> Serve for Sharded<E, C>
where
    E: ReadVocabulary<C> + Send + 'static,
    C: Clone + Send + Sync + 'static,
{
    type Read = E::Read;
    type Reply = E::Reply;
    type Edit = E;
    type Snapshot = Snapshot<E, C>;

    fn pin(&self) -> Snapshot<E, C> {
        self.snapshot()
    }

    fn pin_after(&self, epoch: u64) -> Snapshot<E, C> {
        self.snapshot_after(epoch)
    }

    fn epoch_of(snap: &Snapshot<E, C>) -> u64 {
        snap.epoch()
    }

    fn current_epoch(&self) -> u64 {
        Sharded::current_epoch(self)
    }

    fn shard_count(&self) -> usize {
        Sharded::shard_count(self)
    }

    fn answer(snap: &Snapshot<E, C>, op: &E::Read) -> E::Reply {
        E::answer(snap, op)
    }

    fn read_shards(snap: &Snapshot<E, C>, op: &E::Read, out: &mut Vec<usize>) {
        E::read_shards(snap, op, out)
    }

    fn edit_shard(&self, edit: &E) -> usize {
        self.shard_of(edit.edit_key())
    }

    fn apply(&self, batch: Vec<E>) -> isize {
        Sharded::apply(self, batch)
    }

    fn apply_validated(
        &self,
        base: &Snapshot<E, C>,
        read_shards: &[usize],
        batch: Vec<E>,
    ) -> Result<isize, EpochConflict> {
        Sharded::apply_validated(self, base, read_shards, batch)
    }
}

impl<K, V, M> ReadVocabulary<M> for MapEdit<K, V>
where
    K: Hash + Clone + Send + 'static,
    V: Clone + PartialEq + Send + 'static,
    M: MapMutOps<K, V> + MapMergeOps<K, V>,
{
    type Read = MapRead<K>;
    type Reply = MapReply<K, V>;

    fn answer(snap: &Snapshot<Self, M>, op: &MapRead<K>) -> MapReply<K, V> {
        match op {
            MapRead::Get(k) => MapReply::Value(snap.get(k).cloned()),
            MapRead::Contains(k) => MapReply::Bool(snap.contains_key(k)),
            MapRead::Scan { limit } => MapReply::Entries(
                snap.entries()
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
            MapRead::Len => MapReply::Count(snap.len()),
        }
    }

    fn read_shards(snap: &Snapshot<Self, M>, op: &MapRead<K>, out: &mut Vec<usize>) {
        match op {
            MapRead::Get(k) | MapRead::Contains(k) => out.push(snap.shard_of(k)),
            MapRead::Scan { .. } | MapRead::Len => out.extend(0..snap.shard_count()),
        }
    }
}

impl<T, S> ReadVocabulary<S> for SetEdit<T>
where
    T: Hash + Clone + Send + 'static,
    S: SetMutOps<T> + SetAlgebraOps<T>,
{
    type Read = SetRead<T>;
    type Reply = SetReply<T>;

    fn answer(snap: &Snapshot<Self, S>, op: &SetRead<T>) -> SetReply<T> {
        match op {
            SetRead::Contains(v) => SetReply::Bool(snap.contains(v)),
            SetRead::Scan { limit } => SetReply::Elems(snap.iter().take(*limit).cloned().collect()),
            SetRead::Len => SetReply::Count(snap.len()),
        }
    }

    fn read_shards(snap: &Snapshot<Self, S>, op: &SetRead<T>, out: &mut Vec<usize>) {
        match op {
            SetRead::Contains(v) => out.push(snap.shard_of(v)),
            SetRead::Scan { .. } | SetRead::Len => out.extend(0..snap.shard_count()),
        }
    }
}

impl<K, V, M> ReadVocabulary<M> for MultiMapEdit<K, V>
where
    K: Hash + Clone + Send + 'static,
    V: Clone + Send + 'static,
    M: MultiMapMutOps<K, V> + MultiMapAlgebraOps<K, V>,
{
    type Read = MultiMapRead<K, V>;
    type Reply = MultiMapReply<K, V>;

    fn answer(snap: &Snapshot<Self, M>, op: &MultiMapRead<K, V>) -> MultiMapReply<K, V> {
        match op {
            MultiMapRead::ValuesOf(k) => {
                MultiMapReply::Values(snap.values_of(k).cloned().collect())
            }
            MultiMapRead::FanOut(keys) => MultiMapReply::FanOut(
                keys.iter()
                    .map(|k| (k.clone(), snap.values_of(k).cloned().collect()))
                    .collect(),
            ),
            MultiMapRead::ContainsKey(k) => MultiMapReply::Bool(snap.contains_key(k)),
            MultiMapRead::ContainsTuple(k, v) => MultiMapReply::Bool(snap.contains_tuple(k, v)),
            MultiMapRead::Scan { limit } => MultiMapReply::Tuples(
                snap.tuples()
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
            MultiMapRead::TupleCount => MultiMapReply::Count(snap.tuple_count()),
        }
    }

    fn read_shards(snap: &Snapshot<Self, M>, op: &MultiMapRead<K, V>, out: &mut Vec<usize>) {
        match op {
            MultiMapRead::ValuesOf(k)
            | MultiMapRead::ContainsKey(k)
            | MultiMapRead::ContainsTuple(k, _) => out.push(snap.shard_of(k)),
            MultiMapRead::FanOut(keys) => out.extend(keys.iter().map(|k| snap.shard_of(k))),
            MultiMapRead::Scan { .. } | MultiMapRead::TupleCount => {
                out.extend(0..snap.shard_count())
            }
        }
    }
}

//! **sharded** — a concurrent, shard-partitioned store over the persistent
//! hash tries.
//!
//! The persistent collections in this workspace ([`axiom`], `champ`, `hamt`,
//! `idiomatic`) are single-writer values: cheap to clone, lock-free to read,
//! but a `&mut` handle serializes all writers. This crate scales them to
//! concurrent traffic with a classic three-phase design, using exactly the
//! hooks the rest of the workspace already provides:
//!
//! 1. **Partition** — keys route to one of `N` (power-of-two) shards by the
//!    *top* `log2(N)` bits of the same 32-bit [`trie_common::hash::hash32`]
//!    the tries consume. Tries eat hash bits bottom-up, so shard routing is
//!    invisible to each shard's internal structure, and a key's shard never
//!    changes.
//! 2. **Shard-local transients** — bulk construction partitions the input
//!    and builds every shard through the
//!    [`TransientOps`](trie_common::ops::TransientOps) builder protocol on
//!    its own scoped worker thread ([`std::thread::scope`]); incremental
//!    writers stage batches of edits on a shard-local successor through the
//!    in-place `_mut` protocol
//!    ([`MultiMapMutOps`](trie_common::ops::MultiMapMutOps) and friends).
//!    Nothing concurrent ever touches a trie under mutation: successors are
//!    thread-private until frozen.
//! 3. **Atomic publish** — finished shard values are frozen into `Arc`
//!    snapshots and installed with one pointer swap of the global epoch
//!    bundle (`publish`). Readers pin the bundle (one refcount bump) and
//!    query the immutable tries lock-free for as long as they like; they
//!    always see a complete batch, never a partial one.
//!
//! # One generic store, three kinds
//!
//! All of this is written once, in [`Sharded<E, C>`] (the store) and
//! [`Snapshot<E, C>`] (one pinned epoch of it). `C` is the shard trie and
//! `E` is the kind's edit enum — [`MultiMapEdit`](trie_common::ops::MultiMapEdit),
//! [`MapEdit`](trie_common::ops::MapEdit) or
//! [`SetEdit`](trie_common::ops::SetEdit) — which fixes the key and value
//! types and tells the kinds apart. [`ShardKind`], implemented once per
//! edit enum, supplies the little that differs: routing keys, the `_mut`
//! edit, the element count, per-shard iteration and encoding, and the
//! structural diff. The familiar names are aliases over today's default
//! tries, e.g.
//! `ShardedMultiMap<K, V, M = AxiomMultiMap<K, V>> = Sharded<MultiMapEdit<K, V>, M>`,
//! and each kind adds its own reads and point edits (`values_of`, `get`,
//! `contains`, `insert`, …) in a small inherent impl.
//!
//! # Consistency model
//!
//! Globally serializable publication: all shards publish under **one**
//! epoch sequence, and every commit — even a batch spanning many shards —
//! swaps the whole bundle atomically. A [`ShardedMultiMap::snapshot`] pins
//! one epoch, so any two reads answered from the same snapshot are mutually
//! consistent *across shards* (the MVCC guarantee the serving engine builds
//! on). Optimistic read-modify-write is available through the
//! `apply_validated` methods, which re-check the pinned per-shard versions
//! at commit and report an [`EpochConflict`] instead of clobbering
//! concurrent writes.
//!
//! # `Send`/`Sync` reasoning
//!
//! `Sharded<E, C>` is `Send + Sync` whenever `C` is (the kind `E` is only
//! a type-level tag): published state is a `Mutex<Arc<…>>` bundle plus
//! per-shard `Mutex<()>` write locks (all `Send + Sync` for
//! `C: Send + Sync`), and the trie handles
//! themselves are `Arc`-based persistent
//! structures that are `Send + Sync` for `Send + Sync` element types. The
//! aliasing discipline that makes this sound is the `Arc::get_mut`
//! uniqueness protocol of the `_mut` families: a writer's staged successor
//! shares nodes with published snapshots, and precisely those shared nodes
//! are path-copied on write — verified from the outside by the
//! `tests/sharded_aliasing.rs` cross-thread property tests.
//!
//! # Examples
//!
//! ```
//! use sharded::ShardedMultiMap;
//! use trie_common::ops::MultiMapEdit;
//!
//! // Parallel bulk build: partition once, one builder thread per shard.
//! let mm: ShardedMultiMap<u32, u32> =
//!     ShardedMultiMap::build_parallel(4, (0..1000u32).map(|i| (i % 100, i)));
//! assert_eq!(mm.tuple_count(), 1000);
//!
//! // Readers work on frozen snapshots, unaffected by later writes.
//! let snap = mm.snapshot();
//! mm.apply((0..50u32).map(MultiMapEdit::RemoveKey));
//! assert_eq!(snap.tuple_count(), 1000);
//! assert_eq!(mm.key_count(), 50);
//! ```

#![warn(missing_docs)]

mod map;
mod multimap;
mod partition;
mod publish;
mod set;
mod shards;
mod snapshot;

pub use map::{MapSnapshot, ShardedMap};
pub use multimap::{MultiMapSnapshot, ShardedMultiMap};
pub use partition::{partition_by, partition_tuples, Partition, MAX_SHARDS};
pub use publish::EpochConflict;
pub use set::{SetSnapshot, ShardedSet};
pub use shards::{ShardKind, Sharded, Snapshot, SnapshotIter};

/// Default shard count: the available parallelism rounded up to a power of
/// two (capped at [`MAX_SHARDS`]; 1 when parallelism cannot be queried).
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .min(MAX_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shard_count_is_a_valid_partition() {
        let n = default_shard_count();
        assert!(n.is_power_of_two());
        assert!((1..=MAX_SHARDS).contains(&n));
        let _ = Partition::new(n);
    }
}

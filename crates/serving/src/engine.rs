//! The request engine: a self-healing read worker pool plus per-shard
//! write appliers over one [`Serve`] store.
//!
//! # Fault model
//!
//! Worker panics are isolated at two levels. Each *job* runs under
//! `catch_unwind`: a panic while answering a read batch or applying a
//! write drain resolves exactly those tickets with a fault
//! ([`ReadError::Faulted`] / [`WriteError::Faulted`]) and the worker moves
//! on. A panic *outside* a job guard (e.g. an injected fault at the drain
//! site) kills the worker thread — a supervisor loop respawns it and the
//! queues lose nothing, because drains only dequeue after the fault
//! window. Every lock involved recovers from poison
//! ([`trie_common::sync`]), so readers keep answering from the last
//! published epoch no matter what any writer or worker did.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trie_common::faults::{fire as fault_point, site};
use trie_common::sync::{lock_recover, wait_recover, wait_timeout_recover};

use crate::admit::{Lanes, Refused, WriteState, WriteTicket};
use crate::error::{Overloaded, ReadError};
use crate::store::Serve;
use crate::txn::{Txn, TxnError, TxnOutcome};

/// A batch split into `(shard, edits)` groups, ascending by shard.
type ShardGroups<E> = Vec<(usize, Vec<E>)>;

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Read worker threads serving queued batches (defaults to the
    /// available parallelism).
    pub read_workers: usize,
    /// Attempts a [`Engine::transact`] call makes before giving up
    /// (first try included). Attempts past half the budget run without
    /// other transactions alongside.
    pub txn_attempts: usize,
    /// Per-shard admission-lane capacity, in staged batches. `None`
    /// (default) keeps the lanes unbounded; `Some(n)` bounds each lane at
    /// `n` queued batches, making [`Engine::try_stage`] shed and
    /// [`Engine::stage`] block under pressure.
    pub lane_capacity: Option<usize>,
    /// Read-queue capacity, in queued batches. `None` (default) keeps the
    /// queue unbounded; `Some(n)` makes [`Engine::try_submit`] shed and
    /// [`Engine::submit`] block when `n` batches are already queued.
    pub read_queue_capacity: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            read_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            txn_attempts: 16,
            lane_capacity: None,
            read_queue_capacity: None,
        }
    }
}

/// All replies of one read batch, answered against a single pinned epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply<R> {
    /// The epoch every reply in the batch was answered at.
    pub epoch: u64,
    /// One reply per submitted op, in submission order.
    pub replies: Vec<R>,
}

struct ReadState<R> {
    slot: Mutex<Option<Result<BatchReply<R>, ReadError>>>,
    done: Condvar,
}

/// Handle to an in-flight read batch submitted with [`Engine::submit`].
pub struct ReadTicket<R> {
    state: Arc<ReadState<R>>,
}

impl<R> ReadTicket<R> {
    /// Blocks until the batch has been served. `Ok` carries the replies;
    /// [`ReadError::Faulted`] means the answering worker panicked.
    pub fn wait(self) -> Result<BatchReply<R>, ReadError> {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = wait_recover(&self.state.done, slot);
        }
    }

    /// Non-blocking probe: true once the batch has resolved (the outcome
    /// itself is still unclaimed — [`ReadTicket::wait`] hands it over).
    pub fn is_done(&self) -> bool {
        lock_recover(&self.state.slot).is_some()
    }

    /// [`ReadTicket::wait`] with a deadline. `Err(Deadline)` leaves the
    /// ticket untouched and claimable — a later wait still resolves it.
    /// (Like `wait`, a success hands the replies over exactly once.)
    pub fn wait_timeout(&self, timeout: Duration) -> Result<BatchReply<R>, ReadError> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ReadError::Deadline);
            }
            let (guard, _timed_out) = wait_timeout_recover(&self.state.done, slot, deadline - now);
            slot = guard;
        }
    }
}

impl<R> std::fmt::Debug for ReadTicket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = lock_recover(&self.state.slot).is_some();
        f.debug_struct("ReadTicket").field("done", &done).finish()
    }
}

struct ReadJob<S: Serve> {
    /// The epoch pin taken when the batch was submitted. Pinning at
    /// submission (not at service) makes answering epochs follow
    /// submission order: a caller that submits R1 then R2 never sees R2
    /// answered from an *older* view than R1, no matter which pool
    /// worker serves which — the property the pipelined wire server
    /// relies on for monotone per-connection epochs.
    snap: S::Snapshot,
    ops: Vec<S::Read>,
    state: Arc<ReadState<S::Reply>>,
}

struct ReadQueue<S: Serve> {
    jobs: Mutex<VecDeque<ReadJob<S>>>,
    ready: Condvar,
    /// Signals blocked submitters that a worker dequeued a batch.
    space: Condvar,
    /// Maximum queued batches (`usize::MAX` = unbounded).
    capacity: usize,
    stop: AtomicBool,
}

/// Monotone operation counters, readable at any time via
/// [`Engine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Read batches served (queued and synchronous).
    pub read_batches: u64,
    /// Individual read ops answered.
    pub read_ops: u64,
    /// Write batches staged through admission.
    pub write_batches: u64,
    /// Individual edits staged.
    pub write_edits: u64,
    /// Publications performed by the appliers (coalesced drains).
    pub applier_commits: u64,
    /// Transactions that committed.
    pub txn_commits: u64,
    /// Epoch conflicts observed by transactions (each costs one retry).
    pub txn_conflicts: u64,
    /// Read batches consumed by a panicking worker (resolved as
    /// [`ReadError::Faulted`]).
    pub read_faults: u64,
    /// Write tickets resolved with a faulted slice by a panicking applier.
    pub write_faults: u64,
    /// Write batches shed by bounded admission (`try_stage` full, or a
    /// `stage_timeout` deadline).
    pub shed_writes: u64,
    /// Read batches shed by the bounded read queue.
    pub shed_reads: u64,
    /// Worker threads respawned after a panic outside a job guard.
    pub worker_respawns: u64,
}

impl EngineStats {
    /// The counters in wire order (the order they serialize in — field
    /// declaration order, frozen; new counters append at the end).
    fn wire_fields(&self) -> [u64; 12] {
        [
            self.read_batches,
            self.read_ops,
            self.write_batches,
            self.write_edits,
            self.applier_commits,
            self.txn_commits,
            self.txn_conflicts,
            self.read_faults,
            self.write_faults,
            self.shed_writes,
            self.shed_reads,
            self.worker_respawns,
        ]
    }
}

// `EngineStats` serializes through the snapshot value codec as a flat
// sequence of its counters in declaration order, so a remote operator's
// `Stats` op decodes into exactly this struct. A shorter sequence (an
// older peer) leaves the missing trailing counters at zero; extra trailing
// counters (a newer peer) are ignored.
impl serde::ser::Serialize for EngineStats {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq;
        let fields = self.wire_fields();
        let mut seq = serializer.serialize_seq(Some(fields.len()))?;
        for field in &fields {
            seq.serialize_element(field)?;
        }
        seq.end()
    }
}

impl<'de> serde::de::Deserialize<'de> for EngineStats {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{SeqAccess, Visitor};
        struct StatsVisitor;
        impl<'de> Visitor<'de> for StatsVisitor {
            type Value = EngineStats;

            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("an EngineStats counter sequence")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let mut fields = [0u64; 12];
                for slot in fields.iter_mut() {
                    match seq.next_element()? {
                        Some(v) => *slot = v,
                        None => break,
                    }
                }
                while seq.next_element::<u64>()?.is_some() {}
                let [read_batches, read_ops, write_batches, write_edits, applier_commits, txn_commits, txn_conflicts, read_faults, write_faults, shed_writes, shed_reads, worker_respawns] =
                    fields;
                Ok(EngineStats {
                    read_batches,
                    read_ops,
                    write_batches,
                    write_edits,
                    applier_commits,
                    txn_commits,
                    txn_conflicts,
                    read_faults,
                    write_faults,
                    shed_writes,
                    shed_reads,
                    worker_respawns,
                })
            }
        }
        deserializer.deserialize_seq(StatsVisitor)
    }
}

#[derive(Default)]
struct StatsCore {
    read_batches: AtomicU64,
    read_ops: AtomicU64,
    write_batches: AtomicU64,
    write_edits: AtomicU64,
    applier_commits: AtomicU64,
    txn_commits: AtomicU64,
    txn_conflicts: AtomicU64,
    read_faults: AtomicU64,
    write_faults: AtomicU64,
    shed_writes: AtomicU64,
    shed_reads: AtomicU64,
    worker_respawns: AtomicU64,
}

impl StatsCore {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            read_batches: self.read_batches.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            write_edits: self.write_edits.load(Ordering::Relaxed),
            applier_commits: self.applier_commits.load(Ordering::Relaxed),
            txn_commits: self.txn_commits.load(Ordering::Relaxed),
            txn_conflicts: self.txn_conflicts.load(Ordering::Relaxed),
            read_faults: self.read_faults.load(Ordering::Relaxed),
            write_faults: self.write_faults.load(Ordering::Relaxed),
            shed_writes: self.shed_writes.load(Ordering::Relaxed),
            shed_reads: self.shed_reads.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
        }
    }
}

/// The serving engine: MVCC reads, admitted writes, and optimistic
/// transactions over one [`Serve`] store.
///
/// - **Reads** go through [`Engine::submit`] (queued, served by the worker
///   pool) or [`Engine::execute`] (on the caller's thread). Either way a
///   batch is answered against **one** pinned epoch, so its replies are
///   mutually consistent across shards.
/// - **Writes** go through [`Engine::stage`]: split by shard, queued on
///   per-shard admission lanes, applied by one dedicated applier per shard.
///   With a bounded [`EngineConfig::lane_capacity`], [`Engine::try_stage`]
///   sheds under overload and [`Engine::stage_timeout`] bounds the wait.
/// - **Read-modify-write** goes through [`Engine::transact`]: the body runs
///   against a pinned epoch, and the commit validates every shard it read
///   or wrote, retrying on conflict.
///
/// Dropping the engine drains both queues, then joins all threads; the
/// store itself (an `Arc`) survives and can be served again.
pub struct Engine<S: Serve> {
    store: Arc<S>,
    reads: Arc<ReadQueue<S>>,
    lanes: Arc<Lanes<S::Edit>>,
    stats: Arc<StatsCore>,
    txn_attempts: usize,
    /// Shared by optimistic transaction attempts, taken exclusively by an
    /// attempt that has already conflicted through half the budget.
    txn_gate: RwLock<()>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Serve> Engine<S> {
    /// Spawns the engine over `store` with default tuning.
    pub fn new(store: Arc<S>) -> Self {
        Self::with_config(store, EngineConfig::default())
    }

    /// Spawns the engine: `config.read_workers` read threads plus one
    /// applier thread per shard of the store. Each worker runs under a
    /// supervisor that respawns it if it panics outside a job guard.
    pub fn with_config(store: Arc<S>, config: EngineConfig) -> Self {
        let reads = Arc::new(ReadQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: config.read_queue_capacity.unwrap_or(usize::MAX).max(1),
            stop: AtomicBool::new(false),
        });
        let lanes = Arc::new(Lanes::new(
            store.shard_count(),
            config.lane_capacity.unwrap_or(usize::MAX),
        ));
        let stats = Arc::new(StatsCore::default());
        let mut workers = Vec::new();
        for _ in 0..config.read_workers.max(1) {
            let reads = Arc::clone(&reads);
            let stats = Arc::clone(&stats);
            workers.push(std::thread::spawn(move || {
                supervise(&stats, || read_worker::<S>(&reads, &stats))
            }));
        }
        for shard in 0..store.shard_count() {
            let store = Arc::clone(&store);
            let lanes = Arc::clone(&lanes);
            let stats = Arc::clone(&stats);
            workers.push(std::thread::spawn(move || {
                supervise(&stats, || applier::<S>(&store, &lanes, shard, &stats))
            }));
        }
        Engine {
            store,
            reads,
            lanes,
            stats,
            txn_attempts: config.txn_attempts.max(1),
            txn_gate: RwLock::new(()),
            workers,
        }
    }

    /// The served store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Current operation counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Pins the store's current epoch (for ad-hoc reads outside the
    /// engine's batching).
    pub fn pin(&self) -> S::Snapshot {
        self.store.pin()
    }

    /// Blocks until the epoch advances past `epoch`, then pins — the
    /// long-poll primitive ("give me a view newer than what I last saw").
    pub fn pin_after(&self, epoch: u64) -> S::Snapshot {
        self.store.pin_after(epoch)
    }

    /// Enqueues a read batch for the worker pool; returns a ticket to
    /// [`ReadTicket::wait`] on. The epoch is pinned *at submission*, so
    /// tickets resolve with epochs in submission order (queueing delay
    /// never makes a later submission answer from an older view). With a
    /// bounded [`EngineConfig::read_queue_capacity`], blocks until the
    /// queue has room (use [`Engine::try_submit`] to shed instead).
    pub fn submit(&self, ops: Vec<S::Read>) -> ReadTicket<S::Reply> {
        self.submit_pinned(self.store.pin(), ops)
    }

    /// [`Engine::submit`] with a visibility floor: the batch is pinned at
    /// an epoch `>= min_epoch` *on the calling thread* (blocking via
    /// [`Serve::pin_after`] until the store publishes one if necessary),
    /// then queued — the session primitive behind cross-connection
    /// read-your-writes, and the read path of the pipelined wire server:
    /// pass the visibility epoch a write ack carried and the reply is
    /// guaranteed to include that write. A floor of `0` never blocks, but
    /// a floor above anything the store will ever publish blocks here
    /// forever, so callers must pre-check against [`Serve::current_epoch`]
    /// (the wire server rejects such floors up front with `FutureEpoch`).
    pub fn submit_at_least(&self, min_epoch: u64, ops: Vec<S::Read>) -> ReadTicket<S::Reply> {
        self.submit_pinned(self.pin_at_least(min_epoch), ops)
    }

    fn submit_pinned(&self, snap: S::Snapshot, ops: Vec<S::Read>) -> ReadTicket<S::Reply> {
        let state = Arc::new(ReadState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let mut jobs = lock_recover(&self.reads.jobs);
        while jobs.len() >= self.reads.capacity && !self.reads.stop.load(Ordering::Acquire) {
            jobs = wait_recover(&self.reads.space, jobs);
        }
        jobs.push_back(ReadJob {
            snap,
            ops,
            state: Arc::clone(&state),
        });
        drop(jobs);
        self.reads.ready.notify_one();
        ReadTicket { state }
    }

    /// Non-blocking [`Engine::submit`]: sheds with [`Overloaded`] (handing
    /// the ops back) when the bounded read queue is full.
    pub fn try_submit(
        &self,
        ops: Vec<S::Read>,
    ) -> Result<ReadTicket<S::Reply>, Overloaded<Vec<S::Read>>> {
        let state = Arc::new(ReadState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let snap = self.store.pin();
        {
            let mut jobs = lock_recover(&self.reads.jobs);
            if jobs.len() >= self.reads.capacity {
                drop(jobs);
                self.stats.shed_reads.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded(ops));
            }
            jobs.push_back(ReadJob {
                snap,
                ops,
                state: Arc::clone(&state),
            });
        }
        self.reads.ready.notify_one();
        Ok(ReadTicket { state })
    }

    /// Serves a read batch synchronously on the caller's thread (same
    /// single-pin consistency as [`Engine::submit`], no queueing).
    pub fn execute(&self, ops: &[S::Read]) -> BatchReply<S::Reply> {
        self.answer_with(self.store.pin(), ops)
    }

    /// Pins an epoch `>= min_epoch`, long-polling if the store has not
    /// published one yet.
    fn pin_at_least(&self, min_epoch: u64) -> S::Snapshot {
        let snap = self.store.pin();
        if S::epoch_of(&snap) >= min_epoch {
            snap
        } else {
            // `pin_after(e)` waits for an epoch strictly beyond `e`, so
            // the floor `min_epoch` maps to `pin_after(min_epoch - 1)`
            // (the zero floor was satisfied by any pin above).
            self.store.pin_after(min_epoch - 1)
        }
    }

    fn answer_with(&self, snap: S::Snapshot, ops: &[S::Read]) -> BatchReply<S::Reply> {
        let reply = answer_batch::<S>(&snap, ops);
        self.stats.read_batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .read_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        reply
    }

    /// Stages a write batch: splits it by shard and queues each slice on
    /// that shard's admission lane. The ticket resolves (with a visibility
    /// epoch) once every slice has been applied and published.
    ///
    /// Admission is all-or-nothing: with a bounded lane capacity this
    /// blocks until every touched lane has room. If the engine shuts down
    /// first, the ticket resolves with [`WriteError::Faulted`] for the
    /// whole batch (nothing was enqueued).
    ///
    /// [`WriteError::Faulted`]: crate::WriteError::Faulted
    pub fn stage(&self, batch: impl IntoIterator<Item = S::Edit>) -> WriteTicket {
        match self.admit(batch, None) {
            Ok(ticket) => ticket,
            Err((state, refused)) => {
                // Shutdown raced the stage: fail every unstaged slice so
                // the ticket resolves instead of hanging forever.
                let groups = refused.into_groups();
                for _ in &groups {
                    state.complete_one(0, false);
                }
                self.stats
                    .write_faults
                    .fetch_add(groups.len() as u64, Ordering::Relaxed);
                WriteTicket { state }
            }
        }
    }

    /// [`Engine::stage`] with a deadline on admission: if the touched
    /// lanes cannot all make room within `timeout`, the batch is shed with
    /// [`Overloaded`] handing every edit back (grouped by shard, document
    /// order within each shard). The deadline covers admission only — once
    /// admitted, use [`WriteTicket::wait_timeout`] to bound the apply wait.
    ///
    /// [`WriteTicket::wait_timeout`]: crate::WriteTicket::wait_timeout
    pub fn stage_timeout(
        &self,
        batch: impl IntoIterator<Item = S::Edit>,
        timeout: Duration,
    ) -> Result<WriteTicket, Overloaded<Vec<S::Edit>>> {
        let deadline = Instant::now() + timeout;
        match self.admit(batch, Some(deadline)) {
            Ok(ticket) => Ok(ticket),
            Err((_, refused)) => {
                self.stats.shed_writes.fetch_add(1, Ordering::Relaxed);
                Err(Overloaded(flatten(refused.into_groups())))
            }
        }
    }

    /// Non-blocking [`Engine::stage`]: sheds immediately with
    /// [`Overloaded`] (handing every edit back) when any touched lane is
    /// at capacity, instead of queueing or blocking. The all-or-nothing
    /// admission means a shed batch left **no** slice behind.
    pub fn try_stage(
        &self,
        batch: impl IntoIterator<Item = S::Edit>,
    ) -> Result<WriteTicket, Overloaded<Vec<S::Edit>>> {
        let (groups, edits) = self.group(batch);
        let state = Arc::new(WriteState::new(groups.len(), self.store.current_epoch()));
        match self.lanes.try_push_all(groups, &state) {
            Ok(()) => {
                self.count_staged(edits);
                Ok(WriteTicket { state })
            }
            Err(refused) => {
                self.stats.shed_writes.fetch_add(1, Ordering::Relaxed);
                Err(Overloaded(flatten(refused.into_groups())))
            }
        }
    }

    /// Shared admission path: groups the batch, then pushes blocking (with
    /// an optional deadline). On refusal, hands back the write state and
    /// the refused groups so the caller picks the failure shape.
    fn admit(
        &self,
        batch: impl IntoIterator<Item = S::Edit>,
        deadline: Option<Instant>,
    ) -> Result<WriteTicket, (Arc<WriteState>, Refused<S::Edit>)> {
        let (groups, edits) = self.group(batch);
        // An empty batch is vacuously visible at the current epoch.
        let state = Arc::new(WriteState::new(groups.len(), self.store.current_epoch()));
        match self.lanes.push_all_blocking(groups, &state, deadline) {
            Ok(()) => {
                self.count_staged(edits);
                Ok(WriteTicket { state })
            }
            Err(refused) => Err((state, refused)),
        }
    }

    /// Splits a batch into per-shard groups (ascending shard order — the
    /// admission lock order) and counts its edits.
    fn group(&self, batch: impl IntoIterator<Item = S::Edit>) -> (ShardGroups<S::Edit>, u64) {
        let mut by_shard: Vec<Vec<S::Edit>> =
            (0..self.store.shard_count()).map(|_| Vec::new()).collect();
        let mut edits = 0u64;
        for edit in batch {
            by_shard[self.store.edit_shard(&edit)].push(edit);
            edits += 1;
        }
        let groups = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .collect();
        (groups, edits)
    }

    fn count_staged(&self, edits: u64) {
        self.stats.write_batches.fetch_add(1, Ordering::Relaxed);
        self.stats.write_edits.fetch_add(edits, Ordering::Relaxed);
    }

    /// Runs `body` as an optimistic read-modify-write transaction: it reads
    /// through (and writes into) a [`Txn`] pinned at the current epoch, and
    /// the commit succeeds only if no shard it read or wrote was
    /// republished in between. On conflict the body is re-run against a
    /// fresh pin, up to the configured attempt budget.
    ///
    /// Attempts run concurrently with each other until half the budget
    /// has conflicted; the remaining attempts each run alone, with every
    /// other transaction held off from pin to commit, so a slow body
    /// cannot be starved by a stream of fast ones. Staged writes and direct
    /// store writes are never held off, and no shard lock is held while
    /// the body runs. A body must not call `transact` on the same engine:
    /// the nested call would wait for the gate its caller holds.
    ///
    /// The commit bypasses the admission lanes (it must validate-and-apply
    /// atomically), so transactional writers can contend with appliers on
    /// the per-shard write locks — the intended trade: staged traffic for
    /// throughput, transactions for coherence.
    pub fn transact<R>(
        &self,
        mut body: impl FnMut(&mut Txn<S>) -> R,
    ) -> Result<TxnOutcome<R>, TxnError> {
        let mut last = None;
        for attempt in 1..=self.txn_attempts {
            // The gate guards no data, so a body that panicked while
            // holding it leaves nothing to recover but the lock itself.
            let alone = attempt > self.txn_attempts.div_ceil(2);
            let _shared =
                (!alone).then(|| self.txn_gate.read().unwrap_or_else(PoisonError::into_inner));
            let _alone = alone.then(|| {
                self.txn_gate
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
            });
            let mut txn = Txn::pinned(self.store.pin());
            let value = body(&mut txn);
            let (snap, reads, writes) = txn.into_parts();
            match self.store.apply_validated(&snap, &reads, writes) {
                Ok(delta) => {
                    self.stats.txn_commits.fetch_add(1, Ordering::Relaxed);
                    return Ok(TxnOutcome {
                        value,
                        delta,
                        attempts: attempt,
                    });
                }
                Err(conflict) => {
                    self.stats.txn_conflicts.fetch_add(1, Ordering::Relaxed);
                    last = Some(conflict);
                }
            }
        }
        Err(TxnError::Exhausted {
            attempts: self.txn_attempts,
            last: last.expect("at least one attempt ran"),
        })
    }
}

/// Flattens per-shard groups back into one edit vector (shard order,
/// document order within each shard) for the `Overloaded` payload.
fn flatten<E>(groups: Vec<(usize, Vec<E>)>) -> Vec<E> {
    groups.into_iter().flat_map(|(_, g)| g).collect()
}

impl<S: Serve> Drop for Engine<S> {
    fn drop(&mut self) {
        self.reads.stop.store(true, Ordering::Release);
        {
            // Hold the lock while notifying so no worker misses the wake.
            let _guard = lock_recover(&self.reads.jobs);
            self.reads.ready.notify_all();
            self.reads.space.notify_all();
        }
        self.lanes.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs `work` until it returns cleanly, respawning it (in place, on the
/// same thread) every time it panics outside a job guard.
fn supervise(stats: &StatsCore, work: impl Fn()) {
    loop {
        // The workers share no unwind-unsafe state: every structure they
        // touch is lock-protected and poison-recovering (see the module
        // doc), so re-entering after a panic observes only whole values.
        if catch_unwind(AssertUnwindSafe(&work)).is_ok() {
            return;
        }
        stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }
}

fn answer_batch<S: Serve>(snap: &S::Snapshot, ops: &[S::Read]) -> BatchReply<S::Reply> {
    BatchReply {
        epoch: S::epoch_of(snap),
        replies: ops.iter().map(|op| S::answer(snap, op)).collect(),
    }
}

fn read_worker<S: Serve>(queue: &ReadQueue<S>, stats: &StatsCore) {
    loop {
        let job = {
            let mut jobs = lock_recover(&queue.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    queue.space.notify_one();
                    break job;
                }
                if queue.stop.load(Ordering::Acquire) {
                    return;
                }
                jobs = wait_recover(&queue.ready, jobs);
            }
        };
        // The job guard: a panic while answering faults this batch only.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fault_point(site::READ_WORKER);
            answer_batch::<S>(&job.snap, &job.ops)
        }));
        let outcome = match outcome {
            Ok(reply) => {
                stats.read_batches.fetch_add(1, Ordering::Relaxed);
                stats
                    .read_ops
                    .fetch_add(job.ops.len() as u64, Ordering::Relaxed);
                Ok(reply)
            }
            Err(_) => {
                stats.read_faults.fetch_add(1, Ordering::Relaxed);
                Err(ReadError::Faulted)
            }
        };
        *lock_recover(&job.state.slot) = Some(outcome);
        job.state.done.notify_all();
    }
}

fn applier<S: Serve>(store: &S, lanes: &Lanes<S::Edit>, shard: usize, stats: &StatsCore) {
    while let Some((edits, tickets)) = lanes.drain(shard) {
        // The job guard: a panic inside apply faults exactly the tickets
        // of this drain; the publication cell recovers from the poison and
        // the next drain applies normally.
        let ok = catch_unwind(AssertUnwindSafe(|| {
            fault_point(site::APPLIER_APPLY);
            store.apply(edits);
        }))
        .is_ok();
        let epoch = store.current_epoch();
        if ok {
            stats.applier_commits.fetch_add(1, Ordering::Relaxed);
        } else {
            stats
                .write_faults
                .fetch_add(tickets.len() as u64, Ordering::Relaxed);
        }
        for ticket in tickets {
            ticket.complete_one(epoch, ok);
        }
    }
}

//! The three workloads, the inputs each one generates from its seed, and
//! the `BTreeSet` oracle that every reply is checked against.

use std::collections::BTreeSet;

use axiom::AxiomMultiMap;
use serving::{MultiMapRead, MultiMapReply};
use sharded::ShardedMultiMap;
use trie_common::ops::MultiMapEdit;
use workloads::concurrent::{serving_workload, KeyMix, ReadProbe, ServingProfile};

/// The store under test: the sharded layer over the paper's AXIOM tries.
pub type Store = ShardedMultiMap<u32, u32, AxiomMultiMap<u32, u32>>;
/// One read probe in the serving vocabulary.
pub type Read = MultiMapRead<u32, u32>;
/// One reply to a [`Read`].
pub type Reply = MultiMapReply<u32, u32>;
/// One write edit.
pub type Edit = MultiMapEdit<u32, u32>;

/// Keys of the wire workloads' store: 100,050 tuples, small enough that
/// the Zipf-hot part stays in cache.
pub const WIRE_KEYS: usize = 66_700;
/// Keys of `embedded-cold`'s store: 1,000,500 tuples, about 100 MB, far
/// past the 4 MiB L2 so nearly every node visit misses it.
pub const COLD_KEYS: usize = 667_000;
/// Edits per write batch.
pub const WRITE_BATCH: usize = 32;
/// `mixed-wire`'s open-loop writer rate, in batches per second (also the
/// rate of `wire-read-hot`'s write-only phase).
pub const WRITE_RATE: u64 = 500;
/// `embedded-cold` applies one write batch after this many read batches.
pub const COLD_READS_PER_WRITE: usize = 8;
/// Write batches generated per second of a run: more than any workload
/// acknowledges on a 2-CPU machine, so a run seldom wraps around its write
/// timeline (it replays it from the start if it does).
const WRITE_BATCHES_PER_SECOND: usize = 2500;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf reads of 8 probes over one connection, one in flight.
    WireReadHot,
    /// Uniform 64-probe reads and 32-edit applies on a 1M-tuple store,
    /// in process, no engine and no wire.
    EmbeddedCold,
    /// `WireReadHot`'s reader beside an open-loop writer connection.
    MixedWire,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::WireReadHot,
        Workload::EmbeddedCold,
        Workload::MixedWire,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireReadHot => "wire-read-hot",
            Workload::EmbeddedCold => "embedded-cold",
            Workload::MixedWire => "mixed-wire",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the workload reaches the store through the wire server.
    pub fn wired(self) -> bool {
        self != Workload::EmbeddedCold
    }

    /// The generator's shape for a run of `seconds`. Runs replay the read
    /// timeline cyclically.
    pub fn profile(self, seconds: u64) -> ServingProfile {
        let write_batches = WRITE_BATCHES_PER_SECOND * seconds as usize;
        match self {
            Workload::WireReadHot | Workload::MixedWire => ServingProfile {
                keys: WIRE_KEYS,
                read_batches: 4096,
                reads_per_batch: 8,
                write_batches,
                writes_per_batch: WRITE_BATCH,
                mix: KeyMix::Zipf { exponent: 1.0 },
                fanout_every: 16,
                fanout_width: 8,
            },
            Workload::EmbeddedCold => ServingProfile {
                keys: COLD_KEYS,
                read_batches: 8192,
                reads_per_batch: 64,
                write_batches,
                writes_per_batch: WRITE_BATCH,
                mix: KeyMix::Uniform,
                fanout_every: 0,
                fanout_width: 0,
            },
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The tuples the store is built from.
    pub base: Vec<(u32, u32)>,
    /// Read requests, each one batch of probes.
    pub requests: Vec<Vec<Read>>,
    /// Write batches, in timeline order.
    pub writes: Vec<Vec<Edit>>,
}

impl Inputs {
    /// Generates the inputs of `workload` for a run of `seconds` from
    /// `seed`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let w = serving_workload(&workload.profile(seconds), seed);
        Inputs {
            base: w.base,
            requests: w
                .read_batches
                .iter()
                .map(|batch| batch.iter().map(to_read).collect())
                .collect(),
            writes: w.write_batches,
        }
    }
}

fn to_read(probe: &ReadProbe) -> Read {
    match probe {
        ReadProbe::ValuesOf(k) => MultiMapRead::ValuesOf(*k),
        ReadProbe::ContainsKey(k) => MultiMapRead::ContainsKey(*k),
        ReadProbe::FanOut(ks) => MultiMapRead::FanOut(ks.clone()),
    }
}

/// The keys a probe looks up.
pub fn probe_keys(op: &Read) -> &[u32] {
    match op {
        MultiMapRead::ValuesOf(k) | MultiMapRead::ContainsKey(k) => std::slice::from_ref(k),
        MultiMapRead::FanOut(ks) => ks,
        other => panic!("the workloads generate no {other:?} probes"),
    }
}

/// Sorts the value lists of a reply, whose order is the trie's hash order,
/// so it compares equal to the oracle's.
pub fn normalize(mut reply: Reply) -> Reply {
    match &mut reply {
        MultiMapReply::Values(vs) => vs.sort_unstable(),
        MultiMapReply::FanOut(per_key) => per_key.iter_mut().for_each(|(_, vs)| vs.sort_unstable()),
        _ => {}
    }
    reply
}

/// A reference model of the relation: an ordered set of tuples.
pub struct Oracle {
    tuples: BTreeSet<(u32, u32)>,
}

impl Oracle {
    /// The relation holding `base`.
    pub fn new(base: &[(u32, u32)]) -> Oracle {
        Oracle {
            tuples: base.iter().copied().collect(),
        }
    }

    fn values_of(&self, k: u32) -> Vec<u32> {
        self.tuples
            .range((k, 0)..=(k, u32::MAX))
            .map(|&(_, v)| v)
            .collect()
    }

    /// Applies one edit.
    pub fn apply(&mut self, edit: &Edit) {
        match *edit {
            MultiMapEdit::Insert(k, v) => {
                self.tuples.insert((k, v));
            }
            MultiMapEdit::RemoveTuple(k, v) => {
                self.tuples.remove(&(k, v));
            }
            MultiMapEdit::RemoveKey(k) => {
                for v in self.values_of(k) {
                    self.tuples.remove(&(k, v));
                }
            }
        }
    }

    /// The reply the store must give to `op`, normalized.
    pub fn answer(&self, op: &Read) -> Reply {
        match op {
            MultiMapRead::ValuesOf(k) => MultiMapReply::Values(self.values_of(*k)),
            MultiMapRead::ContainsKey(k) => {
                MultiMapReply::Bool(self.tuples.range((*k, 0)..=(*k, u32::MAX)).next().is_some())
            }
            MultiMapRead::FanOut(ks) => {
                MultiMapReply::FanOut(ks.iter().map(|&k| (k, self.values_of(k))).collect())
            }
            other => panic!("the workloads generate no {other:?} probes"),
        }
    }

    /// Checks that `store` holds exactly this relation.
    pub fn matches_store(&self, store: &Store) -> Result<(), String> {
        let snap = store.snapshot();
        let mut got: Vec<(u32, u32)> = snap.tuples().map(|(&k, &v)| (k, v)).collect();
        got.sort_unstable();
        if got.len() != self.tuples.len() {
            return Err(format!(
                "store holds {} tuples, the oracle {}",
                got.len(),
                self.tuples.len()
            ));
        }
        match got.iter().zip(&self.tuples).find(|(g, o)| g != o) {
            Some((g, o)) => Err(format!("store holds {g:?} where the oracle holds {o:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_follows_edits() {
        let mut o = Oracle::new(&[(1, 10), (1, 11), (2, 20)]);
        assert_eq!(
            o.answer(&MultiMapRead::ValuesOf(1)),
            MultiMapReply::Values(vec![10, 11])
        );
        o.apply(&MultiMapEdit::RemoveKey(1));
        o.apply(&MultiMapEdit::Insert(3, 30));
        o.apply(&MultiMapEdit::RemoveTuple(2, 20));
        o.apply(&MultiMapEdit::RemoveTuple(2, 99));
        assert_eq!(
            o.answer(&MultiMapRead::ContainsKey(1)),
            MultiMapReply::Bool(false)
        );
        assert_eq!(
            o.answer(&MultiMapRead::FanOut(vec![3, 2])),
            MultiMapReply::FanOut(vec![(3, vec![30]), (2, vec![])])
        );
        let store = Store::build_parallel(2, [(3, 30)]);
        assert_eq!(o.matches_store(&store), Ok(()));
        store.insert(4, 40);
        assert!(o.matches_store(&store).is_err());
    }

    #[test]
    fn inputs_are_seeded_and_shaped() {
        let a = Inputs::generate(Workload::MixedWire, 3, 1);
        let b = Inputs::generate(Workload::MixedWire, 3, 1);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.base.len(), WIRE_KEYS + WIRE_KEYS / 2);
        assert!(a.requests.iter().all(|r| r.len() == 8));
        assert!(a.writes.iter().all(|w| w.len() == WRITE_BATCH));
        assert_ne!(
            Inputs::generate(Workload::MixedWire, 4, 1).requests,
            a.requests
        );
    }
}

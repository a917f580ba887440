//! Machine-readable construction benchmark: persistent fold vs transient
//! bulk build, per implementation and size, emitted as JSON so the perf
//! trajectory of the transient editing paths is tracked across PRs
//! (`BENCH_construction.json` at the repository root).
//!
//! Knobs via environment (the `AXIOM_CONSTRUCTION` prefix of
//! [`paper_bench::report`]):
//!
//! * `AXIOM_CONSTRUCTION_PROFILE` — `quick` (CI smoke) or `thorough`
//!   (default; the numbers checked into the repository);
//! * `AXIOM_CONSTRUCTION_OUT` — output path (default
//!   `BENCH_construction.json`; `-` for stdout only);
//! * `AXIOM_CONSTRUCTION_GATE` — when set (any value), exit nonzero unless
//!   the AXIOM transient build is at least as fast as the persistent fold at
//!   the ≥100k-tuple data point (the regression gate CI runs);
//! * `AXIOM_CONSTRUCTION_MIN_SPEEDUP` — override the gate threshold
//!   (default 1.0; the acceptance target for this optimization is 1.5).

use axiom::{AxiomFusedMultiMap, AxiomMultiMap};
use champ::ChampMap;
use idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use paper_bench::report::{best_ns, Bench, Gate, Row};
use trie_common::ops::{MapOps, MultiMapOps, TransientOps};
use workloads::build::{map_persistent, map_transient, multimap_persistent, multimap_transient};
use workloads::data::{map_workload, multimap_workload};

const SEED: u64 = 11;

/// Best-of-`reps` wall time of one full build after one discarded warmup,
/// in ns per item.
fn build_ns_per_op(items: usize, reps: usize, mut build: impl FnMut() -> usize) -> f64 {
    build();
    best_ns(reps, || assert_eq!(build(), items, "build dropped items")) / items as f64
}

/// One `impl × size` data point.
fn row(name: &str, kind: &str, keys: usize, items: usize, persistent: f64, transient: f64) -> Row {
    Row::new()
        .str("impl", name)
        .str("kind", kind)
        .int("keys", keys)
        .int("items", items)
        .num("persistent_ns_per_op", persistent, 2)
        .num("transient_ns_per_op", transient, 2)
        .num("speedup", persistent / transient, 3)
}

fn bench_multimap<M>(name: &str, keys: usize, reps: usize) -> Row
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let w = multimap_workload(keys, SEED);
    let items = w.tuples.len();
    let persistent = build_ns_per_op(items, reps, || {
        multimap_persistent::<M>(&w.tuples).tuple_count()
    });
    let transient = build_ns_per_op(items, reps, || {
        multimap_transient::<M>(&w.tuples).tuple_count()
    });
    row(name, "multimap", keys, items, persistent, transient)
}

fn bench_map<M>(name: &str, keys: usize, reps: usize) -> Row
where
    M: MapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let w = map_workload(keys, SEED);
    let items = w.entries.len();
    let persistent = build_ns_per_op(items, reps, || map_persistent::<M>(&w.entries).len());
    let transient = build_ns_per_op(items, reps, || map_transient::<M>(&w.entries).len());
    row(name, "map", keys, items, persistent, transient)
}

fn main() {
    let bench = Bench::from_env("AXIOM_CONSTRUCTION");
    // 66.7k keys at the 50/50 1:1/1:2 shape ≈ 100k tuples (the acceptance
    // data point).
    let (sizes, reps) = if bench.quick() {
        (vec![1 << 10, 66_700], 3)
    } else {
        (vec![1 << 10, 1 << 14, 66_700], 5)
    };

    let mut rows = Vec::new();
    for &keys in &sizes {
        rows.push(bench_multimap::<AxiomMultiMap<u32, u32>>(
            "axiom", keys, reps,
        ));
        rows.push(bench_multimap::<AxiomFusedMultiMap<u32, u32>>(
            "axiom-fused",
            keys,
            reps,
        ));
        rows.push(bench_multimap::<ClojureMultiMap<u32, u32>>(
            "clojure", keys, reps,
        ));
        rows.push(bench_multimap::<ScalaMultiMap<u32, u32>>(
            "scala", keys, reps,
        ));
        rows.push(bench_multimap::<NestedChampMultiMap<u32, u32>>(
            "nested-champ",
            keys,
            reps,
        ));
        rows.push(bench_map::<ChampMap<u32, u32>>("champ-map", keys, reps));
    }

    let note = format!("full build wall time divided by item count, best of {reps} runs");
    bench.emit(
        &bench
            .header("axiom-construction-v1", Some(SEED))
            .str("ns_per_op", &note),
        &rows,
    );

    if bench.gate.is_some() {
        let min_speedup = bench.knob("MIN_SPEEDUP", 1.0);
        let gated: Vec<&Row> = rows
            .iter()
            .filter(|r| r.get_str("impl") == "axiom" && r.get_num("items") >= 100_000.0)
            .collect();
        assert!(
            !gated.is_empty(),
            "gate requested but no >=100k-tuple axiom data point was measured"
        );
        let mut gate = Gate::default();
        for row in gated {
            let speedup = row.get_num("speedup");
            gate.check(
                speedup >= min_speedup,
                format!(
                    "axiom transient build at {} tuples is x{speedup:.2} vs the persistent \
                     fold (required x{min_speedup:.2})",
                    row.get_num("items")
                ),
            );
        }
        gate.finish();
    }
}

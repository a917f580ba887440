//! Machine-readable query benchmark: lookup (hit and miss) and full
//! iteration medians for the AXIOM map against the CHAMP and HAMT
//! baselines, emitted as JSON so the *read path* is regression-gated across
//! PRs the same way `construction_json` gates the build path
//! (`BENCH_query.json` at the repository root).
//!
//! Knobs via environment (the `AXIOM_QUERY` prefix of
//! [`paper_bench::report`]):
//!
//! * `AXIOM_QUERY_PROFILE` — `quick` (CI smoke) or `thorough` (default; the
//!   numbers checked into the repository);
//! * `AXIOM_QUERY_OUT` — output path (default `BENCH_query.json`; `-` for
//!   stdout only);
//! * `AXIOM_QUERY_GATE` — path to a baseline JSON (CI passes the checked-in
//!   file): exit nonzero if any overlapping `(impl, op, keys)` data point is
//!   more than `AXIOM_QUERY_GATE_FACTOR` (default 3.0) slower than the
//!   baseline. The generous factor absorbs machine-to-machine variance
//!   while still catching order-of-magnitude read-path regressions;
//! * `AXIOM_QUERY_MAX_VS_CHAMP` — same-run relative sanity bound (default
//!   2.5): the AXIOM map's `lookup_hit` median must stay within this factor
//!   of CHAMP's at every size. Machine-independent, so it holds on any
//!   runner (the paper's fig. 6 deficit is ~×1.2).

use std::time::{Duration, Instant};

use axiom::AxiomMap;
use champ::ChampMap;
use hamt::{HamtMap, MemoHamtMap};
use paper_bench::report::{find, read_baseline, Bench, Gate, Row};
use trie_common::ops::{MapOps, TransientOps};
use workloads::data::map_workload;
use workloads::timing::{measure, BenchOptions, Stats};

const SEED: u64 = 11;

fn bench_map<M>(name: &str, keys: usize, opts: &BenchOptions, rows: &mut Vec<Row>)
where
    M: MapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    let w = map_workload(keys, SEED);
    let m: M = workloads::map_transient(&w.entries);
    assert_eq!(m.len(), keys, "build dropped entries");
    // One `impl × op × size` data point: median ns per operation.
    let mut push = |op: &str, stats: Stats, per: usize| {
        rows.push(
            Row::new()
                .str("impl", name)
                .str("op", op)
                .int("keys", keys)
                .num("median_ns", stats.median_ns / per as f64, 3)
                .num("mad_ns", stats.mad_ns / per as f64, 3),
        )
    };

    // Lookup bursts (8 probes per measured repetition, per §4.1).
    let hit = measure(opts, || {
        w.hit_keys.iter().filter(|k| m.get(k).is_some()).count()
    });
    assert!(hit.median_ns > 0.0);
    push("lookup_hit", hit, w.hit_keys.len());
    let miss = measure(opts, || {
        w.miss_keys.iter().filter(|k| m.get(k).is_some()).count()
    });
    push("lookup_miss", miss, w.miss_keys.len());

    // Full iteration: one trie walk per measured repetition, amortized to
    // ns per element. Iteration is long relative to a lookup burst, so drop
    // the inner repetitions.
    let iter_opts = BenchOptions {
        inner_reps: 1,
        ..*opts
    };
    push("iterate", measure(&iter_opts, || m.entries().count()), keys);
}

fn main() {
    let bench = Bench::from_env("AXIOM_QUERY");
    let (sizes, opts) = if bench.quick() {
        (vec![1 << 10, 1 << 14], BenchOptions::QUICK)
    } else {
        (vec![1 << 10, 1 << 14, 1 << 17], BenchOptions::THOROUGH)
    };

    let started = Instant::now();
    let mut rows = Vec::new();
    for &keys in &sizes {
        bench_map::<AxiomMap<u32, u32>>("axiom-map", keys, &opts, &mut rows);
        bench_map::<ChampMap<u32, u32>>("champ-map", keys, &opts, &mut rows);
        bench_map::<HamtMap<u32, u32>>("hamt-map", keys, &opts, &mut rows);
        bench_map::<MemoHamtMap<u32, u32>>("memo-hamt-map", keys, &opts, &mut rows);
    }
    let elapsed = started.elapsed();

    let note = "median ns per operation (lookups: per probe of an 8-probe burst; \
                iterate: per element)";
    bench.emit(
        &bench
            .header("axiom-query-v1", Some(SEED))
            .str("ns_per_op", note),
        &rows,
    );
    eprintln!("measured {} rows in {elapsed:.1?}", rows.len());

    // Same-run relative sanity: AXIOM lookup vs CHAMP lookup, per size.
    let mut gate = Gate::default();
    let max_vs_champ = bench.knob("MAX_VS_CHAMP", 2.5);
    for &keys in &sizes {
        let keys = keys.to_string();
        let median_of = |name: &str| {
            let matching = [("impl", name), ("op", "lookup_hit"), ("keys", &keys)];
            find(&rows, &matching).get_num("median_ns")
        };
        let ratio = median_of("axiom-map") / median_of("champ-map");
        gate.check(
            ratio <= max_vs_champ,
            format!(
                "axiom-map lookup_hit is x{ratio:.2} of champ-map at {keys} keys \
                 (allowed x{max_vs_champ:.2})"
            ),
        );
    }

    // Cross-run gate against a checked-in baseline, with a generous factor
    // for machine variance.
    if let Some(path) = &bench.gate {
        let baseline = read_baseline(path, &["impl", "op", "keys", "median_ns"]);
        gate.within_baseline(
            &rows,
            &baseline,
            "median_ns",
            bench.knob("GATE_FACTOR", 3.0),
        );
    }

    // Keep the binary honest about wall-clock cost in CI logs.
    if elapsed > Duration::from_secs(600) {
        eprintln!("warning: query bench took {elapsed:.0?}; consider trimming sizes");
    }
    gate.finish();
}

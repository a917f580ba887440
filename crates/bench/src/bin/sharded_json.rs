//! Machine-readable scaling benchmark for the sharded concurrent layer
//! (`BENCH_sharded.json` at the repository root): parallel bulk-build
//! scaling at 1/2/4/8 shards against the single-threaded transient build,
//! plus mixed read/write throughput on the published-snapshot path.
//!
//! Two parallelism numbers are reported per data point, because wall-clock
//! speedup is a property of the machine as much as of the code:
//!
//! * `speedup_wall` — measured wall time of `build_parallel` (scoped
//!   threads) against the single-threaded transient build. On an `N`-core
//!   machine this approaches the critical-path number below; on a 1-CPU
//!   container it hovers around ×1 (the threads serialize).
//! * `speedup_critical_path` — the partition pass plus the *slowest single
//!   shard build*, each measured in isolation, against the same baseline.
//!   This is the span of the parallel computation (its wall time with
//!   enough cores), so it is the machine-independent scaling statement; the
//!   `cpus` field records how much real parallelism backed `speedup_wall`.
//!
//! Knobs via environment (the `AXIOM_SHARDED` prefix of
//! [`paper_bench::report`]):
//!
//! * `AXIOM_SHARDED_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the numbers checked into the repository, topping out at ~1M tuples);
//! * `AXIOM_SHARDED_OUT` — output path (default `BENCH_sharded.json`; `-`
//!   for stdout only);
//! * `AXIOM_SHARDED_GATE` — when set, exit nonzero unless at the largest
//!   measured size with 8 shards: `speedup_critical_path ≥
//!   AXIOM_SHARDED_MIN_SPEEDUP` (default 3.0) and `speedup_wall ≥
//!   AXIOM_SHARDED_MIN_WALL` (default 0.7, i.e. sharding never costs more
//!   than ~1.4× wall even with no cores to exploit).

use axiom::AxiomMultiMap;
use paper_bench::report::{best_ns, closed_loop, cpus, find, Bench, Gate, Row};
use sharded::{partition_tuples, ShardedMultiMap};
use trie_common::ops::TransientOps;
use workloads::concurrent::concurrent_workload;
use workloads::data::multimap_workload;
use workloads::multimap_transient;

const SEED: u64 = 11;
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const READERS: usize = 2;

type Mm = AxiomMultiMap<u32, u32>;

fn bench_build(keys: usize, reps: usize, rows: &mut Vec<Row>) {
    let w = multimap_workload(keys, SEED);
    let items = w.tuples.len();
    eprintln!("build scaling at {keys} keys / {items} tuples");

    // One warmup + measured baseline: the single-threaded transient build.
    let _ = multimap_transient::<Mm>(&w.tuples).tuple_count();
    let single_ns = best_ns(reps, || multimap_transient::<Mm>(&w.tuples).tuple_count());

    for &shards in &SHARD_SWEEP {
        let partition_ns = best_ns(reps, || {
            partition_tuples(shards, w.tuples.iter().copied()).len()
        });
        // Per-shard builds timed in isolation: their max is the span of the
        // parallel phase, their sum the total work.
        let parts = partition_tuples(shards, w.tuples.iter().copied());
        let shard_ns: Vec<f64> = parts
            .iter()
            .map(|part| best_ns(reps, || Mm::built_from(part.iter().copied()).tuple_count()))
            .collect();
        let max_shard_ns = shard_ns.iter().cloned().fold(0.0, f64::max);
        let wall_ns = best_ns(reps, || {
            ShardedMultiMap::<u32, u32>::build_parallel(shards, w.tuples.iter().copied())
                .tuple_count()
        });
        let (wall, critical) = (
            single_ns / wall_ns,
            single_ns / (partition_ns + max_shard_ns),
        );
        eprintln!("  {shards} shard(s): wall x{wall:.2}, critical path x{critical:.2}");
        let per = |ns: f64| ns / items as f64;
        rows.push(
            Row::new()
                .str("kind", "build")
                .int("keys", keys)
                .int("items", items)
                .int("shards", shards)
                .num("single_transient_ns_per_item", per(single_ns), 2)
                .num("partition_ns_per_item", per(partition_ns), 2)
                .num("max_shard_ns_per_item", per(max_shard_ns), 2)
                .num("sum_shards_ns_per_item", per(shard_ns.iter().sum()), 2)
                .num("parallel_wall_ns_per_item", per(wall_ns), 2)
                .num("speedup_wall", wall, 3)
                .num("speedup_critical_path", critical, 3),
        );
    }
}

fn bench_mixed(keys: usize, min_secs: f64, rows: &mut Vec<Row>) {
    // Writer batches + read probes from the shared scenario generator.
    let w = concurrent_workload(keys, 64, 64, SEED);
    eprintln!("mixed read/write at {keys} keys ({READERS} readers + 1 writer)");
    for &shards in &SHARD_SWEEP {
        let mm: ShardedMultiMap<u32, u32> =
            ShardedMultiMap::build_parallel(shards, w.base.iter().copied());
        // Each reader re-snapshots between probe sweeps, like a server
        // refreshing its view between request waves; the writer replays
        // the batch script.
        let sweeps = vec![&w.read_keys; READERS];
        let reader = || {
            |keys: &Vec<u32>| {
                let snap = mm.snapshot();
                keys.iter().map(|key| snap.value_count(key)).sum::<usize>()
            }
        };
        let write_pass = || {
            let batches = w.batches.iter();
            batches
                .map(|b| {
                    mm.apply(b.iter().cloned());
                    b.len()
                })
                .sum()
        };
        let run = closed_loop(READERS, &sweeps, min_secs, reader, write_pass);
        let reads = run.per_sec(run.latencies.len() * w.read_keys.len());
        let edits = run.per_sec(run.edits);
        eprintln!("  {shards} shard(s): {reads:.0} reads/s, {edits:.0} edits/s");
        rows.push(
            Row::new()
                .str("kind", "mixed")
                .int("keys", keys)
                .int("shards", shards)
                .int("readers", READERS)
                .num("read_probes_per_sec", reads, 0)
                .num("write_edits_per_sec", edits, 0),
        );
    }
}

fn main() {
    let bench = Bench::from_env("AXIOM_SHARDED");
    // 66.7k / 667k keys at the 50/50 1:1/1:2 shape ≈ 100k / 1M tuples.
    let (sizes, mixed_keys, reps, mixed_secs) = if bench.quick() {
        (vec![66_700], 16_384, 2, 0.25)
    } else {
        (vec![66_700, 667_000], 66_700, 3, 1.0)
    };

    let mut rows = Vec::new();
    for &keys in &sizes {
        bench_build(keys, reps, &mut rows);
    }
    bench_mixed(mixed_keys, mixed_secs, &mut rows);

    let note = "speedup_critical_path = single-threaded transient build over (partition + \
                slowest shard build), the span of the parallel computation; speedup_wall is the \
                measured scoped-thread wall time on this machine's cpus";
    bench.emit(
        &bench
            .header("axiom-sharded-v1", Some(SEED))
            .str("note", note),
        &rows,
    );

    if bench.gate.is_some() {
        let min_critical = bench.knob("MIN_SPEEDUP", 3.0);
        let min_wall = bench.knob("MIN_WALL", 0.7);
        let largest = sizes.iter().max().expect("sizes nonempty").to_string();
        let row = find(
            &rows,
            &[("kind", "build"), ("keys", &largest), ("shards", "8")],
        );
        let items = row.get_num("items");
        let mut gate = Gate::default();
        let critical = row.get_num("speedup_critical_path");
        gate.check(
            critical >= min_critical,
            format!(
                "8-shard critical-path speedup x{critical:.2} at {items} tuples (required \
                 x{min_critical:.2})"
            ),
        );
        let wall = row.get_num("speedup_wall");
        gate.check(
            wall >= min_wall,
            format!(
                "8-shard wall speedup x{wall:.2} at {items} tuples on {} cpu(s) (required \
                 x{min_wall:.2})",
                cpus()
            ),
        );
        gate.finish();
    }
}

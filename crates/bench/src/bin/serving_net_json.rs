//! Machine-readable wire-protocol benchmark (`BENCH_net.json` at the
//! repository root): request latency and read throughput for the serving
//! stack measured *over loopback TCP* — framing, codec, session headers,
//! kernel round trip and all — rather than in-process like
//! `serving_json`.
//!
//! Each request is one framed read batch sent by a [`serving::Client`],
//! answered by [`serving::Server`] against one pinned epoch, and timed
//! end to end at the client (p50/p99 in µs). Client threads replay the
//! shared `serving_workload` request script (dealt across connections
//! by [`paper_bench::report::closed_loop`]) while one writer connection streams
//! edit batches, acking each visibility epoch before the next — i.e.
//! read tail latency under write pressure, through the full wire path.
//! The `rtt` row is the floor underneath those numbers: a single
//! connection ping-ponging one-op batches, which is what the protocol
//! plus loopback costs before any real answering work. The `pipeline`
//! rows send the same one-op requests through [`serving::Client::pipeline`] at
//! window depths 1/8/32 — the depth-1 row should track `rtt`, and the
//! deeper rows show how much of the per-request round trip pipelining
//! recovers. The `rtt` and pipeline runs interleave in five short
//! repetitions on one connection, and each reports the median rate over
//! them, so the pipelining gate compares medians from the same stretch of
//! machine time. Probe counts come back over the wire too, via the Stats
//! op.
//!
//! Knobs via environment (the `AXIOM_NET` prefix of
//! [`paper_bench::report`]):
//!
//! * `AXIOM_NET_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the numbers checked into the repository);
//! * `AXIOM_NET_OUT` — output path (default `BENCH_net.json`; `-` for
//!   stdout only);
//! * `AXIOM_NET_GATE` — when set, exit nonzero unless on the uniform
//!   mix: `p99_us ≤ AXIOM_NET_MAX_P99_US` (default 50000) and
//!   `read_probes_per_sec ≥ AXIOM_NET_MIN_PROBES` (default 5000), and
//!   pipelined depth-8 throughput is at least
//!   `AXIOM_NET_MIN_PIPELINE_SPEEDUP` (default 3.0) times the same
//!   run's `rtt` ping-pong rate (both medians over the repetitions).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use axiom::AxiomMultiMap;
use paper_bench::report::{closed_loop, find, median, percentile, Bench, Gate, Row};
use paper_bench::{read_requests, serving_profile};
use serving::{Engine, MultiMapClient, MultiMapRead, ScriptOp, Server};
use sharded::ShardedMultiMap;
use workloads::concurrent::{serving_workload, KeyMix};

const SEED: u64 = 13;
const SHARDS: usize = 8;
const CLIENTS: usize = 2;
const PROBES_PER_REQUEST: usize = 8;
/// Pipeline window depths measured against the ping-pong floor.
const DEPTHS: [usize; 3] = [1, 8, 32];
/// Interleaved repetitions of the floor and pipeline runs.
const REPS: usize = 5;

type Store = ShardedMultiMap<u32, u32, AxiomMultiMap<u32, u32>>;

fn spawn_server(base: &[(u32, u32)]) -> (Server, SocketAddr) {
    let store: Arc<Store> = Arc::new(ShardedMultiMap::build_parallel(
        SHARDS,
        base.iter().copied(),
    ));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn(engine, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

fn connect(addr: SocketAddr) -> MultiMapClient<u32, u32> {
    MultiMapClient::connect(addr).expect("connect")
}

/// Drives one traffic mix over loopback: `CLIENTS` connections replay
/// their share of the request script (timing each framed round trip)
/// while one writer connection streams edit batches, acking each
/// visibility epoch before the next, for at least `min_secs`.
fn bench_mix(name: &str, mix: KeyMix, keys: usize, min_secs: f64) -> Row {
    let w = serving_workload(&serving_profile(keys, mix), SEED);
    let (server, addr) = spawn_server(&w.base);
    let reader = || {
        let mut client = connect(addr);
        move |ops| client.read(ops).expect("read over the wire").replies.len()
    };
    let mut writer = connect(addr);
    let run = closed_loop(CLIENTS, &read_requests(&w), min_secs, reader, || {
        let batches = w.write_batches.iter();
        batches
            .map(|batch| {
                writer.write(batch.to_vec()).expect("write over the wire");
                batch.len()
            })
            .sum()
    });

    // Fetch the counters the way a remote operator would: over the wire.
    let mut auditor = connect(addr);
    let stats = auditor.stats().expect("stats over the wire");
    let final_epoch = auditor.last_epoch();
    server.shutdown();

    let requests = run.latencies.len();
    let probes = run.per_sec(stats.read_ops as usize);
    eprintln!(
        "  {:.0} reqs/s, {probes:.0} probes/s, {:.0} edits/s, p50 {:.0}µs p99 {:.0}µs \
         (epoch {final_epoch})",
        run.per_sec(requests),
        run.per_sec(run.edits),
        run.p_us(0.50),
        run.p_us(0.99)
    );
    Row::new()
        .str("kind", "mix")
        .str("mix", name)
        .int("keys", keys)
        .int("shards", SHARDS)
        .int("clients", CLIENTS)
        .int("probes_per_request", PROBES_PER_REQUEST)
        .int("requests", requests)
        .num("read_reqs_per_sec", run.per_sec(requests), 0)
        .num("read_probes_per_sec", probes, 0)
        .num("write_edits_per_sec", run.per_sec(run.edits), 0)
        .int("final_epoch", final_epoch as usize)
        .num("p50_us", run.p_us(0.50), 1)
        .num("p99_us", run.p_us(0.99), 1)
}

/// The protocol-plus-loopback floor and what pipelining recovers on top
/// of it, over one connection to a small store. The `rtt` run ping-pongs
/// one-op read batches — everything in the mix rows sits on top of this
/// round trip. The pipeline runs send the same one-op requests through
/// the pipelined client, `depth` frames in flight per window: depth 1
/// should track `rtt`, and deeper windows show the round trips the
/// pipeline recovers (depth-d total time ≈ one round trip + d service
/// times, not d round trips). Each run gets `secs` in total, split into
/// `REPS` short repetitions that interleave with the other runs'; each row
/// reports the median rate over its repetitions.
fn bench_floor(secs: f64) -> Vec<Row> {
    let base: Vec<(u32, u32)> = (0..1024u32).map(|i| (i % 128, i)).collect();
    let (server, addr) = spawn_server(&base);
    let mut client = connect(addr);

    // Slot 0 is the ping-pong floor, slot k the pipeline at DEPTHS[k - 1].
    let mut rates = vec![Vec::new(); 1 + DEPTHS.len()];
    let mut served = vec![0usize; 1 + DEPTHS.len()];
    let mut lat = Vec::new();
    let mut i = 0u32;
    for _ in 0..REPS {
        for (slot, depth) in [0].into_iter().chain(DEPTHS).enumerate() {
            client.set_pipeline_window(depth);
            let start = Instant::now();
            let mut n = 0;
            while start.elapsed().as_secs_f64() < secs / REPS as f64 {
                if depth == 0 {
                    let t = Instant::now();
                    let reply = client.read(vec![MultiMapRead::ContainsKey(i % 128)]);
                    lat.push(t.elapsed().as_nanos() as u64);
                    std::hint::black_box(reply.expect("ping").replies.len());
                    n += 1;
                } else {
                    let script: Vec<_> = (0..depth as u32)
                        .map(|j| ScriptOp::Read(vec![MultiMapRead::ContainsKey((i + j) % 128)]))
                        .collect();
                    let replies = client.pipeline(script).expect("pipelined reads");
                    std::hint::black_box(replies.len());
                    n += depth;
                }
                i = i.wrapping_add(depth.max(1) as u32);
            }
            rates[slot].push(n as f64 / start.elapsed().as_secs_f64());
            served[slot] += n;
        }
    }
    server.shutdown();

    let rates: Vec<f64> = rates.into_iter().map(median).collect();
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    eprintln!("rtt: {:.0} reqs/s, p50 {p50:.0}µs p99 {p99:.0}µs", rates[0]);
    let mut rows = vec![Row::new()
        .str("kind", "rtt")
        .int("requests", served[0])
        .num("reqs_per_sec", rates[0], 0)
        .num("p50_us", p50, 1)
        .num("p99_us", p99, 1)];
    for (k, depth) in DEPTHS.into_iter().enumerate() {
        eprintln!("pipeline depth {depth}: {:.0} reqs/s", rates[k + 1]);
        rows.push(
            Row::new()
                .str("kind", "pipeline")
                .int("depth", depth)
                .int("requests", served[k + 1])
                .num("reqs_per_sec", rates[k + 1], 0)
                .num("speedup_vs_rtt", rates[k + 1] / rates[0].max(1.0), 2),
        );
    }
    rows
}

fn main() {
    let bench = Bench::from_env("AXIOM_NET");
    let (keys, min_secs) = if bench.quick() {
        (16_384, 0.3)
    } else {
        (66_700, 1.0)
    };

    let mixes: [(&str, KeyMix); 2] = [
        ("uniform", KeyMix::Uniform),
        ("zipf", KeyMix::Zipf { exponent: 1.0 }),
    ];
    let mut rows = Vec::new();
    for (name, mix) in mixes {
        eprintln!("mix '{name}' at {keys} keys ({CLIENTS} client conns + 1 writer conn)");
        rows.push(bench_mix(name, mix, keys, min_secs));
    }
    rows.extend(bench_floor(min_secs.min(0.5)));

    let note = "latency is a full loopback round trip per framed request (client encode, \
                kernel, server decode, epoch-pinned answering, reply frame) under write \
                pressure from one writer connection; the rtt row is the single-connection \
                one-op floor underneath the mixes; the pipeline rows send the same one-op \
                requests with depth frames in flight per window, so speedup_vs_rtt is the \
                round-trip cost pipelining recovers on the same run; probes/s comes from the \
                server's own counters fetched over the wire via the Stats op";
    bench.emit(
        &bench.header("axiom-net-v1", Some(SEED)).str("note", note),
        &rows,
    );

    if bench.gate.is_some() {
        let max_p99 = bench.knob("MAX_P99_US", 50_000.0);
        let min_probes = bench.knob("MIN_PROBES", 5_000.0);
        let min_speedup = bench.knob("MIN_PIPELINE_SPEEDUP", 3.0);
        let uniform = find(&rows, &[("kind", "mix"), ("mix", "uniform")]);
        let (p99, probes) = (
            uniform.get_num("p99_us"),
            uniform.get_num("read_probes_per_sec"),
        );
        let mut gate = Gate::default();
        gate.check(
            p99 <= max_p99,
            format!("uniform-mix p99 {p99:.0}µs (limit {max_p99:.0}µs)"),
        );
        gate.check(
            probes >= min_probes,
            format!("uniform-mix {probes:.0} probes/s (required {min_probes:.0})"),
        );
        // Pipelining must actually pipeline: depth-8 throughput is gated
        // against the same run's ping-pong rate, so a server that silently
        // serializes its connections again fails CI.
        let depth8 = find(&rows, &[("kind", "pipeline"), ("depth", "8")]);
        let rtt = find(&rows, &[("kind", "rtt")]);
        let speedup = depth8.get_num("speedup_vs_rtt");
        gate.check(
            speedup >= min_speedup,
            format!(
                "depth-8 pipelining {:.0} reqs/s is {speedup:.2}x the rtt floor {:.0} reqs/s \
                 (required {min_speedup:.1}x)",
                depth8.get_num("reqs_per_sec"),
                rtt.get_num("reqs_per_sec")
            ),
        );
        gate.finish();
    }
}

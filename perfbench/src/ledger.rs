//! The per-layer ledger of a traced run: the workload's own generated
//! requests and write batches replayed through each layer's public
//! function, bottom up, with a span around every call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serving::proto::{append_frame, decode_value, encode_value, read_frame, DEFAULT_MAX_PAYLOAD};
use serving::{BatchReply, Frame, OpCode, Serve, Status};
use trie_common::ops::MultiMapMutOps;

use crate::drive::{Rig, Run, Window, Wire, REQUEST_TIMEOUT};
use crate::spec::{probe_keys, Edit, Read, Reply, Store};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metric;

/// Sub-microsecond calls are timed in groups of this many, so the clock
/// read does not dominate the span.
const PIN_GROUP: u32 = 64;
/// Most calls a phase makes, so fast layers do not crowd the span buffer.
const PHASE_CALLS: u64 = 10_000;

/// Replays calls to `call` on successive `items` for `secs` (or
/// [`PHASE_CALLS`] calls, whichever ends first), recording a
/// span (named `name`, under one phase span) around each call. `call`
/// returns when the layer call started and ended and how many units it
/// handled; what it does outside that interval is not timed.
fn phase<T>(
    tr: &mut Tracer,
    name: &'static str,
    secs: f64,
    items: &[T],
    cursor: &mut usize,
    mut call: impl FnMut(&T) -> (Instant, Instant, u32),
) {
    let start = Instant::now();
    let root = tr.record(name, (start, start), u32::MAX, 0, 0);
    let until = start + Duration::from_secs_f64(secs);
    let mut n = 0u64;
    while n < PHASE_CALLS && Instant::now() < until {
        let item = &items[*cursor % items.len()];
        *cursor += 1;
        let (t0, t1, units) = call(item);
        tr.record(name, (t0, t1), root, n, units);
        n += 1;
    }
    tr.close(root, Instant::now());
}

fn median_of(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let mut v = tr.per_unit(name, scale);
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// What the codec round trip gives back: the decoded request and reply,
/// and the two frames' sizes in bytes.
type Decoded = (Vec<Read>, Vec<Reply>, usize, usize);

/// Encodes, frames, reads back and decodes one request and its reply on
/// memory buffers: the work the client and the server do on either side
/// of the socket. (`ops` is a `Vec` because the codec serializes `Vec`s,
/// not slices.)
#[allow(clippy::ptr_arg)]
fn codec_round_trip(ops: &Vec<Read>, reply: &BatchReply<Reply>) -> Result<Decoded, String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let mut buf = Vec::new();
    let payload = encode_value(ops).map_err(|e| text(&e))?;
    append_frame(&mut buf, &Frame::request(OpCode::ReadReq, 0, payload));
    let request = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).map_err(|e| text(&e))?;
    let decoded_ops = decode_value(&request.payload).map_err(|e| text(&e))?;
    let sent = buf.len();
    buf.clear();
    let response = Frame {
        op: OpCode::ReadResp,
        status: Status::Ok,
        epoch: reply.epoch,
        payload: encode_value(&reply.replies).map_err(|e| text(&e))?,
    };
    append_frame(&mut buf, &response);
    let response = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).map_err(|e| text(&e))?;
    let decoded = decode_value(&response.payload).map_err(|e| text(&e))?;
    Ok((decoded_ops, decoded, sent, buf.len()))
}

/// Groups a batch by shard, as the sharded layer does before editing.
fn by_shard(store: &Store, batch: &[Edit]) -> Vec<(usize, Vec<Edit>)> {
    let mut groups: Vec<(usize, Vec<Edit>)> = Vec::new();
    for e in batch {
        let shard = store.shard_of(e.key());
        match groups.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, g)) => g.push(e.clone()),
            None => groups.push((shard, vec![e.clone()])),
        }
    }
    groups
}

/// Runs every ledger phase for `secs_each` seconds and returns the
/// per-layer metrics, with the process metrics of the traced window `b`
/// and its latency against the untraced window `a`.
pub fn measure(
    run: &mut Run,
    rig: &mut Rig,
    secs_each: f64,
    tr: &mut Tracer,
    (a, b): (&Window, &Window),
) -> Result<Vec<Metric>, String> {
    let Run {
        workload,
        inputs,
        oracle,
        cursor,
        tally,
    } = run;
    let store = Arc::clone(&rig.store);
    if rig.wire.is_none() {
        rig.wire = Some(Wire::serve(Arc::clone(&store), 1)?);
    }
    let wire = rig.wire.as_mut().expect("served above");
    let engine = Arc::clone(&wire.engine);
    let reqs = &inputs.requests;
    let writes = &inputs.writes;

    // Reads first, while the store stands still.
    phase(tr, "sharded.pin", secs_each, reqs, &mut cursor.read, |_| {
        let t0 = Instant::now();
        for _ in 0..PIN_GROUP {
            std::hint::black_box(store.snapshot());
        }
        (t0, Instant::now(), PIN_GROUP)
    });

    let snap = store.snapshot();
    phase(
        tr,
        "axiom.lookup",
        secs_each,
        reqs,
        &mut cursor.read,
        |ops| {
            let targets: Vec<(&axiom::AxiomMultiMap<u32, u32>, u32, bool)> = ops
                .iter()
                .flat_map(|op| {
                    let contains = matches!(op, serving::MultiMapRead::ContainsKey(_));
                    probe_keys(op)
                        .iter()
                        .map(move |&k| (k, contains))
                        .collect::<Vec<_>>()
                })
                .map(|(k, contains)| (snap.shard(snap.shard_of(&k)), k, contains))
                .collect();
            let t0 = Instant::now();
            for &(shard, k, contains) in &targets {
                if contains {
                    std::hint::black_box(shard.contains_key(&k));
                } else {
                    std::hint::black_box(shard.values_of(&k).fold(0u32, |acc, v| acc ^ v));
                }
            }
            (t0, Instant::now(), targets.len() as u32)
        },
    );
    drop(snap);

    phase(
        tr,
        "sharded.answer",
        secs_each,
        reqs,
        &mut cursor.read,
        |ops| {
            let snap = store.snapshot();
            let t0 = Instant::now();
            let replies: Vec<Reply> = ops.iter().map(|op| Store::answer(&snap, op)).collect();
            let t1 = Instant::now();
            for (op, reply) in ops.iter().zip(replies) {
                tally.check(oracle, op, reply, "sharded.answer");
            }
            (t0, t1, ops.len() as u32)
        },
    );

    phase(
        tr,
        "serving.engine.execute",
        secs_each,
        reqs,
        &mut cursor.read,
        |ops| {
            let t0 = Instant::now();
            let reply = engine.execute(ops);
            let t1 = Instant::now();
            for (op, r) in ops.iter().zip(reply.replies) {
                tally.check(oracle, op, r, "engine.execute");
            }
            (t0, t1, 1)
        },
    );

    phase(
        tr,
        "serving.engine.submit_wait",
        secs_each,
        reqs,
        &mut cursor.read,
        |ops| {
            let batch = ops.clone();
            let t0 = Instant::now();
            let outcome = engine.submit(batch).wait_timeout(REQUEST_TIMEOUT);
            let t1 = Instant::now();
            tally.attempted += 1;
            match outcome {
                Ok(reply) => {
                    for (op, r) in ops.iter().zip(reply.replies) {
                        tally.check(oracle, op, r, "engine.submit");
                    }
                }
                Err(e) => tally.fail(format!("engine.submit:{e}")),
            }
            (t0, t1, 1)
        },
    );

    let (mut request_bytes, mut reply_bytes, mut framed) = (0u64, 0u64, 0u64);
    phase(
        tr,
        "serving.proto.codec",
        secs_each,
        reqs,
        &mut cursor.read,
        |ops| {
            let reply = engine.execute(ops);
            let t0 = Instant::now();
            let outcome = codec_round_trip(ops, &reply);
            let t1 = Instant::now();
            match outcome {
                Ok((decoded_ops, decoded, sent, received)) => {
                    if &decoded_ops != ops || decoded != reply.replies {
                        tally.mismatch(format!("codec round trip changed {ops:?}"));
                    }
                    request_bytes += sent as u64;
                    reply_bytes += received as u64;
                    framed += 1;
                }
                Err(e) => tally.mismatch(format!("codec round trip of {ops:?} failed: {e}")),
            }
            (t0, t1, 1)
        },
    );

    phase(
        tr,
        "serving.net.round_trip",
        secs_each,
        reqs,
        &mut cursor.read,
        |ops| {
            let batch = ops.clone();
            let t0 = Instant::now();
            let outcome = wire.reader.read(batch);
            let t1 = Instant::now();
            tally.attempted += 1;
            match outcome {
                Ok(reply) => {
                    for (op, r) in ops.iter().zip(reply.replies) {
                        tally.check(oracle, op, r, "net.read");
                    }
                }
                Err(e) => tally.fail_client(&e),
            }
            (t0, t1, 1)
        },
    );

    // Then writes: on private clones first, then through the store.
    let snap = store.snapshot();
    phase(
        tr,
        "axiom.edit",
        secs_each,
        writes,
        &mut cursor.write,
        |batch| {
            let mut groups: Vec<(axiom::AxiomMultiMap<u32, u32>, Vec<Edit>)> =
                by_shard(&store, batch)
                    .into_iter()
                    .map(|(shard, edits)| (snap.shard(shard).clone(), edits))
                    .collect();
            let t0 = Instant::now();
            for (shard, edits) in &mut groups {
                for e in edits.drain(..) {
                    std::hint::black_box(shard.apply_mut(e));
                }
            }
            (t0, Instant::now(), batch.len() as u32)
        },
    );
    drop(snap);

    phase(
        tr,
        "sharded.apply",
        secs_each,
        writes,
        &mut cursor.write,
        |batch| {
            let edits = batch.clone();
            let t0 = Instant::now();
            store.apply(edits);
            let t1 = Instant::now();
            batch.iter().for_each(|e| oracle.apply(e));
            (t0, t1, 1)
        },
    );

    let before = engine.stats();
    phase(
        tr,
        "serving.admit.stage_wait",
        secs_each,
        writes,
        &mut cursor.write,
        |batch| {
            let edits = batch.clone();
            let t0 = Instant::now();
            let outcome = engine.stage(edits).wait_timeout(REQUEST_TIMEOUT);
            let t1 = Instant::now();
            tally.attempted += 1;
            match outcome {
                Ok(_) => batch.iter().for_each(|e| oracle.apply(e)),
                Err(e) => {
                    tally.fail(format!("engine.stage:{e}"));
                    tally.write_outcome_unknown = true;
                }
            }
            (t0, t1, 1)
        },
    );
    let after = engine.stats();

    // Coalescing is measured where writes went through the engine under
    // the workload's own traffic; `embedded-cold` has none there, so its
    // figure comes from the replayed `stage().wait()` calls.
    let (edits, commits) = match (workload.wired(), b.engine_writes) {
        (true, Some(w)) => w,
        _ => (
            after.write_edits - before.write_edits,
            after.applier_commits - before.applier_commits,
        ),
    };

    let submit_wait = median_of(tr, "serving.engine.submit_wait", 1e6);
    let codec = median_of(tr, "serving.proto.codec", 1e6);
    let round_trip = median_of(tr, "serving.net.round_trip", 1e6);
    let requests = b.requests.max(1) as f64;
    let client_cpu_us = b.sched.client_run_ns as f64 / 1e3 / requests;
    let overhead = if a.read_us.is_empty() || b.read_us.is_empty() {
        0.0
    } else {
        median(&mut b.read_us.clone()) / median(&mut a.read_us.clone())
    };
    let framed = framed.max(1) as f64;
    let metrics = [
        ("axiom.lookup_ns", median_of(tr, "axiom.lookup", 1e9), "ns"),
        ("axiom.edit_ns", median_of(tr, "axiom.edit", 1e9), "ns"),
        ("sharded.pin_ns", median_of(tr, "sharded.pin", 1e9), "ns"),
        (
            "sharded.answer_ns",
            median_of(tr, "sharded.answer", 1e9),
            "ns",
        ),
        (
            "sharded.apply_us",
            median_of(tr, "sharded.apply", 1e6),
            "us",
        ),
        (
            "serving.engine.execute_us",
            median_of(tr, "serving.engine.execute", 1e6),
            "us",
        ),
        ("serving.engine.submit_wait_us", submit_wait, "us"),
        (
            "serving.admit.stage_wait_us",
            median_of(tr, "serving.admit.stage_wait", 1e6),
            "us",
        ),
        (
            "serving.admit.edits_per_commit",
            edits as f64 / commits.max(1) as f64,
            "count",
        ),
        ("serving.proto.codec_us", codec, "us"),
        (
            "serving.proto.request_bytes",
            request_bytes as f64 / framed,
            "B",
        ),
        (
            "serving.proto.reply_bytes",
            reply_bytes as f64 / framed,
            "B",
        ),
        (
            "serving.net.wire_us",
            round_trip - submit_wait - codec,
            "us",
        ),
        (
            "process.cswitch_per_request",
            b.usage.voluntary_switches as f64 / requests,
            "count",
        ),
        ("process.client_cpu_us", client_cpu_us, "us"),
        (
            "process.server_cpu_us",
            b.usage.cpu_s * 1e6 / requests - client_cpu_us,
            "us",
        ),
        (
            "process.runqueue_wait_us",
            b.sched.wait_ns as f64 / 1e3 / requests,
            "us",
        ),
        ("trace.overhead_ratio", overhead, "ratio"),
    ];
    Ok(metrics
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect())
}

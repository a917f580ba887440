//! Setting up the system as shipped and driving one workload's traffic
//! at it for a measured window.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use serving::{
    BatchReply, ClientError, Engine, MultiMapClient, MultiMapRead, MultiMapReply, Serve, Server,
};

use crate::spec::{normalize, Edit, Inputs, Oracle, Read, Reply, Store, Workload};
use crate::spec::{COLD_READS_PER_WRITE, WRITE_RATE};
use crate::sys::{self, SchedDelta, Usage};
use crate::trace::Tracer;

/// A request slower than this counts as failed (timed out), though its
/// reply is still checked and its latency kept.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);

/// Share of a `wire-read-hot` window given to reads; writes get the rest.
const HOT_READ_SHARE: f64 = 0.75;

/// The wire client of the served store.
pub type Client = MultiMapClient<u32, u32>;

/// Failures and check results of one run. Failures are counted by kind
/// and the run goes on; a wrong answer makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests (read batches and write batches) attempted.
    pub attempted: u64,
    /// Failed, refused or timed-out requests, by kind.
    pub failures: BTreeMap<String, u64>,
    /// Wrong answers found by the checks.
    pub mismatches: u64,
    /// The first few wrong answers, described.
    pub examples: Vec<String>,
    /// True once a write failed: its outcome is unknown, so the store can
    /// no longer be compared with the oracle exactly.
    pub write_outcome_unknown: bool,
}

impl Tally {
    /// Counts a failure of `kind`.
    pub fn fail(&mut self, kind: impl Into<String>) {
        *self.failures.entry(kind.into()).or_default() += 1;
    }

    /// Counts a client error by its status or wire failure.
    pub fn fail_client(&mut self, e: &ClientError) {
        match e {
            ClientError::Remote(status) => self.fail(format!("status:{status}")),
            ClientError::Wire(w) => self.fail(format!("wire:{w}")),
        }
    }

    /// Failed requests in total.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Records a wrong answer.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// Folds in the tally of another thread.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for (kind, n) in other.failures {
            *self.failures.entry(kind).or_default() += n;
        }
        self.mismatches += other.mismatches;
        self.examples.extend(other.examples);
        self.examples.truncate(5);
        self.write_outcome_unknown |= other.write_outcome_unknown;
    }

    /// Checks `reply` to `op` against the oracle.
    pub fn check(&mut self, oracle: &Oracle, op: &Read, reply: Reply, at: &str) {
        let want = oracle.answer(op);
        let got = normalize(reply);
        if got != want {
            self.mismatch(format!("{at}: {op:?} answered {got:?}, expected {want:?}"));
        }
    }
}

/// The engine, the server and the client connections of a wired run.
pub struct Wire {
    /// The engine serving the store.
    pub engine: Arc<Engine<Store>>,
    /// The loopback server in front of the engine.
    pub server: Server,
    /// The reading connection (also `wire-read-hot`'s writer).
    pub reader: Client,
    /// `mixed-wire`'s second, writing connection.
    pub writer: Option<Client>,
}

impl Wire {
    /// Starts `Engine::new` and `Server::spawn` over `store` and opens
    /// `connections` (1 or 2) clients to it.
    pub fn serve(store: Arc<Store>, connections: usize) -> Result<Wire, String> {
        let engine = Arc::new(Engine::new(store));
        let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0")
            .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
        let addr = server.local_addr();
        let connect = |addr: SocketAddr| {
            Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
        };
        Ok(Wire {
            engine,
            reader: connect(addr)?,
            writer: if connections > 1 {
                Some(connect(addr)?)
            } else {
                None
            },
            server,
        })
    }

    /// Closes the connections, then drains and stops the server.
    pub fn shut_down(self) {
        drop(self.reader);
        drop(self.writer);
        self.server.shutdown();
    }
}

/// The system under test, as one run set it up.
pub struct Rig {
    /// The sharded store.
    pub store: Arc<Store>,
    /// Engine, server and connections; `None` for `embedded-cold`.
    pub wire: Option<Wire>,
}

impl Rig {
    /// Builds the store from `base` with the default shard count and, for
    /// a wired workload, serves it.
    pub fn set_up(workload: Workload, base: &[(u32, u32)]) -> Result<Rig, String> {
        let store = Arc::new(Store::build_parallel(
            sharded::default_shard_count(),
            base.iter().copied(),
        ));
        let wire = match workload {
            Workload::EmbeddedCold => None,
            Workload::WireReadHot => Some(Wire::serve(Arc::clone(&store), 1)?),
            Workload::MixedWire => Some(Wire::serve(Arc::clone(&store), 2)?),
        };
        Ok(Rig { store, wire })
    }

    /// Stops everything the rig started.
    pub fn shut_down(self) {
        if let Some(wire) = self.wire {
            wire.shut_down();
        }
    }
}

/// Sets the rig up `times` times and keeps the last one, with the
/// set-up time of each.
pub fn set_up_repeatedly(
    workload: Workload,
    base: &[(u32, u32)],
    times: usize,
) -> Result<(Rig, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    for _ in 1..times {
        let t = Instant::now();
        let rig = Rig::set_up(workload, base)?;
        secs.push(t.elapsed().as_secs_f64());
        rig.shut_down();
    }
    let t = Instant::now();
    let rig = Rig::set_up(workload, base)?;
    secs.push(t.elapsed().as_secs_f64());
    Ok((rig, secs))
}

/// Where the next read request and write batch come from: successive
/// windows continue along the generated timelines.
#[derive(Debug, Default)]
pub struct Cursor {
    /// Next read request (cycles over the requests).
    pub read: usize,
    /// Next write batch (cycles over the batches).
    pub write: usize,
    /// Epoch of the newest acknowledged write.
    pub last_ack: u64,
}

/// One run: its workload, its generated inputs, and what it has done so
/// far.
pub struct Run {
    /// The workload being run.
    pub workload: Workload,
    /// The inputs generated from the seed.
    pub inputs: Inputs,
    /// The relation the store must hold, replayed from acknowledged
    /// writes.
    pub oracle: Oracle,
    /// Position along the request and write timelines.
    pub cursor: Cursor,
    /// Attempts, failures and wrong answers.
    pub tally: Tally,
}

impl Run {
    /// Generates the inputs of `workload` for a run of `seconds` from
    /// `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Run {
        let inputs = Inputs::generate(workload, seed, seconds);
        Run {
            workload,
            oracle: Oracle::new(&inputs.base),
            inputs,
            cursor: Cursor::default(),
            tally: Tally::default(),
        }
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each completed read request, µs.
    pub read_us: Vec<f64>,
    /// Latency of each completed write batch, µs (from its due time when
    /// sent open loop).
    pub write_us: Vec<f64>,
    /// Read probes answered.
    pub probes: u64,
    /// Edits acknowledged.
    pub edits: u64,
    /// Seconds over which the reads ran.
    pub read_secs: f64,
    /// Seconds over which the writes ran.
    pub write_secs: f64,
    /// Requests completed (read and write batches).
    pub requests: u64,
    /// Process resource use over the window.
    pub usage: Usage,
    /// Scheduler counters over the window.
    pub sched: SchedDelta,
    /// Engine write edits and applier commits over the window, when the
    /// writes went through the engine.
    pub engine_writes: Option<(u64, u64)>,
    /// Latest an open-loop write was sent after its due time, µs.
    pub max_lateness_us: f64,
    /// Share of the host's CPU time stolen during the window.
    pub steal: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs the workload's traffic for `secs` seconds, checking every answer;
/// with a tracer, records a span per request.
pub fn run_window(run: &mut Run, rig: &mut Rig, secs: f64, tracer: Option<&mut Tracer>) -> Window {
    let engine_before = rig.wire.as_ref().map(|w| w.engine.stats());
    let ticks_before = sys::cpu_ticks();
    let mut window = match run.workload {
        Workload::EmbeddedCold => embedded(run, &rig.store, secs, tracer),
        Workload::WireReadHot => {
            let wire = rig.wire.as_mut().expect("wire-read-hot is served");
            read_then_write(run, wire, secs, tracer)
        }
        Workload::MixedWire => {
            let wire = rig.wire.as_mut().expect("mixed-wire is served");
            mixed(run, wire, secs, tracer)
        }
    };
    if let (Some(before), Some(after)) = (ticks_before, sys::cpu_ticks()) {
        window.steal = sys::steal_share(before, after);
    }
    if let (Some(before), Some(wire)) = (engine_before, rig.wire.as_ref()) {
        let after = wire.engine.stats();
        window.engine_writes = Some((
            after.write_edits - before.write_edits,
            after.applier_commits - before.applier_commits,
        ));
    }
    window
}

/// Replies of one connection's read requests, in order.
#[derive(Default)]
struct ReadLog {
    lat_us: Vec<f64>,
    answered: Vec<(usize, BatchReply<Reply>)>,
    probes: u64,
    secs: f64,
}

/// Closed loop on one connection: the next read goes out when the last
/// one is answered.
fn wire_reads(
    client: &mut Client,
    requests: &[Vec<Read>],
    cursor: &mut usize,
    until: Instant,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> ReadLog {
    let mut log = ReadLog::default();
    let start = Instant::now();
    while Instant::now() < until {
        let idx = *cursor % requests.len();
        *cursor += 1;
        let ops = requests[idx].clone();
        let n = ops.len() as u64;
        tally.attempted += 1;
        let t0 = Instant::now();
        let reply = client.read(ops);
        let t1 = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("client.read", (t0, t1), u32::MAX, *cursor as u64, 1);
        }
        match reply {
            Ok(batch) => {
                if t1 - t0 > REQUEST_TIMEOUT {
                    tally.fail("timeout");
                }
                log.lat_us.push(us(t1 - t0));
                log.probes += n;
                log.answered.push((idx, batch));
            }
            Err(e) => {
                tally.fail_client(&e);
                if matches!(e, ClientError::Wire(_)) {
                    break;
                }
            }
        }
    }
    log.secs = start.elapsed().as_secs_f64();
    log
}

/// Acknowledged write batches of one connection, in order.
#[derive(Default)]
struct WriteLog {
    lat_us: Vec<f64>,
    acked: Vec<usize>,
    edits: u64,
    secs: f64,
    max_lateness_us: f64,
}

/// Write batches on one connection, one in flight, until `until`.
/// Open loop (`open_from` is its start): batch `i` is due at
/// `start + i / WRITE_RATE` whether or not earlier ones were answered,
/// and is timed from its due time, so a stall also counts against the
/// batches queued behind it. Closed loop (`None`): the next batch goes
/// out when the last one is acknowledged.
fn wire_writes(
    client: &mut Client,
    writes: &[Vec<Edit>],
    cursor: &mut Cursor,
    open_from: Option<Instant>,
    until: Instant,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> WriteLog {
    if open_from.is_some() {
        sys::tighten_timer_slack();
    }
    let period = Duration::from_secs(1) / WRITE_RATE as u32;
    let start = open_from.unwrap_or_else(Instant::now);
    let mut log = WriteLog::default();
    for i in 0u32.. {
        let due = match open_from {
            Some(start) => start + period * i,
            None => Instant::now(),
        };
        if due >= until {
            break;
        }
        let idx = cursor.write % writes.len();
        cursor.write += 1;
        let edits = writes[idx].clone();
        let n = edits.len() as u64;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if open_from.is_some() {
            log.max_lateness_us = log.max_lateness_us.max(us(due.elapsed()));
        }
        tally.attempted += 1;
        let ack = client.write(edits);
        let done = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record(
                "client.write",
                (due, done),
                u32::MAX,
                cursor.write as u64,
                1,
            );
        }
        match ack {
            Ok(epoch) => {
                if done - due > REQUEST_TIMEOUT {
                    tally.fail("timeout");
                }
                if epoch <= cursor.last_ack {
                    tally.mismatch(format!(
                        "write ack epoch {epoch} does not follow the previous ack {}",
                        cursor.last_ack
                    ));
                }
                cursor.last_ack = cursor.last_ack.max(epoch);
                log.lat_us.push(us(done - due));
                log.edits += n;
                log.acked.push(idx);
            }
            Err(e) => {
                tally.fail_client(&e);
                tally.write_outcome_unknown = true;
                if matches!(e, ClientError::Wire(_)) {
                    break;
                }
            }
        }
    }
    log.secs = start.elapsed().as_secs_f64();
    log
}

/// Checks one connection's read replies: one reply per probe, of the
/// probe's kind and for its keys, under epochs that never go back; with
/// `oracle`, every reply must also equal the oracle's.
fn check_reads(requests: &[Vec<Read>], log: ReadLog, oracle: Option<&Oracle>, tally: &mut Tally) {
    let mut last_epoch = 0;
    for (idx, batch) in log.answered {
        let ops = &requests[idx];
        if batch.epoch < last_epoch {
            tally.mismatch(format!(
                "read epoch {} after epoch {last_epoch}",
                batch.epoch
            ));
        }
        last_epoch = batch.epoch;
        if batch.replies.len() != ops.len() {
            tally.mismatch(format!(
                "request {idx}: {} replies to {} probes",
                batch.replies.len(),
                ops.len()
            ));
            continue;
        }
        for (op, reply) in ops.iter().zip(batch.replies) {
            match oracle {
                Some(oracle) => tally.check(oracle, op, reply, "wire read"),
                None => {
                    let shaped = match (op, &reply) {
                        (MultiMapRead::ValuesOf(_), MultiMapReply::Values(_))
                        | (MultiMapRead::ContainsKey(_), MultiMapReply::Bool(_)) => true,
                        (MultiMapRead::FanOut(keys), MultiMapReply::FanOut(per_key)) => {
                            per_key.iter().map(|(k, _)| k).eq(keys.iter())
                        }
                        _ => false,
                    };
                    if !shaped {
                        tally.mismatch(format!("{op:?} answered {reply:?}"));
                    }
                }
            }
        }
    }
}

/// The window of a wired workload, from its connections' logs and the
/// counters read before and after.
fn wire_window(
    reads: &mut ReadLog,
    writes: &mut WriteLog,
    usage: Usage,
    sched: SchedDelta,
) -> Window {
    Window {
        requests: (reads.lat_us.len() + writes.lat_us.len()) as u64,
        read_us: std::mem::take(&mut reads.lat_us),
        write_us: std::mem::take(&mut writes.lat_us),
        probes: reads.probes,
        edits: writes.edits,
        read_secs: reads.secs,
        write_secs: writes.secs,
        max_lateness_us: writes.max_lateness_us,
        usage,
        sched,
        engine_writes: None,
        steal: 0.0,
    }
}

/// `wire-read-hot`: closed-loop reads alone on one connection for three
/// quarters of the window, then closed-loop writes alone on the same
/// connection. The write-only phase gives the write path's latency and
/// capacity with no reader beside it, the baseline `mixed-wire`'s writes
/// compare with.
fn read_then_write(
    run: &mut Run,
    wire: &mut Wire,
    secs: f64,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let Run {
        inputs,
        oracle,
        cursor,
        tally,
        ..
    } = run;
    let clients = [sys::thread_id().unwrap_or(0)];
    let (usage0, sched0) = (sys::usage(), sys::task_schedstats());
    let start = Instant::now();
    let switch = start + Duration::from_secs_f64(secs * HOT_READ_SHARE);
    let until = start + Duration::from_secs_f64(secs);
    let mut reads = wire_reads(
        &mut wire.reader,
        &inputs.requests,
        &mut cursor.read,
        switch,
        tally,
        tracer.as_deref_mut(),
    );
    let mut writes = wire_writes(
        &mut wire.reader,
        &inputs.writes,
        cursor,
        None,
        until,
        tally,
        tracer,
    );
    let (usage1, sched1) = (sys::usage(), sys::task_schedstats());
    let window = wire_window(
        &mut reads,
        &mut writes,
        usage1 - usage0,
        sys::sched_delta(&sched0, &sched1, &clients),
    );
    // The reads ran before any write of this window, so they must match
    // the oracle as it stood; then the acked writes move it on.
    check_reads(&inputs.requests, reads, Some(oracle), tally);
    for &idx in &writes.acked {
        inputs.writes[idx].iter().for_each(|e| oracle.apply(e));
    }
    window
}

/// `mixed-wire`: the closed-loop reader on one connection and thread,
/// the open-loop writer on another, both for the whole window.
fn mixed(run: &mut Run, wire: &mut Wire, secs: f64, mut tracer: Option<&mut Tracer>) -> Window {
    let Run {
        inputs,
        oracle,
        cursor,
        tally,
        ..
    } = run;
    let inputs: &Inputs = inputs;
    let Wire { reader, writer, .. } = wire;
    let writer = writer.as_mut().expect("mixed-wire has a writer connection");
    let origin = tracer.as_ref().map(|t| t.origin());
    // The main thread reads the counters while both client threads are
    // alive: after the reader is spawned and before it exits. The gate
    // holds each side at those two points.
    let gate = Barrier::new(2);
    let mut read_cursor = cursor.read;
    let (
        mut reads,
        read_tally,
        reader_tid,
        reader_spans,
        mut writes,
        (usage0, sched0),
        (usage1, sched1),
    ) = std::thread::scope(|s| {
        let gate = &gate;
        let read_cursor = &mut read_cursor;
        let handle = s.spawn(move || {
            let mut local = Tally::default();
            let mut spans = origin.map(Tracer::new);
            gate.wait();
            gate.wait();
            let until = Instant::now() + Duration::from_secs_f64(secs);
            let log = wire_reads(
                reader,
                &inputs.requests,
                read_cursor,
                until,
                &mut local,
                spans.as_mut(),
            );
            gate.wait();
            gate.wait();
            (log, local, sys::thread_id().unwrap_or(0), spans)
        });
        gate.wait();
        let before = (sys::usage(), sys::task_schedstats());
        gate.wait();
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(secs);
        let writes = wire_writes(
            writer,
            &inputs.writes,
            cursor,
            Some(start),
            until,
            tally,
            tracer.as_deref_mut(),
        );
        gate.wait();
        let after = (sys::usage(), sys::task_schedstats());
        gate.wait();
        let (reads, local, tid, spans) = handle.join().expect("the reader thread does not panic");
        (reads, local, tid, spans, writes, before, after)
    });
    cursor.read = read_cursor;
    tally.absorb(read_tally);
    if let (Some(tr), Some(spans)) = (tracer, reader_spans) {
        tr.absorb(spans);
    }
    let clients = [sys::thread_id().unwrap_or(0), reader_tid];
    let window = wire_window(
        &mut reads,
        &mut writes,
        usage1 - usage0,
        sys::sched_delta(&sched0, &sched1, &clients),
    );
    check_reads(&inputs.requests, reads, None, tally);
    for &idx in &writes.acked {
        inputs.writes[idx].iter().for_each(|e| oracle.apply(e));
    }
    window
}

/// `embedded-cold`: rounds of eight 64-probe read batches, each on a
/// fresh snapshot, then one 32-edit apply, all on the calling thread.
/// Each round is checked against the oracle outside the timed sections,
/// and the window counts only timed time.
fn embedded(run: &mut Run, store: &Store, secs: f64, mut tracer: Option<&mut Tracer>) -> Window {
    let Run {
        inputs,
        oracle,
        cursor,
        tally,
        ..
    } = run;
    let mut window = Window::default();
    let mut timed = Duration::ZERO;
    let budget = Duration::from_secs_f64(secs);
    let mut round: Vec<(usize, Vec<Reply>)> = Vec::with_capacity(COLD_READS_PER_WRITE);
    while timed < budget {
        let (usage0, sched0) = (sys::usage(), sys::thread_schedstat());
        for _ in 0..COLD_READS_PER_WRITE {
            let idx = cursor.read % inputs.requests.len();
            cursor.read += 1;
            let ops = &inputs.requests[idx];
            let t0 = Instant::now();
            let snap = store.snapshot();
            let replies: Vec<Reply> = ops.iter().map(|op| Store::answer(&snap, op)).collect();
            drop(snap);
            let t1 = Instant::now();
            timed += t1 - t0;
            window.read_us.push(us(t1 - t0));
            window.probes += ops.len() as u64;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("embedded.read", (t0, t1), u32::MAX, cursor.read as u64, 1);
            }
            round.push((idx, replies));
        }
        let idx = cursor.write % inputs.writes.len();
        cursor.write += 1;
        let edits = inputs.writes[idx].clone();
        let t0 = Instant::now();
        store.apply(edits);
        let t1 = Instant::now();
        let (usage1, sched1) = (sys::usage(), sys::thread_schedstat());
        window.usage = window.usage + (usage1 - usage0);
        // The only thread at work is this one, so its own counters over
        // the timed rounds are the process's.
        window.sched.client_run_ns += sched1.run_ns.saturating_sub(sched0.run_ns);
        window.sched.wait_ns += sched1.wait_ns.saturating_sub(sched0.wait_ns);
        timed += t1 - t0;
        window.write_us.push(us(t1 - t0));
        window.edits += inputs.writes[idx].len() as u64;
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("embedded.apply", (t0, t1), u32::MAX, cursor.write as u64, 1);
        }
        for (req, replies) in round.drain(..) {
            for (op, reply) in inputs.requests[req].iter().zip(replies) {
                tally.check(oracle, op, reply, "embedded read");
            }
        }
        inputs.writes[idx].iter().for_each(|e| oracle.apply(e));
    }
    window.requests = (window.read_us.len() + window.write_us.len()) as u64;
    tally.attempted += window.requests;
    window.read_secs = timed.as_secs_f64();
    window.write_secs = timed.as_secs_f64();
    window
}

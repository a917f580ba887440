//! End-to-end wire protocol suite: typed clients against a loopback
//! [`Server`], checked against a `BTreeMap` oracle.
//!
//! Covers the session contract (a write ack's visibility epoch makes the
//! write readable from *any* connection resumed at that epoch), concurrent
//! clients, all three store vocabularies, the remote `Stats` op, the
//! engine failure statuses crossing the wire as their stable codes,
//! graceful shutdown finishing in-flight requests, replies answered in
//! place never overtaking a pending write ack, and the server's buffered
//! intake taking coalesced and dribbled request bytes alike.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use axiom_repro::serving::proto::{
    append_frame, decode_value, encode_value, read_frame, DEFAULT_MAX_PAYLOAD,
};
use axiom_repro::serving::session::{MapClient, MultiMapClient, SetClient};
use axiom_repro::serving::{
    ClientError, Engine, EngineConfig, Frame, MapRead, MapReply, MultiMapRead, MultiMapReply,
    OpCode, Serve, Server, ServerConfig, SetRead, SetReply, Status,
};
use axiom_repro::sharded::{EpochConflict, ShardedMap, ShardedMultiMap, ShardedSet};
use axiom_repro::trie_common::ops::{MapEdit, MultiMapEdit, SetEdit};

fn spawn_map_server(shards: usize) -> (Arc<Engine<ShardedMap<u32, u32>>>, Server, SocketAddr) {
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(shards));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    (engine, server, addr)
}

#[test]
fn map_roundtrip_matches_oracle() {
    let (_engine, server, addr) = spawn_map_server(4);
    let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();

    // Three write batches, mirrored into the oracle; the session floor
    // ratchets with each ack.
    for round in 0..3u32 {
        let batch: Vec<MapEdit<u32, u32>> = (0..100u32)
            .map(|i| {
                let k = round * 60 + i;
                if i % 10 == 9 {
                    MapEdit::Remove(k / 2)
                } else {
                    MapEdit::Insert(k, k * 7 + round)
                }
            })
            .collect();
        for edit in &batch {
            match edit {
                MapEdit::Insert(k, v) => {
                    oracle.insert(*k, *v);
                }
                MapEdit::Remove(k) => {
                    oracle.remove(k);
                }
            }
        }
        let epoch = client.write(batch).expect("write acks");
        assert!(epoch >= 1);
        assert_eq!(client.last_epoch(), epoch);
    }

    // Every oracle key (plus some misses) answered exactly, through the
    // session floor, over one reused connection.
    let keys: Vec<u32> = oracle.keys().copied().chain(5000..5010).collect();
    let reply = client
        .read(keys.iter().map(|k| MapRead::Get(*k)).collect())
        .expect("read answers");
    assert_eq!(reply.replies.len(), keys.len());
    for (k, r) in keys.iter().zip(&reply.replies) {
        assert_eq!(r, &MapReply::Value(oracle.get(k).copied()), "key {k}");
    }
    let reply = client.read(vec![MapRead::Len]).expect("len answers");
    assert_eq!(reply.replies[0], MapReply::Count(oracle.len()));
    server.shutdown();
}

#[test]
fn session_epoch_gives_read_your_writes_across_connections() {
    let (_engine, server, addr) = spawn_map_server(4);
    let mut writer: MapClient<u32, u32> = MapClient::connect(addr).expect("connect writer");
    let epoch = writer
        .write((0..50u32).map(|i| MapEdit::Insert(i, i + 1000)).collect())
        .expect("write acks");

    // A *second* connection, seeded only with the ack's epoch, must see
    // exactly the acked writes — the session epoch is plain data.
    let mut reader: MapClient<u32, u32> = MapClient::connect(addr).expect("connect reader");
    reader.resume_at(epoch);
    let reply = reader
        .read(vec![MapRead::Get(7), MapRead::Len])
        .expect("pinned read answers");
    assert!(reply.epoch >= epoch, "answered at or after the floor");
    assert_eq!(reply.replies[0], MapReply::Value(Some(1007)));
    assert_eq!(reply.replies[1], MapReply::Count(50));

    // An explicit floor works too (the session floor is just its default).
    let reply = reader
        .read_at(epoch, vec![MapRead::Contains(49)])
        .expect("explicit floor answers");
    assert_eq!(reply.replies[0], MapReply::Bool(true));
    server.shutdown();
}

#[test]
fn concurrent_clients_converge_on_the_oracle() {
    let (_engine, server, addr) = spawn_map_server(8);
    const CLIENTS: usize = 4;
    const KEYS_EACH: u32 = 200;

    std::thread::scope(|s| {
        for c in 0..CLIENTS as u32 {
            s.spawn(move || {
                let mut client: MapClient<u32, u32> =
                    MapClient::connect(addr).expect("connect worker");
                // Each client owns a disjoint key range; interleave writes
                // with session reads that must observe its own acks.
                for chunk in 0..4 {
                    let lo = c * KEYS_EACH + chunk * (KEYS_EACH / 4);
                    let batch: Vec<MapEdit<u32, u32>> = (lo..lo + KEYS_EACH / 4)
                        .map(|k| MapEdit::Insert(k, k * 3))
                        .collect();
                    client.write(batch).expect("write acks");
                    let probe = lo + KEYS_EACH / 8;
                    let reply = client
                        .read(vec![MapRead::Get(probe)])
                        .expect("read answers");
                    assert_eq!(
                        reply.replies[0],
                        MapReply::Value(Some(probe * 3)),
                        "client {c} must read its own write"
                    );
                }
            });
        }
    });

    // A fresh connection sees the union of everything acked.
    let mut auditor: MapClient<u32, u32> = MapClient::connect(addr).expect("connect auditor");
    let reply = auditor.read(vec![MapRead::Len]).expect("len answers");
    assert_eq!(
        reply.replies[0],
        MapReply::Count(CLIENTS * KEYS_EACH as usize)
    );
    let reply = auditor
        .read((0..CLIENTS as u32 * KEYS_EACH).map(MapRead::Get).collect())
        .expect("full audit answers");
    for (k, r) in (0..CLIENTS as u32 * KEYS_EACH).zip(&reply.replies) {
        assert_eq!(r, &MapReply::Value(Some(k * 3)), "key {k}");
    }
    server.shutdown();
}

#[test]
fn set_and_multimap_vocabularies_cross_the_wire() {
    let set_store: Arc<ShardedSet<String>> = Arc::new(ShardedSet::with_shards(4));
    let set_engine = Arc::new(Engine::new(set_store));
    let set_server = Server::spawn(Arc::clone(&set_engine), "127.0.0.1:0").expect("bind");
    let mut set_client: SetClient<String> =
        SetClient::connect(set_server.local_addr()).expect("connect");
    set_client
        .write(
            (0..40u32)
                .map(|i| SetEdit::Insert(format!("elem-{i}")))
                .collect(),
        )
        .expect("set write acks");
    let reply = set_client
        .read(vec![
            SetRead::Contains("elem-7".to_owned()),
            SetRead::Contains("absent".to_owned()),
            SetRead::Len,
        ])
        .expect("set read answers");
    assert_eq!(reply.replies[0], SetReply::Bool(true));
    assert_eq!(reply.replies[1], SetReply::Bool(false));
    assert_eq!(reply.replies[2], SetReply::Count(40));

    let mm_store: Arc<ShardedMultiMap<u32, u32>> = Arc::new(ShardedMultiMap::with_shards(4));
    let mm_engine = Arc::new(Engine::new(mm_store));
    let mm_server = Server::spawn(Arc::clone(&mm_engine), "127.0.0.1:0").expect("bind");
    let mut mm_client: MultiMapClient<u32, u32> =
        MultiMapClient::connect(mm_server.local_addr()).expect("connect");
    mm_client
        .write((0..90u32).map(|i| MultiMapEdit::Insert(i % 9, i)).collect())
        .expect("multimap write acks");
    let reply = mm_client
        .read(vec![
            MultiMapRead::FanOut((0..9).collect()),
            MultiMapRead::TupleCount,
        ])
        .expect("fan-out answers");
    let per_key = reply.replies[0]
        .clone()
        .into_fan_out()
        .expect("fan-out reply");
    assert_eq!(per_key.len(), 9);
    assert!(per_key.iter().all(|(_, vs)| vs.len() == 10));
    assert_eq!(reply.replies[1], MultiMapReply::Count(90));

    // The Stats op: engine counters decode remotely.
    let stats = mm_client.stats().expect("stats answer");
    assert_eq!(stats.write_batches, 1);
    assert_eq!(stats.write_edits, 90);
    assert!(stats.read_batches >= 1);
    set_server.shutdown();
    mm_server.shutdown();
}

// ---------------------------------------------------------------------------
// Failure statuses over the wire: a gated/poisoned store makes the engine's
// failure modes deterministic, and each must arrive as its stable code.
// ---------------------------------------------------------------------------

/// A manually opened barrier: `pass` blocks until `open` is called.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn closed() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

/// Inserting this key makes `apply` panic; reading it makes `answer`
/// panic — deterministic Faulted outcomes on either path.
const POISON_KEY: u32 = 0xdead;

/// Routing this key panics `edit_shard` — a panic *inside dispatch*, on
/// the connection's own thread, exercising its `catch_unwind` fallback
/// rather than the engine's job guards.
const DISPATCH_POISON_KEY: u32 = 0xbeef;

type Inner = ShardedMap<u32, u32>;

/// Wraps a real sharded map: `apply` blocks on a gate (so lanes can be
/// filled to exact depths) and poisons on the marker key.
struct GatedStore {
    inner: Inner,
    write_gate: Gate,
    applies_entered: AtomicUsize,
}

impl GatedStore {
    fn new(shards: usize) -> Self {
        GatedStore {
            inner: ShardedMap::with_shards(shards),
            write_gate: Gate::closed(),
            applies_entered: AtomicUsize::new(0),
        }
    }

    fn await_applies(&self, n: usize) {
        while self.applies_entered.load(Ordering::Acquire) < n {
            std::thread::yield_now();
        }
    }
}

impl Serve for GatedStore {
    type Read = <Inner as Serve>::Read;
    type Reply = <Inner as Serve>::Reply;
    type Edit = <Inner as Serve>::Edit;
    type Snapshot = <Inner as Serve>::Snapshot;

    fn pin(&self) -> Self::Snapshot {
        self.inner.pin()
    }

    fn pin_after(&self, epoch: u64) -> Self::Snapshot {
        self.inner.pin_after(epoch)
    }

    fn epoch_of(snap: &Self::Snapshot) -> u64 {
        <Inner as Serve>::epoch_of(snap)
    }

    fn current_epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn shard_count(&self) -> usize {
        <Inner as Serve>::shard_count(&self.inner)
    }

    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply {
        if matches!(op, MapRead::Get(k) if *k == POISON_KEY) {
            panic!("poisoned read");
        }
        <Inner as Serve>::answer(snap, op)
    }

    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>) {
        <Inner as Serve>::read_shards(snap, op, out)
    }

    fn edit_shard(&self, edit: &Self::Edit) -> usize {
        if *edit.key() == DISPATCH_POISON_KEY {
            panic!("poisoned dispatch");
        }
        self.inner.edit_shard(edit)
    }

    fn apply(&self, batch: Vec<Self::Edit>) -> isize {
        self.applies_entered.fetch_add(1, Ordering::Release);
        self.write_gate.pass();
        if batch.iter().any(|e| *e.key() == POISON_KEY) {
            panic!("poisoned write");
        }
        self.inner.apply(batch)
    }

    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict> {
        self.inner.apply_validated(base, read_shards, batch)
    }
}

fn remote_status(err: ClientError) -> Status {
    match err {
        ClientError::Remote(status) => status,
        other => panic!("expected a remote status, got {other:?}"),
    }
}

#[test]
fn failure_statuses_arrive_as_wire_codes() {
    let store = Arc::new(GatedStore::new(1));
    let engine = Arc::new(Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 1,
            lane_capacity: Some(1),
            ..EngineConfig::default()
        },
    ));
    let server = Server::spawn_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            admission_timeout: Some(Duration::from_millis(100)),
            apply_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Deadline: the applier is gated shut, so an admitted write cannot
    // publish within apply_timeout.
    let mut c1: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let status = remote_status(c1.write(vec![MapEdit::Insert(1, 1)]).unwrap_err());
    assert_eq!(status, Status::Deadline);
    assert_eq!(status.code(), 2);

    // Overloaded: the applier is stuck mid-drain behind the gate; fill the
    // lane (capacity 1), then one more write cannot be admitted in time.
    store.await_applies(1);
    let mut c2: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let status = remote_status(c2.write(vec![MapEdit::Insert(2, 2)]).unwrap_err());
    assert_eq!(status, Status::Deadline, "fills the lane, then times out");
    let mut c3: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let status = remote_status(c3.write(vec![MapEdit::Insert(3, 3)]).unwrap_err());
    assert_eq!(status, Status::Overloaded);
    assert_eq!(status.code(), 1);

    // FutureEpoch: a floor the server has never published is rejected, not
    // parked.
    let status = remote_status(c1.read_at(1_000_000, vec![MapRead::Len]).unwrap_err());
    assert_eq!(status, Status::FutureEpoch);
    assert_eq!(status.code(), 9);

    // Faulted (read path): a panicking answer faults the request, not the
    // server.
    store.write_gate.open();
    let status = remote_status(c1.read_at(0, vec![MapRead::Get(POISON_KEY)]).unwrap_err());
    assert_eq!(status, Status::Faulted);
    assert_eq!(status.code(), 3);

    // Faulted (write path): a panicking apply resolves the ticket faulted.
    let status = remote_status(c1.write(vec![MapEdit::Insert(POISON_KEY, 0)]).unwrap_err());
    assert_eq!(status, Status::Faulted);

    // The connection (and server) survive every failure above.
    let reply = c1.read_at(0, vec![MapRead::Len]).expect("still serving");
    assert!(matches!(reply.replies[0], MapReply::Count(_)));
    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_the_inflight_request() {
    let store = Arc::new(GatedStore::new(1));
    let engine = Arc::new(Engine::new(Arc::clone(&store)));
    let server = Server::spawn_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let writer = std::thread::spawn(move || {
        let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
        // Blocks server-side until the gate opens.
        client.write(vec![MapEdit::Insert(9, 90)])
    });

    // Wait until the applier is holding the batch, then begin shutdown
    // while the request is in flight.
    store.await_applies(1);
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(30));
    store.write_gate.open();

    // The in-flight write must still be answered with its epoch.
    let epoch = writer
        .join()
        .expect("writer thread")
        .expect("in-flight write acked during shutdown");
    assert!(epoch >= 1);
    shutdown.join().expect("shutdown completes");
    assert_eq!(store.inner.get_cloned(&9), Some(90));

    // And the server is really gone.
    assert!(MapClient::<u32, u32>::connect(addr).is_err());
}

// ---------------------------------------------------------------------------
// Regression tests for the wire-layer lifecycle bugs fixed alongside
// pipelining: trickle-proof shutdown, Faulted frames with real epochs,
// session ratchet from error frames, handler reap on idle.
// ---------------------------------------------------------------------------

#[test]
fn trickling_peer_cannot_stall_shutdown_past_drain_grace() {
    use axiom_repro::serving::proto::{HEADER_LEN, WIRE_MAGIC, WIRE_VERSION};

    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(1));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn_with(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: Duration::from_millis(5),
            drain_grace: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A peer sends a valid header promising a large payload, then
    // trickles the payload one byte per poll tick. Every byte lands as a
    // successful read — the connection never looks quiet — so the drain
    // deadline must be enforced on every iteration, not only in the
    // would-block arm.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    let mut header = vec![0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&WIRE_MAGIC);
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6] = OpCode::ReadReq.code();
    header[20..24].copy_from_slice(&65_536u32.to_le_bytes());
    raw.write_all(&header).expect("send header");
    raw.flush().unwrap();
    let trickler = std::thread::spawn(move || {
        for _ in 0..1_000 {
            if raw.write_all(&[0u8]).is_err() || raw.flush().is_err() {
                break; // the server abandoned the connection — the point
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    // Let the server get mid-frame, then shut down under the trickle.
    std::thread::sleep(Duration::from_millis(30));
    let start = std::time::Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown took {took:?}; a trickling peer extended the drain past its grace"
    );
    trickler.join().expect("trickler thread");
}

#[test]
fn faulted_frames_carry_the_published_epoch() {
    let store = Arc::new(GatedStore::new(1));
    store.write_gate.open();
    let engine = Arc::new(Engine::new(Arc::clone(&store)));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut seeder: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let epoch = seeder
        .write(vec![MapEdit::Insert(1, 1)])
        .expect("seed write");
    assert!(epoch >= 1);

    // A panic on the read path (inside a read worker's job guard)…
    let mut fresh: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let status = remote_status(
        fresh
            .read_at(0, vec![MapRead::Get(POISON_KEY)])
            .unwrap_err(),
    );
    assert_eq!(status, Status::Faulted);
    assert!(
        fresh.last_epoch() >= epoch,
        "read-path Faulted frame carried epoch {} < {epoch}",
        fresh.last_epoch()
    );

    // …and a panic inside dispatch itself (the connection thread's
    // catch_unwind fallback) both answer at a real published epoch,
    // not the epoch-0 placeholder.
    let mut fresh: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let status = remote_status(
        fresh
            .write(vec![MapEdit::Insert(DISPATCH_POISON_KEY, 0)])
            .unwrap_err(),
    );
    assert_eq!(status, Status::Faulted);
    assert!(
        fresh.last_epoch() >= epoch,
        "dispatch-path Faulted frame carried epoch {} < {epoch}",
        fresh.last_epoch()
    );

    // The server survives both panics.
    let reply = seeder.read(vec![MapRead::Get(1)]).expect("still serving");
    assert_eq!(reply.replies[0], MapReply::Value(Some(1)));
    server.shutdown();
}

#[test]
fn error_frames_ratchet_the_session_epoch() {
    let (_engine, server, addr) = spawn_map_server(2);
    let mut writer: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    let epoch = writer
        .write((0..10u32).map(|i| MapEdit::Insert(i, i)).collect())
        .expect("write acks");

    // A fresh session learns the published epoch from an *error* frame:
    // the FutureEpoch rejection carries it, and the client must fold it
    // into the session even though the request failed.
    let mut fresh: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
    assert_eq!(fresh.last_epoch(), 0);
    let status = remote_status(fresh.read_at(u64::MAX, vec![MapRead::Len]).unwrap_err());
    assert_eq!(status, Status::FutureEpoch);
    assert!(
        fresh.last_epoch() >= epoch,
        "error frame did not ratchet the session epoch"
    );

    // The ratcheted floor is real: this session read is answered at or
    // after it and sees the other session's writes.
    let reply = fresh.read(vec![MapRead::Get(3)]).expect("floored read");
    assert!(reply.epoch >= epoch);
    assert_eq!(reply.replies[0], MapReply::Value(Some(3)));
    server.shutdown();
}

#[test]
fn idle_acceptor_reaps_finished_handlers() {
    let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(1));
    let engine = Arc::new(Engine::new(store));
    let server = Server::spawn_with(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    assert_eq!(server.active_connections(), 0);

    // A burst of connections that all finish…
    for _ in 0..5 {
        let mut client: MapClient<u32, u32> = MapClient::connect(addr).expect("connect");
        client.read(vec![MapRead::Len]).expect("read answers");
    }

    // …must be reaped while the server sits idle: no further connection
    // ever arrives, so only the poll-tick reap can release them.
    let mut live = server.active_connections();
    for _ in 0..400 {
        live = server.active_connections();
        if live == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(live, 0, "finished handlers held until shutdown");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The reader half answers reads in place from a buffered intake; these pin
// down the reply order against pending write acks and the intake's framing,
// speaking raw frames so the test controls what is on the wire when.
// ---------------------------------------------------------------------------

/// Encodes one request frame whose payload is `value`.
fn request<T: serde::Serialize>(op: OpCode, epoch: u64, value: &T) -> Vec<u8> {
    let mut wire = Vec::new();
    append_frame(
        &mut wire,
        &Frame::request(op, epoch, encode_value(value).unwrap()),
    );
    wire
}

fn next_frame(stream: &mut TcpStream) -> Frame {
    read_frame(stream, DEFAULT_MAX_PAYLOAD).expect("response frame")
}

#[test]
fn replies_never_overtake_a_pending_write_ack() {
    let store = Arc::new(GatedStore::new(2));
    let engine = Arc::new(Engine::new(Arc::clone(&store)));
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_nodelay(true).unwrap();

    // A write that blocks in the applier until the gate opens, then a
    // read whose floor is in the future: the reader rejects it without
    // waiting for the write, but the rejection must still queue behind
    // the pending ack.
    let mut wire = request(OpCode::WriteReq, 0, &vec![MapEdit::Insert(5u32, 50u32)]);
    wire.extend(request(
        OpCode::ReadReq,
        u64::MAX,
        &vec![MapRead::<u32>::Len],
    ));
    raw.write_all(&wire).unwrap();
    store.await_applies(1);
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let early = raw.peek(&mut [0u8; 1]);

    // Eight reads behind the blocked write, pipelined in one segment.
    let mut wire = Vec::new();
    for _ in 0..8 {
        wire.extend(request(
            OpCode::ReadReq,
            0,
            &vec![MapRead::Get(5u32), MapRead::Len],
        ));
    }
    raw.write_all(&wire).unwrap();
    // Open the gate before asserting, so a failure cannot leave the
    // server's shutdown waiting on the blocked write.
    store.write_gate.open();
    assert!(
        matches!(&early, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "a reply overtook the pending write ack: {early:?}"
    );

    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let ack = next_frame(&mut raw);
    assert_eq!((ack.op, ack.status), (OpCode::WriteResp, Status::Ok));
    let rejected = next_frame(&mut raw);
    assert_eq!(
        (rejected.op, rejected.status),
        (OpCode::ErrorResp, Status::FutureEpoch)
    );
    for slot in 0..8 {
        let reply = next_frame(&mut raw);
        assert_eq!(reply.op, OpCode::ReadResp, "slot {slot}");
        assert!(
            reply.epoch >= ack.epoch,
            "read {slot} answered at {} < ack {}",
            reply.epoch,
            ack.epoch
        );
        let replies: Vec<MapReply<u32, u32>> = decode_value(&reply.payload).unwrap();
        assert_eq!(replies, vec![MapReply::Value(Some(50)), MapReply::Count(1)]);
    }
    server.shutdown();
}

#[test]
fn buffered_intake_answers_coalesced_and_dribbled_requests() {
    let (engine, server, addr) = spawn_map_server(2);
    engine
        .stage((0..3u32).map(|k| MapEdit::Insert(k, k)))
        .wait()
        .unwrap();
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let len = request(OpCode::ReadReq, 0, &vec![MapRead::<u32>::Len]);
    let expect_len = |raw: &mut TcpStream| {
        let frame = next_frame(raw);
        assert_eq!(frame.op, OpCode::ReadResp);
        let replies: Vec<MapReply<u32, u32>> = decode_value(&frame.payload).unwrap();
        assert_eq!(replies, vec![MapReply::Count(3)]);
    };

    // Two requests in one segment: one server read takes in both.
    raw.write_all(&[len.as_slice(), len.as_slice()].concat())
        .unwrap();
    expect_len(&mut raw);
    expect_len(&mut raw);

    // One request a byte at a time: every partial header and payload
    // must wait for the rest, then answer.
    for byte in &len {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    expect_len(&mut raw);
    server.shutdown();
}

//! The blocking TCP server: an acceptor thread plus one *pair* of
//! threads per connection — a reader half that answers reads and a
//! writer half that resolves write tickets — over one [`Engine`].
//!
//! # The reader half answers reads
//!
//! The reader half owns the connection's input buffer: one `read` takes
//! in every frame that has already arrived, and the frames are handled
//! in arrival order. A read is answered right there, on the reader
//! thread, at its pinned floor ([`Engine::execute_at_least`]): a pinned
//! snapshot is immutable, so no other thread needs to touch it. The
//! encoded reply goes into an output buffer the reader owns, which is
//! written to the socket when no complete frame is left in the input
//! buffer (or once it reaches 64 KiB). A pipelined window of reads thus
//! costs one `read` and one `write` syscall, and no thread hand-off.
//!
//! # The writer half resolves write tickets
//!
//! A write is staged onto the admission lanes ([`Engine::stage`]), which
//! return a ticket immediately. The reader pushes the unresolved ticket
//! onto a bounded per-connection completion queue and keeps reading; the
//! writer half waits on each ticket in FIFO order and writes the ack.
//! This is what lets write batches from *different* connections
//! coalesce: many staged batches pile onto the shared admission lanes
//! while their connections keep reading, and one applier drain commits
//! them under a single `EpochCell` publication.
//!
//! # Reply order
//!
//! The k-th response on a connection always answers the k-th request
//! (Redis-style pipelining), because only the half holding the
//! connection's *write token* may write to the socket. The writer takes
//! the token whenever it pops a queued response and frees it once the
//! queue is empty. The reader takes it only when the queue is empty, so
//! a reply answered in place can never overtake an ack still pending;
//! before queueing a write it flushes its buffer and gives the token up.
//! A reply the reader cannot send itself is queued, already resolved,
//! behind the work ahead of it. At most
//! [`ServerConfig::pipeline_depth`] responses wait in the queue.
//!
//! Two ordering guarantees hold per connection:
//!
//! - **Monotone read epochs.** Reads are answered in request order, each
//!   at a fresh pin, so a later read on the same connection is never
//!   answered from an older epoch than an earlier one. (Write acks carry
//!   their true publication epochs, which may interleave across shards'
//!   independent lanes; the barrier below guarantees later reads cover
//!   them.)
//! - **Read-your-writes within the pipeline.** Before answering a read,
//!   the reader half settles every write it has dispatched earlier on
//!   this connection (a write→read barrier) and folds their visibility
//!   epochs into the connection's floor, so a pipelined `write; read`
//!   script observes its own write without waiting for the write's
//!   *response* to go out first.
//!
//! Every engine failure mode maps onto a wire [`Status`]: shed
//! admission → `Overloaded`, expired deadlines → `Deadline`, a panic
//! while answering (the reader runs every request under `catch_unwind`)
//! → `Faulted`, malformed frames → `BadRequest`. A protocol-level
//! framing error (bad magic, unknown version) poisons the byte stream,
//! so the connection answers one `BadRequest` *behind* the requests
//! already taken — they are still answered in order — and closes; a
//! payload that fails to decode leaves the framing intact and only fails
//! that request.
//!
//! Shutdown is graceful: [`Server::shutdown`] (or drop) stops the
//! acceptor, every reader stops taking new requests and sends the
//! replies it buffered, and every writer drains the responses already in
//! its completion queue — ticket waits included — before the connection
//! closes. Idle connections close at the next poll tick; a peer
//! trickling a half-finished frame is abandoned once
//! [`ServerConfig::drain_grace`] expires.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::de::Deserialize;
use serde::ser::Serialize;

use trie_common::sync::{lock_recover, wait_recover};

use crate::admit::WriteTicket;
use crate::engine::Engine;
use crate::error::Status;
use crate::proto::{
    append_frame, decode_header, decode_value, encode_value, Frame, OpCode, WireError,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use crate::store::Serve;

/// Replies coalesce into one socket write until the buffer reaches this
/// size: the reader's buffered replies, and on the writer half the
/// already-resolved responses behind the first one.
const COALESCE_BYTES: usize = 64 * 1024;

/// A connection's input buffer starts at this size. It grows to fit a
/// larger frame once the frame's header has been validated, and shrinks
/// back when it drains.
const INTAKE_BYTES: usize = 16 * 1024;

/// Writes the reader half has dispatched but not yet settled into the
/// connection floor are pruned (resolved tickets dropped, their epochs
/// folded in) once the list grows past this, so an all-write pipeline
/// stays bounded.
const PENDING_WRITE_PRUNE: usize = 32;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on request payload size; larger frames are rejected at the
    /// header, before allocation.
    pub max_payload: usize,
    /// Deadline for admitting a write batch onto its lanes. `Some(t)`
    /// sheds with `Overloaded` after `t` (via [`Engine::stage_timeout`]);
    /// `None` blocks until admitted.
    pub admission_timeout: Option<Duration>,
    /// Deadline for an admitted batch to apply and publish. `Some(t)`
    /// answers `Deadline` after `t`; `None` waits indefinitely.
    pub apply_timeout: Option<Duration>,
    /// How often blocked accept/read calls wake to check the stop flag
    /// (bounds shutdown latency; does not bound request latency).
    pub poll_interval: Duration,
    /// How long a reader keeps draining a half-received frame after
    /// shutdown begins, before abandoning the connection.
    pub drain_grace: Duration,
    /// Most responses queued per connection for the writer half (write
    /// acks, and replies queued behind them): the reader half stops
    /// taking new frames while this many await. Clamped to at least 1.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            admission_timeout: None,
            apply_timeout: None,
            poll_interval: Duration::from_millis(20),
            drain_grace: Duration::from_millis(500),
            pipeline_depth: 128,
        }
    }
}

/// A running wire server over one [`Engine`]. Returned by
/// [`Server::spawn`]; dropping it (or calling [`Server::shutdown`])
/// stops the acceptor and drains every connection gracefully.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts serving `engine` with default tuning.
    /// Bind to port 0 to let the OS pick (see [`Server::local_addr`]).
    pub fn spawn<S>(engine: Arc<Engine<S>>, addr: impl ToSocketAddrs) -> std::io::Result<Server>
    where
        S: Serve,
        S::Read: for<'de> Deserialize<'de>,
        S::Reply: Serialize,
        S::Edit: for<'de> Deserialize<'de>,
    {
        Self::spawn_with(engine, addr, ServerConfig::default())
    }

    /// [`Server::spawn`] with explicit tuning.
    pub fn spawn_with<S>(
        engine: Arc<Engine<S>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server>
    where
        S: Serve,
        S::Read: for<'de> Deserialize<'de>,
        S::Reply: Serialize,
        S::Edit: for<'de> Deserialize<'de>,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, engine, config, stop, conns))
        };
        Ok(Server {
            addr,
            stop,
            conns,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose handler threads have not finished, as of the
    /// acceptor's last reap. The acceptor reaps finished handlers on
    /// every accept *and* on every idle poll tick, so this converges to
    /// the live count within one `poll_interval` of connections closing
    /// — even on a server that has gone quiet.
    pub fn active_connections(&self) -> usize {
        self.conns.load(Ordering::Acquire)
    }

    /// Stops accepting, drains every in-flight request, joins all
    /// threads. Equivalent to dropping the server, but explicit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("connections", &self.conns.load(Ordering::Relaxed))
            .field("stopping", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop<S>(
    listener: TcpListener,
    engine: Arc<Engine<S>>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
) where
    S: Serve,
    S::Read: for<'de> Deserialize<'de>,
    S::Reply: Serialize,
    S::Edit: for<'de> Deserialize<'de>,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(&engine);
                let config = config.clone();
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    // Connection setup failures just drop the connection;
                    // the client sees a closed socket and retries.
                    let _ = handle_connection(stream, &engine, &config, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(config.poll_interval);
            }
            Err(_) => std::thread::sleep(config.poll_interval),
        }
        // Reap finished handlers on every pass — accepts *and* idle poll
        // ticks — so a server that goes quiet after a connection burst
        // releases its joined threads instead of holding every handle
        // until shutdown.
        handlers.retain(|h| !h.is_finished());
        conns.store(handlers.len(), Ordering::Release);
    }
    for handle in handlers {
        let _ = handle.join();
    }
    conns.store(0, Ordering::Release);
}

/// One response the writer half owes, queued in request order: either
/// already known, or a write ticket that will deliver it.
enum Pending {
    /// The response frame is fully determined (a read reply, an error).
    Ready(Frame),
    /// A write staged onto the admission lanes. `epoch` is the published
    /// epoch at dispatch, kept for error frames.
    Write {
        /// The ticket the writer half waits on.
        ticket: WriteTicket,
        /// Fallback epoch if the write sheds or faults.
        epoch: u64,
    },
}

impl Pending {
    /// Non-blocking: would resolving this pending response not block?
    fn is_resolved(&self) -> bool {
        match self {
            Pending::Ready(_) => true,
            Pending::Write { ticket, .. } => ticket.try_outcome().is_some(),
        }
    }
}

/// Which connection half may write to the socket next.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Token {
    Free,
    Reader,
    Writer,
}

struct ConnState {
    pending: VecDeque<Pending>,
    token: Token,
}

/// The bounded per-connection completion queue between the reader half
/// (producer) and the writer half (consumer), plus the write token. FIFO
/// order here, and the reader taking the token only while the queue is
/// empty, is what keeps responses in request order.
struct ConnQueue {
    inner: Mutex<ConnState>,
    /// Signalled when a pending response is pushed or the queue closes.
    ready: Condvar,
    /// Signalled when the writer pops and capacity frees up.
    space: Condvar,
    capacity: usize,
    /// Reader is done; the writer drains what remains, then exits.
    closed: AtomicBool,
    /// A socket write failed; both halves stop.
    broken: AtomicBool,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(ConnState {
                pending: VecDeque::new(),
                token: Token::Free,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            broken: AtomicBool::new(false),
        }
    }

    /// Reader: takes the write token if no queued response is ahead of
    /// the reader's next reply and the writer is not mid-write.
    fn take_token(&self) -> bool {
        let mut state = lock_recover(&self.inner);
        let free = state.pending.is_empty() && state.token == Token::Free;
        if free {
            state.token = Token::Reader;
        }
        free
    }

    /// Reader: enqueues a pending response, giving up the write token if
    /// it holds it, and blocks while the pipeline is at capacity. A
    /// broken pipe drops the response — nobody can read it.
    fn push(&self, pending: Pending) {
        let mut state = lock_recover(&self.inner);
        if state.token == Token::Reader {
            state.token = Token::Free;
        }
        while state.pending.len() >= self.capacity && !self.is_broken() {
            state = wait_recover(&self.space, state);
        }
        if self.is_broken() {
            return;
        }
        state.pending.push_back(pending);
        self.ready.notify_one();
    }

    /// Writer: blocks for the next pending response and takes the write
    /// token with it; `None` once the queue is closed and drained (or
    /// the pipe broke).
    fn pop(&self) -> Option<Pending> {
        let mut state = lock_recover(&self.inner);
        loop {
            if self.is_broken() {
                return None;
            }
            if let Some(pending) = state.pending.pop_front() {
                // The reader gives the token up before every push, so a
                // non-empty queue means the reader does not hold it.
                state.token = Token::Writer;
                self.space.notify_one();
                return Some(pending);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            state = wait_recover(&self.ready, state);
        }
    }

    /// Writer: pops the front only if resolving it would not block — the
    /// coalescing probe: already-resolved responses ride along in the
    /// same socket write, unresolved ones wait for the next.
    fn pop_resolved(&self) -> Option<Pending> {
        let mut state = lock_recover(&self.inner);
        if state.pending.front().is_some_and(Pending::is_resolved) {
            self.space.notify_one();
            state.pending.pop_front()
        } else {
            None
        }
    }

    /// Writer: done with a socket write; frees the token once nothing is
    /// queued, so the reader can answer in place again. Nobody waits for
    /// the token, so this wakes no one.
    fn release(&self) {
        let mut state = lock_recover(&self.inner);
        if state.pending.is_empty() {
            state.token = Token::Free;
        }
    }

    /// Reader half is done producing; wakes the writer to drain and exit.
    fn close(&self) {
        let _guard = lock_recover(&self.inner);
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    /// A socket write failed; wakes a reader blocked on capacity and an
    /// idle writer.
    fn break_pipe(&self) {
        let _guard = lock_recover(&self.inner);
        self.broken.store(true, Ordering::Release);
        self.space.notify_all();
        self.ready.notify_all();
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }
}

/// The reader half's reply path: replies it may send itself are encoded
/// into `buf`, which goes to the socket when the input drains.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    /// The reader holds the write token (`buf` is empty otherwise).
    token: bool,
}

impl Outbox {
    /// Sends one response in request order: a ready reply into the
    /// buffer when the reader holds (or can take) the write token,
    /// anything else — a write ticket, or a reply queued behind one —
    /// through the completion queue after flushing the buffer.
    fn send(
        &mut self,
        stream: &mut TcpStream,
        queue: &ConnQueue,
        pending: Pending,
    ) -> std::io::Result<()> {
        match pending {
            Pending::Ready(frame) if self.token || queue.take_token() => {
                self.token = true;
                append_frame(&mut self.buf, &frame);
                if self.buf.len() >= COALESCE_BYTES {
                    self.flush(stream)?;
                }
            }
            pending => {
                self.flush(stream)?;
                self.token = false;
                queue.push(pending);
            }
        }
        Ok(())
    }

    /// Writes the buffered replies in one syscall.
    fn flush(&mut self, stream: &mut TcpStream) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            stream.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// What the input buffer holds next.
enum Parsed {
    /// A complete frame: its validated header (payload left in the
    /// buffer) and its length on the wire.
    Frame(Frame, usize),
    /// Not a whole frame yet; the next frame needs this many bytes.
    Short(usize),
}

/// What topping up the input buffer produced.
enum Fill {
    /// More bytes arrived.
    Data,
    /// The client closed between frames.
    Closed,
    /// Shutdown began while the connection was idle (or a half-received
    /// frame outlived the drain grace).
    Stopped,
    /// The socket failed or closed mid-frame; the frame will never finish.
    Failed,
}

/// A connection's input buffer: bytes read off the socket and not yet
/// consumed as frames, at `buf[start..end]`.
struct Intake {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// When shutdown found a frame half-received: the end of its grace.
    drain_deadline: Option<Instant>,
}

impl Intake {
    fn new() -> Intake {
        Intake {
            buf: vec![0; INTAKE_BYTES],
            start: 0,
            end: 0,
            drain_deadline: None,
        }
    }

    /// Parses the next buffered frame's header — validating it, payload
    /// cap included, before any room is made for the payload.
    fn next_frame(&self, max_payload: usize) -> Result<Parsed, WireError> {
        let buffered = &self.buf[self.start..self.end];
        let Some(header) = buffered.first_chunk::<HEADER_LEN>() else {
            return Ok(Parsed::Short(HEADER_LEN));
        };
        let (frame, payload_len) = decode_header(header, max_payload)?;
        let len = HEADER_LEN + payload_len;
        Ok(if buffered.len() >= len {
            Parsed::Frame(frame, len)
        } else {
            Parsed::Short(len)
        })
    }

    /// The payload of the next buffered frame, `len` bytes long in all.
    fn payload(&self, len: usize) -> &[u8] {
        &self.buf[self.start + HEADER_LEN..self.start + len]
    }

    fn consume(&mut self, len: usize) {
        self.start += len;
    }

    /// One `read` into the buffer, with room for at least `need` bytes of
    /// the next frame, polling the stop flag while idle.
    fn fill(
        &mut self,
        stream: &mut TcpStream,
        need: usize,
        config: &ServerConfig,
        stop: &AtomicBool,
    ) -> Fill {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        } else if self.end == 0 && self.buf.len() > INTAKE_BYTES {
            // Let go of the room a large frame needed.
            self.buf.truncate(INTAKE_BYTES);
            self.buf.shrink_to_fit();
        }
        loop {
            let idle = self.end == 0;
            // The stop check runs before every read — not only when the
            // socket goes quiet — so a peer trickling one byte per poll
            // tick still cannot extend the drain past `drain_grace`.
            if stop.load(Ordering::Acquire) {
                if idle {
                    return Fill::Stopped;
                }
                // Mid-frame: keep draining, but only for the grace period.
                let deadline = *self
                    .drain_deadline
                    .get_or_insert_with(|| Instant::now() + config.drain_grace);
                if Instant::now() >= deadline {
                    return Fill::Stopped;
                }
            }
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) if idle => return Fill::Closed,
                Ok(0) => return Fill::Failed,
                Ok(n) => {
                    self.end += n;
                    return Fill::Data;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return Fill::Failed,
            }
        }
    }
}

/// The reader half. Spawns the writer half, then loops: take every frame
/// the input buffer holds, answering reads in place and queueing writes;
/// when the buffer holds no complete frame, send the buffered replies
/// and read more. On exit — clean close, shutdown, framing loss, or a
/// broken pipe — it sends what it buffered, closes the queue and joins
/// the writer, which drains every response still owed before the
/// connection drops.
fn handle_connection<S>(
    mut stream: TcpStream,
    engine: &Arc<Engine<S>>,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> std::io::Result<()>
where
    S: Serve,
    S::Read: for<'de> Deserialize<'de>,
    S::Reply: Serialize,
    S::Edit: for<'de> Deserialize<'de>,
{
    stream.set_nodelay(true)?;
    stream.set_nonblocking(false)?;
    // Reads wake at every poll tick so an idle reader notices shutdown.
    stream.set_read_timeout(Some(config.poll_interval))?;
    let queue = Arc::new(ConnQueue::new(config.pipeline_depth));
    let writer = {
        let stream = stream.try_clone()?;
        let queue = Arc::clone(&queue);
        let engine = Arc::clone(engine);
        let apply_timeout = config.apply_timeout;
        std::thread::spawn(move || writer_loop(stream, &queue, &engine, apply_timeout))
    };
    let mut intake = Intake::new();
    let mut outbox = Outbox::default();
    // Writes dispatched on this connection whose visibility epochs have
    // not yet been folded into `conn_floor` (the write→read barrier).
    let mut pending_writes: Vec<WriteTicket> = Vec::new();
    let mut conn_floor: u64 = 0;
    let mut sent = Ok(());
    let mut malformed = false;
    while sent.is_ok() && !queue.is_broken() {
        let need = match intake.next_frame(config.max_payload) {
            Ok(Parsed::Frame(header, len)) => {
                // The request guard: a panic anywhere in dispatch (a
                // poisoned store, an injected fault) faults this request,
                // not the server — answered at the current epoch, the
                // same visibility information the non-panicking error
                // paths report.
                let current = engine.store().current_epoch();
                let pending = catch_unwind(AssertUnwindSafe(|| {
                    let payload = intake.payload(len);
                    dispatch(
                        engine,
                        config,
                        header,
                        payload,
                        &mut pending_writes,
                        &mut conn_floor,
                    )
                }))
                .unwrap_or_else(|_| Pending::Ready(Frame::error(Status::Faulted, current)));
                intake.consume(len);
                sent = outbox.send(&mut stream, &queue, pending);
                // Graceful shutdown: everything dispatched (this request
                // included) will be answered; nothing new is taken.
                if stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Ok(Parsed::Short(need)) => need,
            Err(_) => {
                malformed = true;
                break;
            }
        };
        // No complete frame is left: the input has drained, so the
        // replies buffered so far go out in one write before blocking.
        sent = outbox.flush(&mut stream);
        if sent.is_err() {
            break;
        }
        match intake.fill(&mut stream, need, config, stop) {
            Fill::Data => {}
            Fill::Closed | Fill::Stopped => break,
            Fill::Failed => {
                malformed = true;
                break;
            }
        }
    }
    if malformed && sent.is_ok() {
        // Framing is lost: requests already taken are still answered in
        // order, then one best-effort error, then hang up.
        let current = engine.store().current_epoch();
        let error = Pending::Ready(Frame::error(Status::BadRequest, current));
        sent = outbox.send(&mut stream, &queue, error);
    }
    if sent.and_then(|()| outbox.flush(&mut stream)).is_err() {
        queue.break_pipe();
    }
    queue.close();
    let _ = writer.join();
    Ok(())
}

/// The writer half: drains the completion queue in FIFO order, waiting
/// on each write ticket (off the read path) and writing the response
/// back. Consecutive responses that are already resolved coalesce into
/// one socket write.
fn writer_loop<S: Serve>(
    mut stream: TcpStream,
    queue: &ConnQueue,
    engine: &Engine<S>,
    apply_timeout: Option<Duration>,
) {
    let mut buf = Vec::new();
    while let Some(pending) = queue.pop() {
        buf.clear();
        append_frame(&mut buf, &resolve(engine, apply_timeout, pending));
        while buf.len() < COALESCE_BYTES {
            match queue.pop_resolved() {
                Some(next) => append_frame(&mut buf, &resolve(engine, apply_timeout, next)),
                None => break,
            }
        }
        if stream.write_all(&buf).is_err() {
            queue.break_pipe();
            return;
        }
        queue.release();
    }
}

/// Turns a pending response into its wire frame, blocking on the write
/// ticket if needed. Error frames carry the freshest visibility
/// information available: at least the epoch recorded at dispatch,
/// raised to the currently published epoch at resolution time.
fn resolve<S: Serve>(
    engine: &Engine<S>,
    apply_timeout: Option<Duration>,
    pending: Pending,
) -> Frame {
    match pending {
        Pending::Ready(frame) => frame,
        Pending::Write { ticket, epoch } => {
            let waited = match apply_timeout {
                Some(timeout) => ticket.wait_timeout(timeout),
                None => ticket.wait(),
            };
            match waited {
                Ok(applied) => Frame {
                    op: OpCode::WriteResp,
                    status: Status::Ok,
                    epoch: applied,
                    payload: Vec::new(),
                },
                // A `Deadline` here does not cancel the write — it may
                // still publish later; the fresh epoch (plus the client
                // ratcheting its session from every frame) narrows how
                // stale this session's view can be. See `session` docs.
                Err(e) => Frame::error(Status::from(e), epoch.max(engine.store().current_epoch())),
            }
        }
    }
}

/// Handles one request frame on the reader thread: a read is answered in
/// place at its pinned floor, a write is staged and its ticket returned
/// for the writer half to wait on.
fn dispatch<S>(
    engine: &Engine<S>,
    config: &ServerConfig,
    header: Frame,
    payload: &[u8],
    pending_writes: &mut Vec<WriteTicket>,
    conn_floor: &mut u64,
) -> Pending
where
    S: Serve,
    S::Read: for<'de> Deserialize<'de>,
    S::Reply: Serialize,
    S::Edit: for<'de> Deserialize<'de>,
{
    let current = engine.store().current_epoch();
    if !header.status.is_ok() || !header.op.is_request() {
        return Pending::Ready(Frame::error(Status::BadRequest, current));
    }
    match header.op {
        OpCode::ReadReq => {
            let ops: Vec<S::Read> = match decode_value(payload) {
                Ok(ops) => ops,
                Err(_) => return Pending::Ready(Frame::error(Status::BadRequest, current)),
            };
            // A floor above everything published would park this read in
            // `pin_after` forever; acks always trail publication, so a
            // floor from a real session is never ahead of `current`.
            if header.epoch > current {
                return Pending::Ready(Frame::error(Status::FutureEpoch, current));
            }
            // The write→read barrier: settle every write dispatched
            // earlier on this connection so the read's floor covers them
            // (read-your-writes within a pipeline). Tickets settle here,
            // not responses — the writer half may still be behind.
            settle_writes(pending_writes, conn_floor, config.apply_timeout);
            let floor = header.epoch.max(*conn_floor);
            Pending::Ready(match engine.execute_at_least(floor, &ops) {
                Ok(batch) => match encode_value(&batch.replies) {
                    Ok(payload) => Frame {
                        op: OpCode::ReadResp,
                        status: Status::Ok,
                        epoch: batch.epoch,
                        payload,
                    },
                    Err(_) => Frame::error(Status::Faulted, batch.epoch),
                },
                Err(e) => Frame::error(Status::from(e), floor.max(engine.store().current_epoch())),
            })
        }
        OpCode::WriteReq => {
            let edits: Vec<S::Edit> = match decode_value(payload) {
                Ok(edits) => edits,
                Err(_) => return Pending::Ready(Frame::error(Status::BadRequest, current)),
            };
            // Keep the barrier list bounded on all-write pipelines:
            // fold already-resolved tickets into the floor and drop them.
            if pending_writes.len() >= PENDING_WRITE_PRUNE {
                pending_writes.retain(|ticket| match ticket.try_outcome() {
                    Some(Ok(epoch)) => {
                        *conn_floor = (*conn_floor).max(epoch);
                        false
                    }
                    Some(Err(_)) => false,
                    None => true,
                });
            }
            let ticket = match config.admission_timeout {
                Some(timeout) => match engine.stage_timeout(edits, timeout) {
                    Ok(ticket) => ticket,
                    Err(_overloaded) => {
                        return Pending::Ready(Frame::error(Status::Overloaded, current))
                    }
                },
                None => engine.stage(edits),
            };
            pending_writes.push(ticket.clone());
            Pending::Write {
                ticket,
                epoch: current,
            }
        }
        OpCode::StatsReq => Pending::Ready(match encode_value(&engine.stats()) {
            Ok(payload) => Frame {
                op: OpCode::StatsResp,
                status: Status::Ok,
                epoch: current,
                payload,
            },
            Err(_) => Frame::error(Status::Faulted, current),
        }),
        // Response codes are never valid as requests.
        OpCode::ReadResp | OpCode::WriteResp | OpCode::StatsResp | OpCode::ErrorResp => {
            Pending::Ready(Frame::error(Status::BadRequest, current))
        }
    }
}

/// Waits out every write dispatched earlier on this connection and folds
/// the visibility epochs of the successful ones into the connection
/// floor. All tickets are settled — not just the newest — because a
/// multi-shard batch publishes per admission lane and lanes drain
/// independently, so tickets can resolve out of dispatch order.
fn settle_writes(
    pending: &mut Vec<WriteTicket>,
    conn_floor: &mut u64,
    apply_timeout: Option<Duration>,
) {
    for ticket in pending.drain(..) {
        let outcome = match apply_timeout {
            Some(timeout) => ticket.wait_timeout(timeout),
            None => ticket.wait(),
        };
        if let Ok(epoch) = outcome {
            *conn_floor = (*conn_floor).max(epoch);
        }
        // A failed write contributes nothing to the floor; its own
        // response frame carries the failure.
    }
}

//! The typed wire client and its session semantics.
//!
//! A [`Client`] owns one reused TCP connection and a *session epoch*: the
//! highest visibility epoch any of its acks or replies has carried. Every
//! read request sends that epoch as its visibility floor, so a session
//! always reads its own writes — the server answers from a snapshot at
//! least as new as everything the session has been told about, blocking
//! briefly (via the engine's `pin_after`) if the publication has not
//! landed yet.
//!
//! The session epoch is plain data, which is what makes read-your-writes
//! work *across* connections: carry [`Client::last_epoch`] to a second
//! connection (even to a different process) and seed it with
//! [`Client::resume_at`] — its reads then see everything the first
//! session saw. Epoch zero means "no floor"; a fresh client starts there.
//!
//! Remote failures arrive as [`ClientError::Remote`] carrying the wire
//! [`Status`] — the same taxonomy local engine callers match on.
//!
//! # Pipelining
//!
//! [`Client::pipeline`] sends a *script* — a sequence of read and write
//! batches — with many requests in flight at once, and returns one
//! [`ScriptReply`] per op, in script order. The server answers each
//! connection's requests strictly in request order and runs a
//! write→read barrier per connection, so a pipelined `write; read`
//! script still reads its own write, and the session-epoch ratchet is
//! preserved: every response frame's epoch is folded into
//! [`Client::last_epoch`] exactly as in the one-at-a-time calls. Per-op
//! failures (`Overloaded`, `Deadline`, …) surface as
//! [`ScriptReply::Failed`] without aborting the rest of the script;
//! only transport/framing loss fails the whole call.
//!
//! Requests go out in windows of [`Client::pipeline_window`] frames
//! (default 32): each window is written in one syscall, then its
//! replies are collected before the next window goes out. This bounds
//! how many response bytes can pile up in the socket ahead of the
//! client reading them — with an unbounded window, both directions'
//! kernel buffers can fill and deadlock the exchange (the server stops
//! reading while its replies cannot be written). Keep the window modest
//! if requests or replies are huge (e.g. large `Scan`s).
//!
//! # Timed-out writes and visibility
//!
//! A write answered `Deadline` (or any non-`Ok` status after admission)
//! was *not* cancelled — the batch stays in the admission lanes and may
//! publish after the error frame was already sent. The session cannot
//! learn that write's exact epoch, so strict read-your-writes does not
//! cover it. Two mechanisms bound the hazard: error frames carry the
//! server's freshest published epoch at answer time, and the client
//! ratchets its session epoch from **every** response frame, errors
//! included. A timed-out write that published before its error frame
//! was built is therefore already under the session floor; one that
//! publishes later stays invisible to this session's floored reads only
//! until any subsequent frame raises the floor past it. Treat
//! `Deadline` on a write as "outcome unknown", not "did not happen".

use std::io::{BufReader, Write};
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};

use serde::de::Deserialize;
use serde::ser::Serialize;

use crate::engine::{BatchReply, EngineStats};
use crate::error::Status;
use crate::ops::{MapRead, MapReply, MultiMapRead, MultiMapReply, SetRead, SetReply};
use crate::proto::{
    append_frame, decode_value, encode_value, read_frame, write_frame, Frame, OpCode, WireError,
    DEFAULT_MAX_PAYLOAD,
};

/// A client-side request failure: either the wire broke, or the server
/// answered with a non-`Ok` status.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed (connection loss, truncation,
    /// malformed or unexpected frames, undecodable payloads).
    Wire(WireError),
    /// The server processed the exchange and reported a failure — the
    /// engine's taxonomy, carried by its stable wire code.
    Remote(Status),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Remote(status) => write!(f, "server answered {status}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

impl From<trie_common::snapshot::SnapshotError> for ClientError {
    fn from(e: trie_common::snapshot::SnapshotError) -> ClientError {
        ClientError::Wire(WireError::Codec(e))
    }
}

/// One op in a pipelined script: a read batch or a write batch, in the
/// served store's vocabulary. See [`Client::pipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOp<Q, E> {
    /// A read batch, floored at the session epoch when its window is
    /// sent (the server's per-connection barrier extends the floor over
    /// writes earlier in the script).
    Read(Vec<Q>),
    /// A write batch, staged through the server's admission lanes.
    Write(Vec<E>),
}

/// The in-order reply to one [`ScriptOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptReply<R> {
    /// The read's replies, tagged with the answering epoch.
    Read(BatchReply<R>),
    /// The write's visibility epoch.
    Write(u64),
    /// The server answered this op with a failure status; the rest of
    /// the script was still processed.
    Failed(Status),
}

/// A typed wire client over one reused connection: `Q` is the read-op
/// type, `R` its reply, `E` the edit type — matching the served store's
/// [`Serve`](crate::Serve) vocabulary. Use the aliases ([`MapClient`],
/// [`SetClient`], [`MultiMapClient`]) for the built-in stores.
pub struct Client<Q, R, E> {
    /// Responses are read through the buffer, so a reply frame usually
    /// costs one `read` syscall; requests are written to the stream
    /// underneath it.
    stream: BufReader<TcpStream>,
    max_payload: usize,
    last_epoch: u64,
    pipeline_window: usize,
    _vocabulary: PhantomData<fn(Q, E) -> R>,
}

/// A client for a served [`ShardedMap`](sharded::ShardedMap).
pub type MapClient<K, V> = Client<MapRead<K>, MapReply<K, V>, trie_common::ops::MapEdit<K, V>>;

/// A client for a served [`ShardedSet`](sharded::ShardedSet).
pub type SetClient<T> = Client<SetRead<T>, SetReply<T>, trie_common::ops::SetEdit<T>>;

/// A client for a served [`ShardedMultiMap`](sharded::ShardedMultiMap).
pub type MultiMapClient<K, V> =
    Client<MultiMapRead<K, V>, MultiMapReply<K, V>, trie_common::ops::MultiMapEdit<K, V>>;

impl<Q, R, E> Client<Q, R, E> {
    /// Connects with the default payload cap and an empty session (no
    /// visibility floor).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, DEFAULT_MAX_PAYLOAD)
    }

    /// [`Client::connect`] with an explicit cap on *response* payload
    /// size (frames above it are rejected before allocation).
    pub fn connect_with(addr: impl ToSocketAddrs, max_payload: usize) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            max_payload,
            last_epoch: 0,
            pipeline_window: 32,
            _vocabulary: PhantomData,
        })
    }

    /// Requests per window in [`Client::pipeline`]: a window's frames go
    /// out in one write, then its replies are read before the next
    /// window. Default 32.
    pub fn pipeline_window(&self) -> usize {
        self.pipeline_window
    }

    /// Sets [`Client::pipeline_window`] (clamped to at least 1). Shrink
    /// it when replies are large; grow it to amortize syscalls further
    /// on small-op scripts.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.pipeline_window = window.max(1);
    }

    /// The session epoch: the newest visibility epoch this client's acks
    /// and replies have carried. Hand it to another connection's
    /// [`Client::resume_at`] to extend read-your-writes across
    /// connections.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Raises the session epoch to `epoch` (a floor from another
    /// session, a durable cursor, …). Lower values are ignored — the
    /// session epoch never moves backwards.
    pub fn resume_at(&mut self, epoch: u64) {
        self.last_epoch = self.last_epoch.max(epoch);
    }

    /// One request/response exchange on the reused connection.
    fn exchange(&mut self, request: &Frame, want: OpCode) -> Result<Frame, ClientError> {
        write_frame(self.stream.get_mut(), request)?;
        self.receive(want)
    }

    /// Reads the next response frame and accepts it as the answer to a
    /// `want` request: ratchet the session epoch, then check the status,
    /// then the op.
    fn receive(&mut self, want: OpCode) -> Result<Frame, ClientError> {
        let response = read_frame(&mut self.stream, self.max_payload)?;
        // Ratchet from *every* response frame, error frames included —
        // an error frame's epoch is real visibility information (see the
        // module docs on timed-out writes), and skipping it would leave
        // a read-your-writes hole after a `Deadline`-answered write.
        self.last_epoch = self.last_epoch.max(response.epoch);
        if !response.status.is_ok() {
            return Err(ClientError::Remote(response.status));
        }
        if response.op != want {
            return Err(ClientError::Wire(WireError::UnexpectedFrame(response.op)));
        }
        Ok(response)
    }

    /// Fetches the server engine's operation counters.
    pub fn stats(&mut self) -> Result<EngineStats, ClientError> {
        let request = Frame::request(OpCode::StatsReq, self.last_epoch, Vec::new());
        let response = self.exchange(&request, OpCode::StatsResp)?;
        Ok(decode_value(&response.payload).map_err(WireError::Codec)?)
    }
}

impl<Q: Serialize, R: for<'de> Deserialize<'de>, E> Client<Q, R, E> {
    /// Sends a read batch floored at the session epoch: the reply is
    /// answered against one snapshot that includes every write this
    /// session has been acked (read-your-writes), tagged with its epoch.
    pub fn read(&mut self, ops: Vec<Q>) -> Result<BatchReply<R>, ClientError> {
        self.read_at(self.last_epoch, ops)
    }

    /// [`Client::read`] with an explicit visibility floor (pass `0` for
    /// "whatever is current"). Floors above the server's published epoch
    /// are rejected with [`Status::FutureEpoch`] rather than waiting.
    pub fn read_at(&mut self, min_epoch: u64, ops: Vec<Q>) -> Result<BatchReply<R>, ClientError> {
        let payload = encode_value(&ops)?;
        let request = Frame::request(OpCode::ReadReq, min_epoch, payload);
        let response = self.exchange(&request, OpCode::ReadResp)?;
        let replies: Vec<R> = decode_value(&response.payload).map_err(WireError::Codec)?;
        Ok(BatchReply {
            epoch: response.epoch,
            replies,
        })
    }
}

impl<Q, R, E: Serialize> Client<Q, R, E> {
    /// Stages a write batch on the server and waits for its visibility
    /// epoch. The epoch is folded into the session, so a subsequent
    /// [`Client::read`] — on this connection or any connection resumed
    /// from [`Client::last_epoch`] — sees the batch.
    pub fn write(&mut self, edits: Vec<E>) -> Result<u64, ClientError> {
        let payload = encode_value(&edits)?;
        let request = Frame::request(OpCode::WriteReq, self.last_epoch, payload);
        let response = self.exchange(&request, OpCode::WriteResp)?;
        Ok(response.epoch)
    }
}

impl<Q, R, E> Client<Q, R, E>
where
    Q: Serialize,
    R: for<'de> Deserialize<'de>,
    E: Serialize,
{
    /// Runs a pipelined script: many requests in flight on the one
    /// connection, replies collected strictly in script order.
    ///
    /// Requests are sent in windows of [`Client::pipeline_window`]
    /// frames — one buffered write per window, then that window's
    /// replies — so an N-op script costs roughly one round trip per
    /// window instead of one per op. Reads are floored at the session
    /// epoch as of their window; the server's per-connection write→read
    /// barrier makes a read later in the script observe writes earlier
    /// in it, even within one window. The session epoch ratchets from
    /// every reply, errors included.
    ///
    /// Per-op server failures come back as [`ScriptReply::Failed`] in
    /// the op's slot; `Err` is reserved for transport/framing loss,
    /// after which the connection is unusable.
    pub fn pipeline(
        &mut self,
        script: Vec<ScriptOp<Q, E>>,
    ) -> Result<Vec<ScriptReply<R>>, ClientError> {
        let mut replies = Vec::with_capacity(script.len());
        let mut buf = Vec::new();
        for window in script.chunks(self.pipeline_window) {
            buf.clear();
            for op in window {
                let frame = match op {
                    ScriptOp::Read(ops) => {
                        Frame::request(OpCode::ReadReq, self.last_epoch, encode_value(ops)?)
                    }
                    ScriptOp::Write(edits) => {
                        Frame::request(OpCode::WriteReq, self.last_epoch, encode_value(edits)?)
                    }
                };
                append_frame(&mut buf, &frame);
            }
            self.stream.get_mut().write_all(&buf)?;
            self.stream.get_mut().flush()?;
            for op in window {
                let want = match op {
                    ScriptOp::Read(_) => OpCode::ReadResp,
                    ScriptOp::Write(_) => OpCode::WriteResp,
                };
                let response = match self.receive(want) {
                    Ok(response) => response,
                    Err(ClientError::Remote(status)) => {
                        replies.push(ScriptReply::Failed(status));
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                replies.push(match op {
                    ScriptOp::Read(_) => ScriptReply::Read(BatchReply {
                        epoch: response.epoch,
                        replies: decode_value(&response.payload).map_err(WireError::Codec)?,
                    }),
                    ScriptOp::Write(_) => ScriptReply::Write(response.epoch),
                });
            }
        }
        Ok(replies)
    }
}

impl<Q, R, E> std::fmt::Debug for Client<Q, R, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.get_ref().peer_addr().ok())
            .field("last_epoch", &self.last_epoch)
            .finish()
    }
}

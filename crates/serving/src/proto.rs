//! The wire framing layer: length-prefixed binary frames carrying
//! snapshot-codec payloads.
//!
//! A frame is a fixed 24-byte header followed by `payload_len` bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"AXWP"
//!      4     2  protocol version (little-endian u16; currently 1)
//!      6     1  op code ([`OpCode`])
//!      7     1  reserved (must be 0)
//!      8     2  status code ([`Status`], little-endian u16)
//!     10     2  reserved (must be 0)
//!     12     8  epoch (little-endian u64; see below)
//!     20     4  payload length in bytes (little-endian u32)
//! ```
//!
//! The payload, when present, is exactly one value in the
//! `trie_common::snapshot` tagged binary codec
//! ([`encode_value`]/[`decode_value`]) — the same self-describing format
//! snapshot files use, so the corruption posture carries over: a frame is
//! validated *before* anything is decoded or allocated (magic, version,
//! known op and status codes, payload length against a hard cap), and a
//! malformed payload yields a typed [`SnapshotError`], never a panic.
//!
//! The `epoch` field is the session layer's carrier: on requests it is the
//! client's visibility floor (0 = none), on responses the epoch the answer
//! is valid at — see `DESIGN.md` §10 for the full semantics.
//!
//! Frames are self-delimiting, and nothing in the framing ties a response
//! to its request by id: the protocol is *pipelined* Redis-style instead.
//! A client may have any number of request frames in flight on one
//! connection, and the server guarantees responses come back **in request
//! order** — the k-th response frame on a connection answers the k-th
//! request frame ([`append_frame`] is the batching primitive both sides
//! use to pack a window of frames into one socket write).

use std::io::{Read, Write};

use trie_common::snapshot::SnapshotError;
pub use trie_common::snapshot::{decode_value, encode_value};

use crate::error::Status;

/// First four bytes of every frame (`AXWP`: the workspace's wire protocol).
pub const WIRE_MAGIC: [u8; 4] = *b"AXWP";

/// Protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;

/// Size of the fixed frame header, in bytes.
pub const HEADER_LEN: usize = 24;

/// Default cap on a frame's payload length. Validation rejects larger
/// frames *before* allocating, so a corrupt or hostile length prefix
/// cannot make the peer reserve unbounded memory.
pub const DEFAULT_MAX_PAYLOAD: usize = 32 << 20;

/// The operation a frame carries. Requests use the low code space,
/// responses the high one (bit 7 set), so a peer can tell at the header
/// whether it is looking at traffic for the serving or the calling side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Client → server: a read batch (`Vec<Read>` payload; header epoch =
    /// session visibility floor, 0 for none).
    ReadReq = 1,
    /// Client → server: a write batch (`Vec<Edit>` payload).
    WriteReq = 2,
    /// Client → server: engine counters request (no payload).
    StatsReq = 3,
    /// Server → client: read replies (`Vec<Reply>` payload; header epoch =
    /// the epoch every reply was answered at).
    ReadResp = 0x81,
    /// Server → client: write ack (no payload; header epoch = the batch's
    /// visibility epoch).
    WriteResp = 0x82,
    /// Server → client: engine counters (`EngineStats` payload).
    StatsResp = 0x83,
    /// Server → client: the request failed; the header's status code says
    /// why (no payload).
    ErrorResp = 0xFF,
}

/// Every defined op code (supports round-trip tests and table generation).
pub const ALL_OP_CODES: [OpCode; 7] = [
    OpCode::ReadReq,
    OpCode::WriteReq,
    OpCode::StatsReq,
    OpCode::ReadResp,
    OpCode::WriteResp,
    OpCode::StatsResp,
    OpCode::ErrorResp,
];

impl OpCode {
    /// The code's wire byte.
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// The op a wire byte names, or `None` for bytes this build does not
    /// know.
    pub const fn from_code(code: u8) -> Option<OpCode> {
        Some(match code {
            1 => OpCode::ReadReq,
            2 => OpCode::WriteReq,
            3 => OpCode::StatsReq,
            0x81 => OpCode::ReadResp,
            0x82 => OpCode::WriteResp,
            0x83 => OpCode::StatsResp,
            0xFF => OpCode::ErrorResp,
            _ => return None,
        })
    }

    /// True for the client → server half of the code space.
    pub const fn is_request(self) -> bool {
        (self as u8) & 0x80 == 0
    }
}

/// One parsed wire frame: the validated header fields plus the raw
/// payload bytes (decoded separately by the typed layer above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub op: OpCode,
    /// Outcome code (requests always send [`Status::Ok`]).
    pub status: Status,
    /// Visibility floor (requests) or answering/visibility epoch
    /// (responses).
    pub epoch: u64,
    /// The payload: one snapshot-codec value, or empty.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request frame (status `Ok`).
    pub fn request(op: OpCode, epoch: u64, payload: Vec<u8>) -> Frame {
        Frame {
            op,
            status: Status::Ok,
            epoch,
            payload,
        }
    }

    /// An error response carrying only a status code.
    pub fn error(status: Status, epoch: u64) -> Frame {
        Frame {
            op: OpCode::ErrorResp,
            status,
            epoch,
            payload: Vec::new(),
        }
    }
}

/// Why a frame could not be read, written, or understood.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket or stream failed (includes truncation, which
    /// surfaces as `UnexpectedEof`).
    Io(std::io::Error),
    /// The frame did not start with [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u16),
    /// The header's op byte is not a defined [`OpCode`].
    UnknownOp(u8),
    /// The header's status code is not a defined [`Status`].
    UnknownStatus(u16),
    /// A reserved header field held a nonzero value.
    ReservedNonZero,
    /// The header announced a payload larger than the configured cap; the
    /// frame was rejected before any allocation.
    PayloadTooLarge {
        /// The announced payload length.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The payload bytes did not decode as the expected codec value.
    Codec(SnapshotError),
    /// The peer answered with a frame the exchange did not call for
    /// (e.g. a write ack to a read request).
    UnexpectedFrame(OpCode),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speaking {WIRE_VERSION})"
                )
            }
            WireError::UnknownOp(b) => write!(f, "unknown op code {b:#04x}"),
            WireError::UnknownStatus(c) => write!(f, "unknown status code {c}"),
            WireError::ReservedNonZero => f.write_str("reserved header field nonzero"),
            WireError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Codec(e) => write!(f, "payload did not decode: {e}"),
            WireError::UnexpectedFrame(op) => {
                write!(f, "unexpected {op:?} frame for this exchange")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<SnapshotError> for WireError {
    fn from(e: SnapshotError) -> WireError {
        WireError::Codec(e)
    }
}

/// Serializes a frame's header into its 24 wire bytes.
pub fn encode_header(frame: &Frame) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&WIRE_MAGIC);
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6] = frame.op.code();
    header[8..10].copy_from_slice(&frame.status.code().to_le_bytes());
    header[12..20].copy_from_slice(&frame.epoch.to_le_bytes());
    header[20..24].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    header
}

/// Validates 24 header bytes and returns `(frame-without-payload,
/// payload_len)`. This is the *inspect* step: everything checkable before
/// touching (or allocating for) the payload is checked here.
pub fn decode_header(
    header: &[u8; HEADER_LEN],
    max_payload: usize,
) -> Result<(Frame, usize), WireError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let op = OpCode::from_code(header[6]).ok_or(WireError::UnknownOp(header[6]))?;
    let status_code = u16::from_le_bytes(header[8..10].try_into().expect("2-byte slice"));
    let status = Status::from_code(status_code).ok_or(WireError::UnknownStatus(status_code))?;
    if header[7] != 0 || header[10] != 0 || header[11] != 0 {
        return Err(WireError::ReservedNonZero);
    }
    let epoch = u64::from_le_bytes(header[12..20].try_into().expect("8-byte slice"));
    let payload_len = u32::from_le_bytes(header[20..24].try_into().expect("4-byte slice")) as usize;
    if payload_len > max_payload {
        return Err(WireError::PayloadTooLarge {
            len: payload_len,
            max: max_payload,
        });
    }
    Ok((
        Frame {
            op,
            status,
            epoch,
            payload: Vec::new(),
        },
        payload_len,
    ))
}

/// Writes one frame (header + payload) to `w` in a single `write_all`
/// and flushes, so a `TCP_NODELAY` socket sends it as one segment.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    append_frame(&mut buf, frame);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Appends one frame's wire bytes to `buf` without touching a socket —
/// the batching primitive underneath pipelining: a client window or a
/// server connection's replies pack many frames into one buffer and pay
/// a single `write_all` for all of them.
pub fn append_frame(buf: &mut Vec<u8>, frame: &Frame) {
    debug_assert!(frame.payload.len() <= u32::MAX as usize);
    buf.extend_from_slice(&encode_header(frame));
    buf.extend_from_slice(&frame.payload);
}

/// Reads one frame from `r`, validating the header before allocating for
/// (or reading) the payload. Truncation surfaces as
/// [`WireError::Io`]`(UnexpectedEof)`.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (mut frame, payload_len) = decode_header(&header, max_payload)?;
    if payload_len > 0 {
        let mut payload = vec![0u8; payload_len];
        r.read_exact(&mut payload)?;
        frame.payload = payload;
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame {
            op: OpCode::ReadReq,
            status: Status::Ok,
            epoch: 42,
            payload: encode_value(&vec![1u64, 2, 3]).unwrap(),
        }
    }

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame()).unwrap();
        let got = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(got, frame());
        let nums: Vec<u64> = decode_value(&got.payload).unwrap();
        assert_eq!(nums, vec![1, 2, 3]);
    }

    #[test]
    fn op_codes_roundtrip_and_split_by_direction() {
        for op in ALL_OP_CODES {
            assert_eq!(OpCode::from_code(op.code()), Some(op));
        }
        assert_eq!(OpCode::from_code(0), None);
        assert_eq!(OpCode::from_code(0x90), None);
        assert!(OpCode::ReadReq.is_request());
        assert!(!OpCode::ReadResp.is_request());
        assert!(!OpCode::ErrorResp.is_request());
    }

    #[test]
    fn header_validation_rejects_before_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame()).unwrap();

        // Announce a payload far past the cap: the reader must reject at
        // the header, long before `payload_len` bytes could be reserved.
        let mut huge = buf.clone();
        huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut huge.as_slice(), 1 << 20) {
            Err(WireError::PayloadTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1 << 20);
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'Z';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = buf.clone();
        bad_version[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad_version.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion(9))
        ));

        let mut bad_op = buf.clone();
        bad_op[6] = 0x7E;
        assert!(matches!(
            read_frame(&mut bad_op.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownOp(0x7E))
        ));

        let mut bad_status = buf.clone();
        bad_status[8..10].copy_from_slice(&999u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad_status.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownStatus(999))
        ));

        let mut reserved = buf;
        reserved[7] = 1;
        assert!(matches!(
            read_frame(&mut reserved.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::ReservedNonZero)
        ));
    }

    #[test]
    fn write_frame_issues_one_write() {
        struct CountingWriter(usize);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter(0);
        write_frame(&mut w, &frame()).unwrap();
        assert_eq!(w.0, 1, "header and payload must go out in one write");
    }

    #[test]
    fn buffered_reads_take_back_to_back_frames_in_one_read() {
        struct CountingReader<'a> {
            bytes: &'a [u8],
            reads: usize,
        }
        impl Read for CountingReader<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.reads += 1;
                self.bytes.read(buf)
            }
        }
        let mut wire = Vec::new();
        append_frame(&mut wire, &frame());
        append_frame(&mut wire, &Frame::error(Status::Deadline, 7));
        let mut r = std::io::BufReader::new(CountingReader {
            bytes: &wire,
            reads: 0,
        });
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap(), frame());
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap(),
            Frame::error(Status::Deadline, 7)
        );
        assert_eq!(r.get_ref().reads, 1, "both frames must come from one read");
    }

    #[test]
    fn truncation_surfaces_as_io_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame()).unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            match read_frame(&mut &buf[..cut], DEFAULT_MAX_PAYLOAD) {
                Err(WireError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                }
                other => panic!("cut at {cut}: expected EOF, got {other:?}"),
            }
        }
    }
}

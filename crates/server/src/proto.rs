//! The wire protocol: versioned, length-prefixed, CRC-checked frames.
//!
//! Every message on a connection is one *frame*:
//!
//! ```text
//! magic       4 bytes   "PQSV"
//! version     u8        currently 1
//! kind        u8        frame type (see [`FrameKind`])
//! reserved    u16 LE    must be 0
//! payload_len u32 LE    payload byte count (capped, see [`MAX_PAYLOAD`])
//! payload     payload_len bytes
//! crc         u32 LE    CRC-32 (IEEE) of the payload bytes
//! ```
//!
//! Payload plus CRC is [`pqfs_core::codec`]'s CRC-trailed block, the one
//! the persist formats put after a `u64` length, and payloads decode
//! through its [`Reader`]: a flipped payload bit is [`ProtoError::Crc`],
//! EOF inside a frame [`ProtoError::Truncated`], every count is capped
//! before anything is allocated, trailing garbage is
//! [`ProtoError::TrailingBytes`], and no input panics. `docs/SERVING.md`
//! has the payload layouts.

use pqfs_core::codec::{read_array, read_block, write_block, CodecError, Put, Reader};
use pqfs_core::Neighbor;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PQSV";
/// Current protocol version; readers reject anything else.
pub const VERSION: u8 = 1;
/// Fixed frame-header length (magic + version + kind + reserved + len).
pub const HEADER_LEN: usize = 12;
/// Hard cap on `payload_len`: frames above this are rejected before any
/// allocation (64 MiB fits ~130k 128-dim f32 queries in one batch).
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Caps on decoded quantities, enforced before allocation.
const MAX_DIM: u32 = 1 << 16;
const MAX_BATCH: u32 = 1 << 20;
const MAX_TOPK: u32 = 1 << 20;
const MAX_BACKEND_LEN: u64 = 64;
const MAX_MESSAGE_LEN: u64 = 1 << 16;

/// Declares a wire enum and its decoder from one list, so each variant's
/// byte is written once.
macro_rules! wire_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $v:ident = $b:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vdoc])* $v = $b,)*
        }

        impl $name {
            fn from_u8(b: u8) -> Option<$name> {
                match b {
                    $($b => Some($name::$v),)*
                    _ => None,
                }
            }
        }
    };
}

wire_enum! {
    /// Frame types. Requests have the high bit clear, responses set; error
    /// responses live at `0xE0..`.
    FrameKind {
        /// Request: one query vector.
        Query = 0x01,
        /// Request: a batch of query vectors sharing one parameter set.
        BatchQuery = 0x02,
        /// Request: liveness + index shape.
        Health = 0x03,
        /// Request: the server's telemetry snapshot.
        Stats = 0x04,
        /// Response to [`FrameKind::Query`].
        QueryResult = 0x81,
        /// Response to [`FrameKind::BatchQuery`].
        BatchResult = 0x82,
        /// Response to [`FrameKind::Health`].
        HealthInfo = 0x83,
        /// Response to [`FrameKind::Stats`] (JSON text payload).
        StatsJson = 0x84,
        /// Typed failure (bad frame, bad request, search failure, shutdown).
        Error = 0xE0,
        /// Admission control shed this request: the queue was full.
        Overloaded = 0xE1,
    }
}

wire_enum! {
    /// Why a request failed, carried in [`Response::Error`].
    ErrorCode {
        /// The frame itself was malformed (bad magic/CRC/layout); the server
        /// closes the connection after sending this, since the stream cannot
        /// be resynchronized.
        BadFrame = 1,
        /// The frame decoded but its contents were invalid (wrong dimension,
        /// unknown backend, zero topk, …). The connection stays usable.
        BadRequest = 2,
        /// The search itself failed (every probe failed, backend error).
        SearchFailed = 3,
        /// The server is draining for shutdown and admits no new work.
        ShuttingDown = 4,
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::SearchFailed => "search-failed",
            ErrorCode::ShuttingDown => "shutting-down",
        })
    }
}

/// Protocol-level failures (framing and payload decoding).
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The frame does not start with [`MAGIC`].
    Magic([u8; 4]),
    /// Unsupported protocol version.
    Version(u8),
    /// Unknown frame type byte.
    Kind(u8),
    /// The reserved header field was nonzero.
    Reserved(u16),
    /// `payload_len` exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// The payload CRC does not match its contents.
    Crc {
        /// CRC stored in the frame trailer.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// The stream ended inside a frame.
    Truncated(&'static str),
    /// The payload layout is invalid (bad length, cap exceeded, trailing
    /// garbage, invalid enum value).
    Malformed(String),
    /// The payload was longer than its own declared contents.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::Magic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::Version(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Kind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Reserved(r) => write!(f, "nonzero reserved header field {r:#06x}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte cap")
            }
            ProtoError::Crc { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ProtoError::Truncated(what) => write!(f, "stream truncated inside {what}"),
            ProtoError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            ProtoError::TrailingBytes(n) => {
                write!(f, "{n} trailing payload bytes after the last field")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => ProtoError::Io(e),
            CodecError::Truncated(what) => ProtoError::Truncated(what),
            CodecError::TrailingBytes(n) => ProtoError::TrailingBytes(n),
            CodecError::Limit { what, value, max } => {
                ProtoError::Malformed(format!("{what} {value} exceeds the cap {max}"))
            }
            CodecError::Checksum {
                stored, computed, ..
            } => ProtoError::Crc { stored, computed },
            CodecError::Format(msg) => ProtoError::Malformed(msg),
        }
    }
}

/// One raw frame: its type and undecoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// The payload bytes (CRC already verified on read).
    pub payload: Vec<u8>,
}

/// Writes one frame (header, payload, CRC trailer). The writer is not
/// flushed; callers flush once per response.
///
/// # Errors
///
/// [`ProtoError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`], or
/// the underlying IO error.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), ProtoError> {
    let len = capped(u32::try_from(payload.len()).unwrap_or(u32::MAX))?;
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.put_bytes(&MAGIC);
    header.put_u8(VERSION);
    header.put_u8(kind as u8);
    header.put_u16(0); // reserved
    header.put_u32(len);
    w.write_all(&header)?;
    write_block(w, payload)?;
    Ok(())
}

/// Reads one frame, verifying magic, version, the payload cap and the CRC.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer hung
/// up between requests); EOF anywhere inside a frame is
/// [`ProtoError::Truncated`], and any other read failure is
/// [`ProtoError::Io`].
///
/// # Errors
///
/// Any [`ProtoError`] variant; the stream position is unspecified after an
/// error, so callers must close the connection.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
    // The first byte alone, to tell "no next frame" from "torn frame".
    let first: [u8; 1] = match read_array(r, "frame header") {
        Err(CodecError::Truncated(_)) => return Ok(None),
        first => first?,
    };
    let header: [u8; HEADER_LEN] = read_array(&mut (&first[..]).chain(&mut *r), "frame header")?;
    let mut rd = Reader::new(&header, "frame header");
    let magic: [u8; 4] = rd.u32()?.to_le_bytes();
    if magic != MAGIC {
        return Err(ProtoError::Magic(magic));
    }
    let (version, kind, reserved, len) = (rd.u8()?, rd.u8()?, rd.u16()?, rd.u32()?);
    if version != VERSION {
        return Err(ProtoError::Version(version));
    }
    let kind = FrameKind::from_u8(kind).ok_or(ProtoError::Kind(kind))?;
    if reserved != 0 {
        return Err(ProtoError::Reserved(reserved));
    }
    let (payload, _crc) = read_block(r, capped(len)?.into(), "frame payload")?;
    Ok(Some(Frame { kind, payload }))
}

/// `len` if it is within [`MAX_PAYLOAD`].
fn capped(len: u32) -> Result<u32, ProtoError> {
    match len {
        0..=MAX_PAYLOAD => Ok(len),
        _ => Err(ProtoError::Oversized {
            len,
            max: MAX_PAYLOAD,
        }),
    }
}

// --- typed messages --------------------------------------------------------

/// Search parameters shared by single and batch queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParams {
    /// Neighbors to return per query (must be positive).
    pub topk: u32,
    /// Partitions to probe per query (must be positive).
    pub nprobe: u32,
    /// Fast Scan keep fraction (candidate ratio kept exact).
    pub keep: f64,
    /// Per-request deadline in microseconds, measured from *arrival at the
    /// server*; `0` means no deadline. Queue wait counts against it, and
    /// the remainder flows into the budgeted multi-probe search (the
    /// nearest probe always runs).
    pub deadline_us: u64,
    /// Scan backend name (empty = the server's default backend).
    pub backend: String,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            topk: 10,
            nprobe: 1,
            keep: 0.005,
            deadline_us: 0,
            backend: String::new(),
        }
    }
}

/// A query request: parameters plus one or more row-major query vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Shared search parameters.
    pub params: QueryParams,
    /// Vector dimensionality.
    pub dim: u32,
    /// `count × dim` row-major components.
    pub queries: Vec<f32>,
}

impl QueryRequest {
    /// Number of query vectors carried.
    pub fn count(&self) -> usize {
        self.queries
            .len()
            .checked_div(self.dim as usize)
            .unwrap_or(0)
    }
}

/// One query's answer: probe coverage plus the neighbor list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryAnswer {
    /// Probes that completed and contributed candidates.
    pub probes_ok: u32,
    /// Probes that failed (result set may be incomplete).
    pub probes_failed: u32,
    /// Probes skipped by the deadline budget.
    pub probes_skipped: u32,
    /// Nearest neighbors, ascending by `(distance, id)`.
    pub neighbors: Vec<Neighbor>,
}

impl QueryAnswer {
    /// True when some probe failed or was skipped: the neighbor list may
    /// be missing candidates (deadline shed or partition failure).
    pub fn degraded(&self) -> bool {
        self.probes_failed > 0 || self.probes_skipped > 0
    }
}

/// The health response: liveness plus index shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Total indexed vectors.
    pub vectors: u64,
    /// Coarse partition count.
    pub partitions: u32,
    /// Vector dimensionality the index serves.
    pub dim: u32,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One query vector.
    Query(QueryRequest),
    /// A batch sharing one parameter set.
    Batch(QueryRequest),
    /// Liveness probe.
    Health,
    /// Telemetry snapshot request.
    Stats,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Query(QueryAnswer),
    /// Answers to [`Request::Batch`], in query order.
    Batch(Vec<QueryAnswer>),
    /// Answer to [`Request::Health`].
    Health(HealthInfo),
    /// Answer to [`Request::Stats`]: the JSON snapshot text.
    Stats(String),
    /// Typed failure.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Shed by admission control: the bounded queue was full.
    Overloaded {
        /// Configured queue capacity.
        capacity: u32,
        /// Queue depth observed at rejection.
        depth: u32,
    },
}

// --- encoding --------------------------------------------------------------

/// The longest prefix of `s` of at most `max` bytes that ends on a char
/// boundary, so a capped string still decodes as UTF-8.
fn clip(s: &str, max: usize) -> &[u8] {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

fn put_params(out: &mut Vec<u8>, p: &QueryParams) {
    out.put_u32(p.topk);
    out.put_u32(p.nprobe);
    out.put_f64(p.keep);
    out.put_u64(p.deadline_us);
    let name = clip(&p.backend, MAX_BACKEND_LEN as usize);
    out.put_u8(name.len() as u8);
    out.put_bytes(name);
}

fn put_answer(out: &mut Vec<u8>, a: &QueryAnswer) {
    out.put_u32(a.probes_ok);
    out.put_u32(a.probes_failed);
    out.put_u32(a.probes_skipped);
    out.put_u32(u32::try_from(a.neighbors.len()).unwrap_or(u32::MAX));
    for nb in &a.neighbors {
        out.put_u64(nb.id);
        out.put_f32(nb.dist);
    }
}

fn put_queries(out: &mut Vec<u8>, req: &QueryRequest, with_count: bool) {
    out.reserve(64 + req.queries.len() * 4);
    put_params(out, &req.params);
    out.put_u32(req.dim);
    if with_count {
        out.put_u32(u32::try_from(req.count()).unwrap_or(u32::MAX));
    }
    out.put_f32s(&req.queries);
}

impl Request {
    /// Serializes into a frame.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        let kind = match self {
            Request::Query(req) => {
                put_queries(&mut payload, req, false);
                FrameKind::Query
            }
            Request::Batch(req) => {
                put_queries(&mut payload, req, true);
                FrameKind::BatchQuery
            }
            Request::Health => FrameKind::Health,
            Request::Stats => FrameKind::Stats,
        };
        Frame { kind, payload }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Kind`] for response-typed frames,
    /// [`ProtoError::Malformed`]/[`ProtoError::TrailingBytes`] for invalid
    /// payload layouts.
    pub fn from_frame(frame: &Frame) -> Result<Request, ProtoError> {
        let mut rd = Reader::new(&frame.payload, "payload field");
        let req = match frame.kind {
            FrameKind::Query => Request::Query(queries(&mut rd, false)?),
            FrameKind::BatchQuery => Request::Batch(queries(&mut rd, true)?),
            FrameKind::Health => Request::Health,
            FrameKind::Stats => Request::Stats,
            other => return Err(ProtoError::Kind(other as u8)),
        };
        rd.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into a frame.
    pub fn to_frame(&self) -> Frame {
        let mut out = Vec::new();
        let kind = match self {
            Response::Query(a) => {
                out.reserve(16 + a.neighbors.len() * 12);
                put_answer(&mut out, a);
                FrameKind::QueryResult
            }
            Response::Batch(answers) => {
                out.put_u32(u32::try_from(answers.len()).unwrap_or(u32::MAX));
                for a in answers {
                    put_answer(&mut out, a);
                }
                FrameKind::BatchResult
            }
            Response::Health(h) => {
                out.put_u64(h.vectors);
                out.put_u32(h.partitions);
                out.put_u32(h.dim);
                FrameKind::HealthInfo
            }
            Response::Stats(json) => {
                out.put_bytes(json.as_bytes());
                FrameKind::StatsJson
            }
            Response::Error { code, message } => {
                let msg = clip(message, MAX_MESSAGE_LEN as usize);
                out.put_u8(*code as u8);
                out.put_u32(msg.len() as u32);
                out.put_bytes(msg);
                FrameKind::Error
            }
            Response::Overloaded { capacity, depth } => {
                out.put_u32(*capacity);
                out.put_u32(*depth);
                FrameKind::Overloaded
            }
        };
        Frame { kind, payload: out }
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Kind`] for request-typed frames,
    /// [`ProtoError::Malformed`]/[`ProtoError::TrailingBytes`] for invalid
    /// payload layouts.
    pub fn from_frame(frame: &Frame) -> Result<Response, ProtoError> {
        let mut rd = Reader::new(&frame.payload, "payload field");
        let resp = match frame.kind {
            FrameKind::QueryResult => Response::Query(answer(&mut rd)?),
            FrameKind::BatchResult => {
                let n = Reader::count(rd.u32()?.into(), MAX_BATCH.into(), "batch result count")?;
                // Grown as answers decode, not sized up front from `n`.
                let answers = (0..n).map(|_| answer(&mut rd));
                Response::Batch(answers.collect::<Result<_, _>>()?)
            }
            FrameKind::HealthInfo => Response::Health(HealthInfo {
                vectors: rd.u64()?,
                partitions: rd.u32()?,
                dim: rd.u32()?,
            }),
            FrameKind::StatsJson => {
                Response::Stats(utf8(rd.bytes(rd.remaining())?, "stats payload")?)
            }
            FrameKind::Error => {
                let raw = rd.u8()?;
                let code = ErrorCode::from_u8(raw)
                    .ok_or_else(|| ProtoError::Malformed(format!("error code {raw}")))?;
                let len = Reader::count(rd.u32()?.into(), MAX_MESSAGE_LEN, "error message length")?;
                let message = utf8(rd.bytes(len)?, "error message")?;
                Response::Error { code, message }
            }
            FrameKind::Overloaded => Response::Overloaded {
                capacity: rd.u32()?,
                depth: rd.u32()?,
            },
            other => return Err(ProtoError::Kind(other as u8)),
        };
        rd.finish()?;
        Ok(resp)
    }
}

// --- decoding --------------------------------------------------------------

fn utf8(bytes: &[u8], what: &str) -> Result<String, ProtoError> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ProtoError::Malformed(format!("{what} is not UTF-8")))
}

fn params(rd: &mut Reader<'_>) -> Result<QueryParams, ProtoError> {
    let (topk, nprobe, keep, deadline_us) = (rd.u32()?, rd.u32()?, rd.f64()?, rd.u64()?);
    if topk == 0 || topk > MAX_TOPK {
        return Err(ProtoError::Malformed(format!(
            "topk {topk} out of range 1..={MAX_TOPK}"
        )));
    }
    if nprobe == 0 {
        return Err(ProtoError::Malformed("nprobe must be positive".into()));
    }
    let len = Reader::count(rd.u8()?.into(), MAX_BACKEND_LEN, "backend name length")?;
    Ok(QueryParams {
        topk,
        nprobe,
        keep,
        deadline_us,
        backend: utf8(rd.bytes(len)?, "backend name")?,
    })
}

fn queries(rd: &mut Reader<'_>, with_count: bool) -> Result<QueryRequest, ProtoError> {
    let params = params(rd)?;
    let dim = rd.u32()?;
    if dim == 0 || dim > MAX_DIM {
        return Err(ProtoError::Malformed(format!(
            "dim {dim} out of range 1..={MAX_DIM}"
        )));
    }
    let count = if with_count { rd.u32()? } else { 1 };
    if count == 0 || count > MAX_BATCH {
        return Err(ProtoError::Malformed(format!(
            "batch count {count} out of range"
        )));
    }
    // The component count must exactly match what the payload holds; both
    // factors were just range-checked, so the product cannot wrap.
    let floats = count as usize * dim as usize;
    if rd.remaining() as u64 != floats as u64 * 4 {
        return Err(ProtoError::Malformed(format!(
            "query payload holds {} bytes but {count}x{dim} vectors need {}",
            rd.remaining(),
            floats as u64 * 4
        )));
    }
    Ok(QueryRequest {
        params,
        dim,
        queries: rd.f32s(floats)?,
    })
}

fn answer(rd: &mut Reader<'_>) -> Result<QueryAnswer, ProtoError> {
    let (probes_ok, probes_failed, probes_skipped) = (rd.u32()?, rd.u32()?, rd.u32()?);
    let n = Reader::count(rd.u32()?.into(), MAX_TOPK.into(), "neighbor count")?;
    // 12 bytes per neighbor must be in the payload before the list is
    // allocated.
    let mut list = Reader::new(rd.bytes(n * 12)?, "neighbor list");
    let mut neighbors = Vec::with_capacity(n);
    for _ in 0..n {
        neighbors.push(Neighbor {
            id: list.u64()?,
            dist: list.f32()?,
        });
    }
    Ok(QueryAnswer {
        probes_ok,
        probes_failed,
        probes_skipped,
        neighbors,
    })
}

/// Serializes a frame into an owned byte buffer (tests and clients that
/// want the raw encoding).
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len() + 4);
    // Writing into a Vec cannot fail and the payload was built by this
    // module, so the only possible error is the oversize guard.
    if write_frame(&mut out, frame.kind, &frame.payload).is_err() {
        out.clear();
    }
    out
}

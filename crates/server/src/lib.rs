//! `pqfs_server` — a std-only network serving layer for IVFADC indexes.
//!
//! The ROADMAP north star is a production system serving heavy query
//! traffic; after the kernels (`pqfs_scan`), the executor (`pqfs_pool`),
//! deadlines (`SearchRequest::deadline`) and telemetry (`pqfs_obs`), this
//! crate is the front door. André's thesis and the GPU ANN literature both
//! make the same observation: once the scan kernels are fast, throughput
//! is won by *batching at the server* so per-query fixed costs (ADC table
//! computation, dispatch) are amortized across concurrent clients.
//!
//! The design, in one pass through a request's life:
//!
//! 1. **Protocol** ([`proto`]): a small length-prefixed binary protocol —
//!    versioned 12-byte header, then the payload as `pqfs_core::codec`'s
//!    CRC-trailed block (the persist formats' section body), typed
//!    request/response frames (query, batch, health, stats, error,
//!    overloaded). Decoding is bounds-checked and panic-free; a torn or
//!    corrupted frame is a typed error, never UB or a hang.
//! 2. **Admission** ([`queue`]): a bounded request queue. When it is full
//!    the request is *shed immediately* with a typed `Overloaded` response
//!    carrying the capacity and observed depth — latency under overload
//!    stays bounded because work never stacks up invisibly.
//! 3. **Work-conserving batching** ([`queue`], [`server`]): there is no
//!    batcher thread and no timer. A connection thread that finds no wave
//!    in flight leads one itself — a lone request runs decode → search →
//!    encode → write on its own thread — and requests that arrive while a
//!    wave runs queue up behind it. The retiring leader offers its own
//!    reply to the socket without blocking, promotes the owner of the
//!    front request, and hands its followers their answers; the promoted
//!    thread takes up to `max_batch` queued queries as the next parallel
//!    wave on the shared [`pqfs_pool::ThreadPool`]. Waves fill by
//!    accumulation, run one at a time, in FIFO order, and the lead is
//!    never held across a wait on a peer. Per-request deadlines (measured
//!    from arrival, so queue wait counts) become the
//!    `SearchRequest::deadline` of each query's `IvfadcIndex::search`.
//! 4. **Shutdown** ([`signal`]): SIGTERM/SIGINT set a flag; the acceptor
//!    stops admitting, the queue closes, queued and in-flight requests
//!    are answered, then every thread is joined.
//!
//! Failure injection covers the accept/read/write/decode paths via
//! `pqfs_fault` sites (`server.*` in `failpoints.sites`), and every stage
//! reports through `pqfs_obs` (`pqfs_server_*` metrics, exposed on the
//! stats frame and the CLI `--metrics-out` flag).
//!
//! The only `unsafe` in the crate is the two-line SIGTERM handler
//! registration in [`signal`]; everything else is safe std.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;
pub mod signal;

pub use client::{Client, ClientError};
pub use proto::{
    read_frame, write_frame, ErrorCode, Frame, FrameKind, HealthInfo, ProtoError, QueryAnswer,
    QueryParams, QueryRequest, Request, Response,
};
pub use queue::{Admitted, PushError, RequestQueue, Seat};
pub use server::{Server, ServerConfig, ServerHandle};

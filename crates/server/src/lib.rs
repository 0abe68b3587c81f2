//! `pqfs_server` — a std-only network serving layer for IVFADC indexes.
//!
//! The ROADMAP north star is a production system serving heavy query
//! traffic; after the kernels (`pqfs_scan`), the executor (`pqfs_pool`),
//! deadlines (`SearchRequest::deadline`) and telemetry (`pqfs_obs`), this
//! crate is the front door. Like the paper, it answers each query on one
//! core: the server adds no work sharing between requests, only a bound on
//! how many it runs at once.
//!
//! The design, in one pass through a request's life:
//!
//! 1. **Protocol** ([`proto`]): a small length-prefixed binary protocol —
//!    versioned 12-byte header, then the payload as `pqfs_core::codec`'s
//!    CRC-trailed block (the index file's section body), typed
//!    request/response frames (query, batch, health, stats, error,
//!    overloaded). Decoding is bounds-checked and panic-free; a torn or
//!    corrupted frame is a typed error, never UB or a hang.
//! 2. **Admission** ([`server`]): one atomic count of the requests
//!    admitted and not yet answered. Above the configured bound a request
//!    is *shed immediately* with a typed `Overloaded` response carrying
//!    the capacity and observed depth — latency under overload stays
//!    bounded because work never stacks up invisibly.
//! 3. **Run to completion** ([`server`]): there is no batcher thread, no
//!    timer and no queue. Each connection thread runs its own request
//!    decode → search → encode → write; a single query searches inline, a
//!    batch frame fans its queries out on the shared
//!    [`pqfs_pool::ThreadPool`]. Requests of different connections run
//!    side by side, so none waits behind another's search. Per-request
//!    deadlines (measured from arrival) become the
//!    `SearchRequest::deadline` of each query's `IvfadcIndex::search`.
//! 4. **Shutdown** ([`signal`]): SIGTERM/SIGINT set a flag; the acceptor
//!    stops admitting, new requests are refused, admitted requests are
//!    answered, then every thread is joined.
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
pub mod server;
pub mod signal;

pub use client::{Client, ClientError};
pub use proto::{
    read_frame, write_frame, ErrorCode, Frame, FrameKind, HealthInfo, ProtoError, QueryAnswer,
    QueryParams, QueryRequest, Request, Response,
};
pub use server::{Server, ServerConfig, ServerHandle};

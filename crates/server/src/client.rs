//! A small blocking client for the serving protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time
//! (the protocol is strictly request/response per connection; open more
//! clients for concurrency). Used by the CLI `bench-client` load
//! generator, the loopback integration tests, and the benchmark.

use crate::proto::{
    read_frame, write_frame, HealthInfo, ProtoError, QueryParams, QueryRequest, Request, Response,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// Connection or socket failure.
    Io(io::Error),
    /// The server sent a malformed frame.
    Proto(ProtoError),
    /// The server closed the connection instead of answering.
    Disconnected,
    /// The response frame type does not answer the request that was sent
    /// (e.g. a batch result for a single query).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects with no socket timeouts (requests block until answered).
    ///
    /// # Errors
    ///
    /// The underlying connect/clone error.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, None)
    }

    /// Connects and applies `timeout` to reads and writes, so a wedged
    /// or fault-injected server surfaces as a timeout error instead of a
    /// hung client.
    ///
    /// # Errors
    ///
    /// The underlying connect/clone error.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Client { reader, writer })
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// # Errors
    ///
    /// IO/protocol failures, or [`ClientError::Disconnected`] when the
    /// server hangs up without answering.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let frame = request.to_frame();
        write_frame(&mut self.writer, frame.kind, &frame.payload).map_err(client_io)?;
        self.writer.flush()?;
        let reply = read_frame(&mut self.reader)?.ok_or(ClientError::Disconnected)?;
        Ok(Response::from_frame(&reply)?)
    }

    /// One query. The response may also be `Error` or `Overloaded`;
    /// callers decide how to handle those.
    ///
    /// # Errors
    ///
    /// Transport-level failures only (typed server rejections are
    /// `Ok(Response::...)`).
    pub fn query(&mut self, query: &[f32], params: QueryParams) -> Result<Response, ClientError> {
        let dim = u32::try_from(query.len()).unwrap_or(u32::MAX);
        self.roundtrip(&Request::Query(QueryRequest {
            params,
            dim,
            queries: query.to_vec(),
        }))
    }

    /// One batch of `count = queries.len() / dim` queries sharing
    /// `params`.
    ///
    /// # Errors
    ///
    /// Transport-level failures only.
    pub fn batch(
        &mut self,
        queries: &[f32],
        dim: u32,
        params: QueryParams,
    ) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Batch(QueryRequest {
            params,
            dim,
            queries: queries.to_vec(),
        }))
    }

    /// Liveness + index shape.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Unexpected`] when the server
    /// answers with anything but health info.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.roundtrip(&Request::Health)? {
            Response::Health(h) => Ok(h),
            _ => Err(ClientError::Unexpected("health")),
        }
    }

    /// The server's telemetry snapshot as JSON text.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Unexpected`] for a
    /// non-stats answer.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }
}

/// Collapses write-side protocol errors (which can only be IO here —
/// the payload was built by this crate) into [`ClientError`].
fn client_io(e: ProtoError) -> ClientError {
    match e {
        ProtoError::Io(io) => ClientError::Io(io),
        other => ClientError::Proto(other),
    }
}

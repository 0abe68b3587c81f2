//! The serving core: acceptor, per-connection protocol loops, and
//! run-to-completion request execution.
//!
//! Thread structure (all plain std threads, all joined on shutdown):
//!
//! ```text
//! acceptor ──spawns──▶ conn threads (one per client, protocol loop)
//!                         │  admit: in-flight count ≤ --queue, else shed
//!                         ▼
//!                      execute on this thread: a single query searches
//!                      inline, a batch frame fans out on the global pool
//!                         │
//!                         ▼
//!                      uncount, encode and write the reply
//! ```
//!
//! There is no batcher thread, no linger timer and no queue. A connection
//! thread decodes a frame, validates it, counts it as in flight and runs
//! it to completion itself: decode → search
//! → encode → write with no hand-off and no wake-up in between. Requests
//! of different connections run side by side on their own threads, and
//! the scheduler shares the cores among them; one request never waits for
//! another connection's search to end. Each query runs one
//! [`IvfadcIndex::search`] with the *remaining* deadline (arrival-to-now
//! counts against the budget).
//!
//! Admission is one atomic count of the requests admitted and not yet
//! answered: above `queue_capacity` a request is shed at once with a
//! typed `Overloaded` response, so latency under overload stays bounded.
//! The count drops before the reply is written, so a slow reader stalls
//! its own connection thread and holds no admission slot while it does.
//!
//! Shutdown (SIGTERM, ctrl-c, or [`ServerHandle::trigger_shutdown`]):
//! the acceptor stops admitting connections, new requests get a typed
//! shutting-down error, requests already admitted run to completion on
//! their own threads, connection threads exit at the next frame boundary,
//! and every thread is joined.

use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, HealthInfo, QueryAnswer, Request, Response,
};
use pqfs_fault::{FaultRead, FaultWrite};
use pqfs_ivf::{IvfadcIndex, SearchBackend, SearchRequest};
use pqfs_obs::{Counter, Gauge, Histogram};
use pqfs_pool::ThreadPool;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

static CONNECTIONS_TOTAL: Counter = Counter::new("pqfs_server_connections_total");
static CONNECTIONS_ACTIVE: Gauge = Gauge::new("pqfs_server_connections_active");
static REQ_QUERY: Counter = Counter::labeled("pqfs_server_requests_total", "type", "query");
static REQ_BATCH: Counter = Counter::labeled("pqfs_server_requests_total", "type", "batch");
static REQ_HEALTH: Counter = Counter::labeled("pqfs_server_requests_total", "type", "health");
static REQ_STATS: Counter = Counter::labeled("pqfs_server_requests_total", "type", "stats");
static SHED_TOTAL: Counter = Counter::new("pqfs_server_shed_total");
static PROTO_ERRORS: Counter = Counter::new("pqfs_server_protocol_errors_total");
static ACCEPT_ERRORS: Counter = Counter::new("pqfs_server_accept_errors_total");
static BATCHES_TOTAL: Counter = Counter::new("pqfs_server_batches_total");
static BATCH_QUERIES: Histogram = Histogram::new("pqfs_server_batch_queries");
static QUEUE_DEPTH_HWM: Gauge = Gauge::new("pqfs_server_queue_depth_hwm");
static QUEUE_WAIT_NS: Histogram = Histogram::new("pqfs_server_queue_wait_ns");
static EXECUTE_NS: Histogram = Histogram::new("pqfs_server_execute_ns");
static WRITE_NS: Histogram = Histogram::new("pqfs_server_write_ns");
static REQUEST_NS: Histogram = Histogram::new("pqfs_server_request_ns");

/// Connections currently open, mirrored into [`CONNECTIONS_ACTIVE`].
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Server tuning knobs. `Default` values suit tests and small fixtures;
/// the CLI exposes the interesting ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admission bound: the most query/batch requests (frames, not
    /// queries) admitted and not yet answered; more are shed.
    pub queue_capacity: usize,
}

/// Acceptor idle-poll interval (also the shutdown-latency bound for an
/// idle acceptor).
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Per-read socket timeout: idle connections poll the shutdown flag at
/// this cadence, and a peer that stalls mid-frame is dropped after this
/// long.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 256,
        }
    }
}

/// One admitted request: queries, the search parameters resolved and
/// validated at admission time, arrival time.
struct Job {
    dim: usize,
    queries: Vec<f32>,
    batch: bool,
    request: SearchRequest,
    arrival: Instant,
}

impl Job {
    fn count(&self) -> usize {
        self.queries.len().checked_div(self.dim).unwrap_or(0)
    }
}

/// Shared server state.
struct Shared {
    index: Arc<IvfadcIndex>,
    config: ServerConfig,
    /// Query/batch requests admitted and not yet answered.
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
    /// Each query runs its probes inline; parallelism comes from the
    /// connections and a batch frame's fan-out, not from nesting pools.
    inline: ThreadPool,
}

/// The server entry point; see the module docs for the thread structure.
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the acceptor thread, and returns a
    /// handle controlling the running server.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn start(index: Arc<IvfadcIndex>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            index,
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            inline: ThreadPool::new(1),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pqfs-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &shared))?
        };

        Ok(ServerHandle {
            local_addr,
            shared,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Controls a running server: address, shutdown trigger, join.
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Query/batch requests admitted and not yet answered (for stats and
    /// tests).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Begins graceful shutdown without blocking: stop admitting.
    /// Idempotent.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been triggered.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Triggers shutdown and joins every server thread: admitted requests
    /// are answered on the connection threads that own them, connections
    /// close at their next frame boundary.
    pub fn shutdown_and_join(&self) {
        self.trigger_shutdown();
        let acceptor = self
            .acceptor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = acceptor {
            // A panicked connection thread must not wedge shutdown.
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn is_wait(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap finished connection threads so the handle list
                // stays bounded by the live connection count.
                conns.retain_mut(|h| !h.is_finished());
                if let Err(_fault) = pqfs_fault::check("server.accept") {
                    ACCEPT_ERRORS.inc();
                    drop(stream);
                    continue;
                }
                let shared = Arc::clone(shared);
                match thread::Builder::new()
                    .name("pqfs-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    Ok(h) => conns.push(h),
                    Err(_spawn) => ACCEPT_ERRORS.inc(),
                }
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// RAII guard for the active-connection gauge.
struct ActiveGuard;

impl ActiveGuard {
    fn enter() -> ActiveGuard {
        CONNECTIONS_TOTAL.inc();
        let now = ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
        CONNECTIONS_ACTIVE.set(now as u64);
        ActiveGuard
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        let now = ACTIVE.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        CONNECTIONS_ACTIVE.set(now as u64);
    }
}

/// A connection's outgoing side: the socket and the frame buffer, reused
/// across responses.
struct ReplyWriter {
    socket: FaultWrite<TcpStream>,
    frame: Vec<u8>,
}

impl ReplyWriter {
    /// Encodes `response` and blocks until the peer has taken it. The
    /// request was uncounted before this, so a slow reader holds nothing
    /// another connection needs.
    fn send(&mut self, response: &Response) -> io::Result<()> {
        let frame = response.to_frame();
        self.frame.clear();
        write_frame(&mut self.frame, frame.kind, &frame.payload)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        self.socket.write_all(&self.frame)
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _active = ActiveGuard::enter();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(FaultRead::new(read_half, "server.conn.read"));
    let mut writer = ReplyWriter {
        socket: FaultWrite::new(stream, "server.conn.write"),
        frame: Vec::new(),
    };

    loop {
        // Between frames the buffer is empty unless the client pipelined,
        // so this is the one socket read that brings the next frame in,
        // and its timeout is where an *idle* connection notices shutdown.
        // Once a frame has started, reads time out per `READ_TIMEOUT` and
        // a stalled peer becomes a protocol error.
        match reader.fill_buf() {
            Ok([]) => return, // peer closed cleanly
            Ok(_) => {}
            Err(e) if is_wait(e.kind()) || e.kind() == ErrorKind::Interrupted => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // frame boundary: safe to close
                }
                continue;
            }
            Err(_) => return,
        }

        if pqfs_fault::check("server.proto.decode").is_err() {
            PROTO_ERRORS.inc();
            let _ = writer.send(&Response::Error {
                code: ErrorCode::BadFrame,
                message: "injected decode fault".to_string(),
            });
            return;
        }

        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                PROTO_ERRORS.inc();
                // Best effort: the stream cannot be resynchronized after
                // a framing error, so describe it and hang up.
                let _ = writer.send(&Response::Error {
                    code: ErrorCode::BadFrame,
                    message: e.to_string(),
                });
                return;
            }
        };
        let started = Instant::now();
        let (response, close) = handle_frame(&frame, shared);
        let answered = Instant::now();
        if writer.send(&response).is_err() {
            return;
        }
        let flushed = Instant::now();
        WRITE_NS.observe(flushed - answered);
        REQUEST_NS.observe(flushed - started);
        if close {
            return;
        }
    }
}

/// Decodes, validates, and executes one request frame. Returns its
/// response and whether the connection must close afterwards.
fn handle_frame(frame: &Frame, shared: &Shared) -> (Response, bool) {
    let request = match Request::from_frame(frame) {
        Ok(req) => req,
        Err(e) => {
            PROTO_ERRORS.inc();
            let code = ErrorCode::BadFrame;
            return (
                Response::Error {
                    code,
                    message: e.to_string(),
                },
                true,
            );
        }
    };
    let response = match request {
        Request::Health => {
            REQ_HEALTH.inc();
            let index = &shared.index;
            Response::Health(HealthInfo {
                vectors: index.len() as u64,
                partitions: index.num_partitions() as u32,
                dim: index.dim() as u32,
            })
        }
        Request::Stats => {
            REQ_STATS.inc();
            Response::Stats(pqfs_obs::global_json_snapshot())
        }
        Request::Query(req) => {
            REQ_QUERY.inc();
            submit(req, false, shared)
        }
        Request::Batch(req) => {
            REQ_BATCH.inc();
            submit(req, true, shared)
        }
    };
    (response, false)
}

/// Validates a query request against the loaded index and the server
/// defaults. Protocol-level range checks already ran in the codec.
fn resolve(
    req: &crate::proto::QueryRequest,
    shared: &Shared,
) -> Result<SearchRequest, (ErrorCode, String)> {
    let index = &shared.index;
    let dim = req.dim as usize;
    if dim != index.dim() {
        return Err((
            ErrorCode::BadRequest,
            format!("query dim {dim} does not match index dim {}", index.dim()),
        ));
    }
    if req.count() == 0 {
        return Err((ErrorCode::BadRequest, "empty query".to_string()));
    }
    // Refused here, not in the search: the message names the coordinate.
    if let Some(at) = req.queries.iter().position(|v| !v.is_finite()) {
        let (q, c, v) = (at / dim, at % dim, req.queries[at]);
        let message = format!("query {q} coordinate {c} is {v}, not a finite number");
        return Err((ErrorCode::BadRequest, message));
    }
    // An empty name is Fast Scan, the shipped default.
    let backend = if req.params.backend.is_empty() {
        SearchBackend::FastScan
    } else {
        req.params
            .backend
            .parse::<SearchBackend>()
            .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?
    };
    let keep =
        SearchRequest::valid_keep(req.params.keep).map_err(|e| (ErrorCode::BadRequest, e))?;
    Ok(SearchRequest {
        topk: req.params.topk as usize,
        nprobe: (req.params.nprobe as usize).min(index.num_partitions().max(1)),
        keep,
        backend,
        deadline: if req.params.deadline_us == 0 {
            None
        } else {
            Some(Duration::from_micros(req.params.deadline_us))
        },
    })
}

/// Admits one query/batch request and runs it to completion on this
/// thread. This is where overload turns into a typed shed response
/// instead of unbounded queueing.
fn submit(req: crate::proto::QueryRequest, batch: bool, shared: &Shared) -> Response {
    let request = match resolve(&req, shared) {
        Ok(r) => r,
        Err((code, message)) => return Response::Error { code, message },
    };
    let job = Job {
        dim: req.dim as usize,
        queries: req.queries,
        batch,
        request,
        arrival: Instant::now(),
    };
    match InFlight::admit(shared) {
        Ok(_in_flight) => execute(&job, shared),
        Err(refusal) => refusal,
    }
}

/// One request counted in [`Shared::in_flight`]; dropping it (also on
/// unwind) uncounts the request.
struct InFlight<'s>(&'s AtomicUsize);

impl<'s> InFlight<'s> {
    /// Counts a request in, or refuses it: `ShuttingDown` once shutdown
    /// has begun, `Overloaded` when `queue_capacity` requests are already
    /// in flight.
    fn admit(shared: &'s Shared) -> Result<Self, Response> {
        let depth = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let guard = InFlight(&shared.in_flight);
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining for shutdown".to_string(),
            });
        }
        let capacity = shared.config.queue_capacity.max(1);
        if depth > capacity {
            SHED_TOTAL.inc();
            return Err(Response::Overloaded {
                capacity: capacity as u32,
                depth: (depth - 1) as u32,
            });
        }
        QUEUE_DEPTH_HWM.record_max(depth as u64);
        Ok(guard)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Executes every query of one request on the calling thread: a single
/// query searches inline, a batch frame fans its queries out on the global
/// pool. Any failed query fails the whole request — partial batch answers
/// would be ambiguous on the wire.
fn execute(job: &Job, shared: &Shared) -> Response {
    let started = Instant::now();
    BATCHES_TOTAL.inc();
    BATCH_QUERIES.observe_ns(job.count() as u64);
    QUEUE_WAIT_NS.observe(started.saturating_duration_since(job.arrival));

    let search = |query: &[f32]| {
        // Time since arrival counts against the request deadline: what is
        // left of the budget is what the search may spend.
        let request = SearchRequest {
            deadline: job
                .request
                .deadline
                .map(|d| d.saturating_sub(job.arrival.elapsed())),
            ..job.request
        };
        shared
            .index
            .search(query, &request, &shared.inline, None)
            .map(|outcome| QueryAnswer {
                probes_ok: outcome.health.probes_ok as u32,
                probes_failed: outcome.health.probes_failed as u32,
                probes_skipped: outcome.health.probes_skipped as u32,
                neighbors: outcome.neighbors,
            })
            .map_err(|e| e.to_string())
    };
    let response = match pqfs_fault::check("server.batch.execute") {
        Err(e) => Err(e.to_string()),
        Ok(()) if job.batch => {
            let queries: Vec<&[f32]> = job.queries.chunks_exact(job.dim).collect();
            let answers = ThreadPool::global().parallel_map(&queries, |_, q| search(q));
            answers
                .into_iter()
                .collect::<Result<_, _>>()
                .map(Response::Batch)
        }
        Ok(()) => search(&job.queries).map(Response::Query),
    };
    EXECUTE_NS.observe(started.elapsed());
    response.unwrap_or_else(|message| Response::Error {
        code: ErrorCode::SearchFailed,
        message,
    })
}
